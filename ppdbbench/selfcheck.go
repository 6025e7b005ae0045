package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runLine is one run's parsed output.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	stamp map[string]any
}

// selfcheckSets is the number of independent sets of runs the self-check
// compares.
const selfcheckSets = 2

// runSelfcheck runs every workload `runs` times back to back, in
// selfcheckSets independent sets with distinct seeds, and prints for each
// end-to-end metric the median, the quartiles (as Python's
// statistics.quantiles gives them), the quartile spread and (max−min) as
// shares of the median. It flags every metric whose quartile spread exceeds
// its bound, and every metric whose second-set median differs from the
// first-set median by more than its bound. It exits 1 when anything is
// flagged or any run was incorrect.
func runSelfcheck(root string, runs, seconds int, firstSeed uint64) int {
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 2
	}
	server := filepath.Join(filepath.Dir(self), "ppdbserver")
	flagged := 0
	for _, wl := range workloadNames {
		// values[set][metric] → one value per run.
		values := make([]map[string][]float64, selfcheckSets)
		for set := range values {
			values[set] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				seed := firstSeed + uint64(set*runs+r)
				cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
					"--trace", "0", "--root", root, "--server", server)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				line, perr := parseRun(out)
				if err != nil || perr != nil {
					fmt.Printf("%s set %d seed %d: run failed: %v %v\n", wl, set+1, seed, err, perr)
					flagged++
					continue
				}
				if !line.Correct || line.Failed > 0 {
					fmt.Printf("%s set %d seed %d: correct=%v failed=%d/%d notes=%v\n", wl, set+1, seed,
						line.Correct, line.Failed, line.Attempted, line.stamp["notes"])
					flagged++
				}
				fmt.Printf("%s set %d seed %d: acked_lost=%v run_s=%.1f", wl, set+1, seed, line.stamp["acked_lost"], line.stamp["run_s"])
				for _, m := range spec.EndToEnd {
					if v, ok := line.Metrics[m.Name]; ok {
						values[set][m.Name] = append(values[set][m.Name], v.Value)
						fmt.Printf(" %s=%.6g", m.Name, v.Value)
					}
				}
				fmt.Println()
			}
		}
		flagged += printSpread(wl, spec.EndToEnd, values)
	}
	if flagged > 0 {
		fmt.Printf("selfcheck: %d flag(s)\n", flagged)
		return 1
	}
	fmt.Println("selfcheck: every spread and every median drift is within its bound")
	return 0
}

func parseRun(out []byte) (*runLine, error) {
	var line runLine
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		t := sc.Bytes()
		if rest, ok := bytes.CutPrefix(t, []byte("# stamp ")); ok {
			if err := json.Unmarshal(rest, &line.stamp); err != nil {
				return nil, err
			}
		}
		if len(bytes.TrimSpace(t)) > 0 {
			last = append(last[:0], t...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &line, nil
}

// printSpread prints one workload's table and returns the number of flags.
func printSpread(wl string, specs []metricSpec, values []map[string][]float64) int {
	flags := 0
	fmt.Printf("\n== %s ==\n", wl)
	fmt.Printf("%-38s %4s %12s %12s %12s %9s %9s %7s  %s\n", "metric", "set", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "flag")
	for _, m := range specs {
		var firstMed float64
		for set, vals := range values {
			v := vals[m.Name]
			if len(v) == 0 {
				continue
			}
			q1, med, q3 := quartiles(v)
			if len(v) < 2 {
				med = v[0]
			}
			s := sortedCopy(v)
			iqr, rng := ratio(q3-q1, med), ratio(s[len(s)-1]-s[0], med)
			flag := ""
			if iqr > m.Bound {
				flag = "SPREAD>BOUND"
				flags++
			} else if iqr > m.Bound/3 {
				flag = "spread>bound/3"
			}
			if set == 0 {
				firstMed = med
			} else if drift(firstMed, med) > m.Bound {
				flag = strings.TrimSpace(flag + " MEDIAN-DRIFT>BOUND")
				flags++
			}
			fmt.Printf("%-38s %4d %12.6g %12.6g %12.6g %9.4f %9.4f %7.3g  %s\n", m.Name, set+1, med, q1, q3, iqr, rng, m.Bound, flag)
		}
	}
	return flags
}

// drift is how far b is from a, in either direction, as a share of a.
func drift(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	return math.Abs(b-a) / a
}
