// Command ppdbbench is the repository benchmark. It runs the ppdbserver
// binary built from the checkout under test over loopback HTTP, in a
// closed loop, on one of three workloads, and prints one JSON result line.
// With --trace 1 it instead runs the same schedule in-process and reports
// per-layer metrics. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash ppdbbench/run.sh --workload provider-churn --seed 1 --seconds 10 --trace 0
//	bash ppdbbench/run.sh --selfcheck --runs 10 --seconds 10
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runEnv is where a run reads and writes: the checkout root, the server
// binary and a private work directory under .bench_build.
type runEnv struct {
	root      string
	serverBin string
	work      string
}

// classMetric maps an end-to-end p50 metric to the op class it reports on
// one workload.
type classMetric struct {
	name  string
	class opKind
}

// classMetrics: every workload reports the p50 of its main and of its
// auxiliary op class, so every workload emits every end-to-end metric.
// The other classes' p50s and tails are in the stamp line.
var classMetrics = map[string][]classMetric{
	wlChurn:   {{"main_p50_ms", opIngest}, {"aux_p50_ms", opSelfAudit}},
	wlScan:    {{"main_p50_ms", opScan}, {"aux_p50_ms", opPoint}},
	wlOfficer: {{"main_p50_ms", opWhatIfFull}, {"aux_p50_ms", opWhatIfNarrow}},
}

// metricUnits is the unit of every metric the benchmark emits, end-to-end
// and per-layer; BENCHMARK.json lists the same names (a unit test pins it).
func metricUnits(trace bool) map[string]string {
	if !trace {
		return map[string]string{
			"setup_s": "s", "ops_per_s": "1/s", "server_rss_mb": "MB", "recovery_s": "s",
			"main_p50_ms": "ms", "aux_p50_ms": "ms",
		}
	}
	return layerUnits
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ppdbbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed for the whole schedule")
	seconds := fs.Int("seconds", 10, "sizes the fixed op count of a run (ops = measured throughput × seconds)")
	trace := fs.Int("trace", 0, "1 = in-process traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository checkout root")
	serverBin := fs.String("server", "", "ppdbserver binary built from the checkout")
	selfcheck := fs.Bool("selfcheck", false, "run each workload --runs times in two sets and print the spread of every end-to-end metric")
	runs := fs.Int("runs", 10, "selfcheck: runs per workload in each of the two sets")
	firstSeed := fs.Uint64("first-seed", 1, "selfcheck: seed of the first run; later runs add 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 2
	}
	if *selfcheck {
		return runSelfcheck(absRoot, *runs, *seconds, *firstSeed)
	}
	if *serverBin == "" {
		fmt.Fprintln(os.Stderr, "ppdbbench: --server is required (run through ppdbbench/run.sh)")
		return 2
	}
	start := time.Now()
	s, err := buildSchedule(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 2
	}
	scheduleS := time.Since(start).Seconds()
	work := filepath.Join(absRoot, ".bench_build", "ppdbbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 1
	}
	defer func() {
		if err := os.RemoveAll(work); err != nil {
			fmt.Fprintln(os.Stderr, "ppdbbench: removing the run directory:", err)
		}
	}()
	env := &runEnv{root: absRoot, serverBin: *serverBin, work: work}

	var res *runResult
	if *trace == 1 {
		res, err = runTraced(env, s)
	} else {
		res, err = runE2E(env, s)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 1
	}
	res.info["run_s"] = time.Since(start).Seconds()
	res.info["schedule_s"] = scheduleS
	return emit(os.Stdout, env, s, res, *trace == 1)
}

// emit prints the stamp line and the result line (last line of stdout).
func emit(w *os.File, env *runEnv, s *schedule, res *runResult, trace bool) int {
	units := metricUnits(trace)
	out := map[string]map[string]any{}
	for name, unit := range units {
		v, ok := res.metrics[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "ppdbbench: metric %s was not measured\n", name)
			return 1
		}
		out[name] = map[string]any{"value": v, "unit": unit}
	}
	for name := range res.metrics {
		if _, ok := units[name]; !ok {
			fmt.Fprintf(os.Stderr, "ppdbbench: metric %s is not declared\n", name)
			return 1
		}
	}
	counts := map[string]int{}
	for k, n := range s.counts() {
		if n > 0 {
			counts[opKind(k).String()] = n
		}
	}
	stamp := map[string]any{
		"workload":    s.Workload,
		"seed":        s.Seed,
		"trace":       trace,
		"schedule":    s.digest()[:16],
		"ops":         len(s.Ops),
		"warmup_ops":  len(s.Warmup),
		"op_counts":   counts,
		"clients":     s.Clients,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      sourceStamp(env.root),
		"server_args": serverArgs("corpus.dsl", s.Cols, "wal"),
		"flush":       "group commit: fsync every 2ms tick or 64 pending records (server defaults)",
		"notes":       res.notes,
	}
	for k, v := range res.info {
		stamp[k] = v
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "# stamp ")
	if err := enc.Encode(stamp); err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 1
	}
	result := map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	}
	if err := enc.Encode(result); err != nil {
		fmt.Fprintln(os.Stderr, "ppdbbench:", err)
		return 1
	}
	return 0
}

// sourceStamp identifies the code under test: the git commit when the
// checkout is a repository, else a hash of the Go sources.
func sourceStamp(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err == nil {
		ref := strings.TrimSpace(strings.TrimPrefix(string(head), "ref: "))
		if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return ref
	}
	return "tree:" + treeHash(root)
}

func treeHash(root string) string {
	var files []string
	//lint:ignore errflow an unreadable file only drops out of the stamp
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, err := filepath.Rel(root, f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		//lint:ignore errflow hash.Hash.Write never returns an error
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
