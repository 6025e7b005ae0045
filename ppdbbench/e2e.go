package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Repetitions inside one run: set-up and recovery are measured this many
// times per workload and reported as medians. provider-churn's set-up
// (100k providers) and replay (~7k records) are long and steady enough
// for fewer repeats; the short ones are repeated more.
var (
	setupRuns    = map[string]int{wlChurn: 3, wlScan: 5, wlOfficer: 7}
	recoveryRuns = map[string]int{wlChurn: 1, wlScan: 7, wlOfficer: 3}
)

// opResult is what one scheduled request produced.
type opResult struct {
	dur    time.Duration
	status int
	body   []byte
	err    error
}

func (r opResult) failed() bool { return r.err != nil || r.status/100 != 2 }

// runResult is one run's outcome before it is printed.
type runResult struct {
	attempted, failed int
	metrics           map[string]float64
	info              map[string]any
	notes             []string
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// runE2E is the untraced run: the server binary over loopback HTTP.
func runE2E(env *runEnv, s *schedule) (*runResult, error) {
	res := &runResult{metrics: map[string]float64{}, info: map[string]any{}}
	phases := map[string]float64{}
	res.info["phase_s"] = phases
	mark := time.Now()
	phase := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	corpus := filepath.Join(env.work, "corpus.dsl")
	if err := os.WriteFile(corpus, []byte(s.Corpus), 0o644); err != nil {
		return nil, err
	}

	// Set-up, several times; the last server carries the run.
	var srv *serverProc
	var shards int
	var setups []float64
	for i := 0; i < setupRuns[s.Workload]; i++ {
		dir := filepath.Join(env.work, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p := &serverProc{bin: env.serverBin, logPath: filepath.Join(dir, "server.log"),
			args: serverArgs(corpus, s.Cols, filepath.Join(dir, "wal"))}
		d, n, err := setup(p, s)
		if err != nil {
			p.kill()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns[s.Workload]-1 {
			p.kill()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		srv, shards = p, n
	}
	defer srv.kill()
	res.metrics["setup_s"] = median(setups)
	res.info["setup_s_samples"] = setups
	res.info["shards"] = shards
	phase("setup")

	// Warm-up, then the measured ops. The load generator's own garbage
	// collector is off meanwhile, so that it never competes with the
	// server for the CPUs; the little it allocates is reclaimed after.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	warm, _ := drive(srv.base, s.Warmup, s.Clients)
	results, wall := drive(srv.base, s.Ops, s.Clients)
	debug.SetGCPercent(gcPercent)
	phase("ops")
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.metrics["server_rss_mb"] = rss
	res.metrics["ops_per_s"] = float64(len(s.Ops)) / wall.Seconds()

	lat := make([]latencies, numOpKinds)
	for i, o := range s.Ops {
		lat[o.Kind].add(results[i].dur)
	}
	classes := map[string]classSummary{}
	for k := opKind(0); k < numOpKinds; k++ {
		if len(lat[k]) > 0 {
			classes[k.String()] = summarize(lat[k])
		}
	}
	res.info["classes"] = classes
	for _, m := range classMetrics[s.Workload] {
		res.metrics[m.name] = classes[m.class.String()].P50
	}

	// Every reply must be 2xx.
	all := append(append([]op(nil), s.Warmup...), s.Ops...)
	replies := append(append([]opResult(nil), warm...), results...)
	res.attempted = len(all)
	for i, r := range replies {
		if r.failed() {
			res.fail("op %d (%s %s): status %d err %v body %s", all[i].ID, all[i].Method, all[i].Path, r.status, r.err, tail(r.body, 300))
		}
	}

	// provider-churn's end-of-run summary, compared below against an
	// in-process rebuild from the acked ops.
	var summary []byte
	if s.Workload == wlChurn {
		res.attempted++
		st, body, err := call(newClient(), srv.base, "GET", "/v1/certify/summary?alpha=0.1", nil, true)
		if err != nil || st != http.StatusOK {
			res.fail("end-of-run summary: status %d err %v", st, err)
		}
		summary = body
	}

	if err := durabilityProbe(srv, s, all, replies, res); err != nil {
		return nil, err
	}
	srv.kill()
	phase("probe")

	if err := checkOracles(s, shards, all, replies, summary, res); err != nil {
		return nil, err
	}
	phase("oracle")
	return res, nil
}

// setup boots a server on a fresh WAL directory and bulk-loads the
// initial population (and, for analyst-scan, the rows). It returns the
// elapsed time from exec to the last load reply, and the server's shard
// count.
func setup(p *serverProc, s *schedule) (time.Duration, int, error) {
	c := newClient()
	start := time.Now()
	if err := p.start(); err != nil {
		return 0, 0, err
	}
	if err := p.waitReady(c); err != nil {
		return 0, 0, err
	}
	shards := 0
	for i, b := range s.Batches {
		st, body, err := call(c, p.base, "POST", "/v1/providers/batch", b, true)
		if err != nil || st != http.StatusOK {
			return 0, 0, fmt.Errorf("batch %d: status %d err %v body %s", i, st, err, tail(body, 300))
		}
		var out struct{ Shards int }
		if err := json.Unmarshal(body, &out); err != nil {
			return 0, 0, fmt.Errorf("batch %d reply: %w", i, err)
		}
		shards = out.Shards
	}
	if s.RowsCSV != nil {
		st, body, err := call(c, p.base, "POST", "/v1/load?table=records", s.RowsCSV, true)
		if err != nil || st != http.StatusOK {
			return 0, 0, fmt.Errorf("row load: status %d err %v body %s", st, err, tail(body, 300))
		}
	}
	return time.Since(start), shards, nil
}

// drive runs ops in a closed loop, one goroutine per client, each waiting
// for its reply before sending its next op. It returns each op's result
// (in ops order) and the wall time from the first send to the last reply.
func drive(base string, ops []op, clients int) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	per := make([][]int, clients)
	for i, o := range ops {
		per[o.Client] = append(per[o.Client], i)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			cl := newClient()
			for _, i := range idx {
				o := &ops[i]
				t0 := time.Now()
				st, body, err := call(cl, base, o.Method, o.Path, o.Body, o.Check)
				results[i] = opResult{dur: time.Since(t0), status: st, body: body, err: err}
			}
			cl.CloseIdleConnections()
		}(per[c])
	}
	wg.Wait()
	return results, time.Since(start)
}

// acked is what the server acknowledged: every provider key it holds and,
// for each provider an acked op re-registered, that registration's
// threshold (unique per registration, so it identifies the version).
type acked struct {
	keys    map[string]bool
	touched map[string]float64
}

func ackedState(s *schedule, ops []op, replies []opResult) acked {
	a := acked{keys: make(map[string]bool, len(s.Population)), touched: map[string]float64{}}
	for _, p := range s.Population {
		a.keys[canon(p.Provider)] = true
	}
	for i, o := range ops {
		if o.Kind == opIngest && !replies[i].failed() {
			a.keys[canon(o.Provider)] = true
			a.touched[canon(o.Provider)] = o.Prefs.Threshold
		}
	}
	return a
}

// durabilityProbe kills the server with SIGKILL, restarts it on the same
// WAL directory and counts the acknowledged provider registrations and
// row loads that did not survive. A lost provider registration is a
// failure (a 2xx from a mutating route promises durability); lost rows
// are the documented snapshot-only defect and are reported, not failed.
func durabilityProbe(srv *serverProc, s *schedule, ops []op, replies []opResult, res *runResult) error {
	var recov []float64
	for i := 0; i < recoveryRuns[s.Workload]; i++ {
		t0 := time.Now()
		srv.kill()
		if err := srv.start(); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if err := srv.waitReady(newClient()); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		recov = append(recov, time.Since(t0).Seconds())
		if i > 0 {
			continue
		}
		res.attempted++
		lostProviders, lostRows, err := countLost(srv, s, ackedState(s, ops, replies))
		if err != nil {
			res.fail("durability probe: %v", err)
			continue
		}
		if lostProviders > 0 {
			res.fail("durability probe: %d acknowledged provider registrations lost after kill -9", lostProviders)
		}
		res.info["acked_lost"] = lostProviders + lostRows
		res.info["acked_lost_providers"] = lostProviders
		res.info["acked_lost_rows"] = lostRows
	}
	res.metrics["recovery_s"] = median(recov)
	res.info["recovery_s_samples"] = recov
	return nil
}

// countLost compares the restarted server's state with what was acked:
// every re-registered provider's self-audit must carry its last acked
// threshold, and the provider count must cover the rest (the bulk-loaded
// providers no op touched can only be lost whole, with their batch).
func countLost(srv *serverProc, s *schedule, want acked) (providers, rows int, err error) {
	c := newClient()
	keys := make([]string, 0, len(want.touched))
	for k := range want.touched {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	missing := 0
	for _, k := range keys {
		st, body, err := call(c, srv.base, "GET", "/v1/self/audit?provider="+url.QueryEscape(k), nil, true)
		if err != nil {
			return 0, 0, err
		}
		if st == http.StatusNotFound {
			missing++
			providers++
			continue
		}
		var rep struct{ Threshold float64 }
		if st != http.StatusOK || json.Unmarshal(body, &rep) != nil {
			return 0, 0, fmt.Errorf("self-audit of %s after restart: status %d", k, st)
		}
		if math.Float64bits(rep.Threshold) != math.Float64bits(want.touched[k]) {
			providers++
		}
	}
	st, body, err := call(c, srv.base, "GET", "/v1/providers?limit=0", nil, true)
	if err != nil || st != http.StatusOK {
		return 0, 0, fmt.Errorf("provider count after restart: status %d err %v", st, err)
	}
	var page struct{ Total int }
	if err := json.Unmarshal(body, &page); err != nil {
		return 0, 0, err
	}
	providers += max(0, len(want.keys)-page.Total-missing)
	if s.Rows > 0 {
		q, err := json.Marshal(map[string]any{"requester": "probe", "purpose": queryPurpose,
			"visibility": queryVisibility, "sql": "SELECT weight FROM records"})
		if err != nil {
			return 0, 0, err
		}
		st, body, err := call(c, srv.base, "POST", "/v1/query", q, true)
		if err != nil || st != http.StatusOK {
			return 0, 0, fmt.Errorf("row count after restart: status %d err %v", st, err)
		}
		var out struct{ Stats struct{ RowsScanned int } }
		if err := json.Unmarshal(body, &out); err != nil {
			return 0, 0, err
		}
		rows = s.Rows - out.Stats.RowsScanned
	}
	return providers, rows, nil
}
