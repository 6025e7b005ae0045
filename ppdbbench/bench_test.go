package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	rtmetrics "runtime/metrics"
	"sort"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := buildSchedule(wl, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSchedule(wl, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different schedules", wl)
		}
		c, err := buildSchedule(wl, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", wl)
		}
		if len(a.Ops) == 0 || len(a.Warmup) == 0 {
			t.Errorf("%s: empty schedule", wl)
		}
	}
}

// Every seed deals the same count of each class, so every run of one size
// does the same work.
func TestClassCountsDoNotDependOnTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, err := buildSchedule(wl, 7, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSchedule(wl, 8, 10)
		if err != nil {
			t.Fatal(err)
		}
		if a.counts() != b.counts() {
			t.Errorf("%s: seeds 7 and 8 dealt %v and %v", wl, a.counts(), b.counts())
		}
	}
}

// The digest must cover every byte sent, so that equal digests do mean
// byte-identical runs.
func TestDigestCoversEveryRequestBody(t *testing.T) {
	s, err := buildSchedule(wlScan, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := s.digest()
	s.Ops[len(s.Ops)-1].Body = append(append([]byte(nil), s.Ops[len(s.Ops)-1].Body...), ' ')
	if s.digest() == before {
		t.Error("changing one request body left the digest unchanged")
	}
}

func TestEveryReportedClassHasEnoughSamples(t *testing.T) {
	for _, wl := range workloadNames {
		s, err := buildSchedule(wl, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := s.counts()
		for _, m := range classMetrics[wl] {
			if n[m.class] < minClassSamples {
				t.Errorf("%s: %s reports %s on %d samples, want >= %d", wl, m.name, m.class, n[m.class], minClassSamples)
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int // per-mille; 0 = no tail
	}{
		{0, 0}, {1, 0}, {10, 0}, {99, 0},
		{100, 900}, {101, 900}, {999, 900},
		{1000, 990}, {1001, 990}, {9999, 990},
		{10000, 999}, {1000000, 999},
	} {
		got, ok := tailPermille(tc.n)
		if !ok {
			got = 0
		}
		if got != tc.want {
			t.Errorf("n=%d: tail %d, want %d", tc.n, got, tc.want)
		}
		if ok && tc.n-rankOf(tc.n, got) < minBeyond {
			t.Errorf("n=%d: fewer than %d samples beyond p%d", tc.n, minBeyond, got)
		}
	}
}

func TestPercentileAndSummary(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	s := summarize(l)
	if s.N != 100 || s.P50 != 50 || s.TailName != "p90" || s.Tail != 90 {
		t.Errorf("summary %+v, want n=100 p50=50 p90=90", s)
	}
	if got := summarize(l[:99]); got.TailName != "" {
		t.Errorf("99 samples reported a tail: %+v", got)
	}
	if got := percentile([]float64{5}, 990); got != 5 {
		t.Errorf("single-sample p99 = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 4, 4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
				break
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10 * ms},      // root: 10
		{ID: 1, Parent: 0, Start: 10 * ms, End: 13 * ms}, // child: 3
		{ID: 2, Parent: 0, Start: 13 * ms, End: 15 * ms}, // child: 2
		{ID: 3, Parent: 1, Start: 15 * ms, End: 16 * ms}, // grandchild: 1
		{ID: 4, Parent: -1, Start: 16 * ms, End: 20 * ms, Aside: true},
		{ID: 5, Parent: -1, Start: 20 * ms, End: 21 * ms}, // root: 1
		{ID: 6, Parent: 5, Start: 21 * ms, End: 23 * ms},  // replayed child longer than its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{5, 2, 2, 1, 4, -1, 2}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("span %d: self %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
	var sum time.Duration
	for i, s := range spans {
		if !s.Aside {
			sum += got[i]
		}
	}
	if roots := spans[0].dur() + spans[5].dur(); sum != roots {
		t.Errorf("self times sum to %v, want the roots' %v", sum, roots)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for name, unit := range metricUnits(trace) {
			if !nameRE.MatchString(name) || len(name) > 64 {
				t.Errorf("metric name %q is not a valid name", name)
			}
			if !unitRE.MatchString(unit) {
				t.Errorf("metric %s: unit %q is not a valid unit", name, unit)
			}
		}
	}
	for wl, ms := range classMetrics {
		for _, m := range ms {
			if _, ok := metricUnits(false)[m.name]; !ok {
				t.Errorf("%s: class metric %s is not an end-to-end metric", wl, m.name)
			}
		}
	}
}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesTheRunner(t *testing.T) {
	spec := loadRepoSpec(t)
	for _, tc := range []struct {
		trace bool
		specs []metricSpec
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		units := metricUnits(tc.trace)
		seen := map[string]bool{}
		for _, m := range tc.specs {
			if seen[m.Name] {
				t.Errorf("%s listed twice", m.Name)
			}
			seen[m.Name] = true
			if u, ok := units[m.Name]; !ok {
				t.Errorf("BENCHMARK.json lists %s, which the runner does not emit (trace=%v)", m.Name, tc.trace)
			} else if u != m.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q emitted", m.Name, m.Unit, u)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if !tc.trace && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("the runner emits %s, which BENCHMARK.json does not list (trace=%v)", name, tc.trace)
			}
		}
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(wls)
	sort.Strings(want)
	if !equalStrings(wls, want) {
		t.Errorf("BENCHMARK.json workloads %v, runner %v", wls, want)
	}
	if len(spec.EndToEnd) == 0 || spec.EndToEnd[0].Name == "" {
		t.Fatal("no end-to-end metrics")
	}
	found := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			found = true
		}
	}
	if !found {
		t.Error("setup_s (s, lower) missing from end_to_end")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// emit's last line carries exactly the declared metrics.
func TestEmitWritesExactlyTheDeclaredMetrics(t *testing.T) {
	s, err := buildSchedule(wlOfficer, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		res := &runResult{attempted: 3, metrics: map[string]float64{}, info: map[string]any{}}
		for name := range metricUnits(trace) {
			res.metrics[name] = 1.5
		}
		f, err := os.Create(filepath.Join(t.TempDir(), "out"))
		if err != nil {
			t.Fatal(err)
		}
		if code := emit(f, &runEnv{root: t.TempDir()}, s, res, trace); code != 0 {
			t.Fatalf("emit exit %d", code)
		}
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		line, err := parseRun(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted != 3 || line.Failed != 0 {
			t.Errorf("result %+v", line)
		}
		if len(line.Metrics) != len(metricUnits(trace)) {
			t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(line.Metrics), len(metricUnits(trace)))
		}
		var raw map[string]json.RawMessage
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &raw); err != nil {
			t.Fatal(err)
		}
		if len(raw) != 4 {
			t.Errorf("result line has keys %v, want correct/attempted/failed/metrics", raw)
		}
		// An undeclared metric is refused.
		res.metrics["bogus"] = 1
		if code := emit(f, &runEnv{root: t.TempDir()}, s, res, trace); code == 0 {
			t.Error("emit accepted an undeclared metric")
		}
	}
}

func TestOfficerNarrowDiffAvoidsGlobalFallback(t *testing.T) {
	s, err := buildSchedule(wlOfficer, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := buildTwin(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range s.Ops {
		if o.Kind != opWhatIfNarrow && o.Kind != opWhatIfFull {
			continue
		}
		req := *o.WhatIf
		resp, err := twin.WhatIf(&req)
		if err != nil {
			t.Fatal(err)
		}
		if o.Kind == opWhatIfNarrow && (resp.GlobalFallback || float64(resp.MemoReused) < 0.9*float64(resp.Current.N)) {
			t.Fatalf("narrow diff: fallback=%v reused %d of %d", resp.GlobalFallback, resp.MemoReused, resp.Current.N)
		}
		if o.Kind == opWhatIfFull && resp.Affected != resp.Current.N {
			t.Fatalf("full diff re-assessed %d of %d", resp.Affected, resp.Current.N)
		}
	}
}

func TestPauseP99Interpolates(t *testing.T) {
	buckets := []float64{math.Inf(-1), 0, 10e-6, 20e-6, math.Inf(1)}
	a := &rtmetrics.Float64Histogram{Buckets: buckets, Counts: []uint64{0, 0, 0, 0}}
	// 100 pauses: 90 in [0,10µs), 10 in [10µs,20µs). The 99th falls on
	// the 9th of the 10 in the second bucket.
	b := &rtmetrics.Float64Histogram{Buckets: buckets, Counts: []uint64{0, 90, 10, 0}}
	if got := pauseP99(a, b); math.Abs(got-19) > 1e-9 {
		t.Errorf("p99 = %v µs, want 19", got)
	}
	if got := pauseP99(b, b); got != 0 {
		t.Errorf("no pauses: p99 = %v, want 0", got)
	}
}
