package ledger

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis/floatutil"
	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/privacy"
)

// testAssessor builds an assessor over two attributes plus a generator for
// randomized provider populations.
func testAssessor(t testing.TB, seed uint64, level privacy.Level) (*core.Assessor, *population.Generator) {
	t.Helper()
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{"service"}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{"service"}},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	hp := privacy.NewHousePolicy(fmt.Sprintf("test-l%d", level))
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	a, err := core.NewAssessor(hp, gen.AttributeSensitivities(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, gen
}

// sortedPop returns the population sorted the way the ledger keys it.
func sortedPop(pop []*privacy.Prefs) []*privacy.Prefs {
	out := append([]*privacy.Prefs(nil), pop...)
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

func TestNewNilAssessor(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Fatal("nil assessor should be rejected")
	}
}

// TestSnapshotMatchesFullAssessment pins the materialized view to the
// direct AssessPopulation result over the same sorted population,
// including the bit-exact float total.
func TestSnapshotMatchesFullAssessment(t *testing.T) {
	a, gen := testAssessor(t, 7, 2)
	pop := population.PrefsOf(gen.Generate(137))
	l, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pop {
		l.UpsertCompiled(p.Provider, p, nil, uint64(i+1))
	}
	want := a.AssessPopulation(sortedPop(pop))
	got := l.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot diverges from full assessment:\ngot  %+v\nwant %+v", got, want)
	}
	sum := l.Summary()
	if sum.N != want.N || sum.ViolatedCount != want.ViolatedCount || sum.DefaultCount != want.DefaultCount {
		t.Errorf("summary counts = %+v, want %+v", sum, want)
	}
	if !floatutil.Eq(sum.PW, want.PW) || !floatutil.Eq(sum.PDefault, want.PDefault) {
		t.Errorf("summary probabilities = %g/%g, want %g/%g", sum.PW, sum.PDefault, want.PW, want.PDefault)
	}
	if !floatutil.Eq(sum.TotalViolations, want.TotalViolations) {
		t.Errorf("summary total = %g, want %g", sum.TotalViolations, want.TotalViolations)
	}
}

// TestUpsertRemoveMaintainsAggregates applies edits and removals and checks
// the running aggregates stay consistent with a fresh recompute.
func TestUpsertRemoveMaintainsAggregates(t *testing.T) {
	a, gen := testAssessor(t, 11, 2)
	pop := population.PrefsOf(gen.Generate(60))
	l, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	version := uint64(0)
	for _, p := range pop {
		version++
		l.UpsertCompiled(p.Provider, p, nil, version)
	}

	// Edit a third of the population with fresh tuples (new generator seed,
	// same provider names), remove every tenth provider.
	_, gen2 := testAssessor(t, 999, 2)
	edited := population.PrefsOf(gen2.Generate(60))
	live := map[string]*privacy.Prefs{}
	for _, p := range pop {
		live[p.Provider] = p
	}
	for i, p := range edited {
		if i%3 == 0 {
			version++
			l.UpsertCompiled(p.Provider, p, nil, version)
			live[p.Provider] = p
		}
	}
	for i, p := range pop {
		if i%10 == 0 {
			if !l.Remove(p.Provider) {
				t.Fatalf("remove %q reported absent", p.Provider)
			}
			delete(live, p.Provider)
		}
	}
	if l.Remove("no-such-provider") {
		t.Error("removing an absent provider should report false")
	}

	var rest []*privacy.Prefs
	for _, p := range live {
		rest = append(rest, p)
	}
	want := a.AssessPopulation(sortedPop(rest))
	got := l.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after edits+removals snapshot diverges:\ngot  N=%d PW=%g total=%g\nwant N=%d PW=%g total=%g",
			got.N, got.PW, got.TotalViolations, want.N, want.PW, want.TotalViolations)
	}
	sum := l.Summary()
	if sum.N != want.N || sum.ViolatedCount != want.ViolatedCount || sum.DefaultCount != want.DefaultCount {
		t.Errorf("summary counts = %+v, want counts from %+v", sum, want)
	}
	if !floatutil.Eq(sum.TotalViolations, want.TotalViolations) {
		t.Errorf("running total = %g, want ≈ %g", sum.TotalViolations, want.TotalViolations)
	}
}

// TestUpsertMemoizes proves a matching (policy version, prefs version) pair
// short-circuits re-assessment: re-upserting different preferences under an
// unchanged version returns the cached row.
func TestUpsertMemoizes(t *testing.T) {
	a, _ := testAssessor(t, 3, 2)
	l, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	loud := privacy.NewPrefs("ada", 0.5)
	loud.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 0, Granularity: 0, Retention: 0})
	loud.Add("income", privacy.Tuple{Purpose: "service", Visibility: 0, Granularity: 0, Retention: 0})
	quiet := privacy.NewPrefs("ada", 0.5)
	quiet.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 4, Retention: 4})
	quiet.Add("income", privacy.Tuple{Purpose: "service", Visibility: 4, Granularity: 4, Retention: 4})

	first := l.UpsertCompiled("ada", loud, nil, 1)
	if !first.Violated {
		t.Fatal("zero-tuple prefs under a level-2 policy must be violated")
	}
	cached := l.UpsertCompiled("ada", quiet, nil, 1) // same version: must NOT re-assess
	if !reflect.DeepEqual(cached, first) {
		t.Error("matching versions should return the memoized report")
	}
	fresh := l.UpsertCompiled("ada", quiet, nil, 2) // bumped version: must re-assess
	if fresh.Violated {
		t.Error("version bump should have recomputed against the new prefs")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
}

// TestRebuildSwapsPolicy cold-rebuilds against a wider policy and checks
// the rows and aggregates all moved to the new assessment.
func TestRebuildSwapsPolicy(t *testing.T) {
	a1, gen := testAssessor(t, 19, 1)
	pop := population.PrefsOf(gen.Generate(80))
	l, err := New(a1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pop {
		l.UpsertCompiled(p.Provider, p, nil, uint64(i+1))
	}
	a2, _ := testAssessor(t, 19, 4) // maximally wide: strictly more violations
	l.RebuildCompiled(a2, 2, nil)
	if v := l.Summary().PolicyVersion; v != 2 {
		t.Errorf("policy version = %d, want 2", v)
	}
	want := a2.AssessPopulation(sortedPop(pop))
	got := l.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rebuild diverges: got PW=%g total=%g, want PW=%g total=%g",
			got.PW, got.TotalViolations, want.PW, want.TotalViolations)
	}
	if rep, ok := l.Report(pop[0].Provider); !ok || !reflect.DeepEqual(rep, want.Providers[indexOf(want, pop[0].Provider)]) {
		t.Error("per-provider row not rebuilt")
	}
}

func indexOf(rep core.PopulationReport, provider string) int {
	for i := range rep.Providers {
		if rep.Providers[i].Provider == provider {
			return i
		}
	}
	return -1
}

// TestUpsertBatchMatchesSequential pins the worker-pool batch path to the
// serial path.
func TestUpsertBatchMatchesSequential(t *testing.T) {
	a, gen := testAssessor(t, 23, 2)
	pop := population.PrefsOf(gen.Generate(150))
	serial, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(pop))
	for i, p := range pop {
		serial.UpsertCompiled(p.Provider, p, nil, uint64(i+1))
		items[i] = Item{Key: p.Provider, Prefs: p, Version: uint64(i + 1)}
	}
	batch.UpsertBatch(items)
	if !reflect.DeepEqual(batch.Snapshot(), serial.Snapshot()) {
		t.Error("batch and serial upserts disagree")
	}
}

// TestWouldDefaultSorted checks the snapshot lists the defaulting
// providers in sorted key order.
func TestWouldDefaultSorted(t *testing.T) {
	a, _ := testAssessor(t, 5, 4)
	l, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zoe", "ada", "mel"} {
		p := privacy.NewPrefs(name, 0) // any positive violation defaults
		p.Add("weight", privacy.Tuple{Purpose: "service", Visibility: 0, Granularity: 0, Retention: 0})
		l.UpsertCompiled(name, p, nil, 1)
	}
	var got []string
	for _, pr := range l.Snapshot().Providers {
		if pr.Defaults {
			got = append(got, pr.Provider)
		}
	}
	want := []string{"ada", "mel", "zoe"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("defaulting providers = %v, want %v", got, want)
	}
}

// TestReportMiss covers the absent-provider read.
func TestReportMiss(t *testing.T) {
	a, _ := testAssessor(t, 2, 2)
	l, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Report("ghost"); ok {
		t.Error("absent provider should miss")
	}
	if s := l.Summary(); s.N != 0 || !floatutil.Zero(s.PW) {
		t.Errorf("empty summary = %+v", s)
	}
}
