package ledger

import (
	"testing"

	"repro/internal/population"
)

// TestMetricsCounters pins the instrumentation to the memoization
// semantics: a repeated Upsert with an unchanged version is a hit, a
// version bump is a miss plus a delta apply, a batch counts one miss per
// item, and a policy swap counts one rebuild. Counters live in the shared
// default registry, so the test asserts deltas, not absolutes.
func TestMetricsCounters(t *testing.T) {
	a, gen := testAssessor(t, 11, 2)
	pop := population.PrefsOf(gen.Generate(10))
	l, err := New(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := mMemoHits.Value(), mMemoMisses.Value()
	applies0, rebuilds0 := mDeltaApplies.Value(), mRebuilds.Value()

	for i, p := range pop {
		l.UpsertCompiled(p.Provider, p, nil, uint64(i+1))
	}
	if got := mMemoMisses.Value() - misses0; got != 10 {
		t.Errorf("first-time upserts: misses moved %d, want 10", got)
	}
	if got := mDeltaApplies.Value() - applies0; got != 10 {
		t.Errorf("first-time upserts: delta applies moved %d, want 10", got)
	}

	// Same versions again: pure memo hits, no new applies.
	for i, p := range pop {
		l.UpsertCompiled(p.Provider, p, nil, uint64(i+1))
	}
	if got := mMemoHits.Value() - hits0; got != 10 {
		t.Errorf("repeat upserts: hits moved %d, want 10", got)
	}
	if got := mDeltaApplies.Value() - applies0; got != 10 {
		t.Errorf("repeat upserts grew delta applies to %d, want 10", got)
	}

	// A version bump is a miss + apply.
	l.UpsertCompiled(pop[0].Provider, pop[0], nil, 99)
	if got := mMemoMisses.Value() - misses0; got != 11 {
		t.Errorf("version bump: misses moved %d, want 11", got)
	}

	// A batch counts one miss per item; a rebuild counts once.
	batch := make([]Item, 0, len(pop))
	for i, p := range pop {
		batch = append(batch, Item{Key: p.Provider, Prefs: p, Version: uint64(100 + i)})
	}
	l.UpsertBatch(batch)
	if got := mMemoMisses.Value() - misses0; got != 21 {
		t.Errorf("batch: misses moved %d, want 21", got)
	}
	a2, _ := testAssessor(t, 11, 1)
	l.RebuildCompiled(a2, 2, nil)
	if got := mRebuilds.Value() - rebuilds0; got != 1 {
		t.Errorf("rebuilds moved %d, want 1", got)
	}

	// The rows gauge tracks this ledger (last mutator wins process-wide).
	if got := int(mRows.Value()); got != l.Len() {
		t.Errorf("rows gauge = %d, want %d", got, l.Len())
	}
	l.Remove(pop[0].Provider)
	if got := int(mRows.Value()); got != l.Len() {
		t.Errorf("rows gauge after remove = %d, want %d", got, l.Len())
	}
}
