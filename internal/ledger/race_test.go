package ledger

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/population"
	"repro/internal/privacy"
)

// TestConcurrentLedger hammers the ledger with parallel upserts, removals,
// rebuilds and reads; run under -race (scripts/ci.sh does). After the dust
// settles the materialized view must equal a fresh full assessment.
func TestConcurrentLedger(t *testing.T) {
	a1, gen := testAssessor(t, 31, 2)
	a2, _ := testAssessor(t, 31, 3)
	pop := population.PrefsOf(gen.Generate(120))
	_, gen2 := testAssessor(t, 77, 2)
	edits := population.PrefsOf(gen2.Generate(120))

	l, err := New(a1, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(pop))
	for i, p := range pop {
		items[i] = Item{Key: p.Provider, Prefs: p, Version: uint64(i + 1)}
	}
	l.UpsertBatch(items)

	var wg sync.WaitGroup
	const rounds = 40
	// Editors: re-upsert providers with fresh versions.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := edits[(w*rounds+i)%len(edits)]
				l.UpsertCompiled(p.Provider, p, nil, uint64(1000+w*rounds+i))
			}
		}(w)
	}
	// Remover + re-adder.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p := pop[i%7]
			l.Remove(p.Provider)
			l.UpsertCompiled(p.Provider, p, nil, uint64(5000+i))
		}
	}()
	// Rebuilder: swap policy back and forth.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				l.RebuildCompiled(a2, uint64(2+i), nil)
			} else {
				l.RebuildCompiled(a1, uint64(2+i), nil)
			}
		}
	}()
	// Readers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_ = l.Summary()
				_ = l.Snapshot()
				_, _ = l.Report(fmt.Sprintf("provider-%04d", i%len(pop)))
				_ = l.Len()
			}
		}(w)
	}
	wg.Wait()

	// Quiesced: one final rebuild pins every row to a1, and the view must
	// match assessing whatever population survived (white-box: read the
	// surviving prefs straight out of the entries, in key order).
	l.RebuildCompiled(a1, 100, nil)
	snap := l.Snapshot()
	l.mu.RLock()
	keys, _ := l.mergedRowsLocked()
	survivors := make([]*privacy.Prefs, 0, len(keys))
	for _, k := range keys {
		s := l.shardOf(k)
		s.mu.RLock()
		survivors = append(survivors, s.entries[k].prefs)
		s.mu.RUnlock()
	}
	l.mu.RUnlock()
	want := a1.AssessPopulation(survivors)
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("post-stress snapshot inconsistent: N=%d PW=%g total=%g vs recompute PW=%g total=%g",
			snap.N, snap.PW, snap.TotalViolations, want.PW, want.TotalViolations)
	}
}
