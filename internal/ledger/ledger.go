// Package ledger maintains a materialized view of a population's violation
// state: one memoized core.ProviderReport per provider, keyed on
// (policy version, provider prefs version), plus running aggregates
// (Σ w_i, Σ default_i, Σ Violation_i). The paper's population quantities —
// P(W) = Σ w_i / N (Def. 2), P(Default) (Def. 5) and the house total
// Violations (Eq. 16) — are sums of independent per-provider terms, so they
// admit classic incremental view maintenance: applying a preference edit
// costs one re-assessment (O(changed)), and the population answer is read
// from the aggregates in O(1) instead of recomputed over all N providers.
//
// Sharding (DESIGN.md §11): the same independence makes the view
// embarrassingly parallel, so the ledger is carved into P shards by FNV-1a
// hash of the canonical provider key (core.ShardIndex). Each shard owns its
// lock, its memo table, its sorted key list and its running core.Partial,
// so point upserts on different shards never contend, and the bulk paths —
// UpsertBatch (cold loads) and RebuildCompiled (policy swaps) — run one
// goroutine per shard.
//
// Invalidation rules:
//
//   - a provider's row is recomputed when its prefs version changes
//     (self-service edit, re-registration) — O(1) per edit, one shard lock;
//   - a policy swap bumps the policy version and invalidates every row —
//     RebuildCompiled re-assesses the whole population, one goroutine per
//     shard (a cold rebuild, also used for load-from-disk);
//   - a removal subtracts the provider's contribution from its shard.
//
// Exactness: the integer aggregates (N, violated, defaulted — and hence
// P(W) and P(Default), which are ratios of integers) are always exact and
// independent of the shard layout. The running float totals drift from a
// fresh sum by at most accumulated rounding (adds and subtracts in edit
// order, merged in fixed shard-index order), so Summary is O(P) but
// last-ulp approximate in TotalViolations; Snapshot merges the shards'
// sorted rows into global sorted provider order and re-sums in that order,
// so it is bit-identical to a full recompute over the same sorted
// population — for every shard count.
package ledger

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/privacy"
)

// Instrumentation (DESIGN.md §10). Counters aggregate across every ledger
// in the process; the rows gauge is set by whichever ledger mutated last
// (one server process holds one live ledger). Hoisted once so the hot
// paths pay a single atomic op, not a registry lookup.
var (
	mMemoHits = metrics.Default.Counter("ledger_memo_hits_total",
		"Upsert calls answered by a current memoized row (no re-assessment)")
	mMemoMisses = metrics.Default.Counter("ledger_memo_misses_total",
		"Upsert calls that had to re-assess the provider")
	mDeltaApplies = metrics.Default.Counter("ledger_delta_applies_total",
		"incremental row installs with O(1) aggregate maintenance")
	mRebuilds = metrics.Default.Counter("ledger_rebuilds_total",
		"full-population rebuilds (policy swaps and cold loads)")
	mRows = metrics.Default.Gauge("ledger_rows",
		"provider rows currently memoized by the live ledger")
)

// entry is one provider's materialized row.
type entry struct {
	prefs *privacy.Prefs
	// prefsVersion is the registration counter value the report was
	// computed from; policyVersion the policy counter. Together they key
	// the memoization: a matching pair means the report is current.
	prefsVersion  uint64
	policyVersion uint64
	report        core.ProviderReport
}

// shard is one lock domain of the materialized view: the providers whose
// canonical key hashes to this index, with their own running aggregates.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	keys    []string // sorted; kept in lockstep with entries
	agg     core.Partial
	// scratch is the shard's columnar-kernel arena, used only while mu is
	// held exclusively (the only times the shard assesses), so it needs no
	// lock of its own and re-assessments on this shard never allocate it.
	scratch core.Scratch
}

// Ledger is the sharded materialized violation view. Safe for concurrent
// use: point operations lock one shard, structural operations
// (RebuildCompiled) take the top-level lock exclusively.
type Ledger struct {
	// mu guards assessor and policyVersion. Point operations hold it
	// shared (so the policy cannot swap mid-upsert); RebuildCompiled holds
	// it exclusively. Lock order is always mu before shard.mu.
	mu sync.RWMutex

	assessor      *core.Assessor
	policyVersion uint64

	shards []*shard
	rows   atomic.Int64 // total live entries across shards (gauge feed)
}

// Item is one (key, prefs, version) triple for batch application. Compiled
// optionally carries the provider's columnar tuple columns (compiled by the
// caller against the ledger's current assessor); a nil or stale value is
// recompiled by core.Assessor.AssessRow before the kernel runs.
type Item struct {
	Key      string
	Prefs    *privacy.Prefs
	Compiled *core.CompiledPrefs
	Version  uint64
}

// Summary is the O(P) population answer merged from the shards' running
// partials in fixed shard-index order.
type Summary struct {
	N               int
	ViolatedCount   int     // Σ_i w_i, exact
	DefaultCount    int     // Σ_i default_i, exact
	TotalViolations float64 // Eq. 16, running (last-ulp approximate)
	PW              float64 // Def. 2, exact ratio of integers
	PDefault        float64 // Def. 5, exact ratio of integers
	PolicyVersion   uint64
}

// New builds an empty ledger assessing against a, with one shard per
// schedulable CPU.
func New(a *core.Assessor, policyVersion uint64) (*Ledger, error) {
	return NewSharded(a, policyVersion, 0)
}

// NewSharded builds an empty ledger with an explicit shard count; 0 means
// core.DefaultShards(). A 1-shard ledger is the serial pre-sharding layout.
func NewSharded(a *core.Assessor, policyVersion uint64, shards int) (*Ledger, error) {
	if a == nil {
		return nil, fmt.Errorf("ledger: nil assessor")
	}
	if shards < 0 {
		return nil, fmt.Errorf("ledger: shard count %d must be >= 0", shards)
	}
	if shards == 0 {
		shards = core.DefaultShards()
	}
	l := &Ledger{
		assessor:      a,
		policyVersion: policyVersion,
		shards:        make([]*shard, shards),
	}
	for i := range l.shards {
		l.shards[i] = &shard{entries: make(map[string]*entry)}
	}
	return l, nil
}

// ShardCount returns the number of shards the view is carved into.
func (l *Ledger) ShardCount() int { return len(l.shards) }

// shardOf routes a canonical key to its shard.
func (l *Ledger) shardOf(key string) *shard {
	return l.shards[core.ShardIndex(key, len(l.shards))]
}

// Len returns the number of materialized providers.
func (l *Ledger) Len() int {
	return int(l.rows.Load())
}

// UpsertCompiled applies one provider registration or preference edit: if
// the memoized row already matches (policy version, prefs version) it is
// returned untouched; otherwise the provider is re-assessed — O(1), the
// delta apply — and the shard's aggregates are adjusted. Only the
// provider's shard is locked, so edits on different shards run in
// parallel. The caller supplies the provider's columnar tuple columns
// (internal/ppdb compiles them once per registration and shares them with
// its own store); a memo miss runs the columnar kernel in the shard's
// scratch arena, and a nil or stale compiled value is recompiled first
// (core.Assessor.AssessRow), so the result is identical either way.
func (l *Ledger) UpsertCompiled(key string, prefs *privacy.Prefs, compiled *core.CompiledPrefs, prefsVersion uint64) core.ProviderReport {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := l.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok && e.prefsVersion == prefsVersion && e.policyVersion == l.policyVersion {
		mMemoHits.Inc()
		return e.report
	}
	mMemoMisses.Inc()
	rep := l.assessor.AssessRow(prefs, compiled, &s.scratch)
	l.applyLocked(s, key, prefs, prefsVersion, rep)
	return rep
}

// UpsertBatch applies many registrations at once, one goroutine per shard
// with items — the cold-build path for bulk loads. Assessment and map
// installation both run inside the owning shard's goroutine, so the whole
// batch parallelizes, not just the assessment.
func (l *Ledger) UpsertBatch(items []Item) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	mMemoMisses.Add(uint64(len(items)))
	buckets := make([][]Item, len(l.shards))
	for _, it := range items {
		i := core.ShardIndex(it.Key, len(l.shards))
		buckets[i] = append(buckets[i], it)
	}
	core.FanOut(len(l.shards), len(l.shards), func(i int) {
		if len(buckets[i]) == 0 {
			return
		}
		s := l.shards[i]
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, it := range buckets[i] {
			rep := l.assessor.AssessRow(it.Prefs, it.Compiled, &s.scratch)
			l.applyLocked(s, it.Key, it.Prefs, it.Version, rep)
		}
	})
}

// Remove drops a provider's row and subtracts its contribution from its
// shard. It reports whether the provider was present.
func (l *Ledger) Remove(key string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := l.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	s.agg.Sub(&e.report)
	delete(s.entries, key)
	i := sort.SearchStrings(s.keys, key)
	s.keys = append(s.keys[:i], s.keys[i+1:]...)
	mRows.Set(float64(l.rows.Add(-1)))
	return true
}

// RebuildCompiled invalidates every row against a new assessor (policy
// swap) and re-assesses the whole population, one goroutine per shard.
// Each shard's aggregates are re-summed from scratch in its sorted key
// order. The caller supplies provider tuple columns recompiled against the
// new assessor (internal/ppdb recompiles its store during SetPolicy and
// hands the same columns here, so the population is compiled once, not
// twice). Keys missing from compiled — or a nil map — are recompiled per
// row by core.Assessor.AssessRow; results are identical.
//
//lint:deterministic rebuilt aggregates must match a from-scratch assessment bit-for-bit
func (l *Ledger) RebuildCompiled(a *core.Assessor, policyVersion uint64, compiled map[string]*core.CompiledPrefs) {
	l.mu.Lock()
	defer l.mu.Unlock()
	mRebuilds.Inc()
	l.assessor = a
	l.policyVersion = policyVersion
	core.FanOut(len(l.shards), len(l.shards), func(i int) {
		s := l.shards[i]
		s.mu.Lock()
		defer s.mu.Unlock()
		s.agg = core.Partial{}
		for _, k := range s.keys {
			e := s.entries[k]
			e.report = a.AssessRow(e.prefs, compiled[k], &s.scratch)
			e.policyVersion = policyVersion
			s.agg.Add(&e.report)
		}
	})
}

// Report returns the memoized row for one provider — the O(1) per-provider
// violation read (self-service audits).
func (l *Ledger) Report(key string) (core.ProviderReport, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := l.shardOf(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[key]
	if !ok {
		return core.ProviderReport{}, false
	}
	return e.report, true
}

// ReportIfCurrent returns the memoized row for one provider only when it
// was computed at exactly (policyVersion, prefsVersion) — the read-side
// memo check the what-if engine (internal/whatif) uses to reuse live
// reports without risking a stale row racing a concurrent edit. Unlike
// Report it never returns a row keyed on different versions.
func (l *Ledger) ReportIfCurrent(key string, policyVersion, prefsVersion uint64) (core.ProviderReport, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.policyVersion != policyVersion {
		return core.ProviderReport{}, false
	}
	s := l.shardOf(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[key]
	if !ok || e.policyVersion != policyVersion || e.prefsVersion != prefsVersion {
		return core.ProviderReport{}, false
	}
	return e.report, true
}

// Summary answers P(W), P(Default) and the counts by merging the shards'
// running partials in fixed shard-index order — O(P), no row is touched.
func (l *Ledger) Summary() Summary {
	l.mu.RLock()
	defer l.mu.RUnlock()
	parts := make([]core.Partial, len(l.shards))
	for i, s := range l.shards {
		s.mu.RLock()
		parts[i] = s.agg
		s.mu.RUnlock()
	}
	m := core.MergePartials(parts)
	return Summary{
		N:               m.N,
		ViolatedCount:   m.ViolatedCount,
		DefaultCount:    m.DefaultCount,
		TotalViolations: m.TotalViolations,
		PW:              m.PW(),
		PDefault:        m.PDefault(),
		PolicyVersion:   l.policyVersion,
	}
}

// Snapshot assembles the full population report from the memoized rows in
// global sorted provider order — a P-way merge of the shards' sorted key
// lists, O(N log P) copying, zero re-assessment. The float total is
// re-summed in that global order, so the result is bit-identical to a full
// recompute over the same sorted population, for every shard count.
//
//lint:deterministic snapshot reports feed certifications and must not depend on shard count
func (l *Ledger) Snapshot() core.PopulationReport {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, rows := l.mergedRowsLocked()
	return core.AssemblePopulation(rows)
}

// mergedRowsLocked snapshots every shard (RLock per shard) and merges the
// per-shard sorted key lists into one globally sorted sequence of keys and
// reports. Holding l.mu shared keeps the policy stable; per-shard locks
// make each shard internally consistent.
func (l *Ledger) mergedRowsLocked() ([]string, []core.ProviderReport) {
	type part struct {
		keys []string
		rows []core.ProviderReport
	}
	parts := make([]part, len(l.shards))
	total := 0
	for i, s := range l.shards {
		s.mu.RLock()
		p := part{
			keys: append([]string(nil), s.keys...),
			rows: make([]core.ProviderReport, len(s.keys)),
		}
		for j, k := range s.keys {
			p.rows[j] = s.entries[k].report
		}
		s.mu.RUnlock()
		parts[i] = p
		total += len(p.keys)
	}
	keys := make([]string, 0, total)
	rows := make([]core.ProviderReport, 0, total)
	cursors := make([]int, len(parts))
	for len(keys) < total {
		best := -1
		for i := range parts {
			if cursors[i] >= len(parts[i].keys) {
				continue
			}
			if best < 0 || parts[i].keys[cursors[i]] < parts[best].keys[cursors[best]] {
				best = i
			}
		}
		keys = append(keys, parts[best].keys[cursors[best]])
		rows = append(rows, parts[best].rows[cursors[best]])
		cursors[best]++
	}
	return keys, rows
}

// applyLocked installs a freshly computed report for key into shard s
// (whose lock the caller holds), adjusting the shard's aggregates by the
// delta (subtract the old row, add the new).
func (l *Ledger) applyLocked(s *shard, key string, prefs *privacy.Prefs, prefsVersion uint64, rep core.ProviderReport) {
	mDeltaApplies.Inc()
	if e, ok := s.entries[key]; ok {
		s.agg.Sub(&e.report)
		e.prefs, e.prefsVersion, e.policyVersion, e.report = prefs, prefsVersion, l.policyVersion, rep
		s.agg.Add(&e.report)
		mRows.Set(float64(l.rows.Load()))
		return
	}
	e := &entry{prefs: prefs, prefsVersion: prefsVersion, policyVersion: l.policyVersion, report: rep}
	s.entries[key] = e
	i := sort.SearchStrings(s.keys, key)
	s.keys = append(s.keys, "")
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
	s.agg.Add(&e.report)
	mRows.Set(float64(l.rows.Add(1)))
}
