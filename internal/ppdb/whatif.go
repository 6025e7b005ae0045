package ppdb

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/whatif"
)

// What-if instrumentation (DESIGN.md §10): evaluations by verdict, latency,
// and the affected/reused split that shows whether narrow diffs actually
// stay O(affected). Hoisted once like the other hot-path metrics.
var (
	mWhatIfFree = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", whatif.VerdictFree)
	mWhatIfJustified = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", whatif.VerdictJustified)
	mWhatIfUnjustified = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", whatif.VerdictUnjustified)
	mWhatIfInvalid = metrics.Default.Counter("ppdb_whatif_total",
		"what-if evaluations by Eq. 28-31 verdict", "verdict", "invalid")
	mWhatIfSeconds = metrics.Default.Histogram("ppdb_whatif_seconds",
		"what-if evaluation latency", metrics.DefBuckets)
	mWhatIfAffected = metrics.Default.Counter("ppdb_whatif_affected_total",
		"providers re-assessed under a shadow policy across all what-if evaluations")
	mWhatIfMemoReused = metrics.Default.Counter("ppdb_whatif_memo_reused_total",
		"providers whose live report was reused unchanged across all what-if evaluations")
)

// WhatIf evaluates a candidate policy diff against the live population
// without mutating anything: no store write, no ledger write, no WAL
// record, no policy-log entry. It captures an immutable snapshot under
// shared locks (d.mu plus each shard's read lock — the certification read
// path), releases them, and evaluates the shadow policy against the
// snapshot; concurrent registrations and policy swaps proceed untouched
// and simply miss this evaluation's cut.
//
// Providers the diff cannot affect reuse their live reports: a ledger row
// memoized at exactly this (policy, prefs) version is reused without any
// assessment at all, so a narrow diff costs O(affected), not O(N). Shadow reports are keyed on a
// shadow policy version (high bit set) no ledger row can ever carry.
func (d *DB) WhatIf(req *whatif.Request) (*whatif.Response, error) {
	start := time.Now()
	d.mu.RLock()
	assessor := d.assessor
	attrSens := d.attrSens
	opts := d.opts
	policyVersion := d.policyVersion
	led := d.ledger
	snaps := d.snapshotShardsShared()
	d.mu.RUnlock()

	// d.scales is immutable after New, like the RegisterProvider validation
	// path that also reads it lock-free.
	eng, err := whatif.NewEngine(assessor, attrSens, opts, policyVersion, req, d.scales)
	if err != nil {
		mWhatIfInvalid.Inc()
		return nil, err
	}

	shards := make([]whatif.ShardSource, len(snaps))
	for i := range snaps {
		n := len(snaps[i].keys)
		src := whatif.ShardSource{
			Keys:     snaps[i].keys,
			Prefs:    make([]*privacy.Prefs, n),
			Compiled: make([]*core.CompiledPrefs, n),
		}
		for j, st := range snaps[i].states {
			src.Prefs[j] = st.prefs
			src.Compiled[j] = st.compiled
		}
		shards[i] = src
	}
	resp := eng.Evaluate(shards, func(si, i int) (core.ProviderReport, bool) {
		return led.ReportIfCurrent(snaps[si].keys[i], policyVersion, snaps[si].states[i].version)
	})

	switch resp.Verdict {
	case whatif.VerdictFree:
		mWhatIfFree.Inc()
	case whatif.VerdictJustified:
		mWhatIfJustified.Inc()
	default:
		mWhatIfUnjustified.Inc()
	}
	mWhatIfAffected.Add(uint64(resp.Affected))
	mWhatIfMemoReused.Add(uint64(resp.MemoReused))
	mWhatIfSeconds.Observe(time.Since(start).Seconds())
	return resp, nil
}
