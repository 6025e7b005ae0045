package ppdb

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/floatutil"
)

// TestCertifyPathCounters pins the per-path certification counters:
// Certify answers incrementally, CertifySummary from the aggregates, and
// only the explicit CertifyFull oracle counts as full. Shared default
// registry → delta assertions.
func TestCertifyPathCounters(t *testing.T) {
	db := clinicDB(t)
	inc0, full0, sum0 := mCertifyIncremental.Value(), mCertifyFull.Value(), mCertifySummary.Value()

	if _, err := db.Certify(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CertifySummary(0.5); err != nil {
		t.Fatal(err)
	}
	if got := mCertifyIncremental.Value() - inc0; got != 1 {
		t.Errorf("incremental moved %d, want 1", got)
	}
	if got := mCertifySummary.Value() - sum0; got != 1 {
		t.Errorf("summary moved %d, want 1", got)
	}
	if got := mCertifyFull.Value() - full0; got != 0 {
		t.Errorf("full moved %d, want 0 on the ledger paths", got)
	}

	// An invalid α is rejected before any path is counted.
	if _, err := db.Certify(-1); err == nil {
		t.Fatal("alpha -1 accepted")
	}
	if got := mCertifyIncremental.Value() - inc0; got != 1 {
		t.Errorf("rejected alpha still counted: %d", got)
	}

	// The explicit oracle counts as full.
	if _, err := db.CertifyFull(0.5); err != nil {
		t.Fatal(err)
	}
	if got := mCertifyFull.Value() - full0; got != 1 {
		t.Errorf("full moved %d, want 1", got)
	}
}

// TestPopulationGauges pins the P(W)/P(Default)/N gauges to the ledger
// summary after every kind of mutation.
func TestPopulationGauges(t *testing.T) {
	db := clinicDB(t)
	sum, err := db.CertifySummary(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(mProviders.Value()); got != sum.N {
		t.Errorf("ppdb_providers = %d, want %d", got, sum.N)
	}
	if !floatutil.Eq(mPW.Value(), sum.PW) || !floatutil.Eq(mPDefault.Value(), sum.PDefault) {
		t.Errorf("gauges (%g, %g) diverge from summary (%g, %g)",
			mPW.Value(), mPDefault.Value(), sum.PW, sum.PDefault)
	}
	if _, err := db.RemoveProvider("bob"); err != nil {
		t.Fatal(err)
	}
	sum, err = db.CertifySummary(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(mProviders.Value()); got != sum.N {
		t.Errorf("after removal ppdb_providers = %d, want %d", got, sum.N)
	}
	if !floatutil.Eq(mPW.Value(), sum.PW) {
		t.Errorf("after removal ppdb_pw = %g, want %g", mPW.Value(), sum.PW)
	}
}

// TestPersistenceMetrics pins the save/load histograms and the
// previous-generation fallback counter.
func TestPersistenceMetrics(t *testing.T) {
	db := clinicDB(t)
	dir := filepath.Join(t.TempDir(), "snap")

	saves0 := mSaveSeconds.Snapshot().Count
	loads0 := mLoadSeconds.Snapshot().Count
	falls0 := mLoadFallbacks.Value()
	errs0 := mSaveErrors.Value()

	// Two saves so a previous generation exists; both land in the
	// histogram.
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if got := mSaveSeconds.Snapshot().Count - saves0; got != 2 {
		t.Errorf("save observations moved %d, want 2", got)
	}
	if got := mSaveErrors.Value() - errs0; got != 0 {
		t.Errorf("clean saves counted as errors: %d", got)
	}

	// A clean load observes the duration and no fallback.
	if _, err := Load(dir, Config{}); err != nil {
		t.Fatal(err)
	}
	if got := mLoadSeconds.Snapshot().Count - loads0; got != 1 {
		t.Errorf("load observations moved %d, want 1", got)
	}
	if got := mLoadFallbacks.Value() - falls0; got != 0 {
		t.Errorf("clean load counted a fallback: %d", got)
	}

	// Corrupt the newest generation: the load must fall back and say so.
	if err := os.WriteFile(filepath.Join(dir, "state.json"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, Config{}); err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if got := mLoadFallbacks.Value() - falls0; got != 1 {
		t.Errorf("fallbacks moved %d, want 1", got)
	}
	if got := mLoadSeconds.Snapshot().Count - loads0; got != 2 {
		t.Errorf("load observations moved %d, want 2", got)
	}
}
