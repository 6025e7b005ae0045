package ppdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/analysis/floatutil"
	"repro/internal/population"
	"repro/internal/privacy"
)

// equivGenerator builds a randomized provider population over two
// attributes for one seed.
func equivGenerator(t testing.TB, seed uint64) *population.Generator {
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
	return gen
}

// equivPolicy builds a house policy at one level over the two attributes.
func equivPolicy(name string, level privacy.Level) *privacy.HousePolicy {
	hp := privacy.NewHousePolicy(name)
	hp.Add("weight", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	hp.Add("income", privacy.Tuple{Purpose: "service", Visibility: level, Granularity: level, Retention: level})
	return hp
}

// mustJSON marshals a certification for byte-level comparison.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireCertEquiv asserts the ledger-backed Certify and the seed
// full-recompute CertifyFull produce byte-identical output — PW, PDefault,
// per-provider Violation_i rows and WouldDefault all included.
func requireCertEquiv(t *testing.T, db *DB, alpha float64, stage string) {
	t.Helper()
	inc, err := db.Certify(alpha)
	if err != nil {
		t.Fatalf("%s: Certify: %v", stage, err)
	}
	full, err := db.CertifyFull(alpha)
	if err != nil {
		t.Fatalf("%s: CertifyFull: %v", stage, err)
	}
	a, b := mustJSON(t, inc), mustJSON(t, full)
	if !bytes.Equal(a, b) {
		t.Errorf("%s: ledger certification diverges from full recompute\nledger: %.300s\nfull:   %.300s", stage, a, b)
	}
	// The O(1) summary must agree with the report on every exact quantity;
	// its running float total is allowed last-ulp drift.
	sum, err := db.CertifySummary(alpha)
	if err != nil {
		t.Fatalf("%s: CertifySummary: %v", stage, err)
	}
	rep := full.Report
	if sum.N != rep.N || sum.ViolatedCount != rep.ViolatedCount || sum.DefaultCount != rep.DefaultCount ||
		!floatutil.Eq(sum.PW, rep.PW) || !floatutil.Eq(sum.PDefault, rep.PDefault) ||
		sum.IsAlphaPPDB != full.IsAlphaPPDB {
		t.Errorf("%s: summary %+v disagrees with report N=%d violated=%d defaulted=%d PW=%g",
			stage, sum, rep.N, rep.ViolatedCount, rep.DefaultCount, rep.PW)
	}
	if !floatutil.Eq(sum.TotalViolations, rep.TotalViolations) {
		t.Errorf("%s: summary total %g drifted beyond tolerance from %g", stage, sum.TotalViolations, rep.TotalViolations)
	}
}

// TestLedgerCertifyEquivalence drives randomized populations through the
// full mutation surface — bulk registration, single registrations,
// self-service edits, removals, policy swaps, default enforcement — and
// requires the incremental certification to stay byte-identical to the
// full recompute at every step.
func TestLedgerCertifyEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 42, 2011} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			gen := equivGenerator(t, seed)
			pop := population.PrefsOf(gen.Generate(300))
			db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()})
			if err != nil {
				t.Fatal(err)
			}
			// Bulk cold build.
			if err := db.RegisterProviders(pop[:250]); err != nil {
				t.Fatal(err)
			}
			// Serial incremental adds.
			for _, p := range pop[250:] {
				if err := db.RegisterProvider(p); err != nil {
					t.Fatal(err)
				}
			}
			requireCertEquiv(t, db, 0.25, "after registration")

			// Self-service edits: a different generator seed produces new
			// tuples for the same provider names.
			edits := population.PrefsOf(equivGenerator(t, seed+7000).Generate(300))
			for i, p := range edits {
				if i%5 != 0 {
					continue
				}
				if err := db.UpdatePreferences(p.Provider, p); err != nil {
					t.Fatal(err)
				}
			}
			requireCertEquiv(t, db, 0.25, "after preference edits")

			// Removals.
			for i, p := range pop {
				if i%17 == 0 {
					if _, err := db.RemoveProvider(p.Provider); err != nil {
						t.Fatal(err)
					}
				}
			}
			requireCertEquiv(t, db, 0.25, "after removals")

			// Policy swap: the Sec. 9 what-if, a cold parallel rebuild.
			change, err := db.SetPolicy(equivPolicy("v2", 3))
			if err != nil {
				t.Fatal(err)
			}
			if change.DeltaPW < 0 {
				t.Errorf("widening the policy should not lower P(W): ΔPW = %g", change.DeltaPW)
			}
			requireCertEquiv(t, db, 0.25, "after policy swap")

			// Default enforcement shrinks the population.
			if _, _, err := db.EnforceDefaults(); err != nil {
				t.Fatal(err)
			}
			requireCertEquiv(t, db, 0.25, "after default enforcement")
		})
	}
}

// TestLedgerPolicyDeltaMatchesFallback pins SetPolicy's what-if deltas,
// read from the ledger's running aggregates on either side of the rebuild,
// to the full-recompute oracle: CertifyFull after the swap minus
// CertifyFull before it, on the same DB.
func TestLedgerPolicyDeltaMatchesFallback(t *testing.T) {
	gen := equivGenerator(t, 99)
	db, err := New(Config{Policy: equivPolicy("v1", 2), AttrSens: gen.AttributeSensitivities()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(population.PrefsOf(gen.Generate(120))); err != nil {
		t.Fatal(err)
	}
	before, err := db.CertifyFull(0.5)
	if err != nil {
		t.Fatal(err)
	}
	change, err := db.SetPolicy(equivPolicy("v2", 3))
	if err != nil {
		t.Fatal(err)
	}
	after, err := db.CertifyFull(0.5)
	if err != nil {
		t.Fatal(err)
	}
	wantPW := after.Report.PW - before.Report.PW
	wantPDefault := after.Report.PDefault - before.Report.PDefault
	if !floatutil.Eq(change.DeltaPW, wantPW) || !floatutil.Eq(change.DeltaPDefault, wantPDefault) {
		t.Errorf("policy-change deltas (ΔPW %g, ΔPDefault %g) disagree with the oracle (%g, %g)",
			change.DeltaPW, change.DeltaPDefault, wantPW, wantPDefault)
	}
	if wantPW == 0 {
		t.Error("the swap left P(W) unchanged; the test would not notice a zero delta")
	}
}
