package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/privacy"
)

// randomPolicy draws a house policy over a pool of attributes and purposes:
// 1..4 tuples per attribute, random levels on the default scales.
func randomPolicy(rng *rand.Rand, attrs []string, purposes []privacy.Purpose) *privacy.HousePolicy {
	hp := privacy.NewHousePolicy("rand")
	for _, a := range attrs {
		n := 1 + rng.Intn(4)
		perm := rng.Perm(len(purposes))
		for k := 0; k < n && k < len(perm); k++ {
			hp.Add(a, privacy.Tuple{
				Purpose:     purposes[perm[k]],
				Visibility:  privacy.Level(rng.Intn(5)),
				Granularity: privacy.Level(rng.Intn(4)),
				Retention:   privacy.Level(rng.Intn(6)),
			})
		}
	}
	return hp
}

// randomPrefs draws one provider: a random subset of attributes (sometimes
// attributes the policy does not cover), random purposes (sometimes
// purposes the policy does not use), random sensitivities including
// per-purpose overrides, and a small threshold so defaults actually occur.
func randomPrefs(rng *rand.Rand, name string, attrs []string, purposes []privacy.Purpose) *privacy.Prefs {
	p := privacy.NewPrefs(name, rng.Float64()*8)
	for _, a := range attrs {
		if rng.Float64() < 0.25 {
			continue // leave the attribute to the implicit-zero rule
		}
		n := rng.Intn(3)
		perm := rng.Perm(len(purposes))
		for k := 0; k < n && k < len(perm); k++ {
			p.Add(a, privacy.Tuple{
				Purpose:     purposes[perm[k]],
				Visibility:  privacy.Level(rng.Intn(5)),
				Granularity: privacy.Level(rng.Intn(4)),
				Retention:   privacy.Level(rng.Intn(6)),
			})
		}
		if rng.Float64() < 0.7 {
			p.SetSensitivity(a, privacy.Sensitivity{
				Value:       rng.Float64() * 2,
				Visibility:  rng.Float64() * 2,
				Granularity: rng.Float64() * 2,
				Retention:   rng.Float64() * 2,
			})
		}
		if rng.Float64() < 0.3 {
			p.SetPurposeSensitivity(a, purposes[rng.Intn(len(purposes))], privacy.Sensitivity{
				Value:       rng.Float64() * 3,
				Visibility:  rng.Float64(),
				Granularity: rng.Float64(),
				Retention:   rng.Float64(),
			})
		}
	}
	return p
}

// TestAssessCompiledMatchesReference is the randomized-population property
// test: across seeds, matchers and the implicit-zero ablation, the columnar
// kernel must produce a report identical — field-for-field and in JSON
// bytes — to the reference AssessProvider.
func TestAssessCompiledMatchesReference(t *testing.T) {
	attrs := []string{"income", "weight", "Email", " Address "}
	extraAttrs := append(append([]string(nil), attrs...), "uncovered")
	purposes := []privacy.Purpose{"service", "marketing", "research", "Sharing"}
	extraPurposes := append(append([]privacy.Purpose(nil), purposes...), "unused")

	lat := privacy.NewLattice()
	if err := lat.AddEdge("marketing", "sharing"); err != nil {
		t.Fatal(err)
	}
	if err := lat.AddEdge("service", "research"); err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{1, 42, 2011, 20260808} {
		for _, opts := range []Options{
			{},
			{DisableImplicitZero: true},
			{Matcher: lat},
		} {
			name := fmt.Sprintf("seed=%d/implicit=%v/lattice=%v", seed, !opts.DisableImplicitZero, opts.Matcher != nil)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				hp := randomPolicy(rng, attrs, purposes)
				sens := privacy.AttributeSensitivities{"income": 2.5, "email": 0.5}
				a, err := NewAssessor(hp, sens, opts)
				if err != nil {
					t.Fatal(err)
				}
				var sc Scratch
				for i := 0; i < 200; i++ {
					p := randomPrefs(rng, fmt.Sprintf("p%03d", i), extraAttrs, extraPurposes)
					requireKernelMatches(t, a, p, &sc)
				}
			})
		}
	}

	// Wide policies: one attribute holding 64, 65, 128 and 129 tuples, so
	// the cover masks span one, two and three words, with a narrow
	// attribute on either side to shift the mask offsets.
	for _, n := range wideSizes {
		for _, opts := range wideOptions(t, n) {
			name := fmt.Sprintf("wide=%d/implicit=%v/lattice=%v", n, !opts.DisableImplicitZero, opts.Matcher != nil)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				a, err := NewAssessor(widePolicy(rng, n), privacy.AttributeSensitivities{"wide": 1.5}, opts)
				if err != nil {
					t.Fatal(err)
				}
				var sc Scratch
				for i := 0; i < 60; i++ {
					requireKernelMatches(t, a, randomWidePrefs(rng, fmt.Sprintf("w%03d", i), n), &sc)
				}
			})
		}
	}
}

// requireKernelMatches asserts that the columnar kernel's report for p is
// identical — field-for-field and in JSON bytes — to AssessProvider's.
func requireKernelMatches(t *testing.T, a *Assessor, p *privacy.Prefs, sc *Scratch) {
	t.Helper()
	want := a.AssessProvider(p)
	c := a.Compile(p)
	if c == nil {
		t.Fatalf("%s: Compile returned nil", p.Provider)
	}
	got := a.AssessCompiled(c, sc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: kernel report differs\n got: %+v\nwant: %+v", p.Provider, got, want)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("%s: JSON differs\n got: %s\nwant: %s", p.Provider, gj, wj)
	}
	if rep := a.AssessRow(p, c, sc); !reflect.DeepEqual(rep, want) {
		t.Fatalf("%s: AssessRow (compiled) differs from reference", p.Provider)
	}
}

// wideSizes are the wide-attribute tuple counts: the last one-word mask,
// the first two-word mask, the last two-word mask, the first three-word.
var wideSizes = []int{64, 65, 128, 129}

// widePurpose names the k-th purpose of the wide attribute; each wide
// policy tuple has its own, so FindPolicyTuple resolves widePurpose(k) to
// Index k.
func widePurpose(k int) privacy.Purpose { return privacy.Purpose(fmt.Sprintf("pu%03d", k)) }

// wideOptions returns the matcher/implicit-zero settings the wide tests
// sweep. The lattice makes "all" cover every wide purpose and pu(k) cover
// pu(k+64), so one preference tuple's mask sets bits in several words.
func wideOptions(t *testing.T, n int) []Options {
	t.Helper()
	lat := privacy.NewLattice()
	for k := 0; k < n; k++ {
		if err := lat.AddEdge("all", widePurpose(k)); err != nil {
			t.Fatal(err)
		}
		if k+64 < n {
			if err := lat.AddEdge(widePurpose(k), widePurpose(k+64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []Options{{}, {DisableImplicitZero: true}, {Matcher: lat}}
}

// widePolicy builds a policy with n tuples on attribute "wide" (purposes
// widePurpose(0..n-1), random levels) between two narrow attributes.
func widePolicy(rng *rand.Rand, n int) *privacy.HousePolicy {
	hp := privacy.NewHousePolicy(fmt.Sprintf("wide%d", n))
	level := func(max int) privacy.Level { return privacy.Level(rng.Intn(max)) }
	hp.Add("aaa", privacy.Tuple{Purpose: widePurpose(0), Visibility: level(5), Granularity: level(4), Retention: level(6)})
	for k := 0; k < n; k++ {
		hp.Add("wide", privacy.Tuple{Purpose: widePurpose(k), Visibility: level(5), Granularity: level(4), Retention: level(6)})
	}
	hp.Add("zzz", privacy.Tuple{Purpose: widePurpose(n - 1), Visibility: level(5), Granularity: level(4), Retention: level(6)})
	hp.Add("zzz", privacy.Tuple{Purpose: "all", Visibility: level(5), Granularity: level(4), Retention: level(6)})
	return hp
}

// randomWidePrefs draws one provider for a wide policy: random tuples over
// every attribute (and an uncovered one) plus explicit wide tuples at the
// mask-word boundaries, sometimes for the lattice root "all".
func randomWidePrefs(rng *rand.Rand, name string, n int) *privacy.Prefs {
	purposes := []privacy.Purpose{"all", "unused"}
	for k := 0; k < n; k++ {
		purposes = append(purposes, widePurpose(k))
	}
	p := randomPrefs(rng, name, []string{"aaa", "wide", "zzz", "uncovered"}, purposes)
	for _, k := range []int{0, 63, 64, 127, 128} {
		if k < n && rng.Float64() < 0.4 {
			p.Add("wide", privacy.Tuple{
				Purpose:     widePurpose(k),
				Visibility:  privacy.Level(rng.Intn(5)),
				Granularity: privacy.Level(rng.Intn(4)),
				Retention:   privacy.Level(rng.Intn(6)),
			})
		}
	}
	if rng.Float64() < 0.3 {
		p.Add("wide", privacy.Tuple{Purpose: "all", Visibility: privacy.Level(rng.Intn(5))})
	}
	return p
}

// TestAssessRowFallbacks covers AssessRow's edges: nil columns and columns
// compiled under a different policy are recompiled, a nil arena is
// replaced, and a policy wider than one mask word compiles like any other.
func TestAssessRowFallbacks(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 3, Granularity: 2, Retention: 4})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := privacy.NewPrefs("prov", 0.5).
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 1, Granularity: 1, Retention: 1})
	want := a.AssessProvider(p)
	var sc Scratch

	if got := a.AssessRow(p, nil, &sc); !reflect.DeepEqual(got, want) {
		t.Errorf("nil compiled: AssessRow differs from reference")
	}
	if got := a.AssessRow(p, a.Compile(p), nil); !reflect.DeepEqual(got, want) {
		t.Errorf("nil scratch: AssessRow differs from reference")
	}

	// A policy with > 64 tuples on one attribute needs multi-word cover
	// masks: Compile must still compile, and the kernel must answer like
	// the reference.
	wide := privacy.NewHousePolicy("wide")
	for i := 0; i < 70; i++ {
		wide.Add("a", privacy.Tuple{Purpose: privacy.Purpose(fmt.Sprintf("pu%02d", i)), Visibility: 2})
	}
	wa, err := NewAssessor(wide, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wc := wa.Compile(p)
	if wc == nil {
		t.Fatalf("Compile declined a 70-tuple attribute")
	}
	wideWant := wa.AssessProvider(p)
	if got := wa.AssessCompiled(wc, &sc); !reflect.DeepEqual(got, wideWant) {
		t.Errorf("wide policy: AssessCompiled differs from reference")
	}
	if got := wa.AssessRow(p, nil, &sc); !reflect.DeepEqual(got, wideWant) {
		t.Errorf("wide policy: AssessRow differs from reference")
	}

	// Columns compiled under another policy must be rejected, not trusted.
	other := privacy.NewHousePolicy("other").
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 4, Granularity: 3, Retention: 5})
	oa, err := NewAssessor(other, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := oa.Compile(p)
	if stale.CurrentFor(a) {
		t.Fatalf("columns compiled under another policy report CurrentFor = true")
	}
	if got := a.AssessRow(p, stale, &sc); !reflect.DeepEqual(got, want) {
		t.Errorf("stale compiled: AssessRow differs from reference")
	}
}

// TestRetentionCeiling pins the per-attribute retention ceiling the sweep
// consumes: the maximum over the attribute's policy tuples.
func TestRetentionCeiling(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("a", privacy.Tuple{Purpose: "p1", Retention: 2}).
		Add("a", privacy.Tuple{Purpose: "p2", Retention: 5}).
		Add("b", privacy.Tuple{Purpose: "p1", Retention: 0})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := a.Compiled()
	if l, ok := cp.RetentionCeiling("A"); !ok || l != 5 {
		t.Errorf("RetentionCeiling(a) = %d, %v; want 5, true", l, ok)
	}
	if l, ok := cp.RetentionCeiling("b"); !ok || l != 0 {
		t.Errorf("RetentionCeiling(b) = %d, %v; want 0, true", l, ok)
	}
	if _, ok := cp.RetentionCeiling("zzz"); ok {
		t.Errorf("RetentionCeiling(zzz) should report no coverage")
	}
}

// TestAssessCompiledZeroAlloc pins the kernel's zero-allocation claim for
// non-violated providers (after scratch warm-up): the hot certification
// loop must not touch the heap for the common clean row.
func TestAssessCompiledZeroAlloc(t *testing.T) {
	hp := privacy.NewHousePolicy("hp").
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 1, Granularity: 1, Retention: 1}).
		Add("b", privacy.Tuple{Purpose: "svc", Visibility: 1, Granularity: 1, Retention: 1})
	a, err := NewAssessor(hp, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean := privacy.NewPrefs("clean", privacy.NoDefaultThreshold).
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 4, Granularity: 3, Retention: 5}).
		Add("b", privacy.Tuple{Purpose: "svc", Visibility: 4, Granularity: 3, Retention: 5})
	c := a.Compile(clean)
	if c == nil {
		t.Fatal("Compile returned nil")
	}
	var sc Scratch
	if rep := a.AssessCompiled(c, &sc); rep.Violated {
		t.Fatalf("clean provider reported violated: %+v", rep)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = a.AssessCompiled(c, &sc)
	})
	if allocs != 0 {
		t.Errorf("AssessCompiled allocates %.1f objects/op for a clean provider; want 0", allocs)
	}

	// A violated provider allocates only the materialized report (2 slices).
	hot := privacy.NewPrefs("hot", 0).
		Add("a", privacy.Tuple{Purpose: "svc", Visibility: 0, Granularity: 0, Retention: 0})
	hc := a.Compile(hot)
	a.AssessCompiled(hc, &sc) // warm the arena
	allocs = testing.AllocsPerRun(100, func() {
		_ = a.AssessCompiled(hc, &sc)
	})
	if allocs > 2 {
		t.Errorf("AssessCompiled allocates %.1f objects/op for a violated provider; want <= 2", allocs)
	}

	// The same holds when the masks span three words: a 129-tuple
	// attribute granting nothing, a provider with explicit tuples in every
	// word and implicit zeros for the rest.
	wide := privacy.NewHousePolicy("wide")
	for k := 0; k < 129; k++ {
		wide.Add("wide", privacy.Tuple{Purpose: widePurpose(k)})
	}
	wa, err := NewAssessor(wide, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wideClean := privacy.NewPrefs("clean", privacy.NoDefaultThreshold)
	for _, k := range []int{0, 64, 128} {
		wideClean.Add("wide", privacy.Tuple{Purpose: widePurpose(k), Visibility: 4, Granularity: 3, Retention: 5})
	}
	wc := wa.Compile(wideClean)
	if rep := wa.AssessCompiled(wc, &sc); rep.Violated {
		t.Fatalf("clean provider reported violated under the wide policy: %+v", rep)
	}
	allocs = testing.AllocsPerRun(100, func() {
		_ = wa.AssessCompiled(wc, &sc)
	})
	if allocs != 0 {
		t.Errorf("AssessCompiled allocates %.1f objects/op for a clean provider under a wide policy; want 0", allocs)
	}
}
