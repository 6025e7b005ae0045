package whatif_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/whatif"
)

// shadowSink keeps the benchmarked assessments from being optimized away.
var shadowSink float64

// BenchmarkShadowAssess measures the shadow side of a full what-if — every
// provider re-assessed under the candidate policy — two ways over 10k
// providers shaped like the benchmark's policy-officer workload (one
// "common" tuple each, every 11th also a "rare" one) with the "common"
// tuple retargeted:
//
//   - reference: shadow.AssessProvider per provider, what Engine.Evaluate
//     runs today;
//   - compiled: shadow.Compile + shadow.AssessCompiled per provider, the
//     columnar kernel paying a compile for every row, since the live
//     columns were compiled against the live policy.
//
// One op assesses the whole population.
func BenchmarkShadowAssess(b *testing.B) {
	const n = 10000
	live := privacy.NewHousePolicy("officer-v1")
	live.Add("common", tup("service", 2, 2, 2))
	live.Add("rare", tup("service", 0, 0, 0))
	sens := privacy.AttributeSensitivities{"common": 2, "rare": 6}
	diff := whatif.Diff{Retarget: []whatif.TupleSpec{
		{Attribute: "common", Purpose: "service", Visibility: 4, Granularity: 3, Retention: 4}}}
	shadowPolicy, shadowSens, _, err := whatif.ApplyDiff(live, sens, &diff, "officer-v1+whatif", privacy.DefaultScales())
	if err != nil {
		b.Fatal(err)
	}
	shadow, err := core.NewAssessor(shadowPolicy, shadowSens, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	level := func(lo, hi int) privacy.Level { return privacy.Level(lo + rng.Intn(hi-lo+1)) }
	pop := make([]*privacy.Prefs, n)
	for i := range pop {
		p := privacy.NewPrefs(fmt.Sprintf("o%05d", i), float64(10+rng.Intn(50)))
		p.Add("common", tup("service", level(1, 3), level(1, 3), level(1, 4)))
		if i%11 == 0 {
			p.Add("rare", tup("service", level(0, 2), level(0, 2), level(0, 3)))
		}
		pop[i] = p
	}

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pop {
				shadowSink += shadow.AssessProvider(p).Violation
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		var sc core.Scratch
		for i := 0; i < b.N; i++ {
			for _, p := range pop {
				shadowSink += shadow.AssessCompiled(shadow.Compile(p), &sc).Violation
			}
		}
	})
}
