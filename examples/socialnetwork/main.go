// Social network example: a site revises its privacy policy three times —
// the "frequently changing privacy policies on social networking sites" that
// Secs. 1 and 10 call out. A synthetic Westin population of members is
// audited across versions: every revision widens some dimension, P(W) and
// defaults accumulate, and the what-if engine prices each change before
// adoption (Eq. 31).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/economics"
	"repro/internal/population"
	"repro/internal/privacy"
	"repro/internal/whatif"
)

func main() {
	const (
		posts   = "posts"
		profile = "profile"
		contact = "contact"
	)
	purposes := []privacy.Purpose{"service", "ads"}

	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: posts, Sensitivity: 2, Purposes: purposes},
			{Name: profile, Sensitivity: 3, Purposes: purposes},
			{Name: contact, Sensitivity: 5, Purposes: purposes},
		},
	}, 404)
	if err != nil {
		log.Fatal(err)
	}
	members := gen.Generate(5000)
	pop := population.PrefsOf(members)
	sigma := gen.AttributeSensitivities()
	fmt.Printf("members: %d %v\n\n", len(pop), population.SegmentCounts(members))

	// v1: conservative launch policy — service purpose only.
	v1 := privacy.NewHousePolicy("v1-launch")
	for _, attr := range []string{posts, profile, contact} {
		v1.Add(attr, privacy.Tuple{Purpose: "service", Visibility: 1, Granularity: 2, Retention: 2})
	}
	// v2: posts become world-visible and retained indefinitely.
	v2 := v1.Clone("v2-public-posts")
	v2 = v2.Widen("v2-public-posts", posts, privacy.DimVisibility, 3)
	v2 = v2.Widen("v2-public-posts", posts, privacy.DimRetention, 3)
	// v3: profile data flows to the ads purpose at full granularity.
	v3 := v2.AddPurpose("v3-ads", profile,
		privacy.Tuple{Purpose: "ads", Visibility: 3, Granularity: 3, Retention: 4})
	// v4: contact info joins the ads pipeline too.
	v4 := v3.AddPurpose("v4-ads-contact", contact,
		privacy.Tuple{Purpose: "ads", Visibility: 3, Granularity: 3, Retention: 4})

	versions := []*privacy.HousePolicy{v1, v2, v3, v4}

	// Audit each version against the full launch population.
	fmt.Println("policy version audit (full launch population):")
	fmt.Printf("%-18s %8s %12s %12s\n", "version", "P(W)", "P(Default)", "Violations")
	for _, hp := range versions {
		a, err := core.NewAssessor(hp, sigma, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rep := a.AssessPopulation(pop)
		fmt.Printf("%-18s %8.4f %12.4f %12.0f\n", hp.Name, rep.PW, rep.PDefault, rep.TotalViolations)
	}

	// Price each transition with the what-if engine.
	const baseU = 4.0 // ad revenue per member per quarter
	fmt.Println("\ntransition pricing (Eq. 31):")
	for i := 1; i < len(versions); i++ {
		diff, err := whatif.DiffPolicies(versions[i-1], versions[i], sigma, sigma)
		if err != nil {
			log.Fatal(err)
		}
		w, err := whatif.EvaluateOffline(versions[i-1], sigma, core.Options{}, pop,
			&whatif.Request{Name: versions[i].Name, Diff: diff, U: baseU})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s → %s: ΔP(Default)=%+.4f, ", versions[i-1].Name, versions[i].Name, w.DeltaPDefault)
		if w.BreakEvenT != nil {
			fmt.Printf("adopt only if extra utility per member T > %.3f\n", *w.BreakEvenT)
		} else {
			fmt.Printf("no extra utility pays: every member would default\n")
		}
	}

	// Run the transitions as an expansion scenario where defaulted members
	// actually leave, and find where the site should have stopped.
	steps := []economics.Step{
		{Label: "v2 public posts", Apply: func(*privacy.HousePolicy) *privacy.HousePolicy { return v2 }, ExtraUtility: 1.0},
		{Label: "v3 ads on profile", Apply: func(*privacy.HousePolicy) *privacy.HousePolicy { return v3 }, ExtraUtility: 2.0},
		{Label: "v4 ads on contact", Apply: func(*privacy.HousePolicy) *privacy.HousePolicy { return v4 }, ExtraUtility: 1.5},
	}
	sc := &economics.Scenario{BasePolicy: v1, AttrSens: sigma, BaseUtility: baseU}
	points, err := sc.Run(pop, steps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nlive rollout (defaulted members leave):")
	fmt.Printf("%-22s %10s %12s %12s %10s\n", "step", "members", "utility", "break-even", "justified")
	for _, p := range points {
		fmt.Printf("%-22s %10d %12.0f %12.3f %10v\n", p.Label, p.NFuture, p.UtilityFuture, p.BreakEvenT, p.Justified)
	}
	opt := economics.OptimalStep(points)
	fmt.Printf("\noptimal stopping point: %q (utility %.0f)\n", points[opt].Label, points[opt].UtilityFuture)
}
