package economics

import (
	"math"
	"testing"

	"repro/internal/population"
	"repro/internal/privacy"
)

func TestBreakEvenT(t *testing.T) {
	// Eq. 31: T > U (Ncur/Nfut − 1). U=10, 100→80 providers: T > 2.5.
	if got := BreakEvenT(10, 100, 80); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("BreakEvenT = %g, want 2.5", got)
	}
	// No defaults: any positive T justifies.
	if got := BreakEvenT(10, 100, 100); got != 0 {
		t.Errorf("no-default break-even = %g, want 0", got)
	}
	// Everyone defaults.
	if got := BreakEvenT(10, 100, 0); !math.IsInf(got, 1) {
		t.Errorf("all-default break-even = %g, want +Inf", got)
	}
}

func TestJustified(t *testing.T) {
	// 80 × (10 + 3) = 1040 > 1000: justified.
	if !Justified(10, 3, 100, 80) {
		t.Error("T above break-even should justify")
	}
	// 80 × (10 + 2.5) = 1000, not strictly greater.
	if Justified(10, 2.5, 100, 80) {
		t.Error("T at break-even should not justify (strict inequality)")
	}
	if Justified(10, 1000, 100, 0) {
		t.Error("losing everyone is never justified")
	}
}

func TestUtility(t *testing.T) {
	if Utility(100, 10) != 1000 {
		t.Error("Utility wrong")
	}
}

// scenarioFixture builds a policy and a 3-provider population mirroring the
// paper's worked example so expansion effects are hand-checkable.
func scenarioFixture(t *testing.T) (*Scenario, []*privacy.Prefs) {
	t.Helper()
	const pr = privacy.Purpose("research")
	hp := privacy.NewHousePolicy("base")
	hp.Add("weight", privacy.Tuple{Purpose: pr, Visibility: 1, Granularity: 1, Retention: 1})

	sigma := privacy.AttributeSensitivities{}
	sigma.Set("weight", 4)

	mk := func(name string, g privacy.Level, thresh float64, sens privacy.Sensitivity) *privacy.Prefs {
		p := privacy.NewPrefs(name, thresh)
		p.Add("weight", privacy.Tuple{Purpose: pr, Visibility: 4, Granularity: g, Retention: 5})
		p.SetSensitivity("weight", sens)
		return p
	}
	// tolerant: bounds even a widened policy; tight: violated on first
	// granularity widening and defaults; medium: violated but stays.
	tolerant := mk("tolerant", 3, 1000, privacy.Sensitivity{Value: 1, Visibility: 1, Granularity: 1, Retention: 1})
	tight := mk("tight", 1, 10, privacy.Sensitivity{Value: 3, Visibility: 1, Granularity: 5, Retention: 2})
	medium := mk("medium", 1, 100, privacy.Sensitivity{Value: 1, Visibility: 1, Granularity: 2, Retention: 1})

	sc := &Scenario{BasePolicy: hp, AttrSens: sigma, BaseUtility: 10}
	return sc, []*privacy.Prefs{tolerant, tight, medium}
}

func TestScenarioRun(t *testing.T) {
	sc, pop := scenarioFixture(t)
	steps := []Step{
		WidenStep("weight", privacy.DimGranularity, 3), // g 1→2
		WidenStep("weight", privacy.DimGranularity, 3), // g 2→3
	}
	points, err := sc.Run(pop, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	p0 := points[0]
	if p0.PW != 0 || p0.PDefault != 0 || p0.NFuture != 3 {
		t.Errorf("base point = %+v", p0)
	}
	if p0.UtilityCurrent != 30 || p0.UtilityFuture != 30 {
		t.Errorf("base utility = %+v", p0)
	}

	// Step 1 (g=2): tight's conf = 1×4×3×5 = 60 > 10 → defaults.
	// medium's conf = 1×4×1×2 = 8 ≤ 100 → stays. tolerant unviolated.
	p1 := points[1]
	if math.Abs(p1.PW-2.0/3.0) > 1e-12 {
		t.Errorf("step1 PW = %g, want 2/3", p1.PW)
	}
	if math.Abs(p1.PDefault-1.0/3.0) > 1e-12 {
		t.Errorf("step1 PDefault = %g, want 1/3", p1.PDefault)
	}
	if p1.NFuture != 2 {
		t.Errorf("step1 NFuture = %d", p1.NFuture)
	}
	// Utility: 2 × (10 + 3) = 26 < 30 → not justified.
	if p1.UtilityFuture != 26 || p1.Justified {
		t.Errorf("step1 utility = %+v", p1)
	}
	// Break-even T for 3→2: 10 × (3/2 − 1) = 5 > 3 offered.
	if math.Abs(p1.BreakEvenT-5) > 1e-12 {
		t.Errorf("step1 break-even = %g, want 5", p1.BreakEvenT)
	}

	// Step 2 (g=3): tight already gone; medium conf = 2×4×1×2 = 16, stays;
	// tolerant still bounds the policy. Over the remaining 2 providers,
	// PDefault = 0.
	p2 := points[2]
	if p2.NFuture != 2 || p2.PDefault != 0 {
		t.Errorf("step2 = %+v", p2)
	}
	// Cumulative per-provider utility 10+3+3 = 16 → future 32 > 30.
	if p2.UtilityFuture != 32 || !p2.Justified {
		t.Errorf("step2 utility = %+v", p2)
	}

	if got := OptimalStep(points); got != 2 {
		t.Errorf("OptimalStep = %d, want 2", got)
	}
}

func TestScenarioErrors(t *testing.T) {
	sc, pop := scenarioFixture(t)
	sc.BasePolicy = nil
	if _, err := sc.Run(pop, nil); err == nil {
		t.Error("nil base policy should fail")
	}
	sc2, _ := scenarioFixture(t)
	sc2.BaseUtility = -1
	if _, err := sc2.Run(pop, nil); err == nil {
		t.Error("negative base utility should fail")
	}
	sc3, _ := scenarioFixture(t)
	if _, err := sc3.Run(pop, []Step{{Label: "broken"}}); err == nil {
		t.Error("step without Apply should fail")
	}
}

func TestOptimalStepEmpty(t *testing.T) {
	if OptimalStep(nil) != -1 {
		t.Error("empty series should return -1")
	}
}

// TestExpansionMonotonicity runs a realistic Westin population through
// progressive widening and checks the Sec. 9 qualitative claims: P(W) and
// cumulative defaults never decrease as the policy widens.
func TestExpansionMonotonicity(t *testing.T) {
	const pr = privacy.Purpose("service")
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{pr}},
			{Name: "income", Sensitivity: 5, Purposes: []privacy.Purpose{pr}},
		},
	}, 123)
	if err != nil {
		t.Fatal(err)
	}
	providers := gen.Generate(800)
	pop := population.PrefsOf(providers)

	hp := privacy.NewHousePolicy("v0")
	hp.Add("weight", privacy.Tuple{Purpose: pr, Visibility: 1, Granularity: 1, Retention: 1})
	hp.Add("income", privacy.Tuple{Purpose: pr, Visibility: 1, Granularity: 1, Retention: 1})

	sc := &Scenario{BasePolicy: hp, AttrSens: gen.AttributeSensitivities(), BaseUtility: 10}
	steps := []Step{
		WidenAllStep(privacy.DimVisibility, 2),
		WidenAllStep(privacy.DimGranularity, 2),
		WidenAllStep(privacy.DimRetention, 2),
		WidenAllStep(privacy.DimVisibility, 2),
	}
	points, err := sc.Run(pop, steps)
	if err != nil {
		t.Fatal(err)
	}
	// P(W) among remaining providers must not decrease as the policy widens
	// (survivors' violations only grow), and N_future must not increase.
	for i := 1; i < len(points); i++ {
		if points[i].NFuture > points[i-1].NFuture {
			t.Errorf("NFuture grew at step %d: %d → %d", i, points[i-1].NFuture, points[i].NFuture)
		}
	}
	// Widening must cause some violation by the last step.
	last := points[len(points)-1]
	if last.PW == 0 {
		t.Error("aggressive widening should violate someone")
	}
	if last.NFuture == points[0].NFuture {
		t.Error("aggressive widening should cause some defaults in a Westin population")
	}
}

func TestGreedyPlan(t *testing.T) {
	sc, pop := scenarioFixture(t)
	// Candidates: a profitable granularity widening and a ruinous one that
	// would default everyone relative to its tiny reward.
	good := WidenStep("weight", privacy.DimGranularity, 6)
	ruinous := Step{
		Label: "sell everything",
		Apply: func(prev *privacy.HousePolicy) *privacy.HousePolicy {
			// Enormous visibility widening: defaults both tight and medium
			// (only the near-infinitely tolerant provider stays).
			p := prev.WidenAll(prev.Name+"!", privacy.DimVisibility, 40)
			p = p.WidenAll(p.Name, privacy.DimGranularity, 3)
			return p.WidenAll(p.Name, privacy.DimRetention, 5)
		},
		ExtraUtility: 0.5,
	}
	plan, err := sc.GreedyPlan(pop, []Step{ruinous, good})
	if err != nil {
		t.Fatal(err)
	}
	// The good step pays (3 providers × 16 = 48 > 30 even if tight defaults:
	// 2 × 16 = 32 > 30); the ruinous step must be rejected.
	if len(plan) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].Label != good.Label {
		t.Errorf("plan picked %q", plan[0].Label)
	}
	if !plan[0].Justified {
		t.Error("committed step must be justified")
	}
	// A plan from only ruinous candidates is empty.
	plan, err = sc.GreedyPlan(pop, []Step{ruinous})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 0 {
		t.Errorf("ruinous-only plan = %+v", plan)
	}
	// Errors.
	broken := &Scenario{}
	if _, err := broken.GreedyPlan(pop, nil); err == nil {
		t.Error("nil base policy should fail")
	}
	if _, err := sc.GreedyPlan(pop, []Step{{Label: "no apply"}}); err == nil {
		t.Error("candidate without Apply should fail")
	}
}

func TestGreedyPlanMonotoneUtility(t *testing.T) {
	const pr = privacy.Purpose("service")
	gen, err := population.NewGenerator(population.Config{
		Attributes: []population.AttributeSpec{
			{Name: "weight", Sensitivity: 4, Purposes: []privacy.Purpose{pr}},
		},
	}, 55)
	if err != nil {
		t.Fatal(err)
	}
	pop := population.PrefsOf(gen.Generate(400))
	hp := privacy.NewHousePolicy("v0")
	hp.Add("weight", privacy.Tuple{Purpose: pr, Visibility: 1, Granularity: 1, Retention: 1})
	sc := &Scenario{BasePolicy: hp, AttrSens: gen.AttributeSensitivities(), BaseUtility: 10}

	candidates := []Step{
		WidenAllStep(privacy.DimVisibility, 2),
		WidenAllStep(privacy.DimGranularity, 2),
		WidenAllStep(privacy.DimRetention, 2),
	}
	plan, err := sc.GreedyPlan(pop, candidates)
	if err != nil {
		t.Fatal(err)
	}
	// Committed utilities strictly increase by construction.
	prev := -1.0
	for _, pt := range plan {
		if pt.UtilityFuture <= prev {
			t.Errorf("utility not increasing: %g after %g", pt.UtilityFuture, prev)
		}
		prev = pt.UtilityFuture
	}
}
