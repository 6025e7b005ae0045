package ppdb

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/generalize"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

func TestAuditByPurpose(t *testing.T) {
	db := clinicDB(t)
	db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT weight FROM patients"})
	db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT age FROM patients"})
	db.QueryEnforced(EnforcedQuery{Purpose: "marketing", Visibility: 2, SQL: "SELECT weight FROM patients"})
	byP := db.Audit().ByPurpose()
	if byP["care"] != 2 || byP["marketing"] != 1 {
		t.Errorf("ByPurpose = %v", byP)
	}
}

func TestProvidersListing(t *testing.T) {
	db := clinicDB(t)
	ps := db.Providers()
	if len(ps) != 2 {
		t.Fatalf("providers = %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Provider] = true
	}
	if !names["alice"] || !names["bob"] {
		t.Errorf("names = %v", names)
	}
}

// TestSuppressOnlyFallback exercises the default hierarchy for attributes
// without a registered one: partial granularity suppresses entirely.
func TestSuppressOnlyFallback(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 1, Retention: 4})
	db, err := New(Config{Policy: hp}) // no hierarchies registered
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "note", Type: relational.TypeText},
	})
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}
	p := privacy.NewPrefs("a", 10)
	p.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	p.Add("note", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db.RegisterProvider(p)
	db.Insert("t", "a", relational.Row{relational.Text("a"), relational.Text("secret details")})

	res, err := db.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT note FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Display() != "*" {
		t.Errorf("note = %q, want suppressed", res.Rows[0][0].Display())
	}
	// NULL passes through the suppressor.
	db2, _ := New(Config{Policy: hp})
	db2.RegisterTable("t", schema, "provider")
	db2.RegisterProvider(p.Clone(""))
	db2.Insert("t", "a", relational.Row{relational.Text("a"), relational.Null()})
	res, err = db2.QueryEnforced(EnforcedQuery{Purpose: "care", Visibility: 2, SQL: "SELECT note FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("NULL should survive suppression: %v", res.Rows[0][0])
	}
}

// TestHierarchyLevelMapping pins the policy-granularity → hierarchy-level
// conversion at the scale edges.
func TestHierarchyLevelMapping(t *testing.T) {
	db := clinicDB(t) // weight hierarchy has 4 levels (0..3)
	h := db.hierarchyFor("weight")
	gmax := int(db.scales.Granularity.Max())
	// Full granularity (scale max 3) → level 0 (exact).
	if lv := generalize.LevelFor(h, 3, gmax); lv != 0 {
		t.Errorf("g=3 → %d, want 0", lv)
	}
	// Zero granularity → full suppression (hierarchy max).
	if lv := generalize.LevelFor(h, 0, gmax); lv != h.Levels()-1 {
		t.Errorf("g=0 → %d, want max", lv)
	}
	// Intermediate levels are monotone: coarser policy ⇒ deeper level.
	prev := generalize.LevelFor(h, 3, gmax)
	for g := 2; g >= 0; g-- {
		lv := generalize.LevelFor(h, g, gmax)
		if lv < prev {
			t.Errorf("hierarchy level decreased at g=%d", g)
		}
		prev = lv
	}
	// Attributes without a registered hierarchy fall back to suppression.
	if _, ok := db.hierarchyFor("patient").(generalize.SuppressionHierarchy); !ok {
		t.Errorf("patient hierarchy = %T, want the suppression fallback", db.hierarchyFor("patient"))
	}
}

// TestQueryGroupedAggregatesGated verifies that aggregates and grouping are
// refused outright (their cells mix providers) and that ORDER BY
// references are policy-gated like projections.
func TestQueryGroupedAggregatesGated(t *testing.T) {
	db := clinicDB(t)
	var unenf *query.UnenforceableError
	if _, err := db.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT AVG(weight) FROM patients",
	}); !errors.As(err, &unenf) {
		t.Errorf("aggregate must be unenforceable, got %v", err)
	}
	if _, err := db.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT COUNT(*) FROM patients GROUP BY age",
	}); !errors.As(err, &unenf) {
		t.Errorf("GROUP BY must be unenforceable, got %v", err)
	}
	// ORDER BY on an attribute research does not cover is denied.
	var denied *query.DeniedError
	if _, err := db.QueryEnforced(EnforcedQuery{
		Purpose: "research", Visibility: 3,
		SQL: "SELECT weight FROM patients ORDER BY age",
	}); !errors.As(err, &denied) || denied.Attribute != "age" {
		t.Errorf("ORDER BY attribute must be gated, got %v", err)
	}
}

// TestDeniedErrorMessage checks that a denial names the attribute and the
// reason, in the error and in the audit record.
func TestDeniedErrorMessage(t *testing.T) {
	db := clinicDB(t)
	_, err := db.QueryEnforced(EnforcedQuery{Purpose: "marketing", Visibility: 2, SQL: "SELECT weight FROM patients"})
	if err == nil || !strings.Contains(err.Error(), `"weight"`) || !strings.Contains(err.Error(), `"marketing"`) {
		t.Fatalf("message = %v", err)
	}
	recs := db.Audit().Denied()
	if len(recs) != 1 || recs[0].Reason != err.Error() {
		t.Errorf("denied audit = %+v", recs)
	}
}
