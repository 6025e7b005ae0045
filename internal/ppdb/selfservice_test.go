package ppdb

import (
	"reflect"
	"testing"

	"repro/internal/privacy"
	"repro/internal/relational"
)

func TestProviderView(t *testing.T) {
	db := clinicDB(t)
	rows, err := db.ProviderView("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Table != "patients" {
		t.Fatalf("rows = %+v", rows)
	}
	// Full granularity: exact weight, not a range.
	w, ok := rows[0].Values[2].AsFloat()
	if !ok || w != 61.5 {
		t.Errorf("own weight = %v", rows[0].Values[2])
	}
	if _, err := db.ProviderView("stranger"); err == nil {
		t.Error("unregistered provider should fail")
	}
}

// TestProviderViewDeterministic pins the self-service read order: a
// provider's rows across two tables come back sorted by (table, row id),
// identically on every call, whatever the map iteration order.
func TestProviderViewDeterministic(t *testing.T) {
	db := clinicDB(t)
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "patient", Type: relational.TypeText},
		{Name: "note", Type: relational.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("visits", schema, "patient"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for _, who := range []string{"alice", "bob"} {
			if _, err := db.Insert("visits", who, relational.Row{relational.Text(who), relational.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, err := db.ProviderView("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 9 {
		t.Fatalf("alice has %d rows, want 9 (1 patient + 8 visits)", len(first))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Table > b.Table || (a.Table == b.Table && a.RowID >= b.RowID) {
			t.Fatalf("rows %d and %d out of (table, row id) order: %s/%d then %s/%d", i-1, i, a.Table, a.RowID, b.Table, b.RowID)
		}
	}
	for call := 0; call < 20; call++ {
		got, err := db.ProviderView("alice")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d returned a different answer than the first call", call)
		}
	}
}

func TestUpdateOwnRow(t *testing.T) {
	db := clinicDB(t)
	rows, err := db.ProviderView("alice")
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	updated := append(relational.Row(nil), row.Values...)
	updated[2] = relational.Float(59.0)
	if err := db.UpdateOwnRow("alice", row.Table, row.RowID, updated); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.ProviderView("alice")
	if w, _ := rows[0].Values[2].AsFloat(); w != 59 {
		t.Errorf("updated weight = %v", rows[0].Values[2])
	}
	// Bob cannot update alice's row.
	if err := db.UpdateOwnRow("bob", row.Table, row.RowID, updated); err == nil {
		t.Error("cross-provider update must fail")
	}
	// Ownership reassignment refused.
	stolen := append(relational.Row(nil), updated...)
	stolen[0] = relational.Text("bob")
	if err := db.UpdateOwnRow("alice", row.Table, row.RowID, stolen); err == nil {
		t.Error("ownership reassignment must fail")
	}
	// Missing row / table.
	if err := db.UpdateOwnRow("alice", "patients", relational.RowID(999), updated); err == nil {
		t.Error("missing row must fail")
	}
	if err := db.UpdateOwnRow("alice", "nope", row.RowID, updated); err == nil {
		t.Error("missing table must fail")
	}
}

func TestSelfAudit(t *testing.T) {
	db := clinicDB(t)
	// Bob never consented to research → violated, would default.
	rep, err := db.SelfAudit("bob")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Violated || !rep.Defaults || len(rep.Pairs) == 0 {
		t.Errorf("bob self-audit = %+v", rep)
	}
	// Alice is clean.
	rep, err = db.SelfAudit("alice")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated {
		t.Errorf("alice self-audit = %+v", rep)
	}
	if _, err := db.SelfAudit("stranger"); err == nil {
		t.Error("unregistered provider should fail")
	}
}

func TestUpdatePreferences(t *testing.T) {
	db := clinicDB(t)
	// Bob grants research on weight and patient: his violation disappears.
	bob := privacy.NewPrefs("bob", 5)
	bob.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	bob.Add("weight", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 2, Retention: 3})
	bob.Add("age", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 2, Retention: 4})
	bob.Add("patient", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	bob.Add("patient", privacy.Tuple{Purpose: "research", Visibility: 3, Granularity: 3, Retention: 3})
	if err := db.UpdatePreferences("bob", bob); err != nil {
		t.Fatal(err)
	}
	rep, err := db.SelfAudit("bob")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated {
		t.Errorf("bob still violated after consent: %+v", rep)
	}
	// Identity mismatch and unknown provider refused.
	if err := db.UpdatePreferences("alice", bob); err == nil {
		t.Error("identity mismatch must fail")
	}
	carol := privacy.NewPrefs("carol", 5)
	if err := db.UpdatePreferences("carol", carol); err == nil {
		t.Error("unregistered provider must fail")
	}
	if err := db.UpdatePreferences("bob", nil); err == nil {
		t.Error("nil prefs must fail")
	}
}
