package query

import (
	"fmt"
	"math"
	"testing"
)

// The SQL surface the enforced path serves — predicates, literals,
// comments, qualified names, ordering and windowing — run end to end over
// the fixture's disclosed view. Only id, provider, income and city are
// referenced, so the surviving providers are alice, bob, carol, dave and
// frank (eve has no provenance, ghost is unregistered); income discloses
// rounded to tens (carol's 41235 reads 41230).

// serviceRows runs sql for purpose service at house class and returns the
// flattened rows.
func serviceRows(t *testing.T, fx *fixture, sql string) []string {
	t.Helper()
	res, err := fx.eng.Query(Request{Requester: "analyst", Purpose: "service", Visibility: 2, SQL: sql})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return display(res.Rows)
}

func TestSQLSurfaceOverDisclosedView(t *testing.T) {
	fx := newFixture(t)
	cases := []struct {
		name string
		sql  string
		want []string
	}{
		{"like", "SELECT provider FROM people WHERE city LIKE 'p%' ORDER BY id", []string{"alice", "carol", "frank"}},
		{"not like", "SELECT provider FROM people WHERE city NOT LIKE '_a%' ORDER BY id", []string{"bob", "dave"}},
		{"in list", "SELECT provider FROM people WHERE city IN ('lyon', 'nice') ORDER BY id", []string{"bob", "dave"}},
		{"not in list", "SELECT provider FROM people WHERE id NOT IN (1, 2, 3) ORDER BY id", []string{"dave", "frank"}},
		{"is not null", "SELECT provider FROM people WHERE email IS NOT NULL ORDER BY id", []string{"alice", "carol"}},
		{"arithmetic", "SELECT provider FROM people WHERE income / 1000 - 40 > 10 ORDER BY id", []string{"alice", "dave"}},
		{"unary minus", "SELECT provider FROM people WHERE -income < -50000 ORDER BY id", []string{"alice", "dave"}},
		{"generalized value", "SELECT provider FROM people WHERE income % 100 = 30", []string{"carol"}},
		{"exponent literal", "SELECT provider FROM people WHERE income >= 5e4 ORDER BY id", []string{"alice", "dave"}},
		{"upper-case exponent", "SELECT provider FROM people WHERE income < 2.5E2 * 200 ORDER BY id", []string{"bob", "carol", "frank"}},
		{"line comments", "SELECT provider -- who\nFROM people -- the table\nWHERE id = 1", []string{"alice"}},
		{"table-qualified", "SELECT people.provider FROM people WHERE people.id = 2", []string{"bob"}},
		{"alias-qualified", "SELECT p.provider FROM people AS p WHERE p.id = 2", []string{"bob"}},
		{"order desc then asc", "SELECT provider FROM people ORDER BY city DESC, id", []string{"alice", "carol", "frank", "dave", "bob"}},
		{"order asc then desc", "SELECT provider FROM people ORDER BY city, id DESC", []string{"bob", "dave", "frank", "carol", "alice"}},
		{"limit offset", "SELECT provider FROM people ORDER BY id LIMIT 2 OFFSET 2", []string{"carol", "dave"}},
		{"limit only", "SELECT provider FROM people ORDER BY id DESC LIMIT 1", []string{"frank"}},
		{"offset past end", "SELECT provider FROM people ORDER BY id OFFSET 99", []string{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := serviceRows(t, fx, tc.sql); !eqStrings(got, tc.want) {
				t.Fatalf("rows = %v, want %v", got, tc.want)
			}
		})
	}

	t.Run("column alias names the output", func(t *testing.T) {
		res, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 2,
			SQL: "SELECT provider AS who, city FROM people WHERE id = 2"})
		if err != nil {
			t.Fatal(err)
		}
		if !eqStrings(res.Columns, []string{"who", "city"}) || !eqStrings(display(res.Rows), []string{"bob|lyon"}) {
			t.Fatalf("columns = %v rows = %v", res.Columns, display(res.Rows))
		}
	})

	t.Run("malformed number", func(t *testing.T) {
		_, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 2,
			SQL: "SELECT provider FROM people WHERE id = 12abc"})
		if err == nil {
			t.Fatal("12abc should fail to parse")
		}
		if _, ok := err.(*UnenforceableError); ok {
			t.Fatalf("parse error misclassified as unenforceable: %v", err)
		}
	})
}

// TestOrderByNullsPlacement pins where NULLs sort: dave's expired email is
// NULL in the disclosed view, first ascending and last descending.
func TestOrderByNullsPlacement(t *testing.T) {
	fx := newFixture(t)
	if got := serviceRows(t, fx, "SELECT provider FROM people ORDER BY email, provider"); !eqStrings(got, []string{"dave", "alice", "carol"}) {
		t.Errorf("ascending = %v, want NULL first", got)
	}
	if got := serviceRows(t, fx, "SELECT provider FROM people ORDER BY email DESC, provider"); !eqStrings(got, []string{"carol", "alice", "dave"}) {
		t.Errorf("descending = %v, want NULL last", got)
	}
}

// TestIndexAssistedEquality checks that the index path answers exactly
// what the full scan answers, whichever side of the equality the column
// is on and however it is qualified.
func TestIndexAssistedEquality(t *testing.T) {
	fx := newFixture(t)
	full := serviceRows(t, fx, "SELECT id FROM people WHERE city LIKE 'paris' AND income > 35000 ORDER BY id")
	if !eqStrings(full, []string{"1", "3"}) {
		t.Fatalf("full scan = %v", full)
	}
	for _, sql := range []string{
		"SELECT id FROM people WHERE city = 'paris' AND income > 35000 ORDER BY id",
		"SELECT id FROM people WHERE 'paris' = city AND income > 35000 ORDER BY id",
		"SELECT p.id FROM people p WHERE p.city = 'paris' AND p.income > 35000 ORDER BY p.id",
	} {
		res, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 2, SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		if !res.IndexScan {
			t.Errorf("%s: expected the city index", sql)
		}
		if got := display(res.Rows); !eqStrings(got, full) {
			t.Errorf("%s: rows = %v, want %v", sql, got, full)
		}
	}
	if got := serviceRows(t, fx, "SELECT id FROM people WHERE city = 'nowhere'"); len(got) != 0 {
		t.Errorf("no-match lookup = %v", got)
	}
}

// TestLimitOffsetOverflow checks that a LIMIT at the top of the integer
// range, where offset + limit overflows, still answers the rows from the
// offset instead of panicking while sizing the answer window.
func TestLimitOffsetOverflow(t *testing.T) {
	fx := newFixture(t)
	var got []string
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("query panicked: %v", r)
			}
		}()
		got = serviceRows(t, fx, fmt.Sprintf("SELECT provider FROM people ORDER BY id LIMIT %d OFFSET 1", math.MaxInt64))
	}()
	if want := []string{"bob", "carol", "dave", "frank"}; !eqStrings(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if got := serviceRows(t, fx, fmt.Sprintf("SELECT provider FROM people ORDER BY id LIMIT %d OFFSET %d", math.MaxInt64, math.MaxInt64)); len(got) != 0 {
		t.Fatalf("offset past end = %v, want none", got)
	}
}

// TestJoinAmbiguousColumn checks that a join whose bare column would be
// ambiguous across its two sides is refused as unenforceable at plan time
// rather than answered from either side.
func TestJoinAmbiguousColumn(t *testing.T) {
	fx := newFixture(t)
	_, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 2,
		SQL: "SELECT id FROM people p JOIN people q ON p.id = q.id"})
	if _, ok := err.(*UnenforceableError); !ok {
		t.Fatalf("expected *UnenforceableError, got %T: %v", err, err)
	}
}

// TestIndexPathSkippedWithJoins checks that an indexed equality inside a
// join does not reach the index path: the join is refused whole, for inner
// and plain joins alike.
func TestIndexPathSkippedWithJoins(t *testing.T) {
	fx := newFixture(t)
	if res, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 2,
		SQL: "SELECT id FROM people WHERE city = 'paris'"}); err != nil || !res.IndexScan {
		t.Fatalf("single-table lookup: IndexScan = %v, err = %v; want the city index", res != nil && res.IndexScan, err)
	}
	for _, sql := range []string{
		"SELECT p.email FROM people p INNER JOIN people q ON p.id = q.id WHERE p.city = 'paris'",
		"SELECT p.email FROM people p JOIN people q ON p.id = q.id WHERE p.city = 'paris' ORDER BY q.id",
	} {
		res, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 2, SQL: sql})
		if _, ok := err.(*UnenforceableError); !ok {
			t.Errorf("%s: expected *UnenforceableError, got %T: %v (result %v)", sql, err, err, res)
		}
	}
}

// TestExecErrors checks that statements naming what the catalog does not
// hold, and statements that are not SELECTs, fail as plain invalid input:
// neither a denial nor an unenforceable shape.
func TestExecErrors(t *testing.T) {
	fx := newFixture(t)
	for _, sql := range []string{
		"SELECT * FROM nope",
		"SELECT nope FROM people",
		"SELECT nope.email FROM people",
		"UPDATE nope SET a = 1",
		"UPDATE people SET city = 'rome'",
		"DELETE FROM nope",
		"INSERT INTO nope VALUES (1)",
		"INSERT INTO people (id) VALUES (99)",
	} {
		_, err := fx.eng.Query(Request{Requester: "a", Purpose: "service", Visibility: 2, SQL: sql})
		if err == nil {
			t.Errorf("%q should fail", sql)
			continue
		}
		switch err.(type) {
		case *UnenforceableError, *DeniedError:
			t.Errorf("%q: invalid input misclassified as %T: %v", sql, err, err)
		}
	}
}
