package relational

import (
	"strings"
	"testing"
)

// The parser reads the single-table SELECT and CREATE TABLE. These tests pin
// the parse trees, evaluate WHERE predicates and computed expressions row by
// row through MapEnv, and check that every construct the grammar refuses is
// refused by name while other non-SELECT input is a plain parse error.

// patientRows is the clinic fixture as one MapEnv per row.
func patientRows() []MapEnv {
	row := func(id int64, name string, age int64, weight Value, city string) MapEnv {
		return MapEnv{"id": Int(id), "name": Text(name), "age": Int(age), "weight": weight, "city": Text(city)}
	}
	return []MapEnv{
		row(1, "alice", 34, Float(61.5), "calgary"),
		row(2, "bob", 51, Float(92), "calgary"),
		row(3, "carol", 28, Float(55), "edmonton"),
		row(4, "dave", 45, Null(), "calgary"),
		row(5, "erin", 34, Float(70.5), "edmonton"),
	}
}

// parseSelect parses sql, failing the test on error.
func parseSelect(t *testing.T, sql string) SelectStmt {
	t.Helper()
	sel, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return sel
}

// refused requires Parse to refuse every statement with an
// *UnsupportedError naming construct.
func refused(t *testing.T, construct string, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		_, err := Parse(sql)
		un, ok := err.(*UnsupportedError)
		if !ok {
			t.Errorf("Parse(%q) = %v (%T), want *UnsupportedError", sql, err, err)
			continue
		}
		if un.Construct != construct {
			t.Errorf("Parse(%q) refused %q, want %q", sql, un.Construct, construct)
		}
		if !strings.Contains(err.Error(), construct) {
			t.Errorf("Parse(%q) error %q does not name %q", sql, err, construct)
		}
	}
}

// invalid requires Parse to fail on every statement with a plain parse
// error, never a refusal by name.
func invalid(t *testing.T, sqls ...string) {
	t.Helper()
	for _, sql := range sqls {
		_, err := Parse(sql)
		if err == nil {
			t.Errorf("%q should fail to parse", sql)
		} else if _, ok := err.(*UnsupportedError); ok {
			t.Errorf("Parse(%q) = %v, want a plain parse error", sql, err)
		}
	}
}

// matching returns the names of the fixture rows where pred holds.
func matching(t *testing.T, pred Expr) []string {
	t.Helper()
	var out []string
	for _, r := range patientRows() {
		ok, err := Truthy(pred, r)
		if err != nil {
			t.Fatalf("eval %s: %v", pred, err)
		}
		if ok {
			out = append(out, r["name"].Display())
		}
	}
	return out
}

// itemStrings renders the projection list.
func itemStrings(items []SelectItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Star:
			out[i] = "*"
		case it.Alias != "":
			out[i] = it.Expr.String() + " AS " + it.Alias
		default:
			out[i] = it.Expr.String()
		}
	}
	return out
}

// orderStrings renders the ORDER BY keys.
func orderStrings(keys []OrderItem) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.Expr.String()
		if k.Desc {
			out[i] += " DESC"
		}
	}
	return out
}

func joined(s []string) string { return strings.Join(s, ", ") }

func TestSelectBasic(t *testing.T) {
	sel := parseSelect(t, "SELECT name, age FROM patients WHERE age > 30 ORDER BY age DESC, name")
	if got := joined(itemStrings(sel.Items)); got != "name, age" {
		t.Errorf("items = %s", got)
	}
	if sel.From != (FromItem{Table: "patients", Alias: "patients"}) {
		t.Errorf("from = %+v", sel.From)
	}
	if got := joined(matching(t, sel.Where)); got != "alice, bob, dave, erin" {
		t.Errorf("WHERE matches %s", got)
	}
	if got := joined(orderStrings(sel.OrderBy)); got != "age DESC, name" {
		t.Errorf("ORDER BY = %s", got)
	}
	if sel.Limit != -1 || sel.Offset != 0 {
		t.Errorf("limit/offset = %d/%d, want none", sel.Limit, sel.Offset)
	}
	// NOT over a parenthesised comparison.
	sel = parseSelect(t, "SELECT name FROM patients WHERE NOT (age < 40)")
	if sel.Where.String() != "(NOT (age < 40))" {
		t.Errorf("WHERE = %s", sel.Where)
	}
	if got := joined(matching(t, sel.Where)); got != "bob, dave" {
		t.Errorf("NOT matches %s", got)
	}
}

func TestSelectStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM patients WHERE id = 3")
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("items = %v", itemStrings(sel.Items))
	}
	if got := joined(matching(t, sel.Where)); got != "carol" {
		t.Errorf("WHERE matches %s", got)
	}
}

func TestSelectExpressionsAndAliases(t *testing.T) {
	sel := parseSelect(t, "SELECT name, weight / 2.2 AS weight_lbs_ish FROM patients WHERE weight IS NOT NULL ORDER BY name LIMIT 1")
	if sel.Items[1].Alias != "weight_lbs_ish" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	v, err := sel.Items[1].Expr.Eval(patientRows()[0])
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f < 27 || f > 29 {
		t.Errorf("computed value = %v", v)
	}
	if got := joined(matching(t, sel.Where)); got != "alice, bob, carol, erin" {
		t.Errorf("IS NOT NULL matches %s", got)
	}
	if sel.Limit != 1 {
		t.Errorf("limit = %d", sel.Limit)
	}
	// Composite expressions render fully parenthesised.
	sel = parseSelect(t, `
		SELECT city,
		       age / 2 + 1 AS half,
		       weight IS NULL AS no_weight,
		       age IN (28, 34) AS small,
		       -age AS neg
		FROM patients ORDER BY city`)
	want := "city, ((age / 2) + 1) AS half, (weight IS NULL) AS no_weight, " +
		"(age IN (28, 34)) AS small, (-age) AS neg"
	if got := joined(itemStrings(sel.Items)); got != want {
		t.Errorf("items =\n  %s\nwant\n  %s", got, want)
	}
}

func TestSelectLimitOffset(t *testing.T) {
	sel := parseSelect(t, "SELECT id FROM patients ORDER BY id LIMIT 2 OFFSET 2")
	if sel.Limit != 2 || sel.Offset != 2 {
		t.Errorf("limit/offset = %d/%d, want 2/2", sel.Limit, sel.Offset)
	}
	sel = parseSelect(t, "SELECT id FROM patients ORDER BY id OFFSET 99")
	if sel.Limit != -1 || sel.Offset != 99 {
		t.Errorf("offset-only = %d/%d, want -1/99", sel.Limit, sel.Offset)
	}
	invalid(t,
		"SELECT id FROM patients LIMIT -1",
		"SELECT id FROM patients LIMIT x",
		"SELECT id FROM patients OFFSET",
	)
}

// The tests below pin the refusals: each construct whose answer cells mix
// data across rows is refused by name in every spelling and position, with
// no tree built for it.

func TestJoin(t *testing.T) {
	refused(t, "JOIN",
		"SELECT p.name, v.reason FROM patients p JOIN visits v ON p.id = v.patient_id WHERE p.city = 'calgary'",
		"SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id ORDER BY v.id",
		"SELECT name FROM patients join visits ON id = patient_id",
		"SELECT name FROM patients AS p Inner Join visits v ON p.id = v.patient_id",
		"SELECT name FROM patients LEFT JOIN visits ON id = patient_id",
	)
}

func TestInnerWithoutJoinBacktracks(t *testing.T) {
	// INNER not followed by JOIN is no join: "inner" is reserved, so it is
	// not read as an alias either, and the statement fails plainly.
	invalid(t,
		"SELECT name FROM patients INNER WHERE id = 1",
		"SELECT name FROM patients INNER",
	)
	refused(t, "JOIN", "SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id WHERE v.id = 10")
}

func TestAggregates(t *testing.T) {
	for fn, sqls := range map[string][]string{
		"COUNT(…)": {"SELECT COUNT(*) FROM patients", "SELECT count(weight) FROM patients",
			"SELECT name FROM patients ORDER BY COUNT(*) DESC"},
		"SUM(…)": {"SELECT SUM(age) FROM patients", "SELECT name FROM patients WHERE age > SUM(age)"},
		"AVG(…)": {"SELECT AVG(weight) FROM patients", "SELECT name, avg(weight) AS mean FROM patients"},
		"MIN(…)": {"SELECT MIN(age) FROM patients"},
		"MAX(…)": {"SELECT MAX(age) FROM patients"},
	} {
		refused(t, fn, sqls...)
	}
	// Without a call the names are plain columns.
	sel := parseSelect(t, "SELECT count, max FROM stats WHERE sum > 1")
	if got := joined(itemStrings(sel.Items)); got != "count, max" || sel.Where.String() != "(sum > 1)" {
		t.Errorf("items = %s, WHERE = %s", got, sel.Where)
	}
}

func TestGroupedCompositeExpressions(t *testing.T) {
	// Aggregates nested inside arithmetic, IS NULL, IN and unary minus are
	// refused where they appear.
	refused(t, "SUM(…)", "SELECT city, SUM(age) / COUNT(*) AS mean_age FROM patients")
	refused(t, "MAX(…)", "SELECT MAX(weight) IS NULL AS no_weights FROM patients")
	refused(t, "COUNT(…)",
		"SELECT COUNT(*) IN (2, 3) AS small FROM patients",
		"SELECT -COUNT(*) AS neg FROM patients",
		"SELECT name FROM patients WHERE id IN (1, COUNT(*))",
	)
}

func TestGroupByHaving(t *testing.T) {
	refused(t, "GROUP BY",
		"SELECT city FROM patients GROUP BY city HAVING COUNT(*) >= 2",
		"SELECT city FROM patients GROUP BY city",
		"SELECT city FROM patients WHERE age > 30 group by city ORDER BY city",
	)
	refused(t, "HAVING", "SELECT city FROM patients HAVING city = 'calgary'")
}

func TestGroupByExpression(t *testing.T) {
	refused(t, "GROUP BY", "SELECT age FROM patients GROUP BY age / 10 ORDER BY age")
}

func TestGroupedHavingWithAggExpression(t *testing.T) {
	refused(t, "HAVING", "SELECT city FROM patients WHERE age > 1 HAVING NOT (COUNT(*) < 3)")
}

func TestSelectDistinct(t *testing.T) {
	refused(t, "DISTINCT",
		"SELECT DISTINCT city FROM patients ORDER BY city",
		"SELECT distinct city, age FROM patients",
	)
}

func TestSelectDistinctWithAggregation(t *testing.T) {
	// The first refused construct reached names the refusal.
	refused(t, "DISTINCT", "SELECT DISTINCT city, COUNT(*) AS n FROM patients GROUP BY city")
}

func TestInSubquerySelect(t *testing.T) {
	refused(t, "(SELECT …)",
		"SELECT name FROM patients WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'checkup')",
		"SELECT name FROM patients WHERE id in (select patient_id FROM visits)",
	)
}

func TestNotInSubquery(t *testing.T) {
	refused(t, "(SELECT …)", "SELECT name FROM patients WHERE id NOT IN (SELECT patient_id FROM visits) ORDER BY name")
}

func TestInSubqueryNestedAndAggregated(t *testing.T) {
	// Refused at the outer subquery, whatever the inner one holds.
	refused(t, "(SELECT …)", `
		SELECT name FROM patients
		WHERE city IN (
			SELECT city FROM patients GROUP BY city ORDER BY COUNT(*) DESC LIMIT 1
		)`)
}

func TestSubqueryInsideInListAndNesting(t *testing.T) {
	refused(t, "(SELECT …)",
		`SELECT name FROM patients WHERE id IN (
			SELECT patient_id FROM visits
			WHERE patient_id IN (SELECT id FROM patients WHERE city = 'calgary'))`,
		"SELECT name FROM patients WHERE age > (SELECT age FROM patients WHERE id = 1)",
		"SELECT (SELECT 1) FROM patients",
		"SELECT name FROM patients WHERE id IN ((SELECT id FROM visits))",
		"SELECT name FROM patients ORDER BY (SELECT 1)",
	)
}

func TestInSubqueryErrors(t *testing.T) {
	// A subquery is refused on sight, before its own syntax is read.
	refused(t, "(SELECT …)",
		`SELECT name FROM patients WHERE id IN (SELECT id FROM visits`,
		`SELECT name FROM patients WHERE id IN (SELECT FROM visits)`,
	)
	invalid(t, `SELECT name FROM patients WHERE id IN (DELETE FROM visits)`)
}

// The grammar reads no DML and no DROP: each is a plain parse error, as is
// a CREATE TABLE handed to Parse.

func TestUpdateDelete(t *testing.T) {
	invalid(t,
		"UPDATE patients SET age = age + 1 WHERE city = 'calgary'",
		"DELETE FROM patients WHERE city = 'edmonton'",
		"DROP TABLE patients",
		"DROP TABLE IF EXISTS patients",
	)
}

func TestInsertDefaultsAndMultiRow(t *testing.T) {
	invalid(t,
		"INSERT INTO patients (id, name) VALUES (6, 'fred')",
		"INSERT INTO patients VALUES (7, 'gina', 20, 58.0, 'calgary'), (8, 'hal', NULL, NULL, 'banff')",
	)
}

func TestInSubqueryInUpdateAndDelete(t *testing.T) {
	// Not a SELECT: rejected at the first token, before the subquery.
	invalid(t,
		`UPDATE patients SET age = age + 100 WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'flu')`,
		`DELETE FROM patients WHERE id NOT IN (SELECT patient_id FROM visits)`,
	)
}

func TestDDL(t *testing.T) {
	ct, err := ParseCreateTable("CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL);")
	if err != nil {
		t.Fatal(err)
	}
	if ct.Name != "t" || len(ct.Cols) != 2 {
		t.Fatalf("create = %#v", ct)
	}
	if !ct.Cols[0].PrimaryKey || ct.Cols[0].Type != TypeInt || !ct.Cols[1].NotNull || ct.Cols[1].Type != TypeText {
		t.Errorf("columns = %#v", ct.Cols)
	}
	// The schema renders back to a statement ParseCreateTable reads.
	schema, err := NewSchema(ct.Cols)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseCreateTable("CREATE TABLE t (" + schema.String() + ")")
	if err != nil || len(again.Cols) != 2 || again.Cols[0] != ct.Cols[0] || again.Cols[1] != ct.Cols[1] {
		t.Errorf("round trip = %#v (%v)", again, err)
	}
	for _, bad := range []string{
		"CREATE TABLE IF NOT EXISTS t (a INT)",
		"CREATE TABLE t (a BLOB)",
		"CREATE TABLE t (a INT PRIMARY)",
		"CREATE TABLE t (a INT",
		"CREATE TABLE t (a INT) extra",
		"DROP TABLE t",
		"SELECT a FROM t",
	} {
		if _, err := ParseCreateTable(bad); err == nil {
			t.Errorf("ParseCreateTable(%q) should fail", bad)
		}
	}
	invalid(t, "CREATE TABLE t (a INT)")
}

func TestParseErrors(t *testing.T) {
	invalid(t,
		"",
		"SELEC * FROM patients",
		"SELECT FROM patients",
		"SELECT * FROM",
		"SELECT * FROM patients WHERE",
		"SELECT * FROM patients LIMIT -1",
		"INSERT INTO patients",
		"CREATE TABLE x (a BLOB)",
		"SELECT * FROM patients; SELECT 1",
		"SELECT 'unterminated FROM patients",
		"SELECT * FROM patients WHERE a ~ 1",
		"UPDATE patients",
		"DELETE patients",
	)
}

func TestOrderByAlias(t *testing.T) {
	sel := parseSelect(t, "SELECT age / 10 AS decade FROM patients ORDER BY decade DESC")
	if got := joined(orderStrings(sel.OrderBy)); got != "decade DESC" {
		t.Errorf("ORDER BY = %s", got)
	}
	if got := joined(itemStrings(sel.Items)); got != "(age / 10) AS decade" {
		t.Errorf("items = %s", got)
	}
	// The aliased key evaluates per row: alice and erin share decade 3.
	var decades []string
	for _, r := range patientRows() {
		v, err := sel.Items[0].Expr.Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		decades = append(decades, v.Display())
	}
	if got := joined(decades); got != "3, 5, 2, 4, 3" {
		t.Errorf("decades = %s", got)
	}
}

func TestQualifiedColumnsSingleTable(t *testing.T) {
	sel := parseSelect(t, "SELECT patients.name FROM patients WHERE patients.id = 2")
	if got := joined(itemStrings(sel.Items)); got != "patients.name" {
		t.Errorf("items = %s", got)
	}
	bob := MapEnv{"patients.id": Int(2), "patients.name": Text("bob")}
	if ok, err := Truthy(sel.Where, bob); err != nil || !ok {
		t.Errorf("qualified WHERE on bob = %v (%v)", ok, err)
	}
	// Alias-qualified, with AS.
	sel = parseSelect(t, "SELECT p.name FROM patients AS p WHERE p.id = 2")
	if sel.From != (FromItem{Table: "patients", Alias: "p"}) || itemStrings(sel.Items)[0] != "p.name" {
		t.Errorf("aliased = %+v %v", sel.From, itemStrings(sel.Items))
	}
	if sel.Where.String() != "(p.id = 2)" {
		t.Errorf("WHERE = %s", sel.Where)
	}
}

func TestLineComments(t *testing.T) {
	with := parseSelect(t, "SELECT id -- trailing comment\nFROM patients -- another\nWHERE id = 1")
	without := parseSelect(t, "SELECT id FROM patients WHERE id = 1")
	if joined(itemStrings(with.Items)) != joined(itemStrings(without.Items)) ||
		with.From != without.From || with.Where.String() != without.Where.String() {
		t.Errorf("comments changed the parse: %+v vs %+v", with, without)
	}
}

func TestLexerNumberForms(t *testing.T) {
	sel := parseSelect(t, "SELECT 1e3, 2.5E2, 1.5e+2, 12e-1 FROM patients LIMIT 1")
	want := []float64{1000, 250, 150, 1.2}
	for i, w := range want {
		v, err := sel.Items[i].Expr.Eval(MapEnv{})
		if err != nil {
			t.Fatal(err)
		}
		if f, _ := v.AsFloat(); f != w {
			t.Errorf("col %d = %v, want %g", i, v, w)
		}
	}
	// Malformed number.
	if _, err := Parse("SELECT 12abc FROM patients"); err == nil {
		t.Error("malformed number should fail")
	}
}

func TestParseExprTrailingInput(t *testing.T) {
	if _, err := ParseExpr("1 + 2 extra"); err == nil {
		t.Error("trailing input should fail")
	}
	if _, err := ParseExpr("1 +"); err == nil {
		t.Error("dangling operator should fail")
	}
}
