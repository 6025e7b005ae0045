package relational

import (
	"strings"
	"testing"
)

// The parser accepts the full dialect — joins, grouping, aggregates,
// DISTINCT, subqueries and DML — so that the enforced planner
// (internal/query) can recognise those constructs and refuse them by name.
// These tests pin the parse trees, and evaluate WHERE predicates and
// computed expressions row by row through MapEnv.

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

// parseSelect parses sql and requires a SELECT.
func parseSelect(t *testing.T, sql string) SelectStmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := st.(SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want SelectStmt", sql, st)
	}
	return sel
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
	if sel.From.Table != "patients" || len(sel.Joins) != 0 || sel.Distinct {
		t.Errorf("from = %+v joins = %v distinct = %v", sel.From, sel.Joins, sel.Distinct)
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
	for _, bad := range []string{
		"SELECT id FROM patients LIMIT -1",
		"SELECT id FROM patients LIMIT x",
		"SELECT id FROM patients OFFSET",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

func TestJoin(t *testing.T) {
	sel := parseSelect(t, `
		SELECT p.name, v.reason
		FROM patients p JOIN visits v ON p.id = v.patient_id
		WHERE p.city = 'calgary'
		ORDER BY v.id`)
	if sel.From != (FromItem{Table: "patients", Alias: "p"}) {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.Joins) != 1 {
		t.Fatalf("joins = %v", sel.Joins)
	}
	j := sel.Joins[0]
	if j.Right != (FromItem{Table: "visits", Alias: "v"}) || j.On.String() != "(p.id = v.patient_id)" {
		t.Errorf("join = %+v ON %s", j.Right, j.On)
	}
	// INNER JOIN spelling parses to the same clause.
	inner := parseSelect(t, `SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id ORDER BY v.id`)
	if len(inner.Joins) != 1 || inner.Joins[0].On.String() != j.On.String() {
		t.Errorf("inner join = %+v", inner.Joins)
	}
}

func TestAggregates(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(*), COUNT(weight), SUM(age), AVG(weight), MIN(age), MAX(age) FROM patients")
	want := []Agg{
		{Fn: AggCount, Star: true},
		{Fn: AggCount, Arg: ColRef{Name: "weight"}},
		{Fn: AggSum, Arg: ColRef{Name: "age"}},
		{Fn: AggAvg, Arg: ColRef{Name: "weight"}},
		{Fn: AggMin, Arg: ColRef{Name: "age"}},
		{Fn: AggMax, Arg: ColRef{Name: "age"}},
	}
	if len(sel.Items) != len(want) {
		t.Fatalf("items = %v", itemStrings(sel.Items))
	}
	for i, w := range want {
		if got, ok := sel.Items[i].Expr.(Agg); !ok || got != w {
			t.Errorf("item %d = %#v, want %#v", i, sel.Items[i].Expr, w)
		}
		// Aggregates never evaluate row-wise.
		if _, err := sel.Items[i].Expr.Eval(patientRows()[0]); err == nil {
			t.Errorf("%s evaluated outside grouping", w)
		}
	}
}

func TestGroupByHaving(t *testing.T) {
	sel := parseSelect(t, `
		SELECT city, COUNT(*) AS n, AVG(age) AS mean_age
		FROM patients
		GROUP BY city
		HAVING COUNT(*) >= 2
		ORDER BY city`)
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].String() != "city" {
		t.Errorf("GROUP BY = %v", sel.GroupBy)
	}
	if sel.Having == nil || sel.Having.String() != "(COUNT(*) >= 2)" {
		t.Errorf("HAVING = %v", sel.Having)
	}
	if got := joined(itemStrings(sel.Items)); got != "city, COUNT(*) AS n, AVG(age) AS mean_age" {
		t.Errorf("items = %s", got)
	}
}

func TestGroupByExpression(t *testing.T) {
	sel := parseSelect(t, "SELECT age / 10 AS decade, COUNT(*) AS n FROM patients GROUP BY age / 10 ORDER BY decade")
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].String() != "(age / 10)" {
		t.Fatalf("GROUP BY = %v", sel.GroupBy)
	}
	// The grouping key evaluates per row: alice and erin share decade 3.
	var decades []string
	for _, r := range patientRows() {
		v, err := sel.GroupBy[0].Eval(r)
		if err != nil {
			t.Fatal(err)
		}
		decades = append(decades, v.Display())
	}
	if got := joined(decades); got != "3, 5, 2, 4, 3" {
		t.Errorf("decades = %s", got)
	}
}

func TestOrderByAlias(t *testing.T) {
	sel := parseSelect(t, "SELECT city, COUNT(*) AS n FROM patients GROUP BY city ORDER BY n DESC")
	if got := joined(orderStrings(sel.OrderBy)); got != "n DESC" {
		t.Errorf("ORDER BY = %s", got)
	}
}

func TestGroupedCompositeExpressions(t *testing.T) {
	// Aggregates nest inside arithmetic, IS NULL, IN and unary minus.
	sel := parseSelect(t, `
		SELECT city,
		       SUM(age) / COUNT(*) AS mean_age,
		       MAX(weight) IS NULL AS no_weights,
		       COUNT(*) IN (2, 3) AS small,
		       -COUNT(*) AS neg
		FROM patients GROUP BY city ORDER BY city`)
	want := "city, (SUM(age) / COUNT(*)) AS mean_age, (MAX(weight) IS NULL) AS no_weights, " +
		"(COUNT(*) IN (2, 3)) AS small, (-COUNT(*)) AS neg"
	if got := joined(itemStrings(sel.Items)); got != want {
		t.Errorf("items =\n  %s\nwant\n  %s", got, want)
	}
}

func TestGroupedHavingWithAggExpression(t *testing.T) {
	sel := parseSelect(t, `
		SELECT city FROM patients
		GROUP BY city
		HAVING NOT (COUNT(*) < 3)
		ORDER BY city`)
	if sel.Having == nil || sel.Having.String() != "(NOT (COUNT(*) < 3))" {
		t.Errorf("HAVING = %v", sel.Having)
	}
}

func TestSelectDistinct(t *testing.T) {
	if sel := parseSelect(t, "SELECT DISTINCT city FROM patients ORDER BY city"); !sel.Distinct {
		t.Error("DISTINCT not recorded")
	}
	sel := parseSelect(t, "SELECT DISTINCT city, age FROM patients ORDER BY city, age")
	if !sel.Distinct || joined(itemStrings(sel.Items)) != "city, age" {
		t.Errorf("multi-column distinct = %v %v", sel.Distinct, itemStrings(sel.Items))
	}
	if sel := parseSelect(t, "SELECT city FROM patients"); sel.Distinct {
		t.Error("plain SELECT parsed as DISTINCT")
	}
}

func TestSelectDistinctWithAggregation(t *testing.T) {
	sel := parseSelect(t, "SELECT DISTINCT city, COUNT(*) AS n FROM patients GROUP BY city ORDER BY city")
	if !sel.Distinct || len(sel.GroupBy) != 1 {
		t.Errorf("distinct = %v group by = %v", sel.Distinct, sel.GroupBy)
	}
}

func TestUpdateDelete(t *testing.T) {
	st, err := Parse("UPDATE patients SET age = age + 1 WHERE city = 'calgary'")
	if err != nil {
		t.Fatal(err)
	}
	up, ok := st.(UpdateStmt)
	if !ok || up.Table != "patients" || len(up.Sets) != 1 || up.Sets[0].Col != "age" {
		t.Fatalf("update = %#v", st)
	}
	if got := joined(matching(t, up.Where)); got != "alice, bob, dave" {
		t.Errorf("UPDATE WHERE matches %s", got)
	}
	if v, err := up.Sets[0].Expr.Eval(patientRows()[0]); err != nil || !Equal(v, Int(35)) {
		t.Errorf("SET age + 1 on alice = %v (%v)", v, err)
	}

	st, err = Parse("DELETE FROM patients WHERE city = 'edmonton'")
	if err != nil {
		t.Fatal(err)
	}
	del, ok := st.(DeleteStmt)
	if !ok || del.Table != "patients" {
		t.Fatalf("delete = %#v", st)
	}
	if got := joined(matching(t, del.Where)); got != "carol, erin" {
		t.Errorf("DELETE WHERE matches %s", got)
	}
}

func TestInsertDefaultsAndMultiRow(t *testing.T) {
	st, err := Parse("INSERT INTO patients (id, name) VALUES (6, 'fred')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(InsertStmt)
	if ins.Table != "patients" || joined(ins.Cols) != "id, name" || len(ins.Rows) != 1 {
		t.Errorf("insert = %#v", ins)
	}
	// Full-row insert without a column list, several rows at once.
	st, err = Parse("INSERT INTO patients VALUES (7, 'gina', 20, 58.0, 'calgary'), (8, 'hal', NULL, NULL, 'banff')")
	if err != nil {
		t.Fatal(err)
	}
	ins = st.(InsertStmt)
	if len(ins.Cols) != 0 || len(ins.Rows) != 2 || len(ins.Rows[1]) != 5 {
		t.Errorf("multi-row insert = %#v", ins)
	}
	if v, _ := ins.Rows[1][2].Eval(MapEnv{}); !v.IsNull() {
		t.Errorf("NULL literal = %v", v)
	}
	for _, bad := range []string{"INSERT INTO patients", "INSERT INTO patients VALUES", "INSERT INTO patients (id VALUES (1)"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}

func TestDDL(t *testing.T) {
	st, err := Parse("CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(CreateTableStmt)
	if ct.Name != "t" || ct.IfNotExists || len(ct.Cols) != 2 {
		t.Fatalf("create = %#v", ct)
	}
	if !ct.Cols[0].PrimaryKey || ct.Cols[0].Type != TypeInt || !ct.Cols[1].NotNull || ct.Cols[1].Type != TypeText {
		t.Errorf("columns = %#v", ct.Cols)
	}
	if st, err := Parse("CREATE TABLE IF NOT EXISTS t (a INT)"); err != nil || !st.(CreateTableStmt).IfNotExists {
		t.Errorf("IF NOT EXISTS = %#v (%v)", st, err)
	}
	if st, err := Parse("DROP TABLE t"); err != nil || st.(DropTableStmt) != (DropTableStmt{Name: "t"}) {
		t.Errorf("drop = %#v (%v)", st, err)
	}
	if st, err := Parse("DROP TABLE IF EXISTS t"); err != nil || !st.(DropTableStmt).IfExists {
		t.Errorf("IF EXISTS = %#v (%v)", st, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
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
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("%q should fail to parse", s)
		}
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

func TestStatementMarkers(t *testing.T) {
	// The stmt() marker methods exist to seal the Statement interface; call
	// them for completeness.
	for _, st := range []Statement{
		CreateTableStmt{}, DropTableStmt{}, InsertStmt{},
		SelectStmt{}, UpdateStmt{}, DeleteStmt{},
	} {
		st.stmt()
	}
}

func TestAggAndSubqueryStringForms(t *testing.T) {
	a := Agg{Fn: AggSum, Arg: ColRef{Name: "x"}}
	if a.String() != "SUM(x)" {
		t.Errorf("Agg.String = %q", a.String())
	}
	star := Agg{Fn: AggCount, Star: true}
	if star.String() != "COUNT(*)" {
		t.Errorf("star = %q", star.String())
	}
	if _, err := star.Eval(MapEnv{}); err == nil {
		t.Error("raw Agg.Eval must error")
	}
	q := InSubquery{X: ColRef{Name: "id"}}
	if !strings.Contains(q.String(), "IN (SELECT") {
		t.Errorf("InSubquery.String = %q", q.String())
	}
	qn := InSubquery{Not: true, X: ColRef{Name: "id"}}
	if !strings.Contains(qn.String(), "NOT IN") {
		t.Errorf("not-in String = %q", qn.String())
	}
	if _, err := q.Eval(MapEnv{}); err == nil {
		t.Error("raw InSubquery.Eval must error")
	}
	// Kind and BinOp string forms.
	if Kind(99).String() == "" || BinOp(99).String() == "" || ColType(99).String() == "" {
		t.Error("fallback String forms must be non-empty")
	}
	if AggFn(99).String() == "" {
		t.Error("AggFn fallback String must be non-empty")
	}
}

func TestInnerWithoutJoinBacktracks(t *testing.T) {
	// INNER not followed by JOIN: the parser backtracks and the statement
	// fails cleanly ("inner" is reserved and cannot be an alias).
	if _, err := Parse("SELECT name FROM patients INNER WHERE id = 1"); err == nil {
		t.Error("INNER without JOIN should fail to parse")
	}
	// The full INNER JOIN spelling still parses.
	sel := parseSelect(t, "SELECT p.name FROM patients p INNER JOIN visits v ON p.id = v.patient_id WHERE v.id = 10")
	if len(sel.Joins) != 1 || sel.Where.String() != "(v.id = 10)" {
		t.Errorf("joins = %+v where = %v", sel.Joins, sel.Where)
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

// inSubquery requires e to be an IN (SELECT …) node.
func inSubquery(t *testing.T, e Expr) InSubquery {
	t.Helper()
	q, ok := e.(InSubquery)
	if !ok {
		t.Fatalf("%v is %T, want InSubquery", e, e)
	}
	return q
}

func TestInSubquerySelect(t *testing.T) {
	sel := parseSelect(t, `
		SELECT name FROM patients
		WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'checkup')
		ORDER BY name`)
	q := inSubquery(t, sel.Where)
	if q.Not || q.X.String() != "id" {
		t.Errorf("subquery predicate = %s", q)
	}
	if q.Query.From.Table != "visits" || joined(itemStrings(q.Query.Items)) != "patient_id" ||
		q.Query.Where.String() != "(reason = 'checkup')" {
		t.Errorf("inner query = %+v", q.Query)
	}
	// An unresolved subquery cannot decide a row.
	if _, err := Truthy(sel.Where, patientRows()[0]); err == nil {
		t.Error("IN (SELECT …) evaluated row-wise")
	}
}

func TestNotInSubquery(t *testing.T) {
	sel := parseSelect(t, `
		SELECT name FROM patients
		WHERE id NOT IN (SELECT patient_id FROM visits)
		ORDER BY name`)
	if q := inSubquery(t, sel.Where); !q.Not || q.Query.Where != nil {
		t.Errorf("NOT IN subquery = %s (inner WHERE %v)", q, q.Query.Where)
	}
}

func TestInSubqueryInUpdateAndDelete(t *testing.T) {
	st, err := Parse(`UPDATE patients SET age = age + 100 WHERE id IN (SELECT patient_id FROM visits WHERE reason = 'flu')`)
	if err != nil {
		t.Fatal(err)
	}
	if q := inSubquery(t, st.(UpdateStmt).Where); q.Query.From.Table != "visits" {
		t.Errorf("UPDATE subquery = %+v", q.Query)
	}
	st, err = Parse(`DELETE FROM patients WHERE id NOT IN (SELECT patient_id FROM visits)`)
	if err != nil {
		t.Fatal(err)
	}
	if q := inSubquery(t, st.(DeleteStmt).Where); !q.Not {
		t.Errorf("DELETE subquery = %s", q)
	}
}

func TestInSubqueryNestedAndAggregated(t *testing.T) {
	// A subquery with its own grouping, ordering and limit.
	sel := parseSelect(t, `
		SELECT name FROM patients
		WHERE city IN (
			SELECT city FROM patients GROUP BY city ORDER BY COUNT(*) DESC LIMIT 1
		)
		ORDER BY name`)
	inner := inSubquery(t, sel.Where).Query
	if len(inner.GroupBy) != 1 || joined(orderStrings(inner.OrderBy)) != "COUNT(*) DESC" || inner.Limit != 1 {
		t.Errorf("inner query = %+v", inner)
	}
}

func TestSubqueryInsideInListAndNesting(t *testing.T) {
	// Nested IN subquery inside another subquery's WHERE.
	sel := parseSelect(t, `
		SELECT name FROM patients
		WHERE id IN (
			SELECT patient_id FROM visits
			WHERE patient_id IN (SELECT id FROM patients WHERE city = 'calgary')
		)
		ORDER BY name`)
	mid := inSubquery(t, sel.Where).Query
	deep := inSubquery(t, mid.Where).Query
	if mid.From.Table != "visits" || deep.From.Table != "patients" || deep.Where.String() != "(city = 'calgary')" {
		t.Errorf("nesting = %+v / %+v", mid, deep)
	}
}

func TestInSubqueryErrors(t *testing.T) {
	for _, bad := range []string{
		`SELECT name FROM patients WHERE id IN (SELECT id FROM visits`,
		`SELECT name FROM patients WHERE id IN (SELECT FROM visits)`,
		`SELECT name FROM patients WHERE id IN (SELECT id FROM)`,
		`SELECT name FROM patients WHERE id IN (DELETE FROM visits)`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q should fail to parse", bad)
		}
	}
}
