package relational

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// The grammar reads exactly two statements: the single-table SELECT the
// enforced path runs, and the CREATE TABLE a snapshot's schema file holds.
//
//	select  := SELECT item (, item)* FROM table [[AS] alias]
//	           [WHERE expr] [ORDER BY expr [ASC|DESC] (, …)*]
//	           [LIMIT n] [OFFSET n] [;]
//	item    := * | expr [AS name]
//	create  := CREATE TABLE name ( col type [PRIMARY KEY] [NOT NULL] (, …)* ) [;]
//
// Constructs whose answer cells mix data across rows — DISTINCT, JOIN,
// GROUP BY, HAVING, aggregate calls and subqueries — are recognised on
// sight and refused with an *UnsupportedError naming them; no tree is
// built for them. Every other deviation is a plain parse error.

// CreateTableStmt is a parsed CREATE TABLE.
type CreateTableStmt struct {
	Name string
	Cols []Column
}

// SelectItem is one projection: an expression with an optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// FromItem is the table reference with its alias (the table name itself
// when none is given).
type FromItem struct {
	Table string
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a single-table SELECT.
type SelectStmt struct {
	Items   []SelectItem
	From    FromItem
	Where   Expr
	OrderBy []OrderItem
	Limit   int // -1 = none
	Offset  int
}

// UnsupportedError reports a construct the grammar recognises but does not
// read. Construct names it as it is spelled in SQL: "DISTINCT", "JOIN",
// "GROUP BY", "HAVING", "COUNT(…)", "SUM(…)", "AVG(…)", "MIN(…)", "MAX(…)"
// or "(SELECT …)".
type UnsupportedError struct {
	Construct string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("relational: %s is not supported", e.Construct)
}

// Parse parses one SELECT statement (a trailing semicolon is allowed).
func Parse(sql string) (SelectStmt, error) {
	p, err := newParser(sql)
	if err != nil {
		return SelectStmt{}, err
	}
	st, err := p.parseSelect()
	if err != nil {
		return SelectStmt{}, err
	}
	return st, p.end()
}

// ParseCreateTable parses one CREATE TABLE statement (a trailing semicolon
// is allowed).
func ParseCreateTable(sql string) (CreateTableStmt, error) {
	p, err := newParser(sql)
	if err != nil {
		return CreateTableStmt{}, err
	}
	st, err := p.parseCreate()
	if err != nil {
		return CreateTableStmt{}, err
	}
	return st, p.end()
}

type parser struct {
	toks []token
	i    int
}

func newParser(src string) (*parser, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

// end consumes an optional semicolon and requires the end of input.
func (p *parser) end() error {
	p.accept(tokPunct, ";")
	if !p.at(tokEOF, "") {
		return p.errorf("trailing input starting with %q", p.peek().text)
	}
	return nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// at reports whether the current token matches kind (and text for punct /
// keyword matching; text is compared case-insensitively for idents).
func (p *parser) at(kind tokenKind, text string) bool {
	return p.atOffset(0, kind, text)
}

// atOffset is at for the token k places ahead.
func (p *parser) atOffset(k int, kind tokenKind, text string) bool {
	if p.i+k >= len(p.toks) {
		return false
	}
	t := p.toks[p.i+k]
	if t.kind != kind {
		return false
	}
	if text == "" {
		return true
	}
	if kind == tokIdent {
		return strings.EqualFold(t.text, text)
	}
	return t.text == text
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a matching token or errors.
func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, p.errorf("expected %q, found %q", want, p.peek().text)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("relational: parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// keyword consumes an identifier keyword (case-insensitive) or errors.
func (p *parser) keyword(kw string) error {
	if p.accept(tokIdent, kw) {
		return nil
	}
	return p.errorf("expected %s, found %q", strings.ToUpper(kw), p.peek().text)
}

func (p *parser) parseCreate() (CreateTableStmt, error) {
	if err := p.keyword("create"); err != nil {
		return CreateTableStmt{}, err
	}
	if err := p.keyword("table"); err != nil {
		return CreateTableStmt{}, err
	}
	st := CreateTableStmt{}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return CreateTableStmt{}, err
	}
	st.Name = name.text
	if _, err := p.expect(tokPunct, "("); err != nil {
		return CreateTableStmt{}, err
	}
	for {
		colName, err := p.expect(tokIdent, "")
		if err != nil {
			return CreateTableStmt{}, err
		}
		typeName, err := p.expect(tokIdent, "")
		if err != nil {
			return CreateTableStmt{}, err
		}
		ct, err := ParseColType(typeName.text)
		if err != nil {
			return CreateTableStmt{}, p.errorf("%v", err)
		}
		col := Column{Name: colName.text, Type: ct}
		for {
			switch {
			case p.accept(tokIdent, "primary"):
				if err := p.keyword("key"); err != nil {
					return CreateTableStmt{}, err
				}
				col.PrimaryKey = true
			case p.accept(tokIdent, "not"):
				if err := p.keyword("null"); err != nil {
					return CreateTableStmt{}, err
				}
				col.NotNull = true
			default:
				goto colDone
			}
		}
	colDone:
		st.Cols = append(st.Cols, col)
		if p.accept(tokPunct, ",") {
			continue
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return CreateTableStmt{}, err
		}
		break
	}
	return st, nil
}

func (p *parser) parseSelect() (SelectStmt, error) {
	if err := p.keyword("select"); err != nil {
		return SelectStmt{}, err
	}
	if p.at(tokIdent, "distinct") {
		return SelectStmt{}, &UnsupportedError{Construct: "DISTINCT"}
	}
	st := SelectStmt{Limit: -1}
	for {
		if p.accept(tokPunct, "*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return SelectStmt{}, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tokIdent, "as") {
				alias, err := p.expect(tokIdent, "")
				if err != nil {
					return SelectStmt{}, err
				}
				item.Alias = strings.ToLower(alias.text)
			}
			st.Items = append(st.Items, item)
		}
		if !p.accept(tokPunct, ",") {
			break
		}
	}
	if err := p.keyword("from"); err != nil {
		return SelectStmt{}, err
	}
	from, err := p.parseFromItem()
	if err != nil {
		return SelectStmt{}, err
	}
	st.From = from
	if p.at(tokIdent, "join") || (p.at(tokIdent, "inner") && p.atOffset(1, tokIdent, "join")) {
		return SelectStmt{}, &UnsupportedError{Construct: "JOIN"}
	}
	if p.accept(tokIdent, "where") {
		w, err := p.parseExpr()
		if err != nil {
			return SelectStmt{}, err
		}
		st.Where = w
	}
	switch {
	case p.at(tokIdent, "group"):
		return SelectStmt{}, &UnsupportedError{Construct: "GROUP BY"}
	case p.at(tokIdent, "having"):
		return SelectStmt{}, &UnsupportedError{Construct: "HAVING"}
	}
	if p.accept(tokIdent, "order") {
		if err := p.keyword("by"); err != nil {
			return SelectStmt{}, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return SelectStmt{}, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokIdent, "desc") {
				item.Desc = true
			} else {
				p.accept(tokIdent, "asc")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.accept(tokPunct, ",") {
				break
			}
		}
	}
	if p.accept(tokIdent, "limit") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return SelectStmt{}, err
		}
		st.Limit = n
	}
	if p.accept(tokIdent, "offset") {
		n, err := p.parseNonNegInt()
		if err != nil {
			return SelectStmt{}, err
		}
		st.Offset = n
	}
	return st, nil
}

func (p *parser) parseNonNegInt() (int, error) {
	t, err := p.expect(tokNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errorf("expected a non-negative integer, found %q", t.text)
	}
	return n, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return FromItem{}, err
	}
	fi := FromItem{Table: strings.ToLower(name.text)}
	if p.accept(tokIdent, "as") {
		alias, err := p.expect(tokIdent, "")
		if err != nil {
			return FromItem{}, err
		}
		fi.Alias = strings.ToLower(alias.text)
	} else if p.at(tokIdent, "") && !p.atReserved() {
		fi.Alias = strings.ToLower(p.next().text)
	}
	if fi.Alias == "" {
		fi.Alias = fi.Table
	}
	return fi, nil
}

// atReserved reports whether the current identifier is a clause keyword that
// must not be eaten as a table alias.
func (p *parser) atReserved() bool {
	for _, kw := range []string{"join", "inner", "where", "group", "having", "order", "limit", "offset"} {
		if p.at(tokIdent, kw) {
			return true
		}
	}
	return false
}

// Expression grammar (highest binding last):
//   expr     := andExpr (OR andExpr)*
//   andExpr  := notExpr (AND notExpr)*
//   notExpr  := NOT notExpr | predicate
//   predicate:= additive ((=|!=|<|<=|>|>=|LIKE) additive
//             | IS [NOT] NULL | [NOT] IN (list) | [NOT] BETWEEN a AND b)?
//   additive := term ((+|-) term)*
//   term     := unary ((*|/|%) unary)*
//   unary    := - unary | primary
//   primary  := literal | colref | ( expr )
//
// An aggregate call or a parenthesised SELECT where a primary belongs is
// refused by name.

// ParseExpr parses a standalone expression (for WHERE-style predicates
// supplied programmatically).
func ParseExpr(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input starting with %q", p.peek().text)
	}
	return e, nil
}

func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokIdent, "not") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Unary{Neg: false, X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tokPunct, "="), p.at(tokPunct, "!="), p.at(tokPunct, "<"),
		p.at(tokPunct, "<="), p.at(tokPunct, ">"), p.at(tokPunct, ">="):
		opTok := p.next().text
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var op BinOp
		switch opTok {
		case "=":
			op = OpEq
		case "!=":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		}
		return Binary{Op: op, L: l, R: r}, nil
	case p.accept(tokIdent, "like"):
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Binary{Op: OpLike, L: l, R: r}, nil
	case p.accept(tokIdent, "is"):
		not := p.accept(tokIdent, "not")
		if err := p.keyword("null"); err != nil {
			return nil, err
		}
		return IsNull{Not: not, X: l}, nil
	case p.at(tokIdent, "in"), p.at(tokIdent, "not"), p.at(tokIdent, "between"):
		not := p.accept(tokIdent, "not")
		switch {
		case p.accept(tokIdent, "in"):
			if p.atSubquery() {
				return nil, &UnsupportedError{Construct: "(SELECT …)"}
			}
			if _, err := p.expect(tokPunct, "("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if p.accept(tokPunct, ",") {
					continue
				}
				if _, err := p.expect(tokPunct, ")"); err != nil {
					return nil, err
				}
				break
			}
			return In{Not: not, X: l, List: list}, nil
		case p.accept(tokIdent, "between"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.keyword("and"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			rng := Binary{Op: OpAnd,
				L: Binary{Op: OpGe, L: l, R: lo},
				R: Binary{Op: OpLe, L: l, R: hi}}
			if not {
				return Unary{X: rng}, nil
			}
			return rng, nil
		case p.accept(tokIdent, "like"): // NOT LIKE
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return Unary{X: Binary{Op: OpLike, L: l, R: r}}, nil
		default:
			return nil, p.errorf("expected IN, BETWEEN or LIKE after NOT")
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPunct, "+"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: OpAdd, L: l, R: r}
		case p.accept(tokPunct, "-"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokPunct, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: OpMul, L: l, R: r}
		case p.accept(tokPunct, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: OpDiv, L: l, R: r}
		case p.accept(tokPunct, "%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: OpMod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokPunct, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Neg: true, X: x}, nil
	}
	return p.parsePrimary()
}

// atSubquery reports whether a parenthesised SELECT starts at the cursor.
func (p *parser) atSubquery() bool {
	return p.at(tokPunct, "(") && p.atOffset(1, tokIdent, "select")
}

// aggregates are the function names refused when called.
var aggregates = []string{"count", "sum", "avg", "min", "max"}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokEOF:
		return nil, p.errorf("expected an expression, found end of input")
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad float literal %q", t.text)
			}
			return Literal{Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.text)
		}
		return Literal{Int(n)}, nil
	case tokString:
		p.next()
		return Literal{Text(t.text)}, nil
	case tokPunct:
		if p.atSubquery() {
			return nil, &UnsupportedError{Construct: "(SELECT …)"}
		}
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		lower := strings.ToLower(t.text)
		switch lower {
		case "null":
			p.next()
			return Literal{Null()}, nil
		case "true":
			p.next()
			return Literal{Bool(true)}, nil
		case "false":
			p.next()
			return Literal{Bool(false)}, nil
		}
		if p.atOffset(1, tokPunct, "(") && slices.Contains(aggregates, lower) {
			return nil, &UnsupportedError{Construct: strings.ToUpper(lower) + "(…)"}
		}
		p.next()
		if p.accept(tokPunct, ".") {
			col, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			return ColRef{Name: lower + "." + strings.ToLower(col.text)}, nil
		}
		return ColRef{Name: lower}, nil
	}
	return nil, p.errorf("expected an expression, found %q", t.text)
}
