package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/httpapi"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/relational"
	"repro/internal/whatif"
)

func canon(name string) string { return strings.ToLower(name) }

// newDB builds an empty in-process DB exactly as ppdbserver's -corpus boot
// does: the corpus policy and Σ, one "records" table keyed by provider
// with the FLOAT data columns.
func newDB(s *schedule, shards int) (*ppdb.DB, error) {
	doc, err := policydsl.Parse(s.Corpus)
	if err != nil {
		return nil, err
	}
	db, err := ppdb.New(ppdb.Config{Policy: doc.Policy, AttrSens: doc.AttrSens, Shards: shards})
	if err != nil {
		return nil, err
	}
	cols := []relational.Column{{Name: "provider", Type: relational.TypeText, PrimaryKey: true}}
	for _, c := range strings.Split(s.Cols, ",") {
		if c != "" {
			cols = append(cols, relational.Column{Name: c, Type: relational.TypeFloat})
		}
	}
	schema, err := relational.NewSchema(cols)
	if err != nil {
		return nil, err
	}
	if err := db.RegisterTable("records", schema, "provider"); err != nil {
		return nil, err
	}
	return db, nil
}

// buildTwin is the in-process twin of a freshly set-up server: same boot,
// same bulk loads in the same batches (from the preferences the batch
// bodies were rendered from).
func buildTwin(s *schedule, shards int) (*ppdb.DB, error) {
	db, err := newDB(s, shards)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(s.Population); i += batchSize {
		if err := db.RegisterProviders(s.Population[i:min(i+batchSize, len(s.Population))]); err != nil {
			return nil, err
		}
	}
	if s.RowsCSV != nil {
		if _, err := db.ImportCSV("records", bytes.NewReader(s.RowsCSV)); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// applyMutation replays an acked mutating op on an in-process DB the way
// the server's handler applies it.
func applyMutation(db *ppdb.DB, o *op) error {
	switch o.Kind {
	case opIngest:
		doc, err := policydsl.Parse(string(o.Body))
		if err != nil {
			return err
		}
		return db.RegisterProviders(doc.Providers)
	case opSwap:
		doc, err := policydsl.Parse(string(o.Body))
		if err != nil {
			return err
		}
		_, err = db.SetPolicy(doc.Policy)
		return err
	default:
		return nil // reads mutate nothing
	}
}

// checkOracles compares the server's answers with in-process twins.
//
//   - provider-churn: the end-of-run summary equals CertifyFull on a DB
//     rebuilt serially from the acked ops.
//   - analyst-scan: every checked query answer equals ppdb.QueryEnforced on
//     the twin at the same point of the schedule.
//   - policy-officer: every what-if reply has affected + memoReused = N and
//     equals the twin's ppdb.WhatIf; narrow diffs also have no global
//     fallback and reuse at least 90% of the population.
func checkOracles(s *schedule, shards int, ops []op, replies []opResult, summary []byte, res *runResult) error {
	twin, err := buildTwin(s, shards)
	if err != nil {
		return fmt.Errorf("oracle twin: %w", err)
	}
	if s.Workload == wlChurn {
		// A registration replaces a provider's preferences whole, so
		// replaying the acked upserts serially leaves each provider with
		// its last acked registration; install exactly those.
		last := map[string]*privacy.Prefs{}
		var order []string
		for i := range ops {
			if ops[i].Kind != opIngest || replies[i].failed() {
				continue
			}
			key := canon(ops[i].Provider)
			if _, seen := last[key]; !seen {
				order = append(order, key)
			}
			last[key] = ops[i].Prefs
		}
		final := make([]*privacy.Prefs, len(order))
		for i, k := range order {
			final[i] = last[k]
		}
		if err := twin.RegisterProviders(final); err != nil {
			return fmt.Errorf("oracle rebuild: %w", err)
		}
		res.info["oracle_checks"] = 1
		if msg := checkSummary(twin, summary); msg != "" {
			res.fail("oracle, end-of-run summary: %s", msg)
		}
		return nil
	}
	checked := 0
	for i := range ops {
		o := &ops[i]
		if replies[i].failed() {
			continue
		}
		if err := applyMutation(twin, o); err != nil {
			return fmt.Errorf("oracle replay of op %d: %w", o.ID, err)
		}
		if !o.Check {
			continue
		}
		checked++
		var msg string
		switch o.Kind {
		case opScan, opPoint:
			msg = checkQuery(twin, o, replies[i].body)
		case opWhatIfNarrow, opWhatIfFull:
			msg = checkWhatIf(twin, o, replies[i].body)
		default:
			msg = fmt.Sprintf("no oracle for %s", o.Kind)
		}
		if msg != "" {
			res.fail("oracle, op %d (%s): %s", o.ID, o.Kind, msg)
		}
	}
	res.info["oracle_checks"] = checked
	return nil
}

func checkQuery(twin *ppdb.DB, o *op, body []byte) string {
	var got httpapi.QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	want, err := twin.QueryEnforced(ppdb.EnforcedQuery{Requester: "analyst", Purpose: queryPurpose,
		Visibility: queryVisibility, SQL: o.SQL})
	if err != nil {
		return "twin: " + err.Error()
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		return fmt.Sprintf("columns %v, twin %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) || got.Stats.RowsMatched != want.Stats.RowsMatched ||
		got.Stats.RowsReturned != want.Stats.RowsReturned {
		return fmt.Sprintf("%d rows (matched %d), twin %d (matched %d)", len(got.Rows), got.Stats.RowsMatched,
			len(want.Rows), want.Stats.RowsMatched)
	}
	for r, row := range want.Rows {
		for c, v := range row {
			if got.Rows[r][c] != v.Display() {
				return fmt.Sprintf("row %d col %d: %q, twin %q", r, c, got.Rows[r][c], v.Display())
			}
		}
	}
	return ""
}

func checkWhatIf(twin *ppdb.DB, o *op, body []byte) string {
	var got whatif.Response
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	if got.Affected+got.MemoReused != got.Current.N {
		return fmt.Sprintf("affected %d + memoReused %d != N %d", got.Affected, got.MemoReused, got.Current.N)
	}
	if o.Kind == opWhatIfNarrow {
		if got.GlobalFallback {
			return "narrow diff fell back to a global re-assessment"
		}
		if float64(got.MemoReused) < 0.9*float64(got.Current.N) {
			return fmt.Sprintf("narrow diff reused %d of %d (< 90%%)", got.MemoReused, got.Current.N)
		}
	}
	req := *o.WhatIf
	resp, err := twin.WhatIf(&req)
	if err != nil {
		return "twin: " + err.Error()
	}
	// Round-trip the twin's answer through JSON so both sides compare in
	// wire form.
	wire, err := json.Marshal(resp)
	if err != nil {
		return err.Error()
	}
	var want whatif.Response
	if err := json.Unmarshal(wire, &want); err != nil {
		return err.Error()
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("reply differs from the twin:\n got  %+v\n want %+v", got, want)
	}
	return ""
}

func checkSummary(twin *ppdb.DB, body []byte) string {
	var got ppdb.CertificationSummary
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	full, err := twin.CertifyFull(0.1)
	if err != nil {
		return "twin: " + err.Error()
	}
	want := full.Report
	if got.N != want.N || got.ViolatedCount != want.ViolatedCount || got.DefaultCount != want.DefaultCount ||
		math.Float64bits(got.PW) != math.Float64bits(want.PW) ||
		math.Float64bits(got.PDefault) != math.Float64bits(want.PDefault) {
		return fmt.Sprintf("summary N=%d violated=%d default=%d pw=%g pdefault=%g; CertifyFull N=%d violated=%d default=%d pw=%g pdefault=%g",
			got.N, got.ViolatedCount, got.DefaultCount, got.PW, got.PDefault,
			want.N, want.ViolatedCount, want.DefaultCount, want.PW, want.PDefault)
	}
	// The ledger's running total is last-ulp approximate (internal/ledger).
	if d := math.Abs(got.TotalViolations - want.TotalViolations); d > 1e-9*math.Max(1, math.Abs(want.TotalViolations)) {
		return fmt.Sprintf("total violations %g, CertifyFull %g", got.TotalViolations, want.TotalViolations)
	}
	return ""
}

// prefsOf parses the provider blocks of a DSL body.
func prefsOf(body []byte) ([]*privacy.Prefs, error) {
	doc, err := policydsl.Parse(string(body))
	if err != nil {
		return nil, err
	}
	return doc.Providers, nil
}
