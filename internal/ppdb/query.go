// Per-datum query enforcement (DESIGN.md §15): QueryEnforced is the one
// read path over registered tables. It runs a SELECT through
// internal/query, which checks every answered cell against the
// contributing provider's live preferences as well as the house policy;
// POST /v1/query serves it.
package ppdb

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/generalize"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
)

// Enforced-query instrumentation (DESIGN.md §10): calls by verdict, plus
// the wall time of the whole plan+enforce+execute pipeline.
var (
	mQueryAllowed = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "allowed")
	mQueryDenied = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "denied")
	mQueryUnenforceable = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "unenforceable")
	mQueryInvalid = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "invalid")
	mQueryInternal = metrics.Default.Counter("ppdb_query_total",
		"enforced queries by verdict", "verdict", "internal")
	mQuerySeconds = metrics.Default.Histogram("ppdb_query_enforce_seconds",
		"wall time of per-datum query enforcement", nil)
)

// EnforcedQuery is one per-datum-enforced read: requester class, purpose,
// the SELECT, and whether to return the EXPLAIN trace.
type EnforcedQuery struct {
	Requester  string
	Purpose    privacy.Purpose
	Visibility privacy.Level
	SQL        string
	Explain    bool
}

// enforceSource adapts the DB to query.Source. Every method is called by
// the engine while QueryEnforced holds d.mu shared, so the table map, the
// clock and the retention schedule are stable for the whole query;
// provider reads take the owning shard's lock (mu → dbShard.mu, the
// declared order).
type enforceSource struct {
	d *DB
}

// Origin implements query.Source.
func (s enforceSource) Origin(table string, id relational.RowID) (string, time.Time, bool) {
	tm, ok := s.d.tables[strings.ToLower(table)]
	if !ok {
		return "", time.Time{}, false
	}
	meta, ok := tm.rows[id]
	if !ok {
		return "", time.Time{}, false
	}
	return meta.provider, meta.inserted, true
}

// Provider implements query.Source.
func (s enforceSource) Provider(key string) (*privacy.Prefs, *core.CompiledPrefs, bool) {
	st, ok := s.d.stateShared(key)
	if !ok {
		return nil, nil, false
	}
	return st.prefs, st.compiled, true
}

// Expired implements query.Source.
func (s enforceSource) Expired(l privacy.Level, inserted time.Time) bool {
	return s.d.retention.Expired(s.d.scales.Retention, l, inserted, s.d.now)
}

// Generalize implements query.Source.
func (s enforceSource) Generalize(attr string, v relational.Value, granted privacy.Level) relational.Value {
	h := s.d.hierarchyFor(attr)
	lv := generalize.LevelFor(h, int(granted), int(s.d.scales.Granularity.Max()))
	if lv == 0 {
		return v
	}
	return h.Generalize(v, lv)
}

// hierarchyFor returns the attribute's registered hierarchy, defaulting to
// plain suppression.
func (d *DB) hierarchyFor(attr string) generalize.Hierarchy {
	if h, ok := d.hierarchies[strings.ToLower(attr)]; ok {
		return h
	}
	return generalize.SuppressionHierarchy{}
}

// HasHierarchy implements query.Source: true only for attributes with a
// registered generalization hierarchy. Attributes without one fall back to
// suppress-only degradation ("*" above level 0), which the planner's
// index-shortcut refusal does not cover — see the API.md caveat.
func (s enforceSource) HasHierarchy(attr string) bool {
	_, ok := s.d.hierarchies[strings.ToLower(attr)]
	return ok
}

// CatalogError reports a server-side invariant break discovered while
// binding the live tables into the query catalog — e.g. a registered
// table whose provider column no longer exists in its schema. It is a
// fault of the store's configuration, never of the request, so httpapi
// maps it to 500 rather than the 400 the request-shaped errors get.
type CatalogError struct {
	Err error
}

// Error implements error.
func (e *CatalogError) Error() string {
	return fmt.Sprintf("ppdb: query catalog: %v", e.Err)
}

// Unwrap exposes the underlying bind failure.
func (e *CatalogError) Unwrap() error { return e.Err }

// QueryEnforced answers a SELECT with per-datum enforcement: rows whose
// providers would be violated on visibility are suppressed, cells are
// generalized to the minimum of policy grant and provider preference, and
// data held past either retention window is refused. The whole execution
// runs under one shared acquisition of d.mu, so the answer reflects a
// consistent snapshot of policy, preferences, tables and clock. Every
// attempt — allowed or refused — lands in the audit log.
func (d *DB) QueryEnforced(q EnforcedQuery) (*query.Result, error) {
	start := time.Now()
	var res *query.Result
	var at time.Time
	err := func() error {
		d.mu.RLock()
		defer d.mu.RUnlock()
		at = d.now
		cat := query.NewCatalog()
		for _, tm := range d.tables {
			if err := cat.Bind(tm.table, tm.providerCol, nil); err != nil {
				return &CatalogError{Err: err}
			}
		}
		eng := query.New(cat, d.assessor, enforceSource{d: d})
		var err error
		res, err = eng.Query(query.Request{
			Requester:  q.Requester,
			Purpose:    q.Purpose,
			Visibility: q.Visibility,
			SQL:        q.SQL,
			Explain:    q.Explain,
		})
		return err
	}()
	mQuerySeconds.Observe(time.Since(start).Seconds())

	if err != nil {
		var denied *query.DeniedError
		var unenf *query.UnenforceableError
		var cat *CatalogError
		switch {
		case errors.As(err, &cat):
			mQueryInternal.Inc()
		case errors.As(err, &denied):
			mQueryDenied.Inc()
		case errors.As(err, &unenf):
			mQueryUnenforceable.Inc()
		default:
			mQueryInvalid.Inc()
		}
		d.audit.record(at, q, false, err.Error())
		return nil, err
	}
	mQueryAllowed.Inc()
	d.audit.record(at, q, true, "")
	return res, nil
}
