package ppdb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// Provider self-service: Sec. 1 notes that legislation requires "maintaining
// the ability of the data provider to access and update the information
// solicited from them", and Sec. 2 that transparency should let "data
// providers … continuously monitor the state of their privacy". These
// methods give each provider unmediated access to their own rows, the
// ability to update them, and a personal violation audit against the
// current policy.

// OwnRow is one stored row belonging to a provider.
type OwnRow struct {
	Table   string
	RowID   relational.RowID
	Columns []string
	Values  []relational.Value
}

// ProviderView returns every row the provider has contributed, across all
// registered tables, at full granularity — a provider's right of access is
// not subject to the house policy (they are reading their own data). Rows
// come back sorted by (table name, row id), so the answer is the same on
// every call.
func (d *DB) ProviderView(provider string) ([]OwnRow, error) {
	key := strings.ToLower(provider)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, ok := d.lookupShared(key); !ok {
		return nil, fmt.Errorf("ppdb: provider %q is not registered", provider)
	}
	names := make([]string, 0, len(d.tables))
	for name := range d.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []OwnRow
	for _, name := range names {
		tm := d.tables[name]
		var ids []relational.RowID
		for id, meta := range tm.rows {
			if meta.provider == key {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			continue
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		schema := tm.table.Schema()
		cols := make([]string, schema.Len())
		for i := range cols {
			cols[i] = schema.Column(i).Name
		}
		for _, id := range ids {
			if row, ok := tm.table.Get(id); ok {
				out = append(out, OwnRow{Table: name, RowID: id, Columns: cols, Values: row})
			}
		}
	}
	return out, nil
}

// UpdateOwnRow lets a provider correct one of their rows. The row must
// belong to the provider; the provider-identity column cannot be changed.
func (d *DB) UpdateOwnRow(provider, table string, id relational.RowID, row relational.Row) error {
	key := strings.ToLower(provider)
	d.mu.Lock()
	defer d.mu.Unlock()
	tm, ok := d.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("ppdb: table %q is not registered", table)
	}
	meta, ok := tm.rows[id]
	if !ok {
		return fmt.Errorf("ppdb: row %d does not exist in %q", id, table)
	}
	if meta.provider != key {
		return fmt.Errorf("ppdb: row %d in %q does not belong to %q", id, table, provider)
	}
	pi, _ := tm.table.Schema().ColumnIndex(tm.providerCol)
	if pi < len(row) {
		if s, ok := row[pi].AsText(); !ok || !strings.EqualFold(s, provider) {
			return fmt.Errorf("ppdb: cannot reassign row ownership")
		}
	}
	if err := tm.table.Update(id, row); err != nil {
		return err
	}
	d.mutSeq.Add(1)
	return nil
}

// SelfAudit returns the provider's personal violation report against the
// current policy — w_i, Violation_i, default_i and every conflicting tuple
// pair — the "continuously monitor the state of their privacy" capability.
// It is the ledger's memoized row, read in O(1). A registration writes the
// provider's ledger row in the same critical section that publishes the
// provider (its shard lock, or d.mu held exclusively), and this read holds
// d.mu shared, so a miss can only mean the provider is not registered.
func (d *DB) SelfAudit(provider string) (core.ProviderReport, error) {
	d.mu.RLock()
	rep, ok := d.ledger.Report(strings.ToLower(provider))
	d.mu.RUnlock()
	if !ok {
		return core.ProviderReport{}, fmt.Errorf("ppdb: provider %q is not registered", provider)
	}
	return rep, nil
}

// UpdatePreferences lets a provider revise their preference tuples (and
// thereby their violation state) — registration is idempotent, this is the
// explicit self-service spelling. The new preferences must carry the same
// provider identity.
func (d *DB) UpdatePreferences(provider string, prefs *privacy.Prefs) error {
	if prefs == nil {
		return fmt.Errorf("ppdb: nil preferences")
	}
	if !strings.EqualFold(provider, prefs.Provider) {
		return fmt.Errorf("ppdb: preferences are for %q, not %q", prefs.Provider, provider)
	}
	key := strings.ToLower(provider)
	d.mu.RLock()
	_, registered := d.lookupShared(key)
	d.mu.RUnlock()
	if !registered {
		return fmt.Errorf("ppdb: provider %q is not registered", provider)
	}
	return d.RegisterProvider(prefs)
}
