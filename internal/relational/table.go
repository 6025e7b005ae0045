package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Row is one tuple t_i of the data table.
type Row []Value

// clone returns an independent copy of the row.
func (r Row) clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// RowID identifies a stored row for its lifetime; IDs are never reused.
type RowID int64

// Table is one relation: a schema plus stored rows, an optional primary-key
// index and any number of secondary hash indexes. All methods are safe for
// concurrent use.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema *Schema

	rows   map[RowID]Row
	order  []RowID // insertion order for deterministic scans
	nextID RowID

	pkIndex map[string]RowID           // pk value key → row
	indexes map[int]map[string][]RowID // column → value key → rows
}

// NewTable creates an empty table with the given (lower-cased) name and
// schema. A primary-key index is created automatically when the schema
// declares one.
func NewTable(name string, schema *Schema) (*Table, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return nil, fmt.Errorf("relational: table needs a name")
	}
	if schema == nil {
		return nil, fmt.Errorf("relational: table %q needs a schema", name)
	}
	t := &Table{
		name:    name,
		schema:  schema,
		rows:    make(map[RowID]Row),
		indexes: make(map[int]map[string][]RowID),
	}
	if schema.PrimaryKey() >= 0 {
		t.pkIndex = make(map[string]RowID)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns the number of stored rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert validates and stores a row, returning its RowID. Primary-key
// duplicates are rejected.
func (t *Table) Insert(row Row) (RowID, error) {
	checked, err := t.schema.CheckRow(row)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if pk := t.schema.PrimaryKey(); pk >= 0 {
		k := checked[pk].key()
		if _, dup := t.pkIndex[k]; dup {
			return 0, fmt.Errorf("relational: %s: duplicate primary key %s", t.name, checked[pk])
		}
		t.pkIndex[k] = t.nextID
	}
	id := t.nextID
	t.nextID++
	t.rows[id] = checked
	t.order = append(t.order, id)
	for col, idx := range t.indexes {
		k := checked[col].key()
		idx[k] = append(idx[k], id)
	}
	return id, nil
}

// Get returns a copy of the row with the given id.
func (t *Table) Get(id RowID) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return r.clone(), true
}

// GetByPK looks up a row by primary-key value.
func (t *Table) GetByPK(v Value) (RowID, Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pkIndex == nil {
		return 0, nil, false
	}
	id, ok := t.pkIndex[v.key()]
	if !ok {
		return 0, nil, false
	}
	return id, t.rows[id].clone(), true
}

// Scan visits every row in insertion order until fn returns false. The row
// passed to fn must not be mutated.
func (t *Table) Scan(fn func(id RowID, row Row) bool) {
	t.mu.RLock()
	ids := make([]RowID, 0, len(t.order))
	for _, id := range t.order {
		if _, live := t.rows[id]; live {
			ids = append(ids, id)
		}
	}
	t.mu.RUnlock()
	for _, id := range ids {
		t.mu.RLock()
		row, live := t.rows[id]
		var cp Row
		if live {
			cp = row.clone()
		}
		t.mu.RUnlock()
		if !live {
			continue
		}
		if !fn(id, cp) {
			return
		}
	}
}

// Update replaces the row with the given id after validation, maintaining
// all indexes.
func (t *Table) Update(id RowID, row Row) error {
	checked, err := t.schema.CheckRow(row)
	if err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("relational: %s: row %d does not exist", t.name, id)
	}
	if pk := t.schema.PrimaryKey(); pk >= 0 {
		oldK, newK := old[pk].key(), checked[pk].key()
		if oldK != newK {
			if _, dup := t.pkIndex[newK]; dup {
				return fmt.Errorf("relational: %s: duplicate primary key %s", t.name, checked[pk])
			}
			delete(t.pkIndex, oldK)
			t.pkIndex[newK] = id
		}
	}
	for col, idx := range t.indexes {
		oldK, newK := old[col].key(), checked[col].key()
		if oldK != newK {
			idx[oldK] = removeID(idx[oldK], id)
			if len(idx[oldK]) == 0 {
				delete(idx, oldK)
			}
			idx[newK] = append(idx[newK], id)
		}
	}
	t.rows[id] = checked
	return nil
}

// Delete removes the row with the given id; deleting a missing row is a
// no-op returning false.
func (t *Table) Delete(id RowID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[id]
	if !ok {
		return false
	}
	if pk := t.schema.PrimaryKey(); pk >= 0 {
		delete(t.pkIndex, row[pk].key())
	}
	for col, idx := range t.indexes {
		k := row[col].key()
		idx[k] = removeID(idx[k], id)
		if len(idx[k]) == 0 {
			delete(idx, k)
		}
	}
	delete(t.rows, id)
	// Compact order lazily when more than half the slots are dead.
	if len(t.order) > 2*len(t.rows)+16 {
		live := t.order[:0]
		for _, oid := range t.order {
			if _, ok := t.rows[oid]; ok {
				live = append(live, oid)
			}
		}
		t.order = live
	}
	return true
}

func removeID(ids []RowID, id RowID) []RowID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// CreateIndex builds (or rebuilds) a secondary hash index on the named
// column, used by the enforced query planner for equality lookups.
func (t *Table) CreateIndex(column string) error {
	col, ok := t.schema.ColumnIndex(column)
	if !ok {
		return fmt.Errorf("relational: %s: no column %q to index", t.name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[string][]RowID)
	for id, row := range t.rows {
		k := row[col].key()
		idx[k] = append(idx[k], id)
	}
	for _, ids := range idx {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	t.indexes[col] = idx
	return nil
}

// HasIndex reports whether the named column has a secondary index (or is the
// primary key).
func (t *Table) HasIndex(column string) bool {
	col, ok := t.schema.ColumnIndex(column)
	if !ok {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.schema.PrimaryKey() == col {
		return true
	}
	_, has := t.indexes[col]
	return has
}

// Lookup returns (sorted) row ids whose column equals v, using an index when
// available and a scan otherwise.
func (t *Table) Lookup(column string, v Value) ([]RowID, error) {
	col, ok := t.schema.ColumnIndex(column)
	if !ok {
		return nil, fmt.Errorf("relational: %s: no column %q", t.name, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.schema.PrimaryKey() == col && t.pkIndex != nil {
		if id, ok := t.pkIndex[v.key()]; ok {
			return []RowID{id}, nil
		}
		return nil, nil
	}
	if idx, ok := t.indexes[col]; ok {
		ids := idx[v.key()]
		out := make([]RowID, len(ids))
		copy(out, ids)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	var out []RowID
	for _, id := range t.order {
		row, live := t.rows[id]
		if live && Equal(row[col], v) {
			out = append(out, id)
		}
	}
	return out, nil
}
