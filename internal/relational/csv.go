package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV decodes CSV data (with a header row) into typed rows matching the
// schema. Header names are matched to schema columns case-insensitively; all
// schema columns must be present. Cell text is converted to the column's
// declared type; empty cells become NULL.
func ReadCSV(schema *Schema, r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relational: csv header: %w", err)
	}
	// Map schema column → csv column.
	pos := make([]int, schema.Len())
	for i := range pos {
		pos[i] = -1
	}
	for ci, name := range header {
		if i, ok := schema.ColumnIndex(name); ok {
			pos[i] = ci
		}
	}
	for i, p := range pos {
		if p < 0 {
			return nil, fmt.Errorf("relational: csv is missing column %q", schema.Column(i).Name)
		}
	}
	var rows []Row
	for line := 2; ; line++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, fmt.Errorf("relational: csv line %d: %w", line, err)
		}
		row := make(Row, schema.Len())
		for i := range row {
			cell := record[pos[i]]
			v, err := parseCell(cell, schema.Column(i).Type)
			if err != nil {
				return rows, fmt.Errorf("relational: csv line %d column %q: %w", line, schema.Column(i).Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ImportCSV loads CSV data (with a header row) into an existing table via
// ReadCSV. It returns the number of rows inserted.
func ImportCSV(t *Table, r io.Reader) (int, error) {
	rows, err := ReadCSV(t.Schema(), r)
	if err != nil {
		return 0, err
	}
	for i, row := range rows {
		if _, err := t.Insert(row); err != nil {
			return i, fmt.Errorf("relational: csv row %d: %w", i+1, err)
		}
	}
	return len(rows), nil
}

// parseCell converts CSV text to a typed value; empty text is NULL.
func parseCell(cell string, ct ColType) (Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return Null(), nil
	}
	switch ct {
	case TypeInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("bad integer %q", cell)
		}
		return Int(n), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Null(), fmt.Errorf("bad float %q", cell)
		}
		return Float(f), nil
	case TypeBool:
		switch strings.ToLower(cell) {
		case "true", "t", "1", "yes":
			return Bool(true), nil
		case "false", "f", "0", "no":
			return Bool(false), nil
		default:
			return Null(), fmt.Errorf("bad boolean %q", cell)
		}
	default:
		return Text(cell), nil
	}
}

// Result is a relation to export: column names and rows.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// ExportCSV writes a Result as CSV with a header row.
func ExportCSV(res *Result, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(res.Columns); err != nil {
		return fmt.Errorf("relational: csv export: %w", err)
	}
	record := make([]string, len(res.Columns))
	for _, row := range res.Rows {
		for i, v := range row {
			if v.IsNull() {
				record[i] = ""
			} else {
				record[i] = v.Display()
			}
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("relational: csv export: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportTableCSV writes an entire table as CSV in insertion order.
func ExportTableCSV(t *Table, w io.Writer) error {
	schema := t.Schema()
	cols := make([]string, schema.Len())
	for i := range cols {
		cols[i] = schema.Column(i).Name
	}
	res := &Result{Columns: cols}
	t.Scan(func(_ RowID, row Row) bool {
		res.Rows = append(res.Rows, row)
		return true
	})
	return ExportCSV(res, w)
}
