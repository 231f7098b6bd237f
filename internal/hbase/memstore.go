package hbase

import (
	"bytes"
	"slices"
)

// memRow is one row of a sorted source: its cells ordered by
// qualifier, at most one per qualifier. cleared records a row delete
// marker: the row's cells in older sources are deleted, its cells here
// are newer than the marker. oddQual records that some qualifier the
// row has held is not 2 bytes long, so a TimeWindow cannot trim the
// row by binary search.
type memRow struct {
	row     []byte
	cells   []Cell
	cleared bool
	oddQual bool
}

// run is a sorted, slot-unique source for the merge iterator: rows in
// ascending key order. Both the memstore and store files present
// themselves as runs.
type run []*memRow

// seek returns the index of the first row at or after start.
func (rn run) seek(start []byte) int {
	if len(start) == 0 {
		return 0
	}
	i, _ := slices.BinarySearchFunc(rn, start, func(mr *memRow, key []byte) int {
		return bytes.Compare(mr.row, key)
	})
	return i
}

// rowsOf groups cells already sorted by (Row, Qual), each row's marker
// first, into a run. The rows share the cells' backing array.
func rowsOf(cells []Cell) run {
	var rn run
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && bytes.Equal(cells[j].Row, cells[i].Row) {
			j++
		}
		mr := &memRow{row: cells[i].Row, cells: cells[i:j:j]}
		if cells[i].rowTomb {
			mr.cleared, mr.cells = true, mr.cells[1:]
		}
		for _, c := range mr.cells {
			mr.oddQual = mr.oddQual || len(c.Qual) != 2
		}
		rn = append(rn, mr)
		i = j
	}
	return rn
}

// memstore is a region's write buffer, kept in (Row, Qual) order: a
// row is found by key through byRow, rows are ordered in rows, and each
// row's cells are ordered by qualifier. Ingest writes a series' samples
// in time order, so the common put is a new row appended at the end of
// rows or a qualifier appended at the end of its row.
type memstore struct {
	byRow map[string]*memRow
	rows  run
	size  int // approximate bytes: row + qualifier + value per cell
}

func newMemstore() *memstore {
	return &memstore{byRow: make(map[string]*memRow)}
}

func cellSize(c Cell) int { return len(c.Row) + len(c.Qual) + len(c.Value) }

// put stores c, replacing any cell in the same (Row, Qual) slot; a row
// marker replaces every cell of its row. The memstore keeps c's byte
// slices, so the caller must not modify them.
func (m *memstore) put(c Cell) {
	mr := m.byRow[string(c.Row)]
	if mr == nil {
		mr = &memRow{row: c.Row}
		m.byRow[string(c.Row)] = mr
		i := len(m.rows)
		if i > 0 && bytes.Compare(m.rows[i-1].row, c.Row) > 0 {
			i = m.rows.seek(c.Row)
		}
		m.rows = slices.Insert(m.rows, i, mr)
	}
	if c.rowTomb {
		for _, old := range mr.cells {
			m.size -= cellSize(old)
		}
		if !mr.cleared {
			m.size += cellSize(c)
		}
		mr.cells, mr.cleared = nil, true
		return
	}
	mr.oddQual = mr.oddQual || len(c.Qual) != 2
	i := len(mr.cells)
	if i > 0 && bytes.Compare(mr.cells[i-1].Qual, c.Qual) >= 0 {
		var found bool
		i, found = slices.BinarySearchFunc(mr.cells, c.Qual, func(e Cell, q []byte) int {
			return bytes.Compare(e.Qual, q)
		})
		if found {
			m.size += cellSize(c) - cellSize(mr.cells[i])
			mr.cells[i] = c
			return
		}
	}
	mr.cells = slices.Insert(mr.cells, i, c)
	m.size += cellSize(c)
}
