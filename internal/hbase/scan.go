package hbase

import (
	"bytes"
	"encoding/binary"
	"sort"
)

// RowFilter selects rows by fixed-width fragments at aligned positions:
// a row matches when, for every fragment in Require, some position
// Offset + i*Stride (i ≥ 0; only Offset itself when Stride ≤ 0) holds
// that fragment. Window, when set, also trims each matching row to the
// cells of a time window. The zero value matches every row and keeps
// every cell. The region server checks the filter once per row and
// skips a non-matching row whole, so a caller that knows its row-key
// layout (the TSD's tag UID pairs and hour base) never ships or decodes
// the rows or cells it would discard. The fields are plain data so the
// filter travels in a ScanRequest over any transport.
type RowFilter struct {
	Offset, Stride int
	Require        [][]byte
	Window         TimeWindow
}

// TimeWindow trims rows that each hold Span time units: the row key
// carries the row's base time as a 4-byte big-endian integer at BaseAt,
// and a cell's 2-byte qualifier holds its big-endian offset from that
// base. A cell is kept when base+offset lies in [From, To]. Cells that
// are not timed — a qualifier of any other length, or an offset at or
// past Span — are always kept, as is every cell of a row whose key is
// too short to carry a base. Span ≤ 0 turns the window off.
//
// Whether a cell is kept depends only on its row and qualifier, so
// trimming every source of a row alike leaves shadowing and row
// markers as they were.
type TimeWindow struct {
	BaseAt         int
	Span, From, To int64
}

// bounds returns the offsets [lo, hi] of row's timed cells that the
// window keeps (lo > hi keeps none of them); on is false when the
// window keeps every cell of row.
func (w *TimeWindow) bounds(row []byte) (lo, hi int64, on bool) {
	if w.Span <= 0 || w.BaseAt < 0 || len(row) < w.BaseAt+4 {
		return 0, 0, false
	}
	base := int64(binary.BigEndian.Uint32(row[w.BaseAt:]))
	lo, hi = 0, w.Span-1
	if w.From > base {
		lo = w.From - base
	}
	if w.To < base {
		hi = -1
	} else if w.To-base < hi {
		hi = w.To - base
	}
	return lo, hi, true
}

// keeps reports whether the window keeps a cell with qualifier q of a
// row whose timed cells are kept over offsets [lo, hi].
func (w *TimeWindow) keeps(q []byte, lo, hi int64) bool {
	if len(q) != 2 {
		return true
	}
	off := int64(binary.BigEndian.Uint16(q))
	return off >= w.Span || (off >= lo && off <= hi)
}

// trim appends the cells of mr the window keeps to lists, as up to two
// qualifier-ordered slices of mr's cells: the timed cells in [lo, hi]
// and the untimed tail. A row holding a qualifier that is not 2 bytes
// long interleaves untimed cells with timed ones, so its kept cells
// are copied out instead.
func (w *TimeWindow) trim(lists [][]Cell, mr *memRow, lo, hi int64) [][]Cell {
	cells := mr.cells
	if mr.oddQual {
		var kept []Cell
		for _, c := range cells {
			if w.keeps(c.Qual, lo, hi) {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			lists = append(lists, kept)
		}
		return lists
	}
	i := searchOffset(cells, lo)
	j := max(searchOffset(cells, hi+1), i)
	if i < j {
		lists = append(lists, cells[i:j])
	}
	if k := searchOffset(cells, w.Span); k < len(cells) {
		lists = append(lists, cells[k:])
	}
	return lists
}

// searchOffset returns the index of the first cell in cells (2-byte
// qualifiers, sorted) whose offset is at least off.
func searchOffset(cells []Cell, off int64) int {
	if off > 0xFFFF {
		return len(cells)
	}
	return sort.Search(len(cells), func(i int) bool {
		return int64(binary.BigEndian.Uint16(cells[i].Qual)) >= off
	})
}

// Match reports whether row passes the filter. A nil filter matches
// every row.
func (f *RowFilter) Match(row []byte) bool {
	if f == nil {
		return true
	}
	for _, frag := range f.Require {
		if !f.carries(row, frag) {
			return false
		}
	}
	return true
}

// carries reports whether frag sits at one of the filter's aligned
// positions in row.
func (f *RowFilter) carries(row, frag []byte) bool {
	for at := f.Offset; at >= 0 && at+len(frag) <= len(row); at += f.Stride {
		if bytes.Equal(row[at:at+len(frag)], frag) {
			return true
		}
		if f.Stride <= 0 {
			break
		}
	}
	return false
}

// rowIter walks the rows of a set of sorted, slot-unique runs in key
// order: each source is positioned at start by binary search, rows at
// or past end (empty = +inf) are never visited, and a row failing the
// filter is skipped in every source at once without touching its
// cells. The filter's window trims each source's cells by binary
// search before anything counts or merges them.
type rowIter struct {
	srcs []run // newest first
	pos  []int
	end  []byte
	f    *RowFilter

	// The current row, set by next: its cells as qualifier-sorted
	// lists, newest source first, down to the newest source with a row
	// marker (cleared reports one): older sources are shadowed whole.
	// sources counts the sources the lists come from. lists is reused
	// by the following call.
	row     []byte
	lists   [][]Cell
	sources int
	cleared bool
}

func newRowIter(srcs []run, start, end []byte, f *RowFilter) *rowIter {
	it := &rowIter{srcs: srcs, pos: make([]int, len(srcs)), end: end, f: f, lists: make([][]Cell, 0, len(srcs))}
	for k, rn := range srcs {
		it.pos[k] = rn.seek(start)
	}
	return it
}

// next moves to the next matching row, reporting false once the range
// is done.
func (it *rowIter) next() bool {
	for {
		var row []byte
		found := false
		for k, rn := range it.srcs {
			if p := it.pos[k]; p < len(rn) && (!found || bytes.Compare(rn[p].row, row) < 0) {
				row, found = rn[p].row, true
			}
		}
		if !found || (len(it.end) > 0 && bytes.Compare(row, it.end) >= 0) {
			return false
		}
		match := it.f.Match(row)
		var w *TimeWindow // nil keeps every cell
		var lo, hi int64
		if match && it.f != nil {
			var on bool
			if lo, hi, on = it.f.Window.bounds(row); on {
				w = &it.f.Window
			}
		}
		it.row, it.lists, it.sources, it.cleared = row, it.lists[:0], 0, false
		for k, rn := range it.srcs {
			p := it.pos[k]
			if p >= len(rn) || !bytes.Equal(rn[p].row, row) {
				continue
			}
			it.pos[k]++
			if !match || it.cleared {
				continue
			}
			n := len(it.lists)
			if w != nil {
				it.lists = w.trim(it.lists, rn[p], lo, hi)
			} else if len(rn[p].cells) > 0 {
				it.lists = append(it.lists, rn[p].cells)
			}
			if len(it.lists) > n {
				it.sources++
			}
			it.cleared = rn[p].cleared
		}
		if match {
			return true
		}
	}
}

// merge is the k-way merge behind scans, flushes and compactions: the
// rows of srcs (sorted, slot-unique runs, newest first) in [start, end)
// that pass f, each row's cells merged by qualifier with the newest
// source's version shadowing the rest. Delete markers are dropped
// unless keepTombs is set (a flush must persist them to shadow older
// files; a row's marker then comes first). Cells come out in (Row,
// Qual) order; limit > 0 caps them.
func merge(srcs []run, start, end []byte, limit int, f *RowFilter, keepTombs bool) []Cell {
	var out []Cell
	if limit <= 0 {
		// Size the result in a first pass over the matching rows, so it
		// is allocated once. The count is an upper bound: shadowed
		// versions and dropped markers fall out in the merge.
		n := 0
		for it := newRowIter(srcs, start, end, f); it.next(); {
			if keepTombs {
				n++ // room for a row marker
			}
			for _, l := range it.lists {
				n += len(l)
			}
		}
		out = make([]Cell, 0, n)
	}
	for it := newRowIter(srcs, start, end, f); it.next(); {
		if it.cleared && keepTombs {
			out = append(out, rowMarker(it.row))
		}
		out = it.appendRow(out, keepTombs)
		if limit > 0 && len(out) >= limit {
			return out[:limit]
		}
	}
	return out
}

// appendRow appends the current row's cells in qualifier order,
// keeping only the newest version of each qualifier. It consumes the
// row's lists.
func (it *rowIter) appendRow(out []Cell, keepTombs bool) []Cell {
	lists := it.lists
	if it.sources <= 1 { // the common case: nothing to shadow
		for _, l := range lists {
			for _, c := range l {
				if keepTombs || !c.Tomb {
					out = append(out, c)
				}
			}
		}
		return out
	}
	for {
		best := -1
		for k, l := range lists {
			if len(l) > 0 && (best < 0 || bytes.Compare(l[0].Qual, lists[best][0].Qual) < 0) {
				best = k
			}
		}
		if best < 0 {
			return out
		}
		c := lists[best][0]
		for k, l := range lists {
			if len(l) > 0 && bytes.Equal(l[0].Qual, c.Qual) {
				lists[k] = l[1:]
			}
		}
		if keepTombs || !c.Tomb {
			out = append(out, c)
		}
	}
}
