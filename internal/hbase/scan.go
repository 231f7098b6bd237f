package hbase

import "bytes"

// RowFilter selects rows by fixed-width fragments at aligned positions:
// a row matches when, for every fragment in Require, some position
// Offset + i*Stride (i ≥ 0; only Offset itself when Stride ≤ 0) holds
// that fragment. The zero value matches every row. The region server
// checks the filter once per row and skips a non-matching row whole,
// so a caller that knows its row-key layout (the TSD's tag UID pairs)
// never ships or decodes the rows it would discard. The fields are
// plain data so the filter travels in a ScanRequest over any transport.
type RowFilter struct {
	Offset, Stride int
	Require        [][]byte
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
// cells.
type rowIter struct {
	srcs  []run // newest first
	pos   []int
	end   []byte
	f     *RowFilter
	lists [][]Cell
}

func newRowIter(srcs []run, start, end []byte, f *RowFilter) *rowIter {
	it := &rowIter{srcs: srcs, pos: make([]int, len(srcs)), end: end, f: f, lists: make([][]Cell, 0, len(srcs))}
	for k, rn := range srcs {
		it.pos[k] = rn.seek(start)
	}
	return it
}

// next returns the next matching row and its cells, one qualifier-
// sorted list per source holding the row, newest first, down to the
// newest source with a row marker (cleared reports one): older sources
// are shadowed whole. The slice is reused by the following call. ok is
// false once the range is done.
func (it *rowIter) next() (row []byte, lists [][]Cell, cleared, ok bool) {
	for {
		found := false
		for k, rn := range it.srcs {
			if p := it.pos[k]; p < len(rn) && (!found || bytes.Compare(rn[p].row, row) < 0) {
				row, found = rn[p].row, true
			}
		}
		if !found || (len(it.end) > 0 && bytes.Compare(row, it.end) >= 0) {
			return nil, nil, false, false
		}
		it.lists, cleared = it.lists[:0], false
		for k, rn := range it.srcs {
			if p := it.pos[k]; p < len(rn) && bytes.Equal(rn[p].row, row) {
				if !cleared {
					it.lists = append(it.lists, rn[p].cells)
					cleared = rn[p].cleared
				}
				it.pos[k]++
			}
		}
		if it.f.Match(row) {
			return row, it.lists, cleared, true
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
		for it := newRowIter(srcs, start, end, f); ; {
			_, lists, _, ok := it.next()
			if !ok {
				break
			}
			if keepTombs {
				n++ // room for a row marker
			}
			for _, l := range lists {
				n += len(l)
			}
		}
		out = make([]Cell, 0, n)
	}
	for it := newRowIter(srcs, start, end, f); ; {
		row, lists, cleared, ok := it.next()
		if !ok {
			return out
		}
		if cleared && keepTombs {
			out = append(out, rowMarker(row))
		}
		out = mergeRow(out, lists, keepTombs)
		if limit > 0 && len(out) >= limit {
			return out[:limit]
		}
	}
}

// mergeRow appends one row's cells from lists (each sorted by
// qualifier, newest first) in qualifier order, keeping only the newest
// version of each qualifier.
func mergeRow(out []Cell, lists [][]Cell, keepTombs bool) []Cell {
	if len(lists) == 1 { // the common case: nothing to shadow
		for _, c := range lists[0] {
			if keepTombs || !c.Tomb {
				out = append(out, c)
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
