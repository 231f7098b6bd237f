package hbase

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hdfs"
)

// RegionInfo is the metadata the master publishes for one region.
type RegionInfo struct {
	ID    int    `json:"id"`
	Start []byte `json:"start"` // inclusive; empty = -inf
	End   []byte `json:"end"`   // exclusive; empty = +inf
	// Server is the region server currently assigned, by name.
	Server string `json:"server"`
}

// Contains reports whether key falls in this region's range.
func (ri RegionInfo) Contains(key []byte) bool { return inRange(key, ri.Start, ri.End) }

// dir returns the region's HDFS directory prefix.
func (ri RegionInfo) dir() string { return regionDir(ri.ID) }

func regionDir(id int) string { return fmt.Sprintf("/hbase/region-%d/", id) }

// storeFile is one immutable flushed file: its cells, sorted by
// (Row, Qual) with one per slot, grouped by row for the merge.
type storeFile struct {
	path string
	seq  int64 // highest WAL sequence contained
	rows run
}

// region is the in-memory serving state for one assigned region.
type region struct {
	mu   sync.RWMutex
	info RegionInfo
	mem  *memstore
	// snapshot is the memstore a running flush is writing out. Scans
	// keep reading it until its store file joins files, while new puts
	// land in a fresh mem.
	snapshot *memstore
	files    []storeFile // flush order, oldest first
	// maxSeq is the highest WAL sequence applied to this region (for
	// flush markers).
	maxSeq int64
	// flushMu serializes flushes and compactions, the only writers of
	// files and snapshot.
	flushMu sync.Mutex
}

func newRegion(info RegionInfo) *region {
	return &region{info: info, mem: newMemstore()}
}

// put applies cells (already range-checked) carrying WAL sequence seq.
// The memstore keeps the cells' byte slices, so callers hand over
// cells they will not modify (the region server passes its WAL copies).
func (r *region) put(cells []Cell, seq int64) {
	r.mu.Lock()
	for _, c := range cells {
		r.mem.put(c)
	}
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	r.mu.Unlock()
}

// del applies delete markers for cells (clones the region owns, Tomb
// set) carrying WAL sequence seq, passing the markers it writes to log
// first. A row whose cells here cover every qualifier it still shows
// gets one row marker instead of a marker per cell: reads see the same
// result, and a row deleted whole (a sealed or expired TSDB row) costs
// one cell in the memstore, the WAL and the store files, not one per
// deleted cell. The check and the write share the region lock, so no
// put can slip between them.
func (r *region) del(cells []Cell, seq int64, log func([]Cell)) {
	slices.SortFunc(cells, func(a, b Cell) int {
		if c := bytes.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return bytes.Compare(a.Qual, b.Qual)
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Cell, 0, len(cells))
	var shown []Cell
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && bytes.Equal(cells[j].Row, cells[i].Row) {
			j++
		}
		shown = r.rowCells(shown[:0], cells[i].Row)
		if names(cells[i:j], shown) {
			out = append(out, rowMarker(cells[i].Row))
		} else {
			out = append(out, cells[i:j]...)
		}
		i = j
	}
	log(out)
	for _, c := range out {
		r.mem.put(c)
	}
	r.maxSeq = max(r.maxSeq, seq)
}

// rowCells appends the cells row shows to buf. Callers hold mu.
func (r *region) rowCells(buf []Cell, row []byte) []Cell {
	it := newRowIter(r.sources(), row, append(row[:len(row):len(row)], 0), nil)
	if it.next() {
		buf = it.appendRow(buf, false)
	}
	return buf
}

// names reports whether the qualifier-sorted cells of dels name every
// qualifier in shown.
func names(dels, shown []Cell) bool {
	for _, c := range shown {
		if _, found := slices.BinarySearchFunc(dels, c.Qual, func(e Cell, q []byte) int {
			return bytes.Compare(e.Qual, q)
		}); !found {
			return false
		}
	}
	return true
}

// memSize returns the approximate memstore footprint in bytes.
func (r *region) memSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mem.size
}

// sources returns the region's runs newest first: memstore, flushing
// snapshot, then store files from newest to oldest. Callers hold mu.
func (r *region) sources() []run {
	srcs := make([]run, 0, len(r.files)+2)
	srcs = append(srcs, r.mem.rows)
	if r.snapshot != nil {
		srcs = append(srcs, r.snapshot.rows)
	}
	for i := len(r.files) - 1; i >= 0; i-- {
		srcs = append(srcs, r.files[i].rows)
	}
	return srcs
}

// scan returns the merged view of the rows in [start, end) that pass
// f (nil = every row): the memstore shadows store files, newer files
// shadow older ones, and delete markers hide what they shadow. Cells
// come out sorted by (Row, Qual). limit <= 0 means unlimited.
func (r *region) scan(start, end []byte, limit int, f *RowFilter) []Cell {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return merge(r.sources(), start, end, limit, f, false)
}

// flushMarker is the durable record of how far a region has flushed.
type flushMarker struct {
	FlushedSeq int64    `json:"flushedSeq"`
	Files      []string `json:"files"` // flush order, oldest first
}

// flush writes the memstore to a new immutable store file in HDFS,
// returning the flushed sequence. The memstore is swapped for a fresh
// one up front, so puts proceed while the file is written. A nil error
// with seq 0 means the memstore was empty.
func (r *region) flush(dfs *hdfs.Cluster) (int64, error) {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	r.mu.Lock()
	snap := r.mem
	if len(snap.rows) == 0 {
		r.mu.Unlock()
		return 0, nil
	}
	r.mem, r.snapshot = newMemstore(), snap
	seq := r.maxSeq
	r.mu.Unlock()

	cells := merge([]run{snap.rows}, nil, nil, 0, nil, true)
	path := fmt.Sprintf("%ssf-%020d", r.info.dir(), seq)
	if err := dfs.WriteFile(path, encodeCells(cells)); err != nil {
		// Fold the puts that arrived meanwhile over the snapshot (they
		// are newer) and serve it as the memstore again.
		r.mu.Lock()
		for _, mr := range r.mem.rows {
			if mr.cleared {
				snap.put(rowMarker(mr.row))
			}
			for _, c := range mr.cells {
				snap.put(c)
			}
		}
		r.mem, r.snapshot = snap, nil
		r.mu.Unlock()
		return 0, fmt.Errorf("hbase: flush region %d: %w", r.info.ID, err)
	}
	r.mu.Lock()
	r.files = append(r.files, storeFile{path: path, seq: seq, rows: rowsOf(cells)})
	r.snapshot = nil
	files := make([]string, len(r.files))
	for i, sf := range r.files {
		files[i] = sf.path
	}
	r.mu.Unlock()

	if err := r.writeMarker(dfs, seq, files); err != nil {
		return 0, err
	}
	return seq, nil
}

func (r *region) writeMarker(dfs *hdfs.Cluster, seq int64, files []string) error {
	data, err := json.Marshal(flushMarker{FlushedSeq: seq, Files: files})
	if err != nil {
		return err
	}
	if err := dfs.WriteFile(r.info.dir()+"marker", data); err != nil {
		return fmt.Errorf("hbase: write flush marker region %d: %w", r.info.ID, err)
	}
	return nil
}

// compact merges all store files into one (newest wins, delete
// markers reclaimed), deleting the inputs. It returns the number of
// files compacted away.
func (r *region) compact(dfs *hdfs.Cluster) (int, error) {
	r.flushMu.Lock()
	defer r.flushMu.Unlock()
	r.mu.RLock()
	old := r.files // stable: only flush and compact replace it
	r.mu.RUnlock()
	if len(old) < 2 {
		return 0, nil
	}
	srcs := make([]run, len(old))
	maxSeq := int64(0)
	for i, sf := range old {
		srcs[len(old)-1-i] = sf.rows // newest first
		maxSeq = max(maxSeq, sf.seq)
	}
	cells := merge(srcs, nil, nil, 0, nil, false)

	path := fmt.Sprintf("%ssf-%020d-c", r.info.dir(), maxSeq)
	if err := dfs.WriteFile(path, encodeCells(cells)); err != nil {
		return 0, fmt.Errorf("hbase: compact region %d: %w", r.info.ID, err)
	}
	r.mu.Lock()
	r.files = []storeFile{{path: path, seq: maxSeq, rows: rowsOf(cells)}}
	r.mu.Unlock()

	if err := r.writeMarker(dfs, maxSeq, []string{path}); err != nil {
		return 0, err
	}
	for _, sf := range old {
		if sf.path != path {
			_ = dfs.DeleteFile(sf.path)
		}
	}
	return len(old), nil
}

// openRegion reconstructs a region's flushed state from HDFS: reads the
// marker, loads the listed store files. Used when a region is assigned
// to a server (initial assignment, failover, split).
func openRegion(info RegionInfo, dfs *hdfs.Cluster) (*region, int64, error) {
	r := newRegion(info)
	markerPath := info.dir() + "marker"
	if !dfs.Exists(markerPath) {
		return r, 0, nil // brand-new region
	}
	data, err := dfs.ReadFile(markerPath)
	if err != nil {
		return nil, 0, fmt.Errorf("hbase: open region %d marker: %w", info.ID, err)
	}
	var m flushMarker
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, 0, fmt.Errorf("hbase: open region %d marker: %w", info.ID, err)
	}
	for _, path := range m.Files {
		raw, err := dfs.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("hbase: open region %d file %s: %w", info.ID, path, err)
		}
		cells, err := decodeCells(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("hbase: open region %d file %s: %w", info.ID, path, err)
		}
		r.files = append(r.files, storeFile{path: path, seq: seqFromPath(path), rows: rowsOf(cells)})
	}
	r.maxSeq = m.FlushedSeq
	return r, m.FlushedSeq, nil
}

// seqFromPath recovers the sequence embedded in a store file name.
func seqFromPath(path string) int64 {
	base := path[strings.LastIndex(path, "/")+1:]
	base = strings.TrimPrefix(base, "sf-")
	base = strings.TrimSuffix(base, "-c")
	n, _ := strconv.ParseInt(base, 10, 64)
	return n
}
