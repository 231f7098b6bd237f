package hbase

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/hdfs"
)

// refRegion is the region read path as it stood before the sorted
// memstore and the merge iterator, kept as the oracle for the
// equivalence tests: a map memstore keyed by slotKey, and scans,
// flushes and compactions that merge through a slot-keyed map (oldest
// source first, so newer versions overwrite) and then sort.
//
// Row delete markers (region.del) are modelled the same way: a source
// first clears the merged cells of each row it holds a marker for,
// then lays its own cells over the rest.
type refRegion struct {
	mem     map[string]Cell
	cleared map[string]bool // rows with a marker in mem
	files   [][]Cell        // oldest first; a row's marker first
}

func newRefRegion() *refRegion {
	return &refRegion{mem: make(map[string]Cell), cleared: make(map[string]bool)}
}

// slotKey returns an unambiguous map key for (Row, Qual) using a
// length prefix (rows may contain any byte, so plain concatenation
// would collide).
func slotKey(row, qual []byte) string {
	var b bytes.Buffer
	var lp [4]byte
	binary.BigEndian.PutUint32(lp[:], uint32(len(row)))
	b.Write(lp[:])
	b.Write(row)
	b.Write(qual)
	return b.String()
}

// sortCells orders cells by (Row, Qual) in place.
func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Less(cells[j]) })
}

func (r *refRegion) put(cells []Cell) {
	for _, c := range cells {
		r.mem[slotKey(c.Row, c.Qual)] = c.clone()
	}
}

// del tombstones the slots of cells, as one row marker for each row
// whose cells name every qualifier the row shows.
func (r *refRegion) del(cells []Cell) {
	rows := make(map[string][]Cell)
	for _, c := range cells {
		rows[string(c.Row)] = append(rows[string(c.Row)], c)
	}
	for row, dels := range rows {
		named := make(map[string]bool)
		for _, c := range dels {
			named[string(c.Qual)] = true
		}
		whole := true
		for _, c := range r.scan([]byte(row), []byte(row+"\x00"), 0, nil) {
			whole = whole && named[string(c.Qual)]
		}
		if !whole {
			for _, c := range dels {
				c = c.clone()
				c.Tomb, c.Value = true, nil
				r.mem[slotKey(c.Row, c.Qual)] = c
			}
			continue
		}
		for k, c := range r.mem {
			if string(c.Row) == row {
				delete(r.mem, k)
			}
		}
		r.cleared[row] = true
	}
}

// sortRef orders cells by (Row, Qual) with each row's marker first.
func sortRef(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if !bytes.Equal(a.Row, b.Row) || a.rowTomb == b.rowTomb {
			return a.Less(b)
		}
		return a.rowTomb
	})
}

// overlay lays a source's cells (its markers first) over merged.
func overlay(merged map[string]Cell, src []Cell, start, end []byte) {
	for _, c := range src {
		if c.rowTomb && inRange(c.Row, start, end) {
			for k, m := range merged {
				if bytes.Equal(m.Row, c.Row) {
					delete(merged, k)
				}
			}
		}
	}
	for _, c := range src {
		if !c.rowTomb && inRange(c.Row, start, end) {
			merged[slotKey(c.Row, c.Qual)] = c
		}
	}
}

// memCells lists the memstore's cells and markers.
func (r *refRegion) memCells() []Cell {
	cells := make([]Cell, 0, len(r.mem)+len(r.cleared))
	for row := range r.cleared {
		cells = append(cells, rowMarker([]byte(row)))
	}
	for _, c := range r.mem {
		cells = append(cells, c)
	}
	return cells
}

func (r *refRegion) flush() {
	if len(r.mem) == 0 && len(r.cleared) == 0 {
		return
	}
	cells := r.memCells()
	sortRef(cells)
	r.files = append(r.files, cells)
	r.mem, r.cleared = make(map[string]Cell), make(map[string]bool)
}

func (r *refRegion) compact() {
	if len(r.files) < 2 {
		return
	}
	merged := make(map[string]Cell)
	for _, f := range r.files {
		overlay(merged, f, nil, nil)
	}
	cells := make([]Cell, 0, len(merged))
	for _, c := range merged {
		if !c.Tomb {
			cells = append(cells, c)
		}
	}
	sortCells(cells)
	r.files = [][]Cell{cells}
}

func (r *refRegion) scan(start, end []byte, limit int, f *RowFilter) []Cell {
	merged := make(map[string]Cell)
	for _, file := range r.files {
		overlay(merged, file, start, end)
	}
	overlay(merged, r.memCells(), start, end)
	out := make([]Cell, 0, len(merged))
	for _, c := range merged {
		if c.Tomb || !f.Match(c.Row) || (f != nil && !refKeeps(f.Window, c.Row, c.Qual)) {
			continue
		}
		out = append(out, c)
	}
	sortCells(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// refKeeps restates TimeWindow's keep rule for the oracle: a cell is
// dropped only when its row carries a base time at BaseAt, its
// qualifier is a 2-byte offset below Span, and base+offset falls
// outside [From, To].
func refKeeps(w TimeWindow, row, qual []byte) bool {
	if w.Span <= 0 || w.BaseAt < 0 || len(row) < w.BaseAt+4 || len(qual) != 2 {
		return true
	}
	off := int64(qual[0])<<8 | int64(qual[1])
	if off >= w.Span {
		return true
	}
	ts := int64(binary.BigEndian.Uint32(row[w.BaseAt:])) + off
	return ts >= w.From && ts <= w.To
}

func TestSlotKeyUnambiguous(t *testing.T) {
	// Classic ambiguity: row "a" + qual "bc" vs row "ab" + qual "c".
	if slotKey([]byte("a"), []byte("bc")) == slotKey([]byte("ab"), []byte("c")) {
		t.Fatal("slotKey must disambiguate row/qual boundaries")
	}
}

// flatten lists a run's cells in order, each row's marker first.
func flatten(rn run) []Cell {
	var out []Cell
	for _, mr := range rn {
		if mr.cleared {
			out = append(out, rowMarker(mr.row))
		}
		out = append(out, mr.cells...)
	}
	return out
}

// sameCells reports whether two scan results are byte-identical,
// field by field and in order.
func sameCells(a, b []Cell) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d cells, want %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Row, b[i].Row) || !bytes.Equal(a[i].Qual, b[i].Qual) ||
			!bytes.Equal(a[i].Value, b[i].Value) || a[i].Tomb != b[i].Tomb || a[i].rowTomb != b[i].rowTomb {
			return fmt.Errorf("cell %d = %q/%q=%q tomb=%v/%v, want %q/%q=%q tomb=%v/%v", i,
				a[i].Row, a[i].Qual, a[i].Value, a[i].Tomb, a[i].rowTomb,
				b[i].Row, b[i].Qual, b[i].Value, b[i].Tomb, b[i].rowTomb)
		}
	}
	return nil
}

// randKey draws a short key over a tiny alphabet, so prefixes,
// row/qualifier boundary ambiguities and overwrites are common.
func randKey(rng *rand.Rand, maxLen int) []byte {
	k := make([]byte, 1+rng.Intn(maxLen))
	for i := range k {
		k[i] = "abc\x00\xff"[rng.Intn(5)]
	}
	return k
}

// timedBases are the base times of timed rows (see randRow), few
// enough that random windows land inside, across and between rows.
var timedBases = []uint32{0, 3600, 0x6161}

// timedOffsets are the offsets timed cells sit at: both edges of a
// 3600-unit row, the largest 2-byte values (untimed under most spans)
// and a few in between, so slots collide and overwrite often.
var timedOffsets = []uint16{0, 1, 37, 97, 255, 256, 3599, 3600, 0xFFFE, 0xFFFF}

// randRow draws a row key: half the time a short randKey, else a timed
// row — one key byte, a base time from timedBases, and sometimes a
// trailing key byte — which a TimeWindow at BaseAt 1 trims.
func randRow(rng *rand.Rand) []byte {
	if rng.Intn(2) == 0 {
		return randKey(rng, 3)
	}
	row := append(randKey(rng, 1), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(row[1:], timedBases[rng.Intn(len(timedBases))])
	if rng.Intn(2) == 0 {
		row = append(row, randKey(rng, 1)...)
	}
	return row
}

// randQual draws a qualifier for row: for a timed row usually a 2-byte
// offset from timedOffsets, otherwise a randKey, so some timed rows
// hold only 2-byte qualifiers (the binary-search trim) and some mix in
// others (the copying trim).
func randQual(rng *rand.Rand, row []byte) []byte {
	if len(row) < 5 || rng.Intn(8) == 0 {
		return randKey(rng, 2)
	}
	q := make([]byte, 2)
	binary.BigEndian.PutUint16(q, timedOffsets[rng.Intn(len(timedOffsets))])
	return q
}

// randWindow draws a time window over the timed rows: its ends fall
// before, on, inside, across and past row edges (From > To among
// them), its base may be misaligned, and its span may cut 2-byte
// offsets into timed and untimed ones anywhere.
func randWindow(rng *rand.Rand) TimeWindow {
	at := func() int64 {
		base := int64(timedBases[rng.Intn(len(timedBases))])
		return base + []int64{-4000, -1, 0, 1, 36, 37, 98, 256, 3599, 3600, 65535, 70000}[rng.Intn(12)]
	}
	baseAt := 1
	if rng.Intn(4) == 0 {
		baseAt = rng.Intn(3)
	}
	span := []int64{0, 1, 97, 3600, 0xFFFF, 1 << 16, 1 << 20}[rng.Intn(7)]
	return TimeWindow{BaseAt: baseAt, Span: span, From: at(), To: at()}
}

func randFilter(rng *rand.Rand) *RowFilter {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return &RowFilter{}
	case 2:
		return &RowFilter{Window: randWindow(rng)}
	}
	f := &RowFilter{Offset: rng.Intn(3), Stride: rng.Intn(3)}
	for n := rng.Intn(3); n > 0; n-- {
		f.Require = append(f.Require, randKey(rng, 2))
	}
	if rng.Intn(2) == 0 {
		f.Window = randWindow(rng)
	}
	return f
}

// TestScanMatchesReference drives a region and the reference model
// through the same random puts, overwrites, tombstones, deletes (row
// markers among them), flushes, compactions and reopens, and checks
// after every step that scans over random ranges, limits, row filters
// and time windows are byte-identical — and that every store file
// holds exactly the reference's cells.
func TestScanMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dfs := hdfs.NewCluster(1)
		info := RegionInfo{ID: int(seed)}
		r, ref := newRegion(info), newRefRegion()
		seq := int64(0)
		for step := 0; step < 150; step++ {
			switch op := rng.Intn(24); {
			case op < 4: // delete through region.del: whole rows or a few slots
				var batch []Cell
				for n := 1 + rng.Intn(2); n > 0; n-- {
					row := randRow(rng)
					if rng.Intn(2) == 0 { // every slot the row shows
						batch = append(batch, ref.scan(row, append(row, 0), 0, nil)...)
					}
					for m := rng.Intn(3); m > 0; m-- {
						batch = append(batch, Cell{Row: row, Qual: randQual(rng, row)})
					}
				}
				seq++
				ref.del(batch)
				own := make([]Cell, len(batch))
				for i, c := range batch {
					c.Value = nil
					own[i] = c.clone()
					own[i].Tomb = true
				}
				r.del(own, seq, func([]Cell) {})
			case op < 18: // put a batch, some of it tombstones
				batch := make([]Cell, 1+rng.Intn(8))
				for i := range batch {
					row := randRow(rng)
					batch[i] = Cell{Row: row, Qual: randQual(rng, row), Value: []byte(fmt.Sprint(step, i))}
					if rng.Intn(6) == 0 {
						batch[i].Tomb, batch[i].Value = true, nil
					}
				}
				seq++
				ref.put(batch)
				own := make([]Cell, len(batch))
				for i, c := range batch {
					own[i] = c.clone()
				}
				r.put(own, seq)
			case op < 21:
				if _, err := r.flush(dfs); err != nil {
					t.Fatal(err)
				}
				ref.flush()
			case op < 23:
				if _, err := r.compact(dfs); err != nil {
					t.Fatal(err)
				}
				ref.compact()
			default: // failover: flush, then reopen from HDFS
				if _, err := r.flush(dfs); err != nil {
					t.Fatal(err)
				}
				ref.flush()
				var err error
				if r, _, err = openRegion(info, dfs); err != nil {
					t.Fatal(err)
				}
			}
			if len(r.files) != len(ref.files) {
				t.Fatalf("seed %d step %d: %d store files, want %d", seed, step, len(r.files), len(ref.files))
			}
			for i := range r.files {
				if err := sameCells(flatten(r.files[i].rows), ref.files[i]); err != nil {
					t.Fatalf("seed %d step %d: store file %d: %v", seed, step, i, err)
				}
			}
			for probe := 0; probe < 4; probe++ {
				var start, end []byte
				if rng.Intn(3) > 0 {
					start = randKey(rng, 3)
				}
				if rng.Intn(3) > 0 {
					end = randKey(rng, 3)
				}
				limit := 0
				if rng.Intn(3) == 0 {
					limit = 1 + rng.Intn(10)
				}
				f := randFilter(rng)
				got, want := r.scan(start, end, limit, f), ref.scan(start, end, limit, f)
				if err := sameCells(got, want); err != nil {
					t.Fatalf("seed %d step %d: scan [%q,%q) limit %d filter %+v: %v", seed, step, start, end, limit, f, err)
				}
			}
		}
	}
}

// TestClientScanMatchesReference checks the client's concatenation of
// per-region results across a split table: no client-side sort is
// needed for a filtered, ranged or limited scan to equal the reference
// over the whole key space.
func TestClientScanMatchesReference(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 3})
	if err := c.CreateTable([][]byte{[]byte("b"), []byte("c"), []byte("c\x00b")}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	m, err := c.ActiveMaster()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ref := newRefRegion()
	for step := 0; step < 60; step++ {
		batch := make([]Cell, 1+rng.Intn(10))
		for i := range batch {
			batch[i] = Cell{Row: randKey(rng, 3), Qual: randKey(rng, 2), Value: []byte(fmt.Sprint(step, i))}
		}
		if rng.Intn(5) == 0 {
			if err := cl.Delete(batch); err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				batch[i].Tomb, batch[i].Value = true, nil
			}
		} else if err := cl.Put(batch); err != nil {
			t.Fatal(err)
		}
		ref.put(batch)
		if rng.Intn(8) == 0 {
			ri := m.Regions()[rng.Intn(4)]
			if _, err := c.net.Call(t.Context(), rsAddr(ri.Server), "flush", &FlushRequest{Region: ri.ID}); err != nil {
				t.Fatal(err)
			}
		}
		for probe := 0; probe < 4; probe++ {
			var start, end []byte
			if rng.Intn(2) == 0 {
				start = randKey(rng, 3)
			}
			if rng.Intn(2) == 0 {
				end = randKey(rng, 3)
			}
			limit := 0
			if rng.Intn(3) == 0 {
				limit = 1 + rng.Intn(20)
			}
			f := randFilter(rng)
			var filter RowFilter
			if f != nil {
				filter = *f
			}
			got, err := cl.ScanContext(t.Context(), start, end, limit, filter)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCells(got, ref.scan(start, end, limit, f)); err != nil {
				t.Fatalf("step %d: scan [%q,%q) limit %d filter %+v: %v", step, start, end, limit, f, err)
			}
		}
	}
}

// TestConcurrentFlushLosesNoWrites runs puts, flushes, compactions and
// scans against one region at once. Every scan must come out sorted
// and slot-unique, and once the writers stop the region must hold
// every write: a flush swaps the memstore for a fresh one, so puts
// racing it land there instead of being dropped.
func TestConcurrentFlushLosesNoWrites(t *testing.T) {
	dfs := hdfs.NewCluster(1)
	r := newRegion(RegionInfo{ID: 1})
	const writers, perWriter = 3, 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var q [2]byte
				binary.BigEndian.PutUint16(q[:], uint16(i))
				r.put([]Cell{{Row: []byte{byte('a' + w)}, Qual: q[:], Value: []byte{byte(i)}}}, int64(i+1))
			}
		}(w)
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.flush(dfs); err != nil {
				t.Error(err)
				return
			}
			if _, err := r.compact(dfs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := r.scan(nil, nil, 0, nil)
			for i := 1; i < len(got); i++ {
				if !got[i-1].Less(got[i]) {
					t.Errorf("scan out of order or duplicated at %d", i)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	if got := r.scan(nil, nil, 0, nil); len(got) != writers*perWriter {
		t.Fatalf("region holds %d cells, want %d", len(got), writers*perWriter)
	}
}

func TestRowFilterMatch(t *testing.T) {
	row := []byte("xxAABBCC")
	cases := []struct {
		f    *RowFilter
		want bool
	}{
		{nil, true},
		{&RowFilter{}, true},
		{&RowFilter{Offset: 2, Stride: 2, Require: [][]byte{[]byte("BB")}}, true},
		{&RowFilter{Offset: 2, Stride: 2, Require: [][]byte{[]byte("CC"), []byte("AA")}}, true},
		{&RowFilter{Offset: 2, Stride: 2, Require: [][]byte{[]byte("AB")}}, false}, // unaligned
		{&RowFilter{Offset: 2, Stride: 2, Require: [][]byte{[]byte("BB"), []byte("DD")}}, false},
		{&RowFilter{Offset: 4, Stride: 0, Require: [][]byte{[]byte("BB")}}, true},
		{&RowFilter{Offset: 2, Stride: 0, Require: [][]byte{[]byte("BB")}}, false},  // one position only
		{&RowFilter{Offset: 6, Stride: 2, Require: [][]byte{[]byte("CCD")}}, false}, // past the end
		{&RowFilter{Offset: -1, Stride: 2, Require: [][]byte{[]byte("x")}}, false},
	}
	for i, tc := range cases {
		if got := tc.f.Match(row); got != tc.want {
			t.Errorf("case %d: Match = %v, want %v", i, got, tc.want)
		}
	}
}
