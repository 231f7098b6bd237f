package hbase

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/hdfs"
)

func benchCluster(b *testing.B, nodes int) (*Cluster, *Client) {
	b.Helper()
	c, err := NewCluster(Config{RegionServers: nodes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	if err := c.CreateTable(byteSplits(nodes * 2)); err != nil {
		b.Fatal(err)
	}
	return c, c.NewClient(ClientConfig{})
}

func BenchmarkClientPut(b *testing.B) {
	_, cl := benchCluster(b, 4)
	const batch = 500
	cells := make([]Cell, batch)
	var seq [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			binary.BigEndian.PutUint64(seq[:], uint64(i*batch+j))
			cells[j] = Cell{Row: append([]byte{byte(j)}, seq[:]...), Qual: []byte{0, 1}, Value: seq[:]}
		}
		if err := cl.Put(cells); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkClientScan(b *testing.B) {
	_, cl := benchCluster(b, 4)
	var cells []Cell
	var seq [8]byte
	for i := 0; i < 5000; i++ {
		binary.BigEndian.PutUint64(seq[:], uint64(i))
		cells = append(cells, Cell{Row: append([]byte{byte(i % 251)}, seq[:]...), Qual: []byte{0}, Value: seq[:]})
	}
	if err := cl.Put(cells); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.Scan(nil, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 5000 {
			b.Fatalf("scan = %d", len(got))
		}
	}
	b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "cells-read/s")
}

func BenchmarkMemstoreFlushReopen(b *testing.B) {
	c, cl := benchCluster(b, 2)
	var cells []Cell
	var seq [8]byte
	for i := 0; i < 2000; i++ {
		binary.BigEndian.PutUint64(seq[:], uint64(i))
		cells = append(cells, Cell{Row: append([]byte(nil), seq[:]...), Qual: []byte{0}, Value: seq[:]})
	}
	if err := cl.Put(cells); err != nil {
		b.Fatal(err)
	}
	m, err := c.ActiveMaster()
	if err != nil {
		b.Fatal(err)
	}
	ri := m.Regions()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.net.Call(context.Background(), rsAddr(ri.Server), "flush", &FlushRequest{Region: ri.ID}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := openRegion(ri, c.dfs); err != nil {
			b.Fatal(err)
		}
	}
}

// seriesRow builds a TSD-shaped row key: metric UID ∥ hour base ∥
// (unit tag pair) ∥ (sensor tag pair), 3-byte UIDs throughout.
func seriesRow(base uint32, unit, sensor int) []byte {
	row := []byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, byte(unit), 0, 0, 2, 0, 0, byte(sensor)}
	binary.BigEndian.PutUint32(row[3:7], base)
	return row
}

// unitFilter selects one unit's rows the way the TSD's tag pushdown
// does: the (unit key, value) UID pair at a pair-aligned offset.
func unitFilter(unit int) *RowFilter {
	return &RowFilter{Offset: 7, Stride: 6, Require: [][]byte{{0, 0, 1, 0, 0, byte(unit)}}}
}

// BenchmarkRegionScan is one dashboard read against a region shaped
// like a TSD salt bucket: 10 units × 50 sensors × 60 one-second
// offsets (30k cells), the oldest 20 offsets in one store file, the
// next 20 in a second and the newest 20 in the memstore. The scan
// covers the whole hour with one unit's rows selected by the row
// filter, so it seeks, merges three sources and skips 90% of the rows
// whole. Its allocs/op is pinned in ALLOC_PINS.
func BenchmarkRegionScan(b *testing.B) {
	dfs := hdfs.NewCluster(1)
	r := newRegion(RegionInfo{ID: 1})
	for off := 0; off < 60; off++ {
		var cells []Cell
		for u := 0; u < 10; u++ {
			for s := 0; s < 50; s++ {
				var q [2]byte
				binary.BigEndian.PutUint16(q[:], uint16(off))
				cells = append(cells, Cell{Row: seriesRow(0, u, s), Qual: q[:], Value: make([]byte, 8)})
			}
		}
		r.put(cells, int64(off+1))
		if off == 19 || off == 39 {
			if _, err := r.flush(dfs); err != nil {
				b.Fatal(err)
			}
		}
	}
	start, end := seriesRow(0, 0, 0)[:7], seriesRow(1, 0, 0)[:7]
	f := unitFilter(3)
	// Settle the heap built above (and start the collector's workers)
	// outside the measured window, so a 1x run counts only the scan.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.scan(start, end, 0, f); len(got) != 50*60 {
			b.Fatalf("scan = %d cells, want %d", len(got), 50*60)
		}
	}
	b.ReportMetric(float64(50*60*b.N)/b.Elapsed().Seconds(), "cells-read/s")
}

// BenchmarkRegionPut is the ingest side of the same region shape: each
// op writes one fleet-second — one cell for each of 500 series, at the
// next offset of every series' hour row — through the region server's
// put path (cell copy, WAL append, memstore insert, threshold flushes).
// Offsets arrive in order, so every insert is the append fast path.
func BenchmarkRegionPut(b *testing.B) {
	c, _ := benchCluster(b, 1)
	m, err := c.ActiveMaster()
	if err != nil {
		b.Fatal(err)
	}
	ri := m.Regions()[0]
	rs, ok := c.RegionServer(ri.Server)
	if !ok {
		b.Fatal("no region server")
	}
	cells := make([]Cell, 500)
	val := make([]byte, 8)
	var q [2]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % 3600
		if off == 0 { // a new hour: every series starts a new row
			for j := range cells {
				cells[j] = Cell{Row: seriesRow(uint32(i), j/50, j%50), Qual: q[:], Value: val}
			}
		}
		binary.BigEndian.PutUint16(q[:], uint16(off))
		if err := rs.handlePut(&PutRequest{Region: ri.ID, Cells: cells}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cells)*b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkRegionScanWindow is a dashboard read at the production row
// shape: rows of an hour, 3600 one-second cells per series, for 2
// units × 25 sensors (180k cells), the first 1200 offsets in one store
// file, the next 1200 in a second and the last 1200 in the memstore.
// One unit's rows are read over a 60 s window inside the second file,
// so each row is trimmed to its 60 cells by binary search in every
// source. It reports the cells returned per scan (1500; the same scan
// without the window returns 90000). Its allocs/op is pinned in
// ALLOC_PINS.
func BenchmarkRegionScanWindow(b *testing.B) {
	dfs := hdfs.NewCluster(1)
	r := newRegion(RegionInfo{ID: 1})
	quals := make([][]byte, 3600)
	for off := range quals {
		quals[off] = binary.BigEndian.AppendUint16(nil, uint16(off))
	}
	val := make([]byte, 8)
	cells := make([]Cell, 0, 50)
	for off := 0; off < 3600; off++ {
		cells = cells[:0]
		for u := 0; u < 2; u++ {
			for s := 0; s < 25; s++ {
				cells = append(cells, Cell{Row: seriesRow(0, u, s), Qual: quals[off], Value: val})
			}
		}
		r.put(cells, int64(off+1))
		if off == 1199 || off == 2399 {
			if _, err := r.flush(dfs); err != nil {
				b.Fatal(err)
			}
		}
	}
	start, end := seriesRow(0, 0, 0)[:7], seriesRow(1, 0, 0)[:7]
	f := unitFilter(1)
	f.Window = TimeWindow{BaseAt: 3, Span: 3600, From: 1770, To: 1829}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	var got []Cell
	for i := 0; i < b.N; i++ {
		if got = r.scan(start, end, 0, f); len(got) != 25*60 {
			b.Fatalf("scan = %d cells, want %d", len(got), 25*60)
		}
	}
	b.ReportMetric(float64(len(got)), "cells/scan")
}
