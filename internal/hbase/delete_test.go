package hbase

import (
	"fmt"
	"testing"

	"repro/internal/hdfs"
)

func TestDeleteTombstonesSlot(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	if err := cl.Put([]Cell{cell("a", "1", "x"), cell("a", "2", "y"), cell("b", "1", "z")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete([]Cell{cell("a", "2", "")}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scan after delete = %d cells, want 2", len(got))
	}
	for _, cc := range got {
		if string(cc.Row) == "a" && string(cc.Qual) == "2" {
			t.Fatal("deleted slot still visible")
		}
	}
	if err := cl.Delete(nil); err != nil {
		t.Fatal("empty delete must succeed")
	}
}

func TestTombstoneShadowsFlushedData(t *testing.T) {
	dfs := hdfs.NewCluster(2)
	r := newRegion(RegionInfo{ID: 9})
	r.put([]Cell{cell("k", "q", "old")}, 1)
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	// Tombstone lands in the memstore, shadowing the flushed version.
	tomb := cell("k", "q", "")
	tomb.Tomb = true
	r.put([]Cell{tomb}, 2)
	if got := r.scan(nil, nil, 0, nil); len(got) != 0 {
		t.Fatalf("tombstone did not shadow flushed cell: %v", got)
	}
	// Flush the tombstone too, then compact: the marker is reclaimed.
	if _, err := r.flush(dfs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.compact(dfs); err != nil {
		t.Fatal(err)
	}
	if got := r.scan(nil, nil, 0, nil); len(got) != 0 {
		t.Fatalf("post-compaction scan = %v, want empty", got)
	}
	if len(r.files) != 1 || len(r.files[0].rows) != 0 {
		t.Fatal("major compaction must drop tombstones and shadowed cells")
	}
}

func TestTombstoneSurvivesCrashViaWAL(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	if err := cl.Put([]Cell{cell("a", "1", "x")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete([]Cell{cell("a", "1", "")}); err != nil {
		t.Fatal(err)
	}
	m, _ := c.ActiveMaster()
	if err := c.KillRegionServer(m.Regions()[0].Server); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Scan(nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("deleted cell resurrected after crash recovery: %v", got)
	}
}

// TestRowDeleteWritesOneMarker checks that deleting every cell a row
// shows costs one WAL entry and one memstore entry, that a partial
// delete still tombstones slot by slot, that a put after the marker
// stays visible, and that all of it survives a crash via WAL replay.
func TestRowDeleteWritesOneMarker(t *testing.T) {
	c := newTestCluster(t, Config{RegionServers: 2})
	if err := c.CreateTable(nil); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientConfig{})
	var wide []Cell
	for q := 0; q < 100; q++ {
		wide = append(wide, cell("a", fmt.Sprintf("q%03d", q), "v"))
	}
	if err := cl.Put(append(wide, cell("b", "1", "x"), cell("b", "2", "y"))); err != nil {
		t.Fatal(err)
	}
	m, _ := c.ActiveMaster()
	server := m.Regions()[0].Server
	rs, _ := c.RegionServer(server)
	r, err := rs.lookup(m.Regions()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	// Flush, so the marker must shadow a store file, not just the
	// memstore.
	if err := rs.flushRegion(r); err != nil {
		t.Fatal(err)
	}
	before := c.wal.Len(server)
	if err := cl.Delete(append(wide, cell("b", "1", ""))); err != nil {
		t.Fatal(err)
	}
	if got := c.wal.Len(server) - before; got != 2 {
		t.Fatalf("delete logged %d WAL entries, want 2 (a's marker, b/1's tombstone)", got)
	}
	if err := cl.Put([]Cell{cell("a", "q050", "new")}); err != nil {
		t.Fatal(err)
	}
	want := "a/q050=new b/2=y "
	check := func(when string) {
		t.Helper()
		got, err := cl.Scan(nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, cc := range got {
			s += fmt.Sprintf("%s/%s=%s ", cc.Row, cc.Qual, cc.Value)
		}
		if s != want {
			t.Fatalf("%s: scan = %q, want %q", when, s, want)
		}
	}
	check("after delete")
	if err := c.KillRegionServer(server); err != nil {
		t.Fatal(err)
	}
	check("after crash recovery")
}
