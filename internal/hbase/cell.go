// Package hbase is a miniature HBase: a distributed, sorted,
// range-partitioned key-value store layered on the simulated HDFS,
// ZooKeeper and RPC substrates. It models the parts of HBase the
// paper's findings depend on:
//
//   - Regions: contiguous row-key ranges served by RegionServers, with
//     in-memory MemStores flushed to immutable store files in HDFS and
//     a write-ahead log for crash recovery.
//   - LSM reads: the MemStore is kept sorted by (Row, Qual) and store
//     files are sorted by construction, so a scan binary-searches every
//     source to its start key and a k-way merge iterator yields cells
//     already ordered and shadowed (newest source wins, delete markers
//     dropped; a delete of every cell a row shows is one row marker).
//     The same iterator writes flushes and compactions. A
//     RowFilter in the ScanRequest runs in the region, once per row, so
//     rows the caller would discard are never shipped, and its time
//     window trims each row to the cells the caller keeps; regions are
//     disjoint, so the client concatenates their results in key order.
//   - Bounded RPC queues: RegionServers crash when their inbound queue
//     overflows persistently (§III-B), which is why the ingestion
//     pipeline needs the buffering reverse proxy.
//   - Key-hash placement: writes route by row key, so sequential keys
//     hotspot one server until the TSDB layer salts them (§III-B).
//   - Manual region splits and an HMaster (+backup, via ZooKeeper
//     election) that reassigns regions and replays WALs on crashes.
package hbase

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Cell is one versioned key-value entry: row key, column qualifier and
// value. Sorting is by (Row, Qual), with later sequence numbers
// shadowing earlier ones during reads. A cell with Tomb set is a
// delete marker: it shadows older versions of its slot and is elided
// from scans (and dropped entirely by major compaction).
type Cell struct {
	Row   []byte
	Qual  []byte
	Value []byte
	Tomb  bool
	// rowTomb marks a row delete marker (Tomb is set too): it shadows
	// every cell of its row in older sources, while cells its own
	// source holds for the row are newer and stay visible. Only a
	// region creates one (see region.del); markers live in memstores,
	// store files and the WAL, never in a request or a scan result.
	rowTomb bool
}

// rowMarker returns the row delete marker for row.
func rowMarker(row []byte) Cell { return Cell{Row: row, Tomb: true, rowTomb: true} }

// Less orders cells by (Row, Qual).
func (c Cell) Less(o Cell) bool {
	if r := bytes.Compare(c.Row, o.Row); r != 0 {
		return r < 0
	}
	return bytes.Compare(c.Qual, o.Qual) < 0
}

// Same reports whether two cells address the same (Row, Qual) slot.
func (c Cell) Same(o Cell) bool {
	return bytes.Equal(c.Row, o.Row) && bytes.Equal(c.Qual, o.Qual)
}

// clone deep-copies a cell so callers can reuse buffers. The three
// fields share one allocation, each capped at its own length.
func (c Cell) clone() Cell {
	r, q := len(c.Row), len(c.Row)+len(c.Qual)
	buf := make([]byte, 0, q+len(c.Value))
	buf = append(append(append(buf, c.Row...), c.Qual...), c.Value...)
	return Cell{Row: buf[:r:r], Qual: buf[r:q:q], Value: buf[q:], Tomb: c.Tomb, rowTomb: c.rowTomb}
}

// encodeCells serializes cells for a store file: a length-prefixed
// binary layout (no gob; the format is stable and compact).
func encodeCells(cells []Cell) []byte {
	var buf bytes.Buffer
	var lp [4]byte
	binary.BigEndian.PutUint32(lp[:], uint32(len(cells)))
	buf.Write(lp[:])
	for _, c := range cells {
		for _, field := range [][]byte{c.Row, c.Qual, c.Value} {
			binary.BigEndian.PutUint32(lp[:], uint32(len(field)))
			buf.Write(lp[:])
			buf.Write(field)
		}
		switch {
		case c.rowTomb:
			buf.WriteByte(2)
		case c.Tomb:
			buf.WriteByte(1)
		default:
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

// errCorrupt reports a malformed store file.
var errCorrupt = errors.New("hbase: corrupt store file")

// decodeCells parses a store file produced by encodeCells.
func decodeCells(data []byte) ([]Cell, error) {
	if len(data) < 4 {
		return nil, errCorrupt
	}
	n := binary.BigEndian.Uint32(data[:4])
	data = data[4:]
	cells := make([]Cell, 0, n)
	readField := func() ([]byte, error) {
		if len(data) < 4 {
			return nil, errCorrupt
		}
		l := binary.BigEndian.Uint32(data[:4])
		data = data[4:]
		if uint32(len(data)) < l {
			return nil, errCorrupt
		}
		f := append([]byte(nil), data[:l]...)
		data = data[l:]
		return f, nil
	}
	for i := uint32(0); i < n; i++ {
		row, err := readField()
		if err != nil {
			return nil, err
		}
		qual, err := readField()
		if err != nil {
			return nil, err
		}
		val, err := readField()
		if err != nil {
			return nil, err
		}
		if len(data) < 1 {
			return nil, errCorrupt
		}
		kind := data[0]
		if kind > 2 {
			return nil, errCorrupt
		}
		data = data[1:]
		cells = append(cells, Cell{Row: row, Qual: qual, Value: val, Tomb: kind > 0, rowTomb: kind == 2})
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(data))
	}
	return cells, nil
}

// inRange reports whether key belongs to [start, end); an empty end
// means +infinity and an empty start means -infinity.
func inRange(key, start, end []byte) bool {
	if len(start) > 0 && bytes.Compare(key, start) < 0 {
		return false
	}
	if len(end) > 0 && bytes.Compare(key, end) >= 0 {
		return false
	}
	return true
}
