package tsdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/hbase"
)

// rowBaseSeconds is the time span covered by one row (OpenTSDB uses
// one hour; column qualifiers hold the offset within it).
const rowBaseSeconds = 3600

// Codec translates points to HBase cells and back. It owns the
// paper's key-design lever: with SaltBuckets == 0 keys begin with the
// metric UID and hour base time — sequential writes of one metric all
// land in one region (the hotspot §III-B describes). With SaltBuckets
// = N, a salt byte derived from the series identity is prepended,
// spreading series uniformly over N regions while keeping each series'
// row contiguous.
type Codec struct {
	uids *UIDTable
	// SaltBuckets is the number of salt prefixes (0 disables salting).
	SaltBuckets int
}

// NewCodec returns a codec over the UID table.
func NewCodec(uids *UIDTable, saltBuckets int) *Codec {
	if saltBuckets < 0 {
		saltBuckets = 0
	}
	if saltBuckets > 254 {
		saltBuckets = 254 // keep below the 0xFF meta prefix
	}
	return &Codec{uids: uids, SaltBuckets: saltBuckets}
}

// salt hashes the unsalted series key into a bucket byte. Deriving the
// salt from the series identity (rather than the paper's literal
// random byte) preserves the uniform spreading that fixed the hotspot
// while keeping reads exact; OpenTSDB 2.2 adopted the same scheme.
func (c *Codec) salt(seriesKey []byte) byte {
	h := uint32(2166136261)
	for _, b := range seriesKey {
		h ^= uint32(b)
		h *= 16777619
	}
	return byte(h % uint32(c.SaltBuckets))
}

// seriesKey builds the unsalted row key prefix for (metric, tags):
// metric UID ∥ base time ∥ sorted (tagk,tagv) UID pairs.
func (c *Codec) seriesKey(metricUID uint32, baseTime int64, tagPairs [][2]uint32) []byte {
	key := make([]byte, 0, uidWidth+4+len(tagPairs)*2*uidWidth)
	var u [uidWidth]byte
	putUID(u[:], metricUID)
	key = append(key, u[:]...)
	var ts [4]byte
	binary.BigEndian.PutUint32(ts[:], uint32(baseTime))
	key = append(key, ts[:]...)
	for _, p := range tagPairs {
		putUID(u[:], p[0])
		key = append(key, u[:]...)
		putUID(u[:], p[1])
		key = append(key, u[:]...)
	}
	return key
}

// tagPairs interns and sorts a tag set by tag-key UID (OpenTSDB's
// canonical order).
func (c *Codec) tagPairs(tags map[string]string) ([][2]uint32, error) {
	pairs := make([][2]uint32, 0, len(tags))
	for k, v := range tags {
		ku, err := c.uids.GetOrCreate(kindTagK, k)
		if err != nil {
			return nil, err
		}
		vu, err := c.uids.GetOrCreate(kindTagV, v)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, [2]uint32{ku, vu})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return pairs, nil
}

// Encode converts a point into its HBase cell.
func (c *Codec) Encode(p *Point) (hbase.Cell, error) {
	if err := p.Validate(); err != nil {
		return hbase.Cell{}, err
	}
	mu, err := c.uids.GetOrCreate(kindMetric, p.Metric)
	if err != nil {
		return hbase.Cell{}, err
	}
	pairs, err := c.tagPairs(p.Tags)
	if err != nil {
		return hbase.Cell{}, err
	}
	base := p.Timestamp - p.Timestamp%rowBaseSeconds
	key := c.seriesKey(mu, base, pairs)
	if c.SaltBuckets > 0 {
		key = append([]byte{c.salt(key)}, key...)
	}
	offset := uint16(p.Timestamp - base)
	var qual [2]byte
	binary.BigEndian.PutUint16(qual[:], offset)
	var val [8]byte
	binary.BigEndian.PutUint64(val[:], math.Float64bits(p.Value))
	return hbase.Cell{Row: key, Qual: qual[:], Value: val[:]}, nil
}

// decoded is one sample recovered from a cell.
type decoded struct {
	metric string
	tags   map[string]string
	ts     int64
	value  float64
}

// Decode parses a data cell (regular or row-compacted) back into
// samples. Cells that do not parse as data (e.g. UID meta rows) return
// a nil slice and no error.
func (c *Codec) Decode(cell hbase.Cell) ([]decoded, error) {
	hdr, ok, err := c.decodeRow(cell.Row)
	if !ok || err != nil {
		return nil, err
	}
	samples, err := appendSamples(nil, hdr.base, cell, math.MinInt64, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	out := make([]decoded, len(samples))
	for i, s := range samples {
		out[i] = decoded{metric: hdr.metric, tags: hdr.tags, ts: s.Timestamp, value: s.Value}
	}
	return out, nil
}

// rowHeader is a data row key resolved to names: the series the row
// belongs to and the hour it covers. A scan returns a row's cells
// together, so readers resolve the header once per row.
type rowHeader struct {
	metric string
	tags   map[string]string
	base   int64
}

// decodeRow resolves a row key. ok is false for rows that are not data
// (UID meta rows).
func (c *Codec) decodeRow(key []byte) (hdr rowHeader, ok bool, err error) {
	if len(key) == 0 || key[0] == metaPrefix {
		return hdr, false, nil
	}
	if c.SaltBuckets > 0 {
		key = key[1:]
	}
	if len(key) < uidWidth+4 || (len(key)-uidWidth-4)%(2*uidWidth) != 0 {
		return hdr, false, fmt.Errorf("tsdb: bad row key length %d", len(key))
	}
	metricUID := readUID(key[:uidWidth])
	metric, ok := c.uids.Name(kindMetric, metricUID)
	if !ok {
		return hdr, false, fmt.Errorf("%w: uid %d", ErrNoSuchMetric, metricUID)
	}
	tags := make(map[string]string, (len(key)-uidWidth-4)/(2*uidWidth))
	for rest := key[uidWidth+4:]; len(rest) > 0; rest = rest[2*uidWidth:] {
		ku := readUID(rest[:uidWidth])
		vu := readUID(rest[uidWidth : 2*uidWidth])
		kname, ok1 := c.uids.Name(kindTagK, ku)
		vname, ok2 := c.uids.Name(kindTagV, vu)
		if !ok1 || !ok2 {
			return hdr, false, fmt.Errorf("tsdb: dangling tag uid (%d,%d)", ku, vu)
		}
		tags[kname] = vname
	}
	base := int64(binary.BigEndian.Uint32(key[uidWidth : uidWidth+4]))
	return rowHeader{metric: metric, tags: tags, base: base}, true, nil
}

// isWideQual reports whether q is the qualifier of a row-compacted
// wide cell, 0xFFFF.
func isWideQual(q []byte) bool { return len(q) == 2 && q[0] == 0xFF && q[1] == 0xFF }

// appendSamples decodes one cell of a row with base time base onto
// dst, keeping the samples whose timestamps fall in [lo, hi].
func appendSamples(dst []Sample, base int64, cell hbase.Cell, lo, hi int64) ([]Sample, error) {
	// Row-compacted wide cell: a packed list of (offset u16, value
	// f64) pairs.
	if isWideQual(cell.Qual) {
		if len(cell.Value)%10 != 0 {
			return dst, fmt.Errorf("tsdb: bad compacted cell size %d", len(cell.Value))
		}
		for v := cell.Value; len(v) > 0; v = v[10:] {
			ts := base + int64(binary.BigEndian.Uint16(v[:2]))
			if ts >= lo && ts <= hi {
				dst = append(dst, Sample{Timestamp: ts, Value: math.Float64frombits(binary.BigEndian.Uint64(v[2:10]))})
			}
		}
		return dst, nil
	}
	if len(cell.Qual) != 2 || len(cell.Value) != 8 {
		return dst, fmt.Errorf("tsdb: bad cell shape qual=%d val=%d", len(cell.Qual), len(cell.Value))
	}
	ts := base + int64(binary.BigEndian.Uint16(cell.Qual))
	if ts >= lo && ts <= hi {
		dst = append(dst, Sample{Timestamp: ts, Value: math.Float64frombits(binary.BigEndian.Uint64(cell.Value))})
	}
	return dst, nil
}

// tagFilter turns a query's tag filter into the region-side row
// filter: each tag becomes its (key UID, value UID) pair, which a
// matching row carries at some pair-aligned offset past the metric UID
// and base time. ok is false when a tag names a key or value that was
// never interned, so no stored row can match. Tags with an empty value
// are left to tagsMatch (they match series lacking the key).
func (c *Codec) tagFilter(tags map[string]string) (f hbase.RowFilter, ok bool) {
	f = hbase.RowFilter{Offset: uidWidth + 4, Stride: 2 * uidWidth}
	if c.SaltBuckets > 0 {
		f.Offset++
	}
	for k, v := range tags {
		if v == "" {
			continue
		}
		ku, ok1 := c.uids.Lookup(kindTagK, k)
		vu, ok2 := c.uids.Lookup(kindTagV, v)
		if !ok1 || !ok2 {
			return f, false
		}
		frag := make([]byte, 2*uidWidth)
		putUID(frag, ku)
		putUID(frag[uidWidth:], vu)
		f.Require = append(f.Require, frag)
	}
	return f, true
}

// timeWindow turns a query's [start, end] into the region-side time
// window, so a scan ships only the narrow cells the query keeps: a
// row's base time follows the salt byte and metric UID, and a narrow
// cell's qualifier is its offset within the row's hour. The
// row-compacted 0xFFFF cell lies past the span, so it always ships and
// appendSamples filters its samples.
func (c *Codec) timeWindow(start, end int64) hbase.TimeWindow {
	w := hbase.TimeWindow{BaseAt: uidWidth, Span: rowBaseSeconds, From: start, To: end}
	if c.SaltBuckets > 0 {
		w.BaseAt++
	}
	return w
}

// rowRanges returns the scan ranges covering metric UID mu over
// [start, end] — one range per salt bucket (or a single unsalted one).
// Stored timestamps are never negative, so a negative start is read
// as 0 (and a window ending before 0 needs no scan).
func (c *Codec) rowRanges(mu uint32, start, end int64) [][2][]byte {
	start = max(start, 0)
	if end < start {
		return nil
	}
	baseStart := start - start%rowBaseSeconds
	baseEnd := end - end%rowBaseSeconds
	var u [uidWidth]byte
	putUID(u[:], mu)
	mkRange := func(salt []byte) [2][]byte {
		lo := append(append([]byte{}, salt...), u[:]...)
		var ts [4]byte
		binary.BigEndian.PutUint32(ts[:], uint32(baseStart))
		lo = append(lo, ts[:]...)
		hi := append(append([]byte{}, salt...), u[:]...)
		binary.BigEndian.PutUint32(ts[:], uint32(baseEnd+rowBaseSeconds))
		hi = append(hi, ts[:]...)
		return [2][]byte{lo, hi}
	}
	if c.SaltBuckets == 0 {
		return [][2][]byte{mkRange(nil)}
	}
	out := make([][2][]byte, 0, c.SaltBuckets)
	for s := 0; s < c.SaltBuckets; s++ {
		out = append(out, mkRange([]byte{byte(s)}))
	}
	return out
}

// SplitKeys returns the pre-split boundaries matching the salt scheme:
// one region per salt bucket (the paper's manual split for equal write
// shares). Without salting it returns nil (single region).
func (c *Codec) SplitKeys() [][]byte {
	if c.SaltBuckets <= 1 {
		// Split between data (< 0xFF) and meta rows.
		return [][]byte{{metaPrefix}}
	}
	out := make([][]byte, 0, c.SaltBuckets)
	for s := 1; s < c.SaltBuckets; s++ {
		out = append(out, []byte{byte(s)})
	}
	out = append(out, []byte{metaPrefix})
	return out
}
