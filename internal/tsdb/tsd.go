package tsdb

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hbase"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// TSDConfig tunes one TSD daemon.
type TSDConfig struct {
	// SaltBuckets is the row-key salting width shared by every TSD in
	// the deployment (0 disables — the ablation baseline).
	SaltBuckets int
	// CompactionEnabled turns on OpenTSDB-style row compaction. The
	// paper disables it to cut RPC volume; the ablation measures why.
	CompactionEnabled bool
	// QueueCap bounds the TSD's own RPC queue (default 1024).
	QueueCap int
	// Workers is the TSD's handler pool (default 4).
	Workers int
	// FailFast makes the TSD's HBase client surface RegionServer queue
	// overflows to the caller instead of absorbing them with retries —
	// real OpenTSDB applies no backpressure toward HBase, which is the
	// §III-B failure mode. The buffering proxy is then the only thing
	// standing between producers and RegionServer crashes.
	FailFast bool
}

func (c TSDConfig) withDefaults() TSDConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// TSD is one OpenTSDB daemon: it accepts batched puts and queries,
// translating them into HBase operations through its own client — one
// TSD runs per storage node in the paper's deployment.
type TSD struct {
	name   string
	client *hbase.Client
	codec  *Codec
	cfg    TSDConfig
	// marks is the deployment-shared per-metric write watermark; nil
	// for a TSD outside a deployment.
	marks *Watermarks
	// faults, when set, injects on this daemon's storage operations
	// ("tsdb/put/<name>", "tsdb/query/<name>"). These hooks sit below
	// the rpc layer, so they also cover in-process direct writers like
	// the detector tier's anomaly sink.
	faults atomic.Pointer[faultinject.Injector]
	// blocks, when set, is the deployment-shared sealed tier: closed
	// rows compact into compressed blocks there, and queries merge its
	// contribution with the hot HBase scan.
	blocks atomic.Pointer[BlockStore]

	// PointsWritten counts samples accepted.
	PointsWritten telemetry.Counter
	// QueriesServed counts query RPCs.
	QueriesServed telemetry.Counter
	// SamplesReturned counts samples returned by queries after tag
	// filtering — the payload a read actually ships, as opposed to the
	// cells its scan touched.
	SamplesReturned telemetry.Counter
	// RowsCompacted counts row-compaction rewrites.
	RowsCompacted telemetry.Counter
}

// tsdAddr names a TSD on the network.
func tsdAddr(name string) string { return "tsd/" + name }

// Deployment wires a fleet of TSDs over one HBase cluster, sharing a
// UID table (backed by the same HBase table) and one write-watermark
// table (the read tier's cache-invalidation signal).
type Deployment struct {
	Cluster *hbase.Cluster
	UIDs    *UIDTable
	cfg     TSDConfig
	marks   *Watermarks
	faults  atomic.Pointer[faultinject.Injector]

	mu     sync.Mutex
	tsds   []*TSD
	blocks *BlockStore
}

// NewDeployment creates the shared UID table and n TSD daemons
// ("tsd-1" …), registering each on the cluster's network.
func NewDeployment(cluster *hbase.Cluster, n int, cfg TSDConfig) (*Deployment, error) {
	cfg = cfg.withDefaults()
	uidClient := cluster.NewClient(hbase.ClientConfig{})
	d := &Deployment{
		Cluster: cluster,
		UIDs:    NewUIDTable(uidClient),
		cfg:     cfg,
		marks:   NewWatermarks(),
	}
	for i := 0; i < n; i++ {
		if _, err := d.AddTSD(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// CreateTable pre-splits the HBase table to match the salt scheme.
func (d *Deployment) CreateTable() error {
	codec := NewCodec(d.UIDs, d.cfg.SaltBuckets)
	return d.Cluster.CreateTable(codec.SplitKeys())
}

// AddTSD scales the TSD tier out by one daemon.
func (d *Deployment) AddTSD() (*TSD, error) {
	d.mu.Lock()
	name := fmt.Sprintf("tsd-%d", len(d.tsds)+1)
	d.mu.Unlock()
	ccfg := hbase.ClientConfig{FailFast: d.cfg.FailFast}
	if d.cfg.FailFast {
		// A no-backpressure TSD must not mask outages behind long retry
		// storms either: bound the failover retries tightly.
		ccfg.MaxRetries = 2
		ccfg.RetryBackoff = time.Millisecond
	}
	t := &TSD{
		name:   name,
		client: d.Cluster.NewClient(ccfg),
		codec:  NewCodec(d.UIDs, d.cfg.SaltBuckets),
		cfg:    d.cfg,
		marks:  d.marks,
	}
	t.faults.Store(d.faults.Load())
	d.mu.Lock()
	t.blocks.Store(d.blocks)
	d.mu.Unlock()
	_, err := d.Cluster.Network().Register(tsdAddr(name), t.handle, rpc.ServerConfig{
		QueueCap: d.cfg.QueueCap,
		Workers:  d.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.tsds = append(d.tsds, t)
	d.mu.Unlock()
	return t, nil
}

// SetFaults installs (or, with nil, removes) a fault injector on every
// TSD in the deployment, present and future, with operations named
// "tsdb/put/<name>" and "tsdb/query/<name>".
func (d *Deployment) SetFaults(f *faultinject.Injector) {
	d.faults.Store(f)
	for _, t := range d.TSDs() {
		t.SetFaults(f)
	}
}

// SetFaults installs (or, with nil, removes) this daemon's fault
// injector.
func (t *TSD) SetFaults(f *faultinject.Injector) { t.faults.Store(f) }

// CrashTSD abruptly kills the named daemon's RPC server: queued and
// subsequent calls fail with rpc.ErrServerDown until RestartTSD. The
// daemon's in-process state (codec, HBase client) is untouched, exactly
// like a killed OpenTSDB process in front of a healthy HBase.
func (d *Deployment) CrashTSD(name string) error {
	t := d.byName(name)
	if t == nil {
		return fmt.Errorf("tsdb: no such daemon %q", name)
	}
	s, ok := d.Cluster.Network().Lookup(tsdAddr(name))
	if !ok {
		return fmt.Errorf("tsdb: daemon %q not on the network", name)
	}
	s.Crash()
	return nil
}

// RestartTSD brings a crashed daemon back by re-registering its handler
// at the same address (replacing the dead server), as if the process
// was restarted by an operator.
func (d *Deployment) RestartTSD(name string) error {
	t := d.byName(name)
	if t == nil {
		return fmt.Errorf("tsdb: no such daemon %q", name)
	}
	_, err := d.Cluster.Network().Register(tsdAddr(name), t.handle, rpc.ServerConfig{
		QueueCap: d.cfg.QueueCap,
		Workers:  d.cfg.Workers,
	})
	return err
}

func (d *Deployment) byName(name string) *TSD {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.tsds {
		if t.name == name {
			return t
		}
	}
	return nil
}

// TSDs returns the daemons in creation order.
func (d *Deployment) TSDs() []*TSD {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*TSD(nil), d.tsds...)
}

// Addrs returns the TSD RPC addresses, for the proxy's round-robin.
func (d *Deployment) Addrs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.tsds))
	for i, t := range d.tsds {
		out[i] = tsdAddr(t.name)
	}
	return out
}

// PointsWritten sums samples accepted across the TSD tier.
func (d *Deployment) PointsWritten() int64 {
	var total int64
	for _, t := range d.TSDs() {
		total += t.PointsWritten.Value()
	}
	return total
}

// QueriesServed sums query RPCs handled across the TSD tier.
func (d *Deployment) QueriesServed() int64 {
	var total int64
	for _, t := range d.TSDs() {
		total += t.QueriesServed.Value()
	}
	return total
}

// Watermarks returns the deployment's shared per-metric write
// watermark table.
func (d *Deployment) Watermarks() *Watermarks { return d.marks }

// RPC payloads for the TSD tier.
type (
	// PutBatch writes a batch of points.
	PutBatch struct {
		Points []Point
	}
	// QueryRequest runs one query.
	QueryRequest struct {
		Query Query
	}
	// QueryResponse returns matching series sorted by ID.
	QueryResponse struct {
		Series []Series
	}
)

// handle is the TSD RPC dispatch. The fabric's context — carrying the
// original caller's deadline, e.g. the proxy's delivery timeout — is
// threaded into the TSD's own HBase client calls, so backpressure
// deadlines propagate through the whole storage path.
func (t *TSD) handle(ctx context.Context, method string, payload any) (any, error) {
	switch method {
	case "put":
		return nil, t.PutContext(ctx, payload.(*PutBatch).Points)
	case "query":
		series, err := t.QueryContext(ctx, payload.(*QueryRequest).Query)
		if err != nil {
			return nil, err
		}
		return &QueryResponse{Series: series}, nil
	case "compact":
		n, err := t.CompactRowsContext(ctx, payload.(int64))
		return n, err
	default:
		return nil, fmt.Errorf("tsdb: %s: unknown method %q", t.name, method)
	}
}

// Name returns the daemon name.
func (t *TSD) Name() string { return t.name }

// Put writes points with no deadline (see PutContext).
func (t *TSD) Put(points []Point) error {
	return t.PutContext(context.Background(), points)
}

// PutContext encodes and writes a batch of points through the HBase
// client under the caller's deadline.
func (t *TSD) PutContext(ctx context.Context, points []Point) error {
	if len(points) == 0 {
		return nil
	}
	if f := t.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "tsdb/put/"+t.name); err != nil {
			return err
		}
	}
	cells := make([]hbase.Cell, 0, len(points))
	for i := range points {
		cell, err := t.codec.Encode(&points[i])
		if err != nil {
			return err
		}
		cells = append(cells, cell)
	}
	if err := t.client.PutContext(ctx, cells); err != nil {
		return err
	}
	t.PointsWritten.Add(int64(len(points)))
	// Advance the write watermark once per distinct metric in the batch
	// (batches are near-always homogeneous, so this is one bump), and
	// track the ingest frontier the sealing/retention clock runs on.
	last := ""
	maxTS := int64(0)
	for i := range points {
		if points[i].Metric != last {
			t.marks.Bump(points[i].Metric)
			last = points[i].Metric
		}
		if points[i].Timestamp > maxTS {
			maxTS = points[i].Timestamp
		}
	}
	t.blocks.Load().Observe(maxTS)
	return nil
}

// Query runs q with no deadline (see QueryContext).
func (t *TSD) Query(q Query) ([]Series, error) {
	return t.QueryContext(context.Background(), q)
}

// QueryContext scans the row ranges for the metric (across all salt
// buckets) with the query's tags and time window pushed into the
// regions as a row filter, decodes each returned row once, groups into
// series and optionally downsamples. A row's narrow cells come back in
// time order, so a series' samples are sorted only when a one-pass
// check finds them out of order: a window spanning hours whose rows
// salt into different buckets, sealed and hot samples overlapping, or
// a row-compacted wide cell beside narrow ones.
func (t *TSD) QueryContext(ctx context.Context, q Query) ([]Series, error) {
	t.QueriesServed.Inc()
	if f := t.faults.Load(); f.Active() > 0 {
		if err := f.Do(ctx, "tsdb/query/"+t.name); err != nil {
			return nil, err
		}
	}
	mu, ok := t.codec.uids.Lookup(kindMetric, q.Metric)
	filter, hot := t.codec.tagFilter(q.Tags)
	if !ok || !hot {
		// Unknown locally; try reloading persisted UIDs once (another
		// TSD may have interned the metric or a tag).
		if err := t.codec.uids.Reload(); err != nil {
			return nil, err
		}
		if mu, ok = t.codec.uids.Lookup(kindMetric, q.Metric); !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchMetric, q.Metric)
		}
		// A tag still unknown matches no hot row; the sealed tier,
		// keyed by name, is still consulted below.
		filter, hot = t.codec.tagFilter(q.Tags)
	}
	grouped := make(map[string]*Series)
	// The sealed tier contributes first: wide downsampled windows come
	// back as exact pre-aggregated buckets (pre, per series id) without
	// a block ever being decompressed; drill-downs decode raw samples
	// straight into grouped alongside the hot HBase scan below.
	bs := t.blocks.Load()
	var pre map[string][]Sample
	if bs != nil && rollupWidthFor(q) > 0 {
		pre = make(map[string][]Sample)
	}
	if err := bs.collect(ctx, q, grouped, pre); err != nil {
		return nil, err
	}
	var ranges [][2][]byte
	if hot {
		ranges = t.codec.rowRanges(mu, q.Start, q.End)
		filter.Window = t.codec.timeWindow(q.Start, q.End)
	}
	for _, rng := range ranges {
		cells, err := t.client.ScanContext(ctx, rng[0], rng[1], 0, filter)
		if err != nil {
			return nil, err
		}
		err = eachRow(cells, func(row []hbase.Cell) error {
			hdr, ok, err := t.codec.decodeRow(row[0].Row)
			if !ok || err != nil || !tagsMatch(q.Tags, hdr.tags) {
				return err
			}
			id := seriesID(hdr.metric, hdr.tags)
			ser, ok := grouped[id]
			if !ok {
				ser = &Series{Metric: hdr.metric, Tags: hdr.tags}
				grouped[id] = ser
			}
			for _, cell := range row {
				if ser.Samples, err = appendSamples(ser.Samples, hdr.base, cell, q.Start, q.End); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// grouped is keyed by series ID, so the result is ordered without
	// rendering an ID per comparison.
	ids := make([]string, 0, len(grouped))
	for id := range grouped {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]Series, 0, len(grouped))
	var returned int64
	for _, id := range ids {
		ser := grouped[id]
		if !slices.IsSortedFunc(ser.Samples, bySampleTime) {
			// Stable, so dedupeSamples keeps the first of equal
			// timestamps: sealed before hot, narrow before wide.
			slices.SortStableFunc(ser.Samples, bySampleTime)
		}
		ser.Samples = dedupeSamples(ser.Samples)
		if q.DownsampleSeconds > 0 {
			ser.Samples = downsample(ser.Samples, q.DownsampleSeconds, q.Aggregate)
		}
		if buckets := pre[id]; len(buckets) > 0 {
			ser.Samples = mergePreAggregated(ser.Samples, buckets)
		}
		if len(ser.Samples) == 0 {
			continue
		}
		returned += int64(len(ser.Samples))
		out = append(out, *ser)
	}
	t.SamplesReturned.Add(returned)
	return out, nil
}

func bySampleTime(a, b Sample) int { return cmp.Compare(a.Timestamp, b.Timestamp) }

// mergePreAggregated merges a series' hot downsampled buckets with the
// sealed tier's pre-aggregated ones (both sorted by timestamp). Seal
// boundaries are row-aligned and rollup-eligible widths divide the row
// span, so a bucket lives wholly on one side; on the rare duplicate
// (a late write racing a re-seal) the sealed value wins until the next
// compaction pass absorbs the stragglers.
func mergePreAggregated(hot, sealed []Sample) []Sample {
	if len(hot) == 0 {
		return sealed
	}
	out := make([]Sample, 0, len(hot)+len(sealed))
	i, j := 0, 0
	for i < len(hot) && j < len(sealed) {
		switch {
		case hot[i].Timestamp < sealed[j].Timestamp:
			out = append(out, hot[i])
			i++
		case hot[i].Timestamp > sealed[j].Timestamp:
			out = append(out, sealed[j])
			j++
		default:
			out = append(out, sealed[j])
			i++
			j++
		}
	}
	out = append(out, hot[i:]...)
	out = append(out, sealed[j:]...)
	return out
}

// dedupeSamples drops duplicate timestamps (a row-compacted cell can
// coexist with a not-yet-deleted original; they carry equal values).
func dedupeSamples(in []Sample) []Sample {
	if len(in) < 2 {
		return in
	}
	out := in[:1]
	for _, s := range in[1:] {
		if s.Timestamp != out[len(out)-1].Timestamp {
			out = append(out, s)
		}
	}
	return out
}

// tagsMatch reports whether all filter tags equal the series tags.
func tagsMatch(filter, tags map[string]string) bool {
	for k, v := range filter {
		if tags[k] != v {
			return false
		}
	}
	return true
}

// BucketStart returns the start of ts's width-second bucket, flooring
// toward negative infinity. Go's % truncates toward zero, so the naive
// ts-ts%width mis-buckets negative timestamps (e.g. -5 with width 10
// would land in bucket 0 instead of -10).
func BucketStart(ts, width int64) int64 {
	b := ts / width
	if ts%width != 0 && ts < 0 {
		b--
	}
	return b * width
}

// downsample buckets samples into fixed windows and aggregates.
func downsample(in []Sample, width int64, agg AggFunc) []Sample {
	if len(in) == 0 {
		return in
	}
	var out []Sample
	var vals []float64
	cur := BucketStart(in[0].Timestamp, width)
	flush := func() {
		if len(vals) > 0 {
			out = append(out, Sample{Timestamp: cur, Value: agg.apply(vals)})
			vals = vals[:0]
		}
	}
	for _, s := range in {
		b := BucketStart(s.Timestamp, width)
		if b != cur {
			flush()
			cur = b
		}
		vals = append(vals, s.Value)
	}
	flush()
	return out
}

// CompactRows performs row compaction for every data row with base
// time strictly older than beforeBase. With a block store attached
// (AttachBlockStore) each closed row seals into the compressed tier —
// its samples are Gorilla-encoded into the deployment-shared
// BlockStore, its rollups refresh, and the raw HBase cells are
// deleted. Without one it falls back to OpenTSDB-style wide-cell
// rewrites (the operation the paper disabled — each compacted row
// costs a scan, a put and a delete RPC round). It returns the number
// of rows compacted or sealed.
func (t *TSD) CompactRows(beforeBase int64) (int, error) {
	return t.CompactRowsContext(context.Background(), beforeBase)
}

// CompactRowsContext is CompactRows under the caller's deadline.
func (t *TSD) CompactRowsContext(ctx context.Context, beforeBase int64) (int, error) {
	if bs := t.blocks.Load(); bs != nil {
		return t.sealRows(ctx, bs, beforeBase)
	}
	if !t.cfg.CompactionEnabled {
		return 0, nil
	}
	// Scan everything below the meta prefix (data rows only).
	cells, err := t.client.ScanContext(ctx, nil, []byte{metaPrefix}, 0, hbase.RowFilter{})
	if err != nil {
		return 0, err
	}
	compacted := 0
	err = eachRow(cells, func(rowCells []hbase.Cell) error {
		// Qualifiers sort as big-endian offsets, and an already
		// compacted row's 0xFFFF wide cell sorts last. Its pairs merge
		// into the new wide cell, the narrow cells (written since)
		// winning an offset both hold.
		var old []byte
		if last := rowCells[len(rowCells)-1]; isWideQual(last.Qual) {
			old, rowCells = last.Value, rowCells[:len(rowCells)-1]
		}
		if len(rowCells) < 2 {
			return nil
		}
		base, ok := t.codec.rowBase(rowCells[0].Row)
		if !ok || base >= beforeBase {
			return nil
		}
		wide := make([]byte, 0, len(rowCells)*10+len(old))
		for _, c := range rowCells {
			for len(old) >= 10 && bytes.Compare(old[:2], c.Qual) < 0 {
				wide, old = append(wide, old[:10]...), old[10:]
			}
			if len(old) >= 10 && bytes.Equal(old[:2], c.Qual) {
				old = old[10:]
			}
			wide = append(wide, c.Qual...)
			wide = append(wide, c.Value...)
		}
		wide = append(wide, old...)
		wideCell := hbase.Cell{Row: rowCells[0].Row, Qual: []byte{0xFF, 0xFF}, Value: wide}
		if err := t.client.PutContext(ctx, []hbase.Cell{wideCell}); err != nil {
			return err
		}
		if err := t.client.DeleteContext(ctx, rowCells); err != nil {
			return err
		}
		t.RowsCompacted.Inc()
		compacted++
		return nil
	})
	return compacted, err
}

// sealPage is how many cells one seal-pass scan reads (a variable so
// tests can page through small tables).
var sealPage = 1 << 16

// sealRows moves every data row with base time strictly older than
// beforeBase into the compressed sealed tier: decode the row's cells
// (one row is one series and hour), Seal the samples into the block
// store, then delete the raw cells. A row is only deleted after its
// block is durably in the store, so a crash between the two steps
// leaves duplicate data (deduped at read time), never a hole.
//
// The pass pages through the table sealPage cells at a time, so it
// holds one page of the hot tier in memory, not all of it.
func (t *TSD) sealRows(ctx context.Context, bs *BlockStore, beforeBase int64) (int, error) {
	sealed := 0
	var start []byte
	for limit := sealPage; ; {
		cells, err := t.client.ScanContext(ctx, start, []byte{metaPrefix}, limit, hbase.RowFilter{})
		if err != nil {
			return sealed, err
		}
		if len(cells) < limit { // the last page
			n, err := t.sealCells(ctx, bs, beforeBase, cells)
			return sealed + n, err
		}
		// The page may end inside its last row: seal the rows before
		// it and start the next page there. A row filling the whole
		// page doubles the page instead.
		last := len(cells) - 1
		for last > 0 && bytes.Equal(cells[last-1].Row, cells[last].Row) {
			last--
		}
		if last == 0 {
			limit *= 2
			continue
		}
		n, err := t.sealCells(ctx, bs, beforeBase, cells[:last])
		sealed += n
		if err != nil {
			return sealed, err
		}
		start = cells[last].Row
	}
}

// sealCells seals the whole rows in cells that are older than
// beforeBase, returning how many it sealed.
func (t *TSD) sealCells(ctx context.Context, bs *BlockStore, beforeBase int64, cells []hbase.Cell) (int, error) {
	sealed := 0
	err := eachRow(cells, func(rowCells []hbase.Cell) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		base, ok := t.codec.rowBase(rowCells[0].Row)
		if !ok || base >= beforeBase {
			return nil
		}
		hdr, ok, err := t.codec.decodeRow(rowCells[0].Row)
		if !ok || err != nil {
			return err
		}
		samples := make([]Sample, 0, len(rowCells))
		for _, c := range rowCells {
			if samples, err = appendSamples(samples, hdr.base, c, math.MinInt64, math.MaxInt64); err != nil {
				return err
			}
		}
		if len(samples) == 0 {
			return nil
		}
		if err := bs.Seal(hdr.metric, hdr.tags, samples); err != nil {
			return err
		}
		if err := t.client.DeleteContext(ctx, rowCells); err != nil {
			return err
		}
		t.RowsCompacted.Inc()
		sealed++
		return nil
	})
	return sealed, err
}

// eachRow calls fn with each run of consecutive cells sharing a row
// key, stopping at the first error. Scans return a row's cells
// together and in qualifier order.
func eachRow(cells []hbase.Cell, fn func(row []hbase.Cell) error) error {
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && bytes.Equal(cells[j].Row, cells[i].Row) {
			j++
		}
		if err := fn(cells[i:j:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// rowBase extracts the base time from a data row key.
func (c *Codec) rowBase(key []byte) (int64, bool) {
	if c.SaltBuckets > 0 {
		if len(key) < 1 {
			return 0, false
		}
		key = key[1:]
	}
	if len(key) < uidWidth+4 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint32(key[uidWidth : uidWidth+4])), true
}
