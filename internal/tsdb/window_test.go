package tsdb

import (
	"math/rand"
	"testing"

	"repro/internal/hbase"
)

// TestRecompactKeepsEarlierSamples: a row that already holds a wide
// cell and then takes new narrow cells must keep the wide cell's
// samples when it is compacted again, with a narrow cell winning an
// offset both hold.
func TestRecompactKeepsEarlierSamples(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 2, CompactionEnabled: true})
	tsd := d.TSDs()[0]
	put := func(from, to int64, value func(int64) float64) {
		t.Helper()
		var pts []Point
		for ts := from; ts <= to; ts++ {
			pts = append(pts, EnergyPoint(1, 1, ts, value(ts)))
		}
		if err := tsd.Put(pts); err != nil {
			t.Fatal(err)
		}
		if n, err := tsd.CompactRows(rowBaseSeconds); err != nil || n != 1 {
			t.Fatalf("compacted %d rows, %v; want 1", n, err)
		}
	}
	same := func(ts int64) float64 { return float64(ts) }
	put(0, 9, same)
	put(10, 19, same)
	put(5, 6, func(ts int64) float64 { return -float64(ts) }) // overwrites

	series, err := tsd.Query(Query{Metric: MetricEnergy, Tags: EnergyTags(1, 1), Start: 0, End: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || len(series[0].Samples) != 20 {
		t.Fatalf("got %+v, want one series of 20 samples", series)
	}
	for i, s := range series[0].Samples {
		want := float64(i)
		if i == 5 || i == 6 {
			want = -want
		}
		if s.Timestamp != int64(i) || s.Value != want {
			t.Fatalf("sample %d = %+v, want {%d %v}", i, s, i, want)
		}
	}
}

// windowCase is one query of the window equivalence test.
type windowCase struct {
	start, end int64
	tags       map[string]string
	ds         int64
	agg        AggFunc
}

// postFiltered answers q the way a TSD without the region-side window
// would: the same query over every stored hour, its samples kept to
// [q.Start, q.End] afterwards, then downsampled. A query the sealed
// tier answers from rollups is instead widened by two whole hours on
// each side — its edges stay on the downsample grid, so the buckets
// inside the window are computed exactly as before — and its buckets
// are kept to the window.
func postFiltered(t *testing.T, tsd *TSD, q Query) []Series {
	t.Helper()
	wide := q
	if rollupWidthFor(q) > 0 && tsd.blocks.Load() != nil {
		if q.Start%q.DownsampleSeconds != 0 || (q.End+1)%q.DownsampleSeconds != 0 {
			t.Fatalf("rollup query %+v is not on its downsample grid", q)
		}
		wide.Start, wide.End = q.Start-2*rowBaseSeconds, q.End+2*rowBaseSeconds
	} else {
		wide.Start, wide.End, wide.DownsampleSeconds = -1<<40, 1<<31, 0
	}
	all, err := tsd.Query(wide)
	if err != nil {
		t.Fatal(err)
	}
	var out []Series
	for _, ser := range all {
		var kept []Sample
		for _, s := range ser.Samples {
			if s.Timestamp >= q.Start && s.Timestamp <= q.End {
				kept = append(kept, s)
			}
		}
		if wide.DownsampleSeconds == 0 && q.DownsampleSeconds > 0 {
			kept = downsample(kept, q.DownsampleSeconds, q.Aggregate)
		}
		if len(kept) > 0 {
			ser.Samples = kept
			out = append(out, ser)
		}
	}
	return out
}

// checkWindows runs every case against the TSD and its post-filtered
// answer, and fails unless they agree sample for sample.
func checkWindows(t *testing.T, tsd *TSD, cases []windowCase) {
	t.Helper()
	for _, c := range cases {
		q := Query{Metric: MetricEnergy, Tags: c.tags, Start: c.start, End: c.end,
			DownsampleSeconds: c.ds, Aggregate: c.agg}
		got, err := tsd.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSeries(got, postFiltered(t, tsd, q)); err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
	}
}

// windowCases lists fixed windows — inside a row, across hour
// boundaries, opening before 0 — and random ones over hours, raw and
// downsampled, for every series and for one unit's.
func windowCases(rng *rand.Rand, hours int64) []windowCase {
	span := hours * rowBaseSeconds
	var cases []windowCase
	for _, w := range [][2]int64{
		{100, 159}, {0, 59}, {3540, 3599}, {3570, 3629}, {3600, 3600},
		{rowBaseSeconds - 1, 2*rowBaseSeconds + 5}, {-500, 30}, {-1 << 40, 100},
		{-7200, -1}, {0, span}, {span - 60, span + 600},
	} {
		cases = append(cases, windowCase{start: w[0], end: w[1]})
	}
	for i := 0; i < 40; i++ {
		start := rng.Int63n(span+1200) - 600
		c := windowCase{start: start, end: start + rng.Int63n(2*rowBaseSeconds)}
		if rng.Intn(3) == 0 {
			c.tags = EnergyTags(1, 0)
		}
		if rng.Intn(3) == 0 {
			c.ds, c.agg = []int64{7, 60, 600}[rng.Intn(3)], AggFunc(rng.Intn(int(AggCount)+1))
		}
		cases = append(cases, c)
	}
	return cases
}

// TestWindowedQueryMatchesPostFilter: with the query's time window
// pushed into the regions, every query returns exactly what it returns
// when the regions ship whole rows and the samples are filtered to the
// window afterwards. The hot tier holds row-compacted wide cells next
// to narrow cells written later (some at the same offsets), per-cell
// tombstones, a row deleted whole (a row marker) and written again,
// and rows spread over many store files; the sealed tier holds sealed
// hours, late writes into them and hot hours after them.
func TestWindowedQueryMatchesPostFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const hours = 3
	put := func(tsd *TSD, from, to, step int64, value func(u int, ts int64) float64) {
		t.Helper()
		var pts []Point
		for ts := from; ts < to; ts += step {
			for u := 0; u < 3; u++ {
				pts = append(pts, EnergyPoint(u, 0, ts, value(u, ts)))
			}
		}
		if err := tsd.Put(pts); err != nil {
			t.Fatal(err)
		}
	}
	first := func(u int, ts int64) float64 { return float64(ts) + float64(u)/4 }
	later := func(u int, ts int64) float64 { return -float64(ts) - float64(u)/4 }

	t.Run("hot", func(t *testing.T) {
		// A small flush threshold spreads each row over store files.
		cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2, FlushThresholdBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Stop)
		d, err := NewDeployment(cluster, 1, TSDConfig{SaltBuckets: 2, CompactionEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable(); err != nil {
			t.Fatal(err)
		}
		tsd := d.TSDs()[0]
		put(tsd, 0, hours*rowBaseSeconds, 7, first)
		if n, err := tsd.CompactRows(rowBaseSeconds); err != nil || n != 3 {
			t.Fatalf("compacted %d rows, %v; want 3", n, err)
		}
		put(tsd, 3, rowBaseSeconds, 14, later) // narrow cells beside the wide ones, some on their offsets
		put(tsd, 0, rowBaseSeconds, 21, later)
		// Per-cell tombstones in hour 1.
		var dels []hbase.Cell
		for ts := int64(rowBaseSeconds); ts < 2*rowBaseSeconds; ts += 35 {
			p := EnergyPoint(1, 0, ts, 0)
			c, err := tsd.codec.Encode(&p)
			if err != nil {
				t.Fatal(err)
			}
			dels = append(dels, c)
		}
		if err := tsd.client.Delete(dels); err != nil {
			t.Fatal(err)
		}
		// Delete unit 2's hour-2 row whole (a row marker), then write
		// part of it again.
		p := EnergyPoint(2, 0, 2*rowBaseSeconds, 0)
		c, err := tsd.codec.Encode(&p)
		if err != nil {
			t.Fatal(err)
		}
		row, err := tsd.client.Scan(c.Row, append(c.Row, 0), 0)
		if err != nil || len(row) == 0 {
			t.Fatalf("row scan = %d cells, %v", len(row), err)
		}
		if err := tsd.client.Delete(row); err != nil {
			t.Fatal(err)
		}
		var pts []Point
		for ts := int64(2*rowBaseSeconds + 50); ts < 3*rowBaseSeconds; ts += 100 {
			pts = append(pts, EnergyPoint(2, 0, ts, later(2, ts)))
		}
		if err := tsd.Put(pts); err != nil {
			t.Fatal(err)
		}
		checkWindows(t, tsd, windowCases(rng, hours))
	})

	t.Run("sealed", func(t *testing.T) {
		d, bs := sealedDeployment(t, BlockStoreConfig{})
		tsd := d.TSDs()[0]
		put(tsd, 0, (hours+1)*rowBaseSeconds, 5, first)
		if n, err := tsd.CompactRows(2 * rowBaseSeconds); err != nil || n != 6 {
			t.Fatalf("sealed %d rows, %v; want 6", n, err)
		}
		put(tsd, rowBaseSeconds+2, 2*rowBaseSeconds, 50, later) // late writes into a sealed hour
		put(tsd, rowBaseSeconds, 2*rowBaseSeconds, 100, later)
		cases := windowCases(rng, hours+1)
		for _, w := range [][2]int64{{0, 2*rowBaseSeconds - 1}, {rowBaseSeconds, 3*rowBaseSeconds - 1}, {600, 4199}} {
			for _, agg := range []AggFunc{AggAvg, AggMax} {
				cases = append(cases, windowCase{start: w[0], end: w[1], ds: 600, agg: agg})
			}
		}
		before := bs.RollupServes.Value()
		checkWindows(t, tsd, cases)
		if bs.RollupServes.Value() == before {
			t.Fatal("no case was answered from rollups")
		}
	})
}
