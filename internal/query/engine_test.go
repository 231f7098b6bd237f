package query

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/hbase"
	"repro/internal/rpc"
	"repro/internal/tsdb"
)

// newEnv boots a cluster with tsds TSD daemons and seeds units×sensors
// energy series over [0, steps).
func newEnv(t testing.TB, tsds, units, sensors int, steps int64) *tsdb.Deployment {
	t.Helper()
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, tsds, tsdb.TSDConfig{SaltBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		t.Fatal(err)
	}
	var pts []tsdb.Point
	for u := 0; u < units; u++ {
		for s := 0; s < sensors; s++ {
			for ts := int64(0); ts < steps; ts++ {
				pts = append(pts, tsdb.EnergyPoint(u, s, ts, float64(u*100+s)+float64(ts%13)))
			}
		}
	}
	if err := d.TSDs()[0].Put(pts); err != nil {
		t.Fatal(err)
	}
	return d
}

func mustQuery(t *testing.T, e *Engine, q tsdb.Query) []tsdb.Series {
	t.Helper()
	series, err := e.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// groundTruth queries one TSD directly — the pre-scatter-gather path.
func groundTruth(t *testing.T, d *tsdb.Deployment, q tsdb.Query) []tsdb.Series {
	t.Helper()
	series, err := d.TSDs()[0].Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func TestScatterGatherMatchesSingleTSD(t *testing.T) {
	d := newEnv(t, 3, 2, 3, 120)
	e := NewFromDeployment(d, Config{MaxEntries: -1})
	for _, q := range []tsdb.Query{
		{Metric: tsdb.MetricEnergy, Start: 0, End: 119},
		{Metric: tsdb.MetricEnergy, Tags: map[string]string{"unit": "1"}, Start: 10, End: 97},
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 2), Start: 0, End: 119},
		// Downsample width that doesn't divide the shard boundaries:
		// alignment must keep every bucket whole.
		{Metric: tsdb.MetricEnergy, Start: 0, End: 119, DownsampleSeconds: 7},
		{Metric: tsdb.MetricEnergy, Start: 3, End: 113, DownsampleSeconds: 13, Aggregate: tsdb.AggMax},
	} {
		got := mustQuery(t, e, q)
		want := groundTruth(t, d, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v:\ngot  %v\nwant %v", q, got, want)
		}
	}
	if e.SubQueries.Value() == 0 {
		t.Fatal("no sub-queries issued — scatter-gather not exercised")
	}
}

func TestUnknownMetricSurfacesErrNoSuchMetric(t *testing.T) {
	d := newEnv(t, 2, 1, 1, 10)
	e := NewFromDeployment(d, Config{})
	_, err := e.QueryContext(context.Background(), tsdb.Query{Metric: "nope", Start: 0, End: 9})
	if !errors.Is(err, tsdb.ErrNoSuchMetric) {
		t.Fatalf("err = %v, want ErrNoSuchMetric", err)
	}
	// The metric is unknown tier-wide (shared UID table): no shard may
	// burn a failover RPC on it.
	if e.Failovers.Value() != 0 {
		t.Fatalf("failovers = %d on an unwritten metric, want 0", e.Failovers.Value())
	}
}

// failingHandler rejects every query.
func failingHandler(context.Context, string, any) (any, error) {
	return nil, errors.New("injected backend failure")
}

func TestScatterGatherFailsOverDeadTSD(t *testing.T) {
	d := newEnv(t, 2, 2, 2, 100)
	net := d.Cluster.Network()
	if _, err := net.Register("tsd/dead", failingHandler, rpc.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	addrs := append(d.Addrs(), "tsd/dead")
	e := New(net, addrs, d.Watermarks(), Config{MaxEntries: -1})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 99}
	got := mustQuery(t, e, q)
	if want := groundTruth(t, d, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("failover result diverged:\ngot  %v\nwant %v", got, want)
	}
	if e.Failovers.Value() == 0 {
		t.Fatal("dead TSD never triggered a failover")
	}
}

func TestPartialFailurePolicy(t *testing.T) {
	d := newEnv(t, 1, 1, 2, 100)
	net := d.Cluster.Network()
	// Two flaky daemons that reject any shard touching t >= 50: the
	// late shards have nowhere to fail over to.
	tsd0 := d.TSDs()[0]
	flaky := func(ctx context.Context, method string, payload any) (any, error) {
		q := payload.(*tsdb.QueryRequest).Query
		if q.End >= 50 {
			return nil, errors.New("late half down")
		}
		series, err := tsd0.QueryContext(ctx, q)
		if err != nil {
			return nil, err
		}
		return &tsdb.QueryResponse{Series: series}, nil
	}
	for _, addr := range []string{"tsd/flaky-1", "tsd/flaky-2"} {
		if _, err := net.Register(addr, flaky, rpc.ServerConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	addrs := []string{"tsd/flaky-1", "tsd/flaky-2"}
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 0), Start: 0, End: 99}

	e := New(net, addrs, d.Watermarks(), Config{MaxEntries: -1})
	if _, err := e.QueryContext(context.Background(), q); err == nil {
		t.Fatal("a shard that fails on every TSD must fail the query, not leave a hole")
	}
}

func TestCacheHitMissAndWatermarkInvalidation(t *testing.T) {
	d := newEnv(t, 2, 1, 2, 60)
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 1), Start: 0, End: 59}

	first := mustQuery(t, e, q)
	scans := d.QueriesServed()
	second := mustQuery(t, e, q)
	if d.QueriesServed() != scans {
		t.Fatalf("repeat query hit storage: %d → %d scans", scans, d.QueriesServed())
	}
	if e.CacheHits.Value() != 1 || e.CacheMisses.Value() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", e.CacheHits.Value(), e.CacheMisses.Value())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached result diverged from the original")
	}

	// A write to the metric moves the watermark: the next query must
	// re-scan and observe the new sample.
	if err := d.TSDs()[1].Put([]tsdb.Point{tsdb.EnergyPoint(0, 1, 55, 999)}); err != nil {
		t.Fatal(err)
	}
	third := mustQuery(t, e, q)
	if d.QueriesServed() == scans {
		t.Fatal("stale entry served after a write")
	}
	found := false
	for _, s := range third[0].Samples {
		if s.Timestamp == 55 && s.Value == 999 {
			found = true
		}
	}
	if !found {
		t.Fatal("post-invalidation result misses the new sample")
	}

	// A write to a different metric must not invalidate this one.
	scans = d.QueriesServed()
	if err := d.TSDs()[0].Put([]tsdb.Point{{Metric: tsdb.MetricAnomaly, Tags: tsdb.EnergyTags(0, 1), Timestamp: 10, Value: 3}}); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, e, q)
	if d.QueriesServed() != scans {
		t.Fatal("unrelated metric write invalidated the energy window")
	}
}

func TestCacheEviction(t *testing.T) {
	d := newEnv(t, 1, 1, 1, 90)
	e := NewFromDeployment(d, Config{MaxEntries: 2})
	windows := [][2]int64{{0, 9}, {10, 19}, {20, 29}}
	for _, w := range windows {
		mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: w[0], End: w[1]})
	}
	// The first window was evicted by the third: re-querying it must
	// miss; the still-resident third must hit.
	mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 9})
	if e.CacheMisses.Value() != 4 {
		t.Fatalf("misses = %d, want 4 (evicted window re-fetched)", e.CacheMisses.Value())
	}
	mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: 20, End: 29})
	if e.CacheHits.Value() != 1 {
		t.Fatalf("hits = %d, want 1", e.CacheHits.Value())
	}
}

func TestSingleflightCollapsesConcurrentIdenticalQueries(t *testing.T) {
	d := newEnv(t, 1, 1, 1, 30)
	net := d.Cluster.Network()
	tsd0 := d.TSDs()[0]
	gate := make(chan struct{})
	gated := func(ctx context.Context, method string, payload any) (any, error) {
		<-gate
		series, err := tsd0.QueryContext(ctx, payload.(*tsdb.QueryRequest).Query)
		if err != nil {
			return nil, err
		}
		return &tsdb.QueryResponse{Series: series}, nil
	}
	if _, err := net.Register("tsd/gated", gated, rpc.ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	e := New(net, []string{"tsd/gated"}, d.Watermarks(), Config{MaxEntries: 16})

	const callers = 8
	var wg sync.WaitGroup
	results := make([][]tsdb.Series, callers)
	errs := make([]error, callers)
	q := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 29}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.QueryContext(context.Background(), q)
		}(i)
	}
	// Wait until every caller either leads the fetch or waits on it,
	// then release the storage tier.
	deadline := time.Now().Add(5 * time.Second)
	for e.Collapsed.Value() != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("collapsed = %d, want %d", e.Collapsed.Value(), callers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d diverged", i)
		}
	}
	if got := e.SubQueries.Value(); got != 1 {
		t.Fatalf("sub-queries = %d, want 1 (one collapsed fetch)", got)
	}
}

func TestShardWindowCoversDisjointAligned(t *testing.T) {
	cases := []struct {
		from, to int64
		n        int
		width    int64
	}{
		{0, 99, 4, 0}, {0, 99, 4, 7}, {-35, 12, 3, 10}, {5, 5, 4, 0},
		{0, 2, 8, 0}, {0, 999, 5, 13}, {-100, -1, 3, 7},
	}
	for _, c := range cases {
		shards := shardWindow(c.from, c.to, c.n, c.width)
		lo := c.from
		for i, sh := range shards {
			if sh[0] != lo {
				t.Fatalf("%+v: shard %d starts at %d, want %d", c, i, sh[0], lo)
			}
			if sh[1] < sh[0] {
				t.Fatalf("%+v: shard %d inverted", c, i)
			}
			lo = sh[1] + 1
		}
		if lo != c.to+1 {
			t.Fatalf("%+v: shards end at %d, want %d", c, lo-1, c.to)
		}
		if len(shards) > c.n {
			t.Fatalf("%+v: %d shards > n=%d", c, len(shards), c.n)
		}
	}
}

func TestShardBoundaryAlignment(t *testing.T) {
	for _, c := range []struct {
		from, to int64
		n        int
		width    int64
	}{{0, 99, 4, 7}, {-35, 64, 3, 10}, {3, 113, 5, 13}} {
		for i, sh := range shardWindow(c.from, c.to, c.n, c.width) {
			if i == 0 {
				continue
			}
			if sh[0] != tsdb.BucketStart(sh[0], c.width) {
				t.Fatalf("%+v: shard %d starts mid-bucket at %d", c, i, sh[0])
			}
		}
	}
}

func TestEngineNoBackends(t *testing.T) {
	e := New(rpc.NewNetwork(0, nil), nil, nil, Config{})
	if _, err := e.QueryContext(context.Background(), tsdb.Query{Metric: "m", End: 1}); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v, want ErrNoBackends", err)
	}
}

func TestEngineInvertedWindowIsEmpty(t *testing.T) {
	d := newEnv(t, 1, 1, 1, 10)
	e := NewFromDeployment(d, Config{})
	series, err := e.QueryContext(context.Background(), tsdb.Query{Metric: tsdb.MetricEnergy, Start: 9, End: 2})
	if err != nil || len(series) != 0 {
		t.Fatalf("inverted window = %v, %v — want empty, nil", series, err)
	}
}

func TestMaxPointsBoundsEverySeries(t *testing.T) {
	d := newEnv(t, 2, 1, 3, 500)
	e := NewFromDeployment(d, Config{MaxEntries: 16})
	bounded := tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 499, MaxPoints: 40}
	series := mustQuery(t, e, bounded)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, ser := range series {
		if len(ser.Samples) > 40 {
			t.Fatalf("series %s has %d samples > maxpoints", ser.ID(), len(ser.Samples))
		}
		if ser.Samples[0].Timestamp != 0 || ser.Samples[len(ser.Samples)-1].Timestamp != 499 {
			t.Fatalf("series %s lost its endpoints", ser.ID())
		}
	}
	// And the cached copy is the bounded one.
	again := mustQuery(t, e, bounded)
	if e.CacheHits.Value() != 1 || len(again[0].Samples) > 40 {
		t.Fatal("bounded result not served from cache")
	}
	// MaxPoints is part of the cache identity: an exact (counting)
	// query for the same window must not be served the bounded entry.
	exact := mustQuery(t, e, tsdb.Query{Metric: tsdb.MetricEnergy, Start: 0, End: 499})
	for _, ser := range exact {
		if len(ser.Samples) != 500 {
			t.Fatalf("exact query got %d samples — bounded entry leaked across keys", len(ser.Samples))
		}
	}
}

func TestScatterGatherOverSealedBlocks(t *testing.T) {
	// Seal two of three hours into the compressed tier, then check the
	// scatter-gather engine (shard alignment, caching, failover paths)
	// is oblivious: answers match a direct single-TSD query, wide
	// windows come from rollups, and retention drops invalidate the
	// window cache through the watermark.
	const hour = 3600
	d := newEnv(t, 3, 2, 2, 3*hour)
	bs := d.AttachBlockStore(tsdb.BlockStoreConfig{})
	if _, err := d.TSDs()[0].CompactRows(2 * hour); err != nil {
		t.Fatal(err)
	}
	e := NewFromDeployment(d, Config{MaxEntries: 64})
	for _, q := range []tsdb.Query{
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 1), Start: 0, End: 3*hour - 1},
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 1), Start: hour - 50, End: hour + 50},
		// Rollup-eligible width spanning sealed and hot hours.
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 0), Start: 0, End: 3*hour - 1,
			DownsampleSeconds: 600, Aggregate: tsdb.AggAvg},
		// Raw-decode width (not rollup eligible).
		{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(0, 0), Start: 100, End: hour + 100,
			DownsampleSeconds: 7, Aggregate: tsdb.AggMax},
	} {
		got := mustQuery(t, e, q)
		want := groundTruth(t, d, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sealed query %+v:\ngot  %v\nwant %v", q, got, want)
		}
	}

	// The wide downsampled window is rollup-served on the sealed side.
	scans := bs.BlockScans.Value()
	wide := tsdb.Query{Metric: tsdb.MetricEnergy, Tags: tsdb.EnergyTags(1, 1),
		Start: 0, End: 3*hour - 1, DownsampleSeconds: 3600, Aggregate: tsdb.AggCount}
	first := mustQuery(t, e, wide)
	if bs.BlockScans.Value() != scans {
		t.Fatal("wide engine query decompressed sealed blocks")
	}
	if len(first) != 1 || len(first[0].Samples) != 3 || first[0].Samples[0].Value != 3600 {
		t.Fatalf("wide counts = %+v", first)
	}

	// Retention drops hour 0 (raw and rollups) and bumps the watermark;
	// the previously cached window must re-resolve, not serve stale.
	// (The store was attached after the seed ingest, so its frontier
	// only reaches the sealed end; a live put advances it to "now".)
	if err := d.TSDs()[0].Put([]tsdb.Point{tsdb.EnergyPoint(1, 1, 3*hour-1, 1)}); err != nil {
		t.Fatal(err)
	}
	bs.EnforceRetention(tsdb.RetentionPolicy{RawTTL: hour, RollupTTL: hour}, nil)
	second := mustQuery(t, e, wide)
	if len(second) != 1 || len(second[0].Samples) != 2 {
		t.Fatalf("after retention drop: %+v (stale cache?)", second)
	}
}
