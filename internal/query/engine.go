package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/rpc"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// ErrNoBackends means the engine was built with no TSD addresses.
var ErrNoBackends = errors.New("query: no backends")

// ErrCircuitOpen means a shard could not be attempted at all because
// every backend's circuit breaker was open.
var ErrCircuitOpen = errors.New("query: all backend circuits open")

// degradedMarkerKey carries a *DegradedMarker through a request ctx.
type degradedMarkerKey struct{}

// DegradedMarker is an out-of-band flag the engine sets when it serves
// stale (past-watermark) data instead of failing. The gateway installs
// one per request with WithDegradedMarker and translates it into the
// X-Sentinel-Degraded header and the v1 DTO `degraded` field without
// the Querier interface having to change shape.
type DegradedMarker struct {
	v atomic.Bool
}

// Set marks the request degraded.
func (m *DegradedMarker) Set() { m.v.Store(true) }

// Degraded reports whether the request was marked.
func (m *DegradedMarker) Degraded() bool { return m.v.Load() }

// WithDegradedMarker returns a ctx carrying a fresh marker, and the
// marker itself for inspection after the request completes.
func WithDegradedMarker(ctx context.Context) (context.Context, *DegradedMarker) {
	m := &DegradedMarker{}
	return context.WithValue(ctx, degradedMarkerKey{}, m), m
}

// MarkDegraded flags the request's marker, when one is installed. It
// is exported so any Querier implementation (not just the engine) can
// signal a stale or partial answer to the gateway.
func MarkDegraded(ctx context.Context) {
	if m, ok := ctx.Value(degradedMarkerKey{}).(*DegradedMarker); ok {
		m.Set()
	}
}

// Config tunes an Engine.
type Config struct {
	// MaxEntries is the window-cache capacity in entries (default 512;
	// negative disables caching and singleflight).
	MaxEntries int
	// Timeout, when > 0, bounds each query when the caller's context
	// carries no deadline of its own.
	Timeout time.Duration
	// HedgeDelay, when > 0, hedges straggler shards: a duplicate
	// sub-query is issued to the next TSD once the primary has been
	// silent this long, and the first success wins. Requires at least
	// two backends.
	HedgeDelay time.Duration
	// Breakers, when set, adds per-TSD circuit breakers: shard
	// sub-queries skip backends whose circuit is open, and a shard
	// with no admissible backend fails fast with ErrCircuitOpen
	// instead of timing out against dead daemons.
	Breakers *resilience.Group
	// ServeStale, when true, answers from the window cache even past
	// its watermark when a fresh fetch fails — stale-but-marked
	// availability during storage outages. Degraded responses are
	// flagged on the request's DegradedMarker and counted in
	// DegradedServes; they are never re-cached as fresh.
	ServeStale bool
}

func (c Config) withDefaults() Config {
	if c.MaxEntries == 0 {
		c.MaxEntries = 512
	}
	return c
}

// Engine is the scatter-gather query tier: it fans each query's time
// range out across the TSD daemons over the RPC fabric, merges the
// sorted shard results, bounds them with LTTB and serves repeats from
// the watermark-invalidated window cache. Safe for concurrent use.
type Engine struct {
	net   *rpc.Network
	addrs []string
	marks *tsdb.Watermarks
	cfg   Config

	// mu guards the cache, the singleflight table and the key scratch.
	// It is held only for in-memory bookkeeping, never across a fetch.
	mu     sync.Mutex
	cache  *lru
	flight map[string]*flight
	key    keyScratch

	// Queries counts calls; CacheHits/CacheMisses the cache outcome;
	// Collapsed queries that waited on another's in-flight fetch.
	Queries     telemetry.Counter
	CacheHits   telemetry.Counter
	CacheMisses telemetry.Counter
	Collapsed   telemetry.Counter
	// SubQueries counts shard RPCs issued; Failovers shard retries on
	// another TSD.
	SubQueries telemetry.Counter
	Failovers  telemetry.Counter
	// Hedged counts duplicate straggler sub-queries issued; HedgeWins
	// those answered by the hedge before the primary.
	Hedged    telemetry.Counter
	HedgeWins telemetry.Counter
	// DegradedServes counts queries answered from stale cache under
	// ServeStale while the fresh path was failing.
	DegradedServes telemetry.Counter
}

// New builds an engine over the fabric-registered TSD addresses. marks
// may be nil (caching then only invalidates by eviction).
func New(net *rpc.Network, addrs []string, marks *tsdb.Watermarks, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		net:    net,
		addrs:  append([]string(nil), addrs...),
		marks:  marks,
		cfg:    cfg,
		flight: make(map[string]*flight),
	}
	if cfg.MaxEntries > 0 {
		e.cache = newLRU(cfg.MaxEntries)
	}
	return e
}

// NewFromDeployment builds an engine spanning every TSD of d, wired to
// its network and write watermarks.
func NewFromDeployment(d *tsdb.Deployment, cfg Config) *Engine {
	return New(d.Cluster.Network(), d.Addrs(), d.Watermarks(), cfg)
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// QueryContext serves q: from cache when fresh, otherwise by
// scatter-gathering the TSD tier (collapsing concurrent identical
// fetches). Returned series are shared — treat them as read-only.
func (e *Engine) QueryContext(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
	e.Queries.Inc()
	if len(e.addrs) == 0 {
		return nil, ErrNoBackends
	}
	if q.End < q.Start {
		return nil, nil
	}
	if e.cfg.Timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.Timeout)
			defer cancel()
		}
	}
	if e.cache == nil {
		return e.fetch(ctx, q)
	}

	ver := e.marks.Version(q.Metric)
	e.mu.Lock()
	key := e.key.key(&q)
	if ent, ok := e.cache.get(key); ok && ent.version == ver {
		e.CacheHits.Inc()
		series := ent.series
		e.mu.Unlock()
		return series, nil
	}
	e.CacheMisses.Inc()
	skey := string(key)
	if fl, ok := e.flight[skey]; ok {
		e.Collapsed.Inc()
		e.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err != nil {
				return nil, fl.err
			}
			if fl.degraded {
				e.DegradedServes.Inc()
				MarkDegraded(ctx)
			}
			return fl.series, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	e.flight[skey] = fl
	e.mu.Unlock()

	series, err := e.fetch(ctx, q)
	degraded := false
	if err != nil && e.cfg.ServeStale && !errors.Is(err, tsdb.ErrNoSuchMetric) {
		// The fresh path is down (open circuits, dead shards). A stale
		// window — whatever version — beats an error page; serve it
		// marked so the caller can tell.
		e.mu.Lock()
		if ent, ok := e.cache.get([]byte(skey)); ok {
			series, err, degraded = ent.series, nil, true
		}
		e.mu.Unlock()
		if degraded {
			e.DegradedServes.Inc()
			MarkDegraded(ctx)
		}
	}
	fl.series, fl.err, fl.degraded = series, err, degraded
	e.mu.Lock()
	delete(e.flight, skey)
	if err == nil && !degraded {
		// ver was read before the fetch: a write racing the scan makes
		// the entry conservatively stale rather than wrongly fresh.
		e.cache.add(&entry{key: skey, series: series, version: ver})
	}
	e.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, err
	}
	return series, nil
}

// fetch scatter-gathers [from, to]: the window is sharded across the
// TSD daemons, sub-queries are issued as pipelined futures, failures
// fail over to the remaining daemons, and shard results merge into
// ID-sorted series. A per-query MaxPoints bounds each merged series
// via LTTB — a rendering bound; counting queries leave it 0.
func (e *Engine) fetch(ctx context.Context, q tsdb.Query) ([]tsdb.Series, error) {
	shards := shardWindow(q.Start, q.End, len(e.addrs), q.DownsampleSeconds)
	futs := make([]*rpc.Future, len(shards))
	brs := make([]*resilience.Breaker, len(shards))
	for i, sh := range shards {
		addr, br := e.pickAddr(i)
		if addr == "" {
			// Every circuit open: fail the shard fast; failover below
			// re-probes in case a breaker admits by then.
			continue
		}
		sub := q
		sub.Start, sub.End = sh[0], sh[1]
		e.SubQueries.Inc()
		futs[i] = e.net.Go(ctx, addr, "query", &tsdb.QueryRequest{Query: sub})
		brs[i] = br
	}
	grouped := make(map[string]*tsdb.Series)
	order := make([]string, 0, 8)
	missing := 0
	for i := range shards {
		var res any
		err := error(ErrCircuitOpen)
		if futs[i] != nil {
			res, err = e.await(ctx, futs[i], brs[i], q, shards[i], i)
		}
		if err != nil && !errors.Is(err, tsdb.ErrNoSuchMetric) {
			// Every TSD shares the deployment's UID table, so an
			// unknown metric is unknown everywhere — failing over on it
			// would burn one RPC per shard on the routine "metric not
			// yet written" path and misreport Failovers.
			res, err = e.failover(ctx, q, shards[i], i, err)
		}
		if err != nil {
			if errors.Is(err, tsdb.ErrNoSuchMetric) {
				missing++
				continue
			}
			// Failing the query abandons the shards not yet awaited;
			// their futures were already issued with probe slots
			// reserved, which must be released or their breakers wedge
			// half-open forever.
			for j := i + 1; j < len(shards); j++ {
				if futs[j] != nil {
					e.recordWhenDone(futs[j], brs[j])
				}
			}
			return nil, fmt.Errorf("query: shard [%d,%d]: %w", shards[i][0], shards[i][1], err)
		}
		for _, ser := range res.(*tsdb.QueryResponse).Series {
			id := ser.ID()
			got, ok := grouped[id]
			if !ok {
				s := ser
				grouped[id] = &s
				order = append(order, id)
				continue
			}
			// Shards are processed in ascending time order, so a plain
			// append keeps samples sorted.
			got.Samples = append(got.Samples, ser.Samples...)
		}
	}
	if missing == len(shards) {
		return nil, fmt.Errorf("%w: %s", tsdb.ErrNoSuchMetric, q.Metric)
	}
	sort.Strings(order)
	out := make([]tsdb.Series, 0, len(order))
	for _, id := range order {
		ser := grouped[id]
		if q.MaxPoints > 0 {
			ser.Samples = LTTB(ser.Samples, q.MaxPoints)
		}
		out = append(out, *ser)
	}
	return out, nil
}

// pickAddr returns the first breaker-admitted backend at or after
// rotation slot i, with its breaker (nil when breakers are off). The
// empty address means every circuit is open right now. An admitted
// half-open breaker has a probe slot reserved; the caller must report
// the call's outcome through record.
func (e *Engine) pickAddr(i int) (string, *resilience.Breaker) {
	n := len(e.addrs)
	if e.cfg.Breakers == nil {
		return e.addrs[i%n], nil
	}
	for k := 0; k < n; k++ {
		addr := e.addrs[(i+k)%n]
		if br := e.cfg.Breakers.For(addr); br.Allow() {
			return addr, br
		}
	}
	return "", nil
}

// recordWhenDone reports an abandoned in-flight future's eventual
// outcome to its breaker off the caller's goroutine, so half-open probe
// slots reserved at pickAddr are never leaked.
func (e *Engine) recordWhenDone(fut *rpc.Future, br *resilience.Breaker) {
	if br == nil {
		return
	}
	go func() {
		_, err := fut.Result()
		e.record(br, err)
	}()
}

// record reports a sub-query outcome to its breaker. ErrNoSuchMetric is
// a healthy backend answering "nothing written yet", not a failure;
// everything else — including abandoning a half-open probe at the
// caller's deadline — counts against the circuit so probe slots are
// always released.
func (e *Engine) record(br *resilience.Breaker, err error) {
	if br == nil {
		return
	}
	if err == nil || errors.Is(err, tsdb.ErrNoSuchMetric) {
		br.Success()
		return
	}
	br.Failure()
}

// await waits on a shard's primary future, hedging a duplicate
// sub-query to the next backend when the primary stays silent past
// HedgeDelay. First success wins; both outcomes feed the breakers.
func (e *Engine) await(ctx context.Context, fut *rpc.Future, br *resilience.Breaker, q tsdb.Query, sh [2]int64, i int) (any, error) {
	if e.cfg.HedgeDelay <= 0 || len(e.addrs) < 2 {
		res, err := fut.Wait(ctx)
		e.record(br, err)
		return res, err
	}
	t := time.NewTimer(e.cfg.HedgeDelay)
	defer t.Stop()
	select {
	case <-fut.Done():
		res, err := fut.Result()
		e.record(br, err)
		return res, err
	case <-ctx.Done():
		e.record(br, ctx.Err())
		return nil, ctx.Err()
	case <-t.C:
	}
	haddr, hbr := e.pickAddr(i + 1)
	if haddr == "" {
		// Nowhere to hedge to; keep waiting on the straggler.
		res, err := fut.Wait(ctx)
		e.record(br, err)
		return res, err
	}
	sub := q
	sub.Start, sub.End = sh[0], sh[1]
	e.Hedged.Inc()
	e.SubQueries.Inc()
	hfut := e.net.Go(ctx, haddr, "query", &tsdb.QueryRequest{Query: sub})
	var lastErr error
	pd, hd := fut.Done(), hfut.Done()
	for pd != nil || hd != nil {
		select {
		case <-pd:
			res, err := fut.Result()
			e.record(br, err)
			if err == nil {
				if hd != nil {
					e.recordWhenDone(hfut, hbr)
				}
				return res, nil
			}
			lastErr = err
			pd = nil
		case <-hd:
			res, err := hfut.Result()
			e.record(hbr, err)
			if err == nil {
				e.HedgeWins.Inc()
				if pd != nil {
					e.recordWhenDone(fut, br)
				}
				return res, nil
			}
			lastErr = err
			hd = nil
		case <-ctx.Done():
			if pd != nil {
				e.record(br, ctx.Err())
			}
			if hd != nil {
				e.record(hbr, ctx.Err())
			}
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// failover retries one shard on every other TSD in turn, skipping open
// circuits. It returns the last error when all of them reject the
// shard.
func (e *Engine) failover(ctx context.Context, q tsdb.Query, sh [2]int64, i int, err error) (any, error) {
	sub := q
	sub.Start, sub.End = sh[0], sh[1]
	for off := 1; off < len(e.addrs); off++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		addr := e.addrs[(i+off)%len(e.addrs)]
		var br *resilience.Breaker
		if e.cfg.Breakers != nil {
			br = e.cfg.Breakers.For(addr)
			if !br.Allow() {
				continue
			}
		}
		e.Failovers.Inc()
		e.SubQueries.Inc()
		var res any
		res, err = e.net.Call(ctx, addr, "query", &tsdb.QueryRequest{Query: sub})
		e.record(br, err)
		if err == nil || errors.Is(err, tsdb.ErrNoSuchMetric) {
			return res, err
		}
	}
	return nil, err
}

// shardWindow splits the inclusive window [from, to] into at most n
// contiguous disjoint sub-windows. Boundaries are aligned to the
// downsample width so no aggregation bucket spans two shards (which
// would yield two partial aggregates for one bucket after the merge).
func shardWindow(from, to int64, n int, width int64) [][2]int64 {
	if to < from {
		return nil
	}
	if n < 1 {
		n = 1
	}
	total := to - from + 1
	if int64(n) > total {
		n = int(total)
	}
	out := make([][2]int64, 0, n)
	lo := from
	for i := 1; i < n && lo <= to; i++ {
		hi := from + total*int64(i)/int64(n) - 1
		if width > 0 {
			hi = tsdb.BucketStart(hi+1, width) - 1
		}
		if hi < lo {
			continue // alignment swallowed this shard into the next
		}
		out = append(out, [2]int64{lo, hi})
		lo = hi + 1
	}
	if lo <= to {
		out = append(out, [2]int64{lo, to})
	}
	return out
}
