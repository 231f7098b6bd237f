package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/sentinel"
)

// counters is a snapshot of the program's exported counters and of
// the Go runtime's, taken at a phase boundary.
type counters struct {
	published, polled              int64
	delivered, writerParks         int64
	proxyRetries                   int64
	rpcCalls, overflows            int64
	pointsWritten, samplesReturned int64
	cells, scans, flushes          int64
	queries, hits, subQueries      int64
	batches, evaluated, flags      int64
	detErrors, detParks            int64
	tailEvents, tailDropped        int64
	gcCPU, totalCPU                float64
	allocs                         uint64
	sched                          *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

func snapshot(d *deployment) counters {
	sys := d.sys
	c := counters{
		published:     sys.Bus.Published.Value(),
		polled:        sys.Bus.Polled.Value(),
		delivered:     sys.Writers.Delivered.Value(),
		writerParks:   sys.Writers.Parks.Value(),
		proxyRetries:  sys.Proxy.Retries.Value(),
		rpcCalls:      sys.Cluster.Network().Calls.Value(),
		pointsWritten: sys.TSDB.PointsWritten(),
	}
	for _, t := range sys.TSDB.TSDs() {
		c.samplesReturned += t.SamplesReturned.Value()
	}
	for _, addr := range sys.TSDB.Addrs() {
		if s, ok := sys.Cluster.Network().Lookup(addr); ok {
			c.overflows += s.Overflows.Value()
		}
	}
	for _, rs := range sys.Cluster.RegionServers() {
		c.cells += rs.CellsWritten.Value()
		c.scans += rs.Scans.Value()
		c.flushes += rs.Flushes.Value()
		_, over := rs.RPCStats()
		c.overflows += over
	}
	if e := d.engine; e != nil {
		c.queries = e.Queries.Value()
		c.hits = e.CacheHits.Value()
		c.subQueries = e.SubQueries.Value()
	}
	if p := d.pool; p != nil {
		c.batches = p.Batches.Value()
		c.evaluated = p.SamplesEvaluated.Value()
		c.flags = p.AnomaliesWritten.Value()
		c.detErrors = p.Errors.Value()
		c.detParks = p.Parks.Value()
	}
	c.tailEvents = d.tail.Events.Value()
	c.tailDropped = d.tail.Dropped.Value()

	rs := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	c.gcCPU = rs[0].Value.Float64()
	c.totalCPU = rs[1].Value.Float64()
	c.allocs = rs[2].Value.Uint64()
	c.sched = rs[3].Value.Float64Histogram()
	return c
}

// schedP99 is the 99th percentile of the scheduling latencies observed
// between two snapshots, in ms (the upper bound of its bucket).
func schedP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, n := range delta {
		seen += n
		if seen >= need {
			return b.Buckets[i+1] * 1e3
		}
	}
	return b.Buckets[len(b.Buckets)-1] * 1e3
}

// gaugeMax samples the program's queue gauges while a phase runs and
// keeps each one's maximum.
type gaugeMax struct {
	storageLag, detectorLag, proxyDepth, tsdDepth atomic.Int64
	stop                                          chan struct{}
	wg                                            sync.WaitGroup
}

// sampleEvery is the gauge sampling period.
const sampleEvery = 2 * time.Millisecond

func sampleGauges(d *deployment) *gaugeMax {
	g := &gaugeMax{stop: make(chan struct{})}
	storage := d.sys.Topic().Group(sentinel.GroupStorage)
	net := d.sys.Cluster.Network()
	addrs := d.sys.TSDB.Addrs()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			storeMax(&g.storageLag, storage.Lag())
			if d.pool != nil {
				storeMax(&g.detectorLag, d.pool.Group().Lag())
			}
			storeMax(&g.proxyDepth, d.sys.Proxy.QueueDepth.Value())
			for _, a := range addrs {
				if s, ok := net.Lookup(a); ok {
					storeMax(&g.tsdDepth, s.Depth.Value())
				}
			}
		}
	}()
	return g
}

func (g *gaugeMax) halt() {
	close(g.stop)
	g.wg.Wait()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // RUSAGE_SELF with a valid pointer does not fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
