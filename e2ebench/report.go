package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// report is what one run prints.
type report struct {
	attempted, failed int64
	failures          []string
	metrics           map[string]reportedMetric
	detail            map[string]any
}

// quantile is a timing percentile with its sample count, as the
// detail line prints it.
type quantile struct {
	Value     float64 `json:"value"`
	N         int     `json:"n"`
	Supported bool    `json:"supported"`
}

func quant(s *samples, q float64) quantile {
	sorted := s.sorted()
	v, ok := percentile(sorted, q)
	return quantile{Value: v, N: len(sorted), Supported: ok}
}

// execute sets up, drives and checks one run. An untraced run is one
// phase over the whole duration. A traced run drives two halves, the
// first with tracing off and the second with it on; per-layer figures
// come from the second and tracing_overhead compares the two.
func execute(ctx context.Context, workload string, seed uint64, dur time.Duration, traced bool) (*report, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	d, st, err := setUpMedian(ctx, workload, tr)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	defer d.close()
	r := newRun(workload, seed, d, tr, runtime.NumCPU())
	drive := map[string]func(context.Context, time.Duration) *phase{
		"ingest":    r.ingestPhase,
		"dashboard": r.dashboardPhase,
		"live":      r.livePhase,
	}[workload]
	var col *collector
	if workload != "dashboard" {
		col = collect(d.tail)
	}

	// Start every drive from a collected heap, so the GC cycles a run
	// pays for do not depend on garbage set-up happened to leave.
	runtime.GC()
	before := snapshot(d)
	cpu0 := cpuTime()
	var phases []*phase
	var layerFrom, layerTo counters
	var gauges *gaugeMax
	if !traced {
		phases = append(phases, drive(ctx, dur))
	} else {
		phases = append(phases, drive(ctx, dur/2))
		tr.on.Store(true)
		layerFrom = snapshot(d)
		gauges = sampleGauges(d)
		phases = append(phases, drive(ctx, dur-dur/2))
		gauges.halt()
		layerTo = snapshot(d)
	}
	drainStart := time.Now()
	if err := d.drain(ctx); err != nil {
		return nil, err
	}
	drainDur := time.Since(drainStart)
	cpu := cpuTime() - cpu0
	after := snapshot(d)
	if tr != nil {
		tr.on.Store(false)
	}

	// Output checks, outside every timed window.
	var attempted, acked, views int64
	for _, ph := range phases {
		attempted += ph.requests.Load()
		acked += ph.acked.Load()
		views += ph.views.Load()
	}
	var alertLat []*samples
	if col != nil {
		alerts := col.stop(ctx, d.tail)
		attempted += int64(len(alerts))
		alertLat = r.checkAlerts(alerts, phases)
		r.origin = nil
		// Every acked sample is stored: energy points written during
		// the run (all points minus detector flags) cover the acks.
		attempted++
		stored := (after.pointsWritten - before.pointsWritten) - (after.flags - before.flags)
		if stored < acked {
			r.fail("stored %d energy samples, fewer than the %d acked", stored, acked)
		}
	}
	r.checkViews()
	from, to := int64(trainSteps), int64(historySteps-1)
	if workload != "dashboard" {
		to = trainSteps + min(r.nextRow.Load()/units, scoreSteps) - 1
	}
	precision, recall, err := r.score(ctx, from, to)
	if err != nil {
		return nil, err
	}

	rep := &report{attempted: attempted, failed: r.failed, failures: r.failures, detail: map[string]any{}}
	last := phases[len(phases)-1]
	if traced {
		rep.metrics = r.layerMetrics(st, phases, alertLat, layerFrom, layerTo, after, gauges)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: write spans:", err)
		}
		rep.detail["spans"] = path
		return rep, nil
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	storedTotal := d.sys.TSDB.PointsWritten()
	driveDur := last.end.Sub(last.start)
	ops, work := float64(acked), float64(acked)/(driveDur+drainDur).Seconds()
	if workload == "dashboard" {
		ops, work = float64(views), float64(views)/driveDur.Seconds()
	}
	p50 := quant(&last.lat, 0.5)
	e2e := map[string]float64{
		"setup_s":               st.total,
		"throughput_per_s":      work,
		"latency_p50_ms":        p50.Value,
		"cpu_us_per_op":         float64(cpu.Microseconds()) / max(ops, 1),
		"heap_bytes_per_sample": float64(mem.HeapAlloc) / float64(max(storedTotal, 1)),
		"alarm_precision":       precision,
		"alarm_recall":          recall,
	}
	rep.metrics = map[string]reportedMetric{}
	for _, m := range endToEnd {
		rep.metrics[m.Name] = reportedMetric{Value: e2e[m.Name], Unit: m.Unit}
	}

	// The detail line: the same run in the workload's own terms.
	det := rep.detail
	det["failed_frac"] = float64(rep.failed) / float64(max(attempted, 1))
	det["heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	det["drain_s"] = drainDur.Seconds()
	switch workload {
	case "dashboard":
		det["views"] = views
		det["view_p50_ms"] = p50
		det["view_p90_ms"] = quant(&last.lat, 0.9)
		det["machine_p50_ms"] = quant(&last.byKind[viewMachine], 0.5)
		det["drilldown_p50_ms"] = quant(&last.byKind[viewSensor], 0.5)
		det["query_p50_ms"] = quant(&last.byKind[viewQuery], 0.5)
		det["cpu_ms_per_view"] = float64(cpu.Microseconds()) / 1e3 / max(ops, 1)
	default:
		det["samples_acked"] = acked
		det["put_p50_ms"] = p50
		det["put_p90_ms"] = quant(&last.lat, 0.9)
		det["put_p99_ms"] = quant(&last.lat, 0.99)
		det["alert_p50_ms"] = quant(alertLat[0], 0.5)
		det["alert_p99_ms"] = quant(alertLat[0], 0.99)
		det["cpu_us_per_sample"] = e2e["cpu_us_per_op"]
		if workload == "ingest" {
			det["ingest_samples_per_s"] = work
		} else {
			det["overview_p50_ms"] = quant(&last.overview, 0.5)
			det["late_send_frac"] = last.late.frac()
			det["put_service_p50_ms"] = quant(&last.service, 0.5)
			det["late_p50_ms"] = quant(&last.late.by, 0.5)
			det["late_p99_ms"] = quant(&last.late.by, 0.99)
		}
	}
	if !p50.Supported {
		fmt.Fprintf(os.Stderr, "e2ebench: latency_p50_ms rests on %d samples, fewer than the percentile rule needs\n", p50.N)
	}
	return rep, nil
}

// layerMetrics builds the traced run's per-layer figures from the
// second phase's spans, counter deltas and gauge maxima.
func (r *run) layerMetrics(st setupTimes, phases []*phase, alertLat []*samples, from, to, drained counters, g *gaugeMax) map[string]reportedMetric {
	a, b := phases[0], phases[1]
	sp := analyze(r.tr.snapshot())
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	p50 := func(s *samples) float64 {
		v, _ := percentile(s.sorted(), 0.5)
		return v
	}
	bViews := b.views.Load()
	bAcked := b.acked.Load()
	// Work caused by the second phase includes the drain after it.
	returned := drained.samplesReturned - from.samplesReturned
	scans := drained.scans - from.scans
	// Cells resident per region: every cell written so far, spread
	// evenly over the salt buckets (one region each); nothing seals
	// or compacts within a run.
	resident := float64(drained.cells) / float64(r.d.sys.Config().SaltBuckets)
	readAmp := 0.0
	if returned > 0 {
		readAmp = resident * float64(scans) / float64(returned)
	}
	var alertP50, alertP99 float64
	if alertLat != nil {
		alertP50 = p50(alertLat[1])
		alertP99, _ = percentile(alertLat[1].sorted(), 0.99)
	}
	overhead := 0.0
	if pa := p50(&a.lat); pa > 0 {
		overhead = p50(&b.lat)/pa - 1
	}
	vals := map[string]float64{
		"api.put_server_ms_p50":          sp.p(spanHTTP+".put", 0.5),
		"api.view_server_ms_p50":         sp.p(spanHTTP+".view", 0.5),
		"api.view_self_ms_p50":           p50(&sp.viewSelf),
		"api.client_overhead_ms_p50":     p50(&sp.clientOverhead),
		"api.errors":                     float64(r.tr.httpErr.Load()),
		"api.tail_events":                float64(drained.tailEvents - from.tailEvents),
		"api.tail_dropped":               float64(drained.tailDropped - from.tailDropped),
		"bus.publish_ms_p50":             sp.p(spanPublish, 0.5),
		"bus.publish_ms_p99":             sp.p(spanPublish, 0.99),
		"bus.storage_lag_max":            float64(g.storageLag.Load()),
		"bus.detector_lag_max":           float64(g.detectorLag.Load()),
		"bus.polled_per_published":       ratio(drained.polled-from.polled, drained.published-from.published),
		"ingest.points_delivered":        float64(drained.delivered - from.delivered),
		"ingest.parks":                   float64(drained.writerParks - from.writerParks),
		"proxy.queue_depth_max":          float64(g.proxyDepth.Load()),
		"proxy.retries":                  float64(drained.proxyRetries - from.proxyRetries),
		"rpc.calls":                      float64(drained.rpcCalls - from.rpcCalls),
		"rpc.queue_overflows":            float64(drained.overflows - from.overflows),
		"rpc.tsd_queue_depth_max":        float64(g.tsdDepth.Load()),
		"tsdb.put_ms_p50":                sp.p(spanTSDPut, 0.5),
		"tsdb.query_ms_p50":              sp.p(spanTSDGet, 0.5),
		"tsdb.samples_returned_per_view": ratio(returned, bViews),
		"tsdb.read_amplification":        readAmp,
		"hbase.cells_written":            float64(drained.cells - from.cells),
		"hbase.scans":                    float64(scans),
		"hbase.flushes":                  float64(drained.flushes - from.flushes),
		"query.cache_hit_frac":           ratio(drained.hits-from.hits, drained.queries-from.queries),
		"query.subqueries_per_query":     ratio(drained.subQueries-from.subQueries, drained.queries-from.queries),
		"detect.batches":                 float64(drained.batches - from.batches),
		"detect.samples_evaluated":       float64(drained.evaluated - from.evaluated),
		"detect.flags_written":           float64(drained.flags - from.flags),
		"detect.errors":                  float64(drained.detErrors - from.detErrors),
		"detect.parks":                   float64(drained.detParks - from.detParks),
		"detect.alert_ms_p50":            alertP50,
		"detect.alert_ms_p99":            alertP99,
		"go.gc_cpu_frac":                 (to.gcCPU - from.gcCPU) / max(to.totalCPU-from.totalCPU, 1e-9),
		"go.allocs_per_sample":           0,
		"go.allocs_per_view":             0,
		"go.sched_latency_p99_ms":        schedP99(from.sched, to.sched),
		"setup.boot_s":                   st.boot,
		"setup.preload_s":                st.preload,
		"setup.train_s":                  st.train,
		"tracing_overhead":               overhead,
	}
	allocs := float64(to.allocs - from.allocs)
	if r.workload == "dashboard" {
		vals["go.allocs_per_view"] = allocs / float64(max(bViews, 1))
	} else {
		vals["go.allocs_per_sample"] = allocs / float64(max(bAcked, 1))
	}
	out := map[string]reportedMetric{}
	for _, m := range perLayer {
		out[m.Name] = reportedMetric{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}
