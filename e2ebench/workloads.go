package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	v1 "repro/internal/api/v1"
	"repro/internal/simdata"
	"repro/internal/tsdb"
	"repro/sentinel/client"
)

const (
	// liveRate is the live workload's offered load in rows per second
	// (20k samples/s).
	liveRate = 400
	// overviewEvery is the live workload's fleet-overview poll period,
	// and overviewSpan the fleet-seconds each poll ranks.
	overviewEvery = time.Second
	overviewSpan  = 300
	// viewWindow is the fleet-seconds each dashboard view reads, and
	// queryMaxPoints the LTTB bound its raw queries ask for.
	viewWindow     = 60
	queryMaxPoints = 400
	// scoreSteps bounds the fleet-seconds alarms are scored over on
	// ingest and live, so the score does not depend on how far a
	// closed loop got.
	scoreSteps = 300
	// maxRows bounds the rows one run can send.
	maxRows = 1 << 21
)

// run is one workload driven against one deployment.
type run struct {
	workload string
	seed     uint64
	fleet    *simdata.Fleet
	d        *deployment
	tr       *tracer
	conns    int
	tags     [units][sensors]map[string]string

	nextRow atomic.Int64
	// origin is each row's reference time in unix ns: when its send
	// was due (live) or started (ingest). Alert latency counts from it.
	origin   []atomic.Int64
	nextView atomic.Int64

	mu       sync.Mutex
	views    []viewResult
	failures []string
	failed   int64
}

// phase holds one measured stretch of a run.
type phase struct {
	start, end time.Time
	firstRow   int64
	requests   atomic.Int64
	errors     atomic.Int64
	acked      atomic.Int64 // samples acked
	views      atomic.Int64
	lat        samples    // put (ingest, live) or view (dashboard) latency
	byKind     [3]samples // dashboard latency per viewKind
	service    samples    // put latency from its send, not its due time
	overview   samples
	late       lateness
}

func newRun(workload string, seed uint64, d *deployment, tr *tracer, conns int) *run {
	r := &run{workload: workload, seed: seed, fleet: newFleet(), d: d, tr: tr, conns: conns}
	for u := range units {
		for s := range sensors {
			r.tags[u][s] = map[string]string{"unit": strconv.Itoa(u), "sensor": strconv.Itoa(s)}
		}
	}
	if workload != "dashboard" {
		r.origin = make([]atomic.Int64, maxRows)
	}
	return r
}

// fail records a failed request or check.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// rowAt maps row index i to its unit and fleet-second: fleet-seconds
// go in order, and the units within one go in an order drawn from the
// seed.
func (r *run) rowAt(i int64) (unit int, ts int64) {
	ts = trainSteps + i/units
	return unitOrder(r.seed, ts)[i%units], ts
}

// rowIndex is the inverse of rowAt.
func (r *run) rowIndex(unit int, ts int64) int64 {
	base := (ts - trainSteps) * units
	for k, u := range unitOrder(r.seed, ts) {
		if u == unit {
			return base + int64(k)
		}
	}
	return base + units // not a unit: past the fleet-second
}

// unitOrder is the order units send in at fleet-second ts.
func unitOrder(seed uint64, ts int64) []int {
	return rand.New(rand.NewPCG(seed, uint64(ts))).Perm(units)
}

// points builds row i: one unit's full sensor row.
func (r *run) points(i int64) []v1.Point {
	unit, ts := r.rowAt(i)
	pts := make([]v1.Point, sensors)
	for s := range pts {
		pts[s] = v1.Point{
			Metric:    tsdb.MetricEnergy,
			Timestamp: ts,
			Value:     r.fleet.Value(unit, s, ts),
			Tags:      r.tags[unit][s],
		}
	}
	return pts
}

// put sends row i and records its outcome in ph; latency counts from
// origin.
func (r *run) put(ctx context.Context, ph *phase, i int64, origin time.Time) {
	r.origin[i].Store(origin.UnixNano())
	pts := r.points(i)
	ph.requests.Add(1)
	ctx, s := r.tr.begin(ctx, spanClient+".put")
	sent := time.Now()
	n, err := r.d.cl.PutPoints(ctx, pts)
	r.tr.end(s)
	ph.lat.addDuration(time.Since(origin))
	ph.service.addDuration(time.Since(sent))
	if err != nil || n != len(pts) {
		ph.errors.Add(1)
		r.fail("put row %d: accepted %d of %d: %v", i, n, len(pts), err)
		return
	}
	ph.acked.Add(int64(n))
}

// ingestPhase is the closed loop: each connection posts the next row
// as soon as its previous one is acked.
func (r *run) ingestPhase(ctx context.Context, dur time.Duration) *phase {
	ph := &phase{start: time.Now(), firstRow: r.nextRow.Load()}
	end := ph.start.Add(dur)
	var wg sync.WaitGroup
	for range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				i := r.nextRow.Add(1) - 1
				if i >= maxRows {
					return
				}
				r.put(ctx, ph, i, time.Now())
			}
		}()
	}
	wg.Wait()
	r.nextRow.Store(min(r.nextRow.Load(), maxRows))
	ph.end = time.Now()
	return ph
}

// livePhase is the open loop: row j of the phase is due at
// start + j/liveRate whatever happened before it, and a fleet-overview
// poll is due every overviewEvery.
func (r *run) livePhase(ctx context.Context, dur time.Duration) *phase {
	first := r.nextRow.Load()
	sched := schedule{start: time.Now().Add(10 * time.Millisecond), rate: liveRate}
	end := sched.start.Add(dur)
	total := min(sched.count(end), maxRows-first)
	ph := &phase{start: sched.start, firstRow: first}
	var sent atomic.Int64 // one past the highest row whose send has started
	sent.Store(first)
	var wg sync.WaitGroup
	for range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				j := r.nextRow.Add(1) - 1 - first
				if j >= total {
					return
				}
				due := sched.due(j)
				waitUntil(due)
				ph.late.record(due, time.Now())
				storeMax(&sent, first+j+1)
				r.put(ctx, ph, first+j, due)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		polls := schedule{start: sched.start, rate: float64(time.Second) / float64(overviewEvery)}
		for k := int64(0); ctx.Err() == nil; k++ {
			due := polls.due(k)
			if !due.Before(end) {
				return
			}
			waitUntil(due)
			r.overview(ctx, ph, sent.Load(), due)
		}
	}()
	wg.Wait()
	r.nextRow.Store(first + total)
	ph.end = time.Now()
	return ph
}

// spinFor is how long before a due time the generator stops sleeping
// and spins, so an idle processor's wake-up delay does not make a send
// late.
const spinFor = 200 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then spins.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinFor; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// storeMax raises v to at least x.
func storeMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// overview ranks the most severe flags over the latest overviewSpan
// fleet-seconds sent, and checks every entry names a row that was sent
// inside the window.
func (r *run) overview(ctx context.Context, ph *phase, rowsSent int64, due time.Time) {
	to := trainSteps + rowsSent/units - 1
	from := max(to-overviewSpan+1, 0)
	r.d.now.Store(to)
	ph.requests.Add(1)
	ctx, s := r.tr.begin(ctx, spanClient+".overview")
	top, err := r.d.cl.TopAnomalies(ctx, from, to, 10)
	r.tr.end(s)
	ph.overview.addDuration(time.Since(due))
	ph.views.Add(1)
	if err != nil {
		ph.errors.Add(1)
		r.fail("overview [%d,%d]: %v", from, to, err)
		return
	}
	for _, a := range top {
		if a.Timestamp < from || a.Timestamp > to || a.Unit < 0 || a.Unit >= units || r.rowIndex(a.Unit, a.Timestamp) >= rowsSent {
			r.fail("overview [%d,%d] ranks unit %d at %d, which is outside the window or was not sent", from, to, a.Unit, a.Timestamp)
		}
	}
}

// viewKind is one of the dashboard's requests.
type viewKind int

const (
	viewMachine viewKind = iota // per-machine view: every sensor of a unit
	viewSensor                  // sensor drill-down
	viewQuery                   // raw query of a unit, LTTB-bounded
)

// viewReq is one dashboard request; viewResult its response.
type viewReq struct {
	kind         viewKind
	unit, sensor int
	from, to     int64
}

type viewResult struct {
	req     viewReq
	machine *v1.MachineView
	detail  *v1.SeriesDetail
	series  []v1.Series
}

// viewAt derives dashboard request i from the seed alone, so the
// sequence is the same however the connections interleave.
func (r *run) viewAt(i int64) viewReq {
	rng := rand.New(rand.NewPCG(r.seed, uint64(i)|1<<63))
	from := int64(rng.IntN(historySteps - viewWindow + 1))
	return viewReq{
		kind:   viewKind(i % 3),
		unit:   rng.IntN(units),
		sensor: rng.IntN(sensors),
		from:   from,
		to:     from + viewWindow - 1,
	}
}

// dashboardPhase is the closed loop of views over the preloaded
// history; responses are kept and checked after the run.
func (r *run) dashboardPhase(ctx context.Context, dur time.Duration) *phase {
	ph := &phase{start: time.Now()}
	end := ph.start.Add(dur)
	var wg sync.WaitGroup
	for range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				req := r.viewAt(r.nextView.Add(1) - 1)
				ph.requests.Add(1)
				start := time.Now()
				res, err := r.view(ctx, req)
				ph.lat.addDuration(time.Since(start))
				ph.byKind[req.kind].addDuration(time.Since(start))
				ph.views.Add(1)
				if err != nil {
					ph.errors.Add(1)
					r.fail("view %+v: %v", req, err)
					continue
				}
				r.mu.Lock()
				r.views = append(r.views, res)
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.end = time.Now()
	return ph
}

func (r *run) view(ctx context.Context, req viewReq) (viewResult, error) {
	res := viewResult{req: req}
	ctx, s := r.tr.begin(ctx, spanClient+".view")
	defer r.tr.end(s)
	var err error
	switch req.kind {
	case viewMachine:
		res.machine, err = r.d.cl.Machine(ctx, req.unit, req.from, req.to)
	case viewSensor:
		res.detail, err = r.d.cl.Sensor(ctx, req.unit, req.sensor, req.from, req.to)
	default:
		res.series, err = r.d.cl.Query(ctx, clientQuery(req))
	}
	return res, err
}

func clientQuery(req viewReq) client.QueryParams {
	return client.QueryParams{
		Unit:      strconv.Itoa(req.unit),
		From:      req.from,
		To:        req.to,
		MaxPoints: queryMaxPoints,
	}
}

// checkViews verifies every kept view holds exactly the requested
// series with every sample of its window, valued as generated.
func (r *run) checkViews() {
	for _, v := range r.views {
		if err := r.checkView(v); err != nil {
			r.fail("view %+v: %v", v.req, err)
		}
	}
	r.views = nil
}

func (r *run) checkView(v viewResult) error {
	q := v.req
	switch q.kind {
	case viewMachine:
		if v.machine == nil || v.machine.Unit != q.unit {
			return errors.New("wrong unit")
		}
		if len(v.machine.Sensors) != sensors {
			return fmt.Errorf("%d sensors, want %d", len(v.machine.Sensors), sensors)
		}
		for i, s := range v.machine.Sensors {
			if s.Sensor != i {
				return fmt.Errorf("sensor %d at position %d", s.Sensor, i)
			}
			if err := r.checkSamples(q.unit, i, q.from, q.to, s.Samples); err != nil {
				return err
			}
		}
	case viewSensor:
		if v.detail == nil || v.detail.Unit != q.unit || v.detail.Sensor != q.sensor {
			return errors.New("wrong series")
		}
		return r.checkSamples(q.unit, q.sensor, q.from, q.to, v.detail.Samples)
	default:
		if len(v.series) != sensors {
			return fmt.Errorf("%d series, want %d", len(v.series), sensors)
		}
		seen := map[int]bool{}
		for _, ser := range v.series {
			s, err := strconv.Atoi(ser.Tags["sensor"])
			if err != nil || ser.Tags["unit"] != strconv.Itoa(q.unit) || seen[s] {
				return fmt.Errorf("unexpected series %v", ser.Tags)
			}
			seen[s] = true
			if err := r.checkSamples(q.unit, s, q.from, q.to, ser.Samples); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *run) checkSamples(unit, sensor int, from, to int64, got []v1.Sample) error {
	if want := int(to - from + 1); len(got) != want {
		return fmt.Errorf("unit %d sensor %d: %d samples in [%d,%d], want %d", unit, sensor, len(got), from, to, want)
	}
	for k, s := range got {
		ts := from + int64(k)
		if s.Timestamp != ts || s.Value != r.fleet.Value(unit, sensor, ts) {
			return fmt.Errorf("unit %d sensor %d: sample %d is (%d, %v), want (%d, %v)",
				unit, sensor, k, s.Timestamp, s.Value, ts, r.fleet.Value(unit, sensor, ts))
		}
	}
	return nil
}

// checkAlerts verifies every alert names a row that was sent and
// returns each alert's latency from its row's origin, split by the
// phase whose rows raised it.
func (r *run) checkAlerts(alerts []alert, phases []*phase) []*samples {
	out := make([]*samples, len(phases))
	for i := range out {
		out[i] = &samples{}
	}
	sent := r.nextRow.Load()
	for _, a := range alerts {
		i := r.rowIndex(a.unit, a.ts)
		if a.unit < 0 || a.unit >= units || a.ts < trainSteps || i >= sent || a.sensor < -1 || a.sensor >= sensors {
			r.fail("alert names unit %d sensor %d at %d, which was not sent", a.unit, a.sensor, a.ts)
			continue
		}
		k := len(phases) - 1
		for k > 0 && i < phases[k].firstRow {
			k--
		}
		out[k].addDuration(a.arrived.Sub(time.Unix(0, r.origin[i].Load())))
	}
	return out
}

// score rates the flags the detectors wrote to storage over
// [from, to] against the fleet's ground truth: precision over flags,
// recall over faulty samples.
func (r *run) score(ctx context.Context, from, to int64) (precision, recall float64, err error) {
	series, err := r.d.sys.TSDB.TSDs()[0].QueryContext(ctx, tsdb.Query{Metric: tsdb.MetricAnomaly, Start: from, End: to})
	if err != nil && !errors.Is(err, tsdb.ErrNoSuchMetric) {
		return 0, 0, fmt.Errorf("read flags: %w", err)
	}
	var flags, truePos, found int
	for _, ser := range series {
		unit, err1 := strconv.Atoi(ser.Tags["unit"])
		sensor, err2 := strconv.Atoi(ser.Tags["sensor"])
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("flag series with tags %v", ser.Tags)
		}
		for _, s := range ser.Samples {
			flags++
			if r.faultyFlag(unit, sensor, s.Timestamp) {
				truePos++
				if sensor >= 0 {
					found++
				}
			}
		}
	}
	var faulty int
	for u := range units {
		for s := range sensors {
			for t := from; t <= to; t++ {
				if r.fleet.Faulty(u, s, t) {
					faulty++
				}
			}
		}
	}
	if flags > 0 {
		precision = float64(truePos) / float64(flags)
	}
	if faulty > 0 {
		recall = float64(found) / float64(faulty)
	}
	return precision, recall, nil
}

// faultyFlag reports whether a flag is a true alarm; a row-level flag
// (sensor -1) is true when any sensor of the row is faulty.
func (r *run) faultyFlag(unit, sensor int, ts int64) bool {
	if sensor >= 0 {
		return r.fleet.Faulty(unit, sensor, ts)
	}
	for s := range sensors {
		if r.fleet.Faulty(unit, s, ts) {
			return true
		}
	}
	return false
}
