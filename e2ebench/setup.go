package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/query"
	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/internal/viz"
	"repro/sentinel"
	"repro/sentinel/client"
)

// The fleet and its timeline. Fleet-second t is one row per unit.
const (
	units      = 10 // sentinel.Config default
	sensors    = 50 // sentinel.Config default
	trainSteps = 120
	// faultOnset is the first faulty fleet-second: every workload's
	// traffic, and the dashboard's preloaded history, contain faults.
	faultOnset = 150
	// historySteps is the dashboard's preloaded history: the training
	// range plus 60 s of live detection over faults.
	historySteps = 180
	// compactEvery is the compactor cadence ingestd runs with.
	compactEvery = 15 * time.Second
	// setupRounds is how many times a run sets the system up; the
	// median is reported and the last one is driven.
	setupRounds = 5
	// datasetSeed seeds the fleet (the sentinel.Config default). The
	// fleet is the benchmark's fixed dataset: --seed varies the traffic
	// drawn over it, not the faults in it, so runs on different seeds
	// stay comparable.
	datasetSeed = 42
)

// deployment is one booted system with its gateway, listener and SDK
// client.
type deployment struct {
	sys       *sentinel.System
	pool      *sentinel.DetectorPool
	tail      *api.AnomalyTail
	engine    *query.Engine // traced runs only: the gateway's query tier
	srv       *http.Server
	served    chan struct{}
	transport *http.Transport
	cl        *client.Client
	now       atomic.Int64 // the gateway's "current" fleet time
}

// setupTimes records one set-up's phases in seconds.
type setupTimes struct {
	boot, train, preload, total float64
}

// newFleet builds the benchmark's own copy of the simulated fleet:
// the source of every row it sends and of the ground truth it scores
// alarms against. The system generates its training and preloaded
// history from an identical fleet of its own.
func newFleet() *simdata.Fleet {
	return simdata.NewFleet(simdata.Config{
		Units:          units,
		SensorsPerUnit: sensors,
		Seed:           datasetSeed,
		FaultOnset:     faultOnset,
	})
}

// setUp boots a system the way the daemons run it, trains MGD+FDR on
// the first trainSteps fleet-seconds, starts the detector pool and
// the gateway on a loopback listener, and, for the dashboard, preloads
// the history the views read.
func setUp(ctx context.Context, workload string, tr *tracer) (*deployment, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	sys, err := sentinel.New(sentinel.Config{
		Units:          units,
		SensorsPerUnit: sensors,
		Seed:           datasetSeed,
		FaultOnset:     faultOnset,
		CompactEvery:   compactEvery,
	})
	if err != nil {
		return nil, st, fmt.Errorf("boot: %w", err)
	}
	d := &deployment{sys: sys}
	fail := func(err error) (*deployment, setupTimes, error) {
		d.close()
		return nil, st, err
	}
	d.now.Store(trainSteps - 1)
	if tr != nil {
		if err := tr.instrumentTSDs(sys); err != nil {
			return fail(err)
		}
	}
	if err := d.serve(tr); err != nil {
		return fail(err)
	}
	st.boot = time.Since(start).Seconds()

	t := time.Now()
	if _, err := sys.IngestRange(0, trainSteps); err != nil {
		return fail(fmt.Errorf("ingest training range: %w", err))
	}
	st.preload = time.Since(t).Seconds()
	t = time.Now()
	if err := sys.TrainFromTSDB(0, trainSteps, true); err != nil {
		return fail(fmt.Errorf("train: %w", err))
	}
	st.train = time.Since(t).Seconds()

	t = time.Now()
	d.pool = sys.StartDetectors(0)
	if workload == "dashboard" {
		if _, err := sys.IngestRange(trainSteps, historySteps-trainSteps); err != nil {
			return fail(fmt.Errorf("preload history: %w", err))
		}
		if err := d.pool.Sync(ctx); err != nil {
			return fail(fmt.Errorf("preload detection: %w", err))
		}
		d.now.Store(historySteps - 1)
	}
	// Open the keep-alive connections before anything is timed.
	for range runtime.NumCPU() {
		if err := d.cl.Health(ctx); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	st.preload += time.Since(t).Seconds()
	st.total = time.Since(start).Seconds()
	return d, st, nil
}

// serve mounts the gateway on a loopback listener and builds the SDK
// client every workload drives it with. Untraced runs serve
// System.Gateway itself; traced runs assemble the same gateway with
// timing wrappers around its publisher and querier.
func (d *deployment) serve(tr *tracer) error {
	quiet := log.New(io.Discard, "", 0)
	var h http.Handler
	if tr == nil {
		h, d.tail = d.sys.Gateway(0, sentinel.GatewayConfig{Now: d.now.Load, AccessLog: quiet})
	} else {
		h, d.tail, d.engine = tracedGateway(d.sys, d.now.Load, quiet, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	d.srv = &http.Server{Handler: h, ErrorLog: quiet}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	// At most nproc keep-alive connections, shared by all traffic.
	conns := runtime.NumCPU()
	d.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	var rt http.RoundTripper = d.transport
	if tr != nil {
		rt = &tracingTransport{next: d.transport}
	}
	d.cl, err = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}),
		client.WithRetry(0, time.Millisecond))
	return err
}

// tracedGateway assembles the handler System.Gateway builds, with the
// same defaults, but with the publisher and querier wrapped in timing
// spans and the whole handler wrapped in a server span.
func tracedGateway(sys *sentinel.System, now func() int64, quiet *log.Logger, tr *tracer) (http.Handler, *api.AnomalyTail, *query.Engine) {
	engine := sys.QueryEngine(query.Config{
		MaxEntries: 256,
		Breakers:   sys.Breakers,
		ServeStale: true,
	})
	q := &tracedQuerier{next: engine, tr: tr}
	cfg := sys.Config()
	backend := &viz.Backend{Q: q, Units: cfg.Units, Sensors: cfg.SensorsPerUnit, MaxPoints: 512}
	tail := sys.NewAnomalyTail()
	reg := telemetry.NewRegistry()
	sys.RegisterMetrics(reg)
	gw := api.New(api.Config{
		Backend:   backend,
		Publisher: &tracedPublisher{next: &api.BusPublisher{Topic: bus.LocalTopic{Topic: sys.Topic()}}, tr: tr},
		Query:     q,
		Tail:      tail,
		Registry:  reg,
		HTML:      viz.NewServer(backend, now),
		Ready:     sys.ReadyChecks(),
		Now:       now,
		Detectors: sys.DetectorStatus,
		Cluster:   sys.ClusterStatus,
		AccessLog: quiet,
	})
	return tr.handler(gw), tail, engine
}

// drain waits until the storage group has written every published
// record and, when detectors run, until they have evaluated it.
func (d *deployment) drain(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := d.sys.Topic().Group(sentinel.GroupStorage).Sync(ctx); err != nil {
		return fmt.Errorf("drain storage: %w", err)
	}
	d.sys.Proxy.Flush()
	if d.pool != nil {
		if err := d.pool.Sync(ctx); err != nil {
			return fmt.Errorf("drain detectors: %w", err)
		}
	}
	return nil
}

// close stops everything setUp started, in dependency order, and
// waits for the server goroutine to return.
func (d *deployment) close() {
	if d.srv != nil {
		_ = d.srv.Close() // the listener error is irrelevant at teardown
		<-d.served
	}
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	if d.tail != nil {
		d.tail.Close()
	}
	if d.pool != nil {
		d.pool.Stop()
	}
	d.sys.Close()
}

// setUpMedian sets the system up setupRounds times, keeping the last,
// and returns the per-phase medians.
func setUpMedian(ctx context.Context, workload string, tr *tracer) (*deployment, setupTimes, error) {
	var all []setupTimes
	var d *deployment
	for i := range setupRounds {
		dep, st, err := setUp(ctx, workload, tr)
		if err != nil {
			return nil, setupTimes{}, err
		}
		all = append(all, st)
		if i < setupRounds-1 {
			dep.close()
			runtime.GC()
			continue
		}
		d = dep
	}
	med := func(get func(setupTimes) float64) float64 {
		var s samples
		for _, st := range all {
			s.add(get(st))
		}
		v, _ := percentile(s.sorted(), 0.5)
		return v
	}
	return d, setupTimes{
		boot:    med(func(s setupTimes) float64 { return s.boot }),
		train:   med(func(s setupTimes) float64 { return s.train }),
		preload: med(func(s setupTimes) float64 { return s.preload }),
		total:   med(func(s setupTimes) float64 { return s.total }),
	}, nil
}

// collector gathers alerts off the anomaly tail as they arrive.
type collector struct {
	mu     sync.Mutex
	alerts []alert
	done   chan struct{}
	cancel func()
}

type alert struct {
	unit    int
	sensor  int
	ts      int64
	arrived time.Time
}

func collect(tail *api.AnomalyTail) *collector {
	ch, cancel := tail.Subscribe()
	c := &collector{done: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(c.done)
		for ev := range ch {
			now := time.Now()
			c.mu.Lock()
			c.alerts = append(c.alerts, alert{unit: ev.Unit, sensor: ev.Sensor, ts: ev.Timestamp, arrived: now})
			c.mu.Unlock()
		}
	}()
	return c
}

// stop waits until the tail has fanned out every published flag, then
// ends the subscription and returns what arrived.
func (c *collector) stop(ctx context.Context, tail *api.AnomalyTail) []alert {
	deadline := time.Now().Add(10 * time.Second)
	for tail.Group().Lag() > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	c.cancel()
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alerts
}
