// Package sentinel is the public face of the reproduction: an
// integrated system for scalable anomaly detection and visualization
// in power-generating assets (Jain et al., 2017).
//
// A System wires together every layer of Figure 1:
//
//   - a simulated fleet of power-generating assets (§II-A's synthetic
//     dataset: units × sensors at 1 Hz with injected faults),
//   - the storage tier — an HBase-like cluster under an OpenTSDB-like
//     TSD tier, fronted by the buffering reverse proxy (§III),
//   - the FDR anomaly detector — offline training on the dataflow
//     engine, online evaluation writing flags back to storage (§IV),
//   - and the web visualization (§V).
//
// Minimal use:
//
//	sys, _ := sentinel.New(sentinel.Config{StorageNodes: 5, Units: 10, SensorsPerUnit: 50})
//	defer sys.Close()
//	sys.IngestRange(0, 120)                                 // stream two minutes of data
//	sys.TrainFromTSDB(0, 100, true)                         // fit per-unit models
//	reports, _ := sys.Detect(100, 20)                       // flag anomalies, write back
//	gw, tail := sys.Gateway(120, sentinel.GatewayConfig{}) // serve the control center
//	defer tail.Close()
//	http.ListenAndServe(":8080", gw)
package sentinel

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/api"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/faultinject"
	"repro/internal/fdr"
	"repro/internal/hdfs"
	"repro/internal/ingest"
	"repro/internal/mllib"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// Bus topic and consumer-group names used by the ingestion pipeline.
const (
	// TopicEnergy carries ingest.UnitBatch records keyed by unit id.
	TopicEnergy = "energy"
	// TopicAnomalies carries core.Anomaly records, published by
	// detector workers as they write flags — the feed behind the
	// gateway's SSE endpoint.
	TopicAnomalies = "anomalies"
	// GroupStorage is the consumer group writing raw samples through
	// the proxy into the TSD tier.
	GroupStorage = "storage"
	// GroupDetectors is the consumer group evaluating samples online.
	GroupDetectors = "detectors"
	// GroupStream prefixes the consumer groups anomaly tails drain
	// TopicAnomalies with. Each tail gets its own group
	// (NewAnomalyTail appends a sequence number): consumer groups
	// split partitions among members, so two tails sharing one group
	// would each see only part of the fleet's flags — and the first
	// Close would detach the group under the other.
	GroupStream = "stream"
)

// Config sizes a System. Zero values take the documented defaults.
type Config struct {
	// StorageNodes is the number of HBase region servers; one TSD
	// daemon runs per node, as in the paper's deployment (default 3).
	StorageNodes int
	// SaltBuckets is the row-key salting width; defaults to
	// StorageNodes (one pre-split region per node). Set to -1 to
	// disable salting (the §III-B hotspot baseline).
	SaltBuckets int

	// Units and SensorsPerUnit shape the simulated fleet (defaults
	// 10 × 50; the paper's full dataset is 100 × 1000).
	Units          int
	SensorsPerUnit int
	// Seed drives every synthetic draw (default 42).
	Seed uint64
	// FaultFraction and FaultOnset control fault injection (defaults
	// 0.3 and 600; see simdata.Config).
	FaultFraction float64
	FaultOnset    int64
	// FaultSensors, DriftPerStep and ShiftSigma shape the injected
	// faults (zero values take simdata's defaults).
	FaultSensors int
	DriftPerStep float64
	ShiftSigma   float64

	// Level is the FDR target for flagging (default 0.05); Procedure
	// the correction (default Benjamini–Hochberg).
	Level     float64
	Procedure fdr.Procedure

	// EngineWorkers sizes the dataflow engine (default GOMAXPROCS).
	EngineWorkers int
	// EnergyFraction and MaxComponents tune the trained subspace.
	EnergyFraction float64
	MaxComponents  int

	// PerNodeRate, when > 0, emulates the per-node service ceiling in
	// samples/second (the Figure-2 hardware calibration).
	PerNodeRate float64
	// RSQueueCap / CrashOnOverflow pass through to the region servers
	// for the backpressure experiments.
	RSQueueCap      int
	CrashOnOverflow int64

	// ProxyMaxInFlight / ProxyBuffer tune the ingestion proxy.
	ProxyMaxInFlight int
	ProxyBuffer      int
	// ProxyMaxRetries bounds delivery attempts per batch (0 takes the
	// proxy default of 8; negative retries without bound until
	// shutdown — the zero-loss setting the chaos soak runs with).
	ProxyMaxRetries int
	// Breaker tunes the per-TSD circuit breakers shared by the
	// ingestion proxy and the gateway's query engine (zero fields take
	// resilience defaults: trip after 5 consecutive failures, 1s
	// cooldown, 2 probe successes to close).
	Breaker resilience.BreakerConfig

	// Partitions is the commit-log partition count for the ingestion
	// topic (default max(4, StorageNodes)); units are keyed onto
	// partitions, so it caps useful detector-worker fan-out.
	Partitions int
	// StorageWriters sizes the consumer group draining the bus into
	// the proxy (default 4).
	StorageWriters int
	// DetectorWorkers sizes the streaming detection pool started by
	// StartDetectors when its argument is 0 (default 2).
	DetectorWorkers int
	// BusBuffer bounds each partition's uncommitted window in records
	// before Publish blocks (default 1024; negative disables).
	BusBuffer int

	// SealAfter is how many fleet-seconds behind the ingest frontier a
	// storage row must fall before a compaction pass seals it into the
	// compressed block tier (default one row span, 3600 — a row seals
	// as soon as its hour has closed).
	SealAfter int64
	// CompactEvery starts the background compactor — each pass seals
	// closed rows, spills resident blocks over budget to HDFS, and
	// enforces retention — at this cadence. Zero leaves maintenance
	// manual: call System.CompactNow.
	CompactEvery time.Duration
	// RawTTL drops sealed raw blocks older than this many fleet-seconds
	// behind the ingest frontier (rollups survive, so wide dashboards
	// still render); RollupTTL is the final expiry of rollups too. Zero
	// keeps data forever.
	RawTTL    int64
	RollupTTL int64
	// HotBlockBytes bounds resident compressed payload before sealed
	// blocks spill to the HDFS tier (default 64 MiB; negative spills
	// every sealed block).
	HotBlockBytes int64

	// PrimaryDetector is the registered family the detector pool
	// evaluates and emits flags from (default "mgd", the trained
	// MGD+FDR evaluator — the behavior predating the detector tier).
	PrimaryDetector string
	// ShadowDetectors run asynchronously beside the primary on the
	// same batches, counting row-level agreements and disagreements
	// without emitting flags. A slow shadow never backpressures the
	// primary path: batches it cannot keep up with are shed (counted).
	ShadowDetectors []string
	// ShadowBuffer bounds the queue of batches waiting for the shadow
	// runner before shedding begins (default 64).
	ShadowBuffer int
	// EnsembleMembers and EnsembleMinVotes configure the "ensemble"
	// family when it is selected as primary or shadow (defaults: the
	// registry's — cusum+zscore+iforest at 2 votes).
	EnsembleMembers  []string
	EnsembleMinVotes int
}

func (c Config) withDefaults() Config {
	if c.StorageNodes <= 0 {
		c.StorageNodes = 3
	}
	if c.SaltBuckets == 0 {
		c.SaltBuckets = c.StorageNodes
	}
	if c.SaltBuckets < 0 {
		c.SaltBuckets = 0
	}
	if c.Units <= 0 {
		c.Units = 10
	}
	if c.SensorsPerUnit <= 0 {
		c.SensorsPerUnit = 50
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Level <= 0 || c.Level >= 1 {
		c.Level = 0.05
	}
	if c.Procedure == fdr.Uncorrected {
		c.Procedure = fdr.BH
	}
	if c.Partitions <= 0 {
		c.Partitions = c.StorageNodes
		if c.Partitions < 4 {
			c.Partitions = 4
		}
	}
	if c.StorageWriters <= 0 {
		c.StorageWriters = 4
	}
	if c.DetectorWorkers <= 0 {
		c.DetectorWorkers = 2
	}
	if c.PrimaryDetector == "" {
		c.PrimaryDetector = "mgd"
	}
	if c.ShadowBuffer <= 0 {
		c.ShadowBuffer = 64
	}
	return c
}

// System is a running deployment of the full architecture.
type System struct {
	cfg Config

	// Storage is the storage stack (cluster, TSDs, proxy, breakers,
	// sealed tier) every runtime builds through NewStorage; its fields
	// are promoted (sys.TSDB, sys.Proxy, sys.Blocks, …).
	*Storage

	Fleet   *simdata.Fleet
	Engine  *dataflow.Engine
	Catalog *core.ModelCatalog
	Trainer *core.Trainer

	// Bus is the partitioned commit log decoupling producers from the
	// storage and detection tiers; Writers drains it into the proxy.
	Bus     *bus.Broker
	Writers *ingest.StorageWriters

	topic    *bus.Topic
	flags    *bus.Topic
	storage  *bus.Group
	pipeline *core.Pipeline
	source   *tsdb.Source

	mu       sync.Mutex
	pools    []*DetectorPool
	detGroup bus.GroupHandle

	streamSeq atomic.Int64
}

// New boots a System: cluster, TSD tier, proxy, dataflow engine and an
// HDFS-backed model catalog.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	fleet := simdata.NewFleet(simdata.Config{
		Units:          cfg.Units,
		SensorsPerUnit: cfg.SensorsPerUnit,
		Seed:           cfg.Seed,
		FaultFraction:  cfg.FaultFraction,
		FaultOnset:     cfg.FaultOnset,
		FaultSensors:   cfg.FaultSensors,
		DriftPerStep:   cfg.DriftPerStep,
		ShiftSigma:     cfg.ShiftSigma,
	})
	st, err := newStorage(cfg)
	if err != nil {
		return nil, err
	}
	engine := dataflow.NewEngine(cfg.EngineWorkers)
	catalog := &core.ModelCatalog{Store: &hdfs.Store{C: st.Cluster.DFS(), Prefix: "/detector/"}}
	trainer := core.NewTrainer(engine, core.TrainerConfig{
		EnergyFraction: cfg.EnergyFraction,
		MaxComponents:  cfg.MaxComponents,
	})
	sys := &System{
		cfg:     cfg,
		Storage: st,
		Fleet:   fleet,
		Engine:  engine,
		Catalog: catalog,
		Trainer: trainer,
	}
	sys.source = &tsdb.Source{TSD: st.TSDB.TSDs()[0], Sensors: cfg.SensorsPerUnit}
	sys.pipeline = core.NewPipeline(
		catalog,
		core.EvaluatorConfig{Procedure: cfg.Procedure, Level: cfg.Level},
		sys.source,
		&tsdb.Sink{TSD: st.TSDB.TSDs()[0]},
	)
	// Online evaluation fans out across units on the same engine the
	// offline trainer uses, so Detect throughput scales with cores.
	sys.pipeline.Engine = engine
	// The ingestion bus: producers publish unit-keyed batches to the
	// partitioned log; the storage consumer group drains them through
	// the proxy into the TSD tier. Detection consumers attach
	// independently (StartDetectors), so a slow detector never stalls
	// storage writes — the paper's reason for the Kafka tier.
	sys.Bus = bus.New(bus.Config{Partitions: cfg.Partitions, PartitionBuffer: cfg.BusBuffer})
	sys.topic = sys.Bus.Topic(TopicEnergy)
	// The flag feed: detector workers publish every anomaly they write
	// so the gateway's SSE endpoint can tail detection live. Workers
	// publish only while a tail's consumer group is attached — a
	// group-less topic is never trimmed, so feeding it with nobody
	// consuming would retain flags forever.
	sys.flags = sys.Bus.Topic(TopicAnomalies)
	sys.storage = sys.topic.Group(GroupStorage)
	sys.Writers = ingest.StartStorageWriters(context.Background(), bus.LocalGroup{Group: sys.storage}, st.Proxy, cfg.StorageWriters)
	return sys, nil
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// SetFaults installs (or, with nil, removes) one fault injector across
// every injection point of the system: the RPC fabric (operations
// "rpc/<addr>/<method>"), the commit log ("bus/publish/<topic>",
// "bus/fetch/<topic>"), the TSD tier below the fabric
// ("tsdb/put/<name>", "tsdb/query/<name>" — covering in-process
// writers too), and the proxy's submission edge ("proxy/submit").
// Runtime-toggleable: rules added or cleared on the injector take
// effect on the next operation.
func (s *System) SetFaults(f *faultinject.Injector) {
	s.Cluster.Network().SetFaults(f)
	s.Bus.SetFaults(f)
	s.TSDB.SetFaults(f)
	s.Proxy.SetFaults(f)
}

// Close releases every component: the detector pools first (they
// touch storage), then the storage writers and the bus, then the
// storage stack under them.
func (s *System) Close() {
	s.mu.Lock()
	pools := s.pools
	s.pools = nil
	s.mu.Unlock()
	for _, p := range pools {
		p.Stop()
	}
	s.Writers.Stop()
	s.Bus.Close()
	s.Engine.Close()
	s.Storage.Close()
}

// Topic returns the ingestion commit-log topic (for replay tooling and
// custom consumers).
func (s *System) Topic() *bus.Topic { return s.topic }

// AnomalyTopic returns the flag-feed topic detector workers publish
// onto (the SSE tail's source).
func (s *System) AnomalyTopic() *bus.Topic { return s.flags }

// NewAnomalyTail attaches a live tail to the flag feed under its own
// consumer group, so every tail sees every flag and closing one never
// detaches another's. Close the tail before System.Close.
func (s *System) NewAnomalyTail() *api.AnomalyTail {
	return api.NewAnomalyTail(bus.LocalTopic{Topic: s.flags}, fmt.Sprintf("%s-%d", GroupStream, s.streamSeq.Add(1)))
}

// IngestRange streams fleet time steps [from, from+steps) onto the
// commit log and waits until the storage consumer group has drained
// them through the proxy into the TSD tier — the synchronous contract
// the training and detection paths rely on. Detector pools consume the
// same records asynchronously.
func (s *System) IngestRange(from int64, steps int) (ingest.Stats, error) {
	driver := ingest.NewBusDriver(s.Fleet, bus.LocalTopic{Topic: s.topic}, ingest.DriverConfig{})
	stats, err := driver.Run(from, steps)
	if err != nil {
		return stats, err
	}
	if err := s.storage.Sync(context.Background()); err != nil {
		return stats, fmt.Errorf("sentinel: drain storage group: %w", err)
	}
	s.Proxy.Flush()
	return stats, nil
}

// CompactNow runs one storage-tier maintenance pass synchronously:
// rows whose hour has closed (per Config.SealAfter) seal into
// compressed blocks, blocks over the resident budget spill to HDFS,
// and retention TTLs are enforced. Safe alongside the background
// compactor; useful in tests and batch tooling that want the tier
// advanced deterministically.
func (s *System) CompactNow(ctx context.Context) error {
	return s.Compactor.RunOnce(ctx)
}

// Units returns all unit ids.
func (s *System) Units() []int {
	units := make([]int, s.cfg.Units)
	for i := range units {
		units[i] = i
	}
	return units
}

// TrainFromTSDB fits per-unit models from data previously ingested
// into storage over [from, from+count), the paper's offline batch path
// (Spark reading the stored streams). Models are cached to HDFS.
func (s *System) TrainFromTSDB(from int64, count int, concurrent bool) error {
	src := &tsdb.Source{
		TSD:        s.TSDB.TSDs()[0],
		Sensors:    s.cfg.SensorsPerUnit,
		TrainFrom:  from,
		TrainCount: count,
	}
	_, err := s.Trainer.TrainFleet(s.Units(), src, s.Catalog, concurrent)
	return err
}

// TrainFromFleet fits models directly from the generator (bypassing
// storage), useful when the training range was not ingested.
func (s *System) TrainFromFleet(from int64, count int, concurrent bool) error {
	src := core.WindowFunc(func(unit int) ([][]float64, error) {
		return s.Fleet.UnitWindow(unit, from, count), nil
	})
	_, err := s.Trainer.TrainFleet(s.Units(), src, s.Catalog, concurrent)
	return err
}

// newDetector builds one unit's instance of the named registered
// family, wiring the system's model catalog, seed and ensemble
// configuration into the factory context.
func (s *System) newDetector(name string, unit int) (mllib.Detector, error) {
	return mllib.New(name, mllib.Context{
		Unit:    unit,
		Sensors: s.cfg.SensorsPerUnit,
		Seed:    s.cfg.Seed ^ uint64(unit)<<1,
		Members: s.cfg.EnsembleMembers,
		Params: map[string]float64{
			"level":     s.cfg.Level,
			"procedure": float64(s.cfg.Procedure),
			"minvotes":  float64(max(s.cfg.EnsembleMinVotes, 2)),
		},
		LoadModel: func() (any, error) { return s.Catalog.Load(unit) },
	})
}

// DetectorStatus reports every registered detector family with its
// role in this system (primary / shadow / off), its flag and
// shadow-comparison counters aggregated across running pools, and the
// effective ensemble configuration — the /api/v1/detectors payload.
func (s *System) DetectorStatus() v1.DetectorsResponse {
	shadowNames := make(map[string]bool, len(s.cfg.ShadowDetectors))
	for _, n := range s.cfg.ShadowDetectors {
		shadowNames[n] = true
	}
	var primaryFlags int64
	shadow := make(map[string]ShadowStats)
	s.mu.Lock()
	for _, p := range s.pools {
		primaryFlags += p.AnomaliesWritten.Value()
		for name, st := range p.ShadowStats() {
			agg := shadow[name]
			agg.Batches += st.Batches
			agg.Flags += st.Flags
			agg.Agreements += st.Agreements
			agg.Disagreements += st.Disagreements
			agg.Shed += st.Shed
			agg.Errors += st.Errors
			shadow[name] = agg
		}
	}
	s.mu.Unlock()
	resp := v1.DetectorsResponse{Primary: s.cfg.PrimaryDetector}
	members := s.cfg.EnsembleMembers
	if len(members) == 0 {
		members = []string{"cusum", "zscore", "iforest"}
	}
	resp.Ensemble = v1.EnsembleConfig{
		Members:  members,
		MinVotes: max(s.cfg.EnsembleMinVotes, 2),
	}
	for _, name := range mllib.Registered() {
		info := v1.DetectorInfo{Name: name, Mode: "off"}
		switch {
		case name == s.cfg.PrimaryDetector:
			info.Mode = "primary"
			info.Flags = primaryFlags
		case shadowNames[name]:
			info.Mode = "shadow"
			st := shadow[name]
			info.Flags = st.Flags
			info.Agreements = st.Agreements
			info.Disagreements = st.Disagreements
			info.Shed = st.Shed
		}
		resp.Detectors = append(resp.Detectors, info)
	}
	return resp
}

// Detect evaluates every trained unit over [from, from+count) reading
// observations from storage, writes flags back to the "anomaly"
// metric, and returns the reports. Units are evaluated concurrently on
// the dataflow engine, one task per unit.
func (s *System) Detect(from int64, count int) (map[int][]*core.Report, error) {
	return s.pipeline.ProcessFleet(from, count)
}

// SamplesEvaluated reports the cumulative sensor samples scored by the
// online evaluator (the §IV-A throughput unit).
func (s *System) SamplesEvaluated() int64 {
	return s.pipeline.SamplesEvaluated.Value()
}

// GatewayConfig tunes the handler Gateway assembles. Zero values take
// the api package defaults.
type GatewayConfig struct {
	// Now supplies "current" fleet time (nil: the fixed now passed to
	// Gateway).
	Now func() int64
	// MaxPoints bounds rendered series via LTTB (default 512).
	MaxPoints int
	// CacheEntries sizes the query tier's window cache (default 256).
	CacheEntries int
	// RatePerSec/Burst enable per-client rate limiting (0 disables).
	RatePerSec float64
	Burst      int
	// AccessLog overrides the gateway's access logger.
	AccessLog *log.Logger
	// HedgeDelay, when > 0, hedges straggler shard reads: a duplicate
	// sub-query goes to the next TSD once the primary has been silent
	// this long, first success wins.
	HedgeDelay time.Duration
	// NoServeStale disables degraded-mode reads. By default the query
	// tier answers from stale cache (marked via X-Sentinel-Degraded
	// and the DTO degraded field) when the storage tier cannot.
	NoServeStale bool
	// APIKeys lists client keys (X-API-Key) that earn their own
	// rate-limit bucket and admission quota identity.
	APIKeys []string
	// Admission, when set, gates every route on the adaptive overload
	// controller — see System.NewAdmissionController.
	Admission *admission.Controller
}

// Gateway returns the full web surface of the system as one handler:
// the /api/v1 tier (writes onto the ingestion bus, reads through a
// cached scatter-gather engine, the SSE anomaly stream, metrics and
// readiness), the legacy shim paths, and the Figure-3 HTML
// application. now is the fleet time pages treat as "current" when
// cfg.Now is nil. Close the returned tail before System.Close.
func (s *System) Gateway(now int64, cfg GatewayConfig) (http.Handler, *api.AnomalyTail) {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return now }
	}
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = 512
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	engine := s.QueryEngine(query.Config{
		MaxEntries: cfg.CacheEntries,
		HedgeDelay: cfg.HedgeDelay,
		ServeStale: !cfg.NoServeStale,
	})
	backend := &viz.Backend{
		Q:         engine,
		Units:     s.cfg.Units,
		Sensors:   s.cfg.SensorsPerUnit,
		MaxPoints: cfg.MaxPoints,
	}
	tail := s.NewAnomalyTail()
	reg := telemetry.NewRegistry()
	s.RegisterMetrics(reg)
	// Query-tier and SSE-tail counters live on the per-gateway engine
	// and tail.
	reg.RegisterCounter("query_cache_hits", &engine.CacheHits)
	reg.RegisterCounter("query_cache_misses", &engine.CacheMisses)
	reg.RegisterCounter("query_hedged", &engine.Hedged)
	reg.RegisterCounter("query_hedge_wins", &engine.HedgeWins)
	reg.RegisterCounter("query_degraded_serves", &engine.DegradedServes)
	reg.RegisterCounter("stream_events", &tail.Events)
	reg.RegisterCounter("stream_dropped", &tail.Dropped)
	gw := api.New(api.Config{
		Backend:    backend,
		Publisher:  &api.BusPublisher{Topic: bus.LocalTopic{Topic: s.topic}},
		Query:      engine,
		Tail:       tail,
		Registry:   reg,
		HTML:       viz.NewServer(backend, cfg.Now),
		Ready:      s.ReadyChecks(),
		Now:        cfg.Now,
		Detectors:  s.DetectorStatus,
		Cluster:    s.ClusterStatus,
		RatePerSec: cfg.RatePerSec,
		Burst:      cfg.Burst,
		AccessLog:  cfg.AccessLog,
		APIKeys:    cfg.APIKeys,
		Admission:  cfg.Admission,
	})
	return gw, tail
}

// RegisterMetrics exposes the system's counters on reg under the
// names the /metrics endpoints serve.
func (s *System) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("bus_published", &s.Bus.Published)
	reg.RegisterCounter("bus_polled", &s.Bus.Polled)
	reg.RegisterCounter("bus_rebalances", &s.Bus.Rebalances)
	reg.RegisterFunc("storage_lag", s.storage.Lag)
	reg.RegisterCounter("writer_delivered", &s.Writers.Delivered)
	reg.RegisterCounter("writer_failures", &s.Writers.Failures)
	reg.RegisterFunc("samples_evaluated", s.SamplesEvaluated)
	s.Storage.RegisterMetrics(reg)
	reg.RegisterCounter("writer_parks", &s.Writers.Parks)
	reg.RegisterGauge("writer_parked", &s.Writers.Parked)
	reg.RegisterFunc("detector_parks", func() int64 { return s.detectorStat(func(p *DetectorPool) int64 { return p.Parks.Value() }) })
	reg.RegisterFunc("detector_parked", func() int64 { return s.detectorStat(func(p *DetectorPool) int64 { return p.Parked.Value() }) })
}

// detectorStat sums one per-pool counter across the running pools.
func (s *System) detectorStat(get func(*DetectorPool) int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, p := range s.pools {
		n += get(p)
	}
	return n
}

// ReadyChecks probes the tiers a serving gateway depends on: the bus
// accepting publishes, the storage group draining it, and a detector
// pool attached (detection running). Liveness is weaker — see
// /healthz vs /readyz in internal/api.
func (s *System) ReadyChecks() []api.ReadyCheck {
	return []api.ReadyCheck{
		{Name: "bus", Check: func() error {
			if !s.Bus.Running() {
				return errors.New("bus not accepting publishes")
			}
			return nil
		}},
		s.Storage.ReadyCheck(),
		{Name: "detectors", Check: func() error {
			s.mu.Lock()
			attached := s.detGroup != nil
			var parked int64
			for _, p := range s.pools {
				parked += p.Parked.Value()
			}
			s.mu.Unlock()
			if !attached {
				return errors.New("no detector pool attached")
			}
			if parked > 0 {
				// Parked workers are riding out a storage fault with
				// their records uncommitted — lagging, not lost.
				return api.Degraded(fmt.Errorf("%d detector workers parked on storage faults", parked))
			}
			return nil
		}},
	}
}
