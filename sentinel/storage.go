package sentinel

import (
	"errors"
	"fmt"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/hbase"
	"repro/internal/proxy"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// Storage is the storage stack of §III: an HBase cluster with one TSD
// daemon per region server, the data table, per-TSD circuit breakers,
// the buffering ingestion proxy and the compressed sealed tier with
// its compactor. Every runtime builds it through NewStorage — the
// in-process System, cluster store nodes and the daemons — so the
// stack is the same whatever the topology.
type Storage struct {
	Cluster *hbase.Cluster
	TSDB    *tsdb.Deployment
	Proxy   *proxy.Proxy

	// Breakers holds the per-TSD circuit breakers shared by the
	// ingestion proxy and the query tier: one health view per backend,
	// fed by both read and write outcomes.
	Breakers *resilience.Group

	// Blocks is the deployment-shared compressed sealed tier; closed
	// storage rows compact into it and spill to HDFS under retention
	// (see internal/tsdb). Compactor drives its maintenance passes —
	// in the background when Config.CompactEvery > 0, and on demand
	// through RunOnce always.
	Blocks    *tsdb.BlockStore
	Compactor *tsdb.Compactor
}

// NewStorage boots the storage stack from cfg's storage fields
// (StorageNodes, SaltBuckets, PerNodeRate, RSQueueCap,
// CrashOnOverflow, the Proxy* fields, Breaker, SealAfter,
// CompactEvery, RawTTL, RollupTTL and HotBlockBytes); the rest of cfg
// is ignored. Zero values take the documented Config defaults.
func NewStorage(cfg Config) (*Storage, error) {
	return newStorage(cfg.withDefaults())
}

// newStorage is NewStorage over an already defaulted Config
// (withDefaults is not idempotent: it reads SaltBuckets 0 as "one per
// node").
func newStorage(cfg Config) (*Storage, error) {
	cluster, err := hbase.NewCluster(hbase.Config{
		RegionServers:    cfg.StorageNodes,
		RSQueueCap:       cfg.RSQueueCap,
		CrashOnOverflow:  cfg.CrashOnOverflow,
		ServiceRatePerRS: cfg.PerNodeRate,
		Clock:            clock.Real{},
	})
	if err != nil {
		return nil, fmt.Errorf("sentinel: boot cluster: %w", err)
	}
	deployment, err := tsdb.NewDeployment(cluster, cfg.StorageNodes, tsdb.TSDConfig{
		SaltBuckets: cfg.SaltBuckets,
	})
	if err != nil {
		cluster.Stop()
		return nil, fmt.Errorf("sentinel: boot tsdb: %w", err)
	}
	if err := deployment.CreateTable(); err != nil {
		cluster.Stop()
		return nil, fmt.Errorf("sentinel: create table: %w", err)
	}
	breakers := resilience.NewGroup(cfg.Breaker)
	px, err := proxy.New(cluster.Network(), deployment.Addrs(), proxy.Config{
		MaxInFlight:   cfg.ProxyMaxInFlight,
		BufferBatches: cfg.ProxyBuffer,
		MaxRetries:    cfg.ProxyMaxRetries,
		Breakers:      breakers,
	})
	if err != nil {
		cluster.Stop()
		return nil, fmt.Errorf("sentinel: boot proxy: %w", err)
	}
	// The compressed sealed tier: closed rows compact into Gorilla
	// blocks with hot rollups, spilling to the HDFS tier under the
	// configured retention. The compactor loop only runs when a cadence
	// is configured; the tier itself is always attached so manual
	// passes (and operator tooling) work out of the box.
	compactor := tsdb.NewCompactor(deployment,
		tsdb.BlockStoreConfig{HotBlockBytes: cfg.HotBlockBytes},
		tsdb.CompactorConfig{
			Interval:  cfg.CompactEvery,
			SealAfter: cfg.SealAfter,
			Retention: tsdb.RetentionPolicy{RawTTL: cfg.RawTTL, RollupTTL: cfg.RollupTTL},
		})
	if cfg.CompactEvery > 0 {
		compactor.Start()
	}
	return &Storage{
		Cluster:   cluster,
		TSDB:      deployment,
		Proxy:     px,
		Breakers:  breakers,
		Blocks:    compactor.Store(),
		Compactor: compactor,
	}, nil
}

// Close stops the compactor, then the proxy, then the cluster. Stop
// every writer feeding the proxy and every reader first.
func (s *Storage) Close() {
	s.Compactor.Stop()
	s.Proxy.Close()
	s.Cluster.Stop()
}

// QueryEngine builds a scatter-gather read tier spanning every TSD of
// the deployment, wired to its write watermarks for cache invalidation
// and, unless cfg names its own, to the stack's circuit breakers.
func (s *Storage) QueryEngine(cfg query.Config) *query.Engine {
	if cfg.Breakers == nil {
		cfg.Breakers = s.Breakers
	}
	return query.NewFromDeployment(s.TSDB, cfg)
}

// RegisterMetrics exposes the storage tier's counters on reg: proxy,
// TSD, breaker, sealed-tier and compactor. Every runtime serves the
// same names.
func (s *Storage) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("proxy_accepted", &s.Proxy.Accepted)
	reg.RegisterCounter("proxy_delivered", &s.Proxy.Delivered)
	reg.RegisterCounter("proxy_dropped", &s.Proxy.Dropped)
	reg.RegisterCounter("proxy_retries", &s.Proxy.Retries)
	reg.RegisterGauge("proxy_queue_depth", &s.Proxy.QueueDepth)
	reg.RegisterFunc("tsdb_points_written", s.TSDB.PointsWritten)
	reg.RegisterFunc("tsdb_queries_served", s.TSDB.QueriesServed)
	reg.RegisterCounter("breaker_opens", &s.Breakers.Opens)
	reg.RegisterCounter("breaker_half_opens", &s.Breakers.HalfOpens)
	reg.RegisterCounter("breaker_closes", &s.Breakers.Closes)
	reg.RegisterFunc("breakers_open", func() int64 { return int64(s.Breakers.OpenCount()) })
	reg.RegisterCounter("blocks_sealed", &s.Blocks.BlocksSealed)
	reg.RegisterCounter("samples_sealed", &s.Blocks.SamplesSealed)
	reg.RegisterCounter("bytes_sealed", &s.Blocks.BytesSealed)
	reg.RegisterCounter("blocks_spilled", &s.Blocks.BlocksSpilled)
	reg.RegisterCounter("spill_reads", &s.Blocks.SpillReads)
	reg.RegisterCounter("block_scans", &s.Blocks.BlockScans)
	reg.RegisterCounter("rollup_serves", &s.Blocks.RollupServes)
	reg.RegisterCounter("blocks_expired", &s.Blocks.BlocksExpired)
	reg.RegisterCounter("rollups_expired", &s.Blocks.RollupsExpired)
	reg.RegisterFunc("blocks_hot_bytes", s.Blocks.HotBytes)
	reg.RegisterCounter("compactor_passes", &s.Compactor.Passes)
	reg.RegisterCounter("compactor_pass_errors", &s.Compactor.PassErrors)
}

// ReadyCheck is the "storage" readiness probe: down with no TSDs or
// every backend circuit open, degraded with some open (failover and
// stale serving still answer), ready otherwise.
func (s *Storage) ReadyCheck() api.ReadyCheck {
	return api.ReadyCheck{Name: "storage", Check: func() error {
		n := len(s.TSDB.Addrs())
		if n == 0 {
			return errors.New("no TSDs")
		}
		open := s.Breakers.OpenCount()
		if open >= n {
			return fmt.Errorf("all %d backend circuits open", open)
		}
		if open > 0 {
			return api.Degraded(fmt.Errorf("%d of %d backend circuits open", open, n))
		}
		return nil
	}}
}
