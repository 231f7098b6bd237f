// Command ingestd runs the ingestion frontend as an HTTP service:
// OpenTSDB-compatible writes land on a partitioned commit-log bus
// (keyed by unit) and a consumer group of storage writers drains them
// through the buffering reverse proxy into the simulated storage stack
// every runtime shares (sentinel.NewStorage) — the paper's producer →
// Kafka → OpenTSDB edge. Reads go
// through the cached scatter-gather query tier, never a raw TSD scan.
//
//	ingestd -addr :4242 -nodes 4 -partitions 8 -workers 4
//
// The surface is the unified /api/v1 gateway (see internal/api):
//
//	POST /api/v1/points      JSON points or telnet lines (text/plain)
//	GET  /api/v1/query       cached scatter-gather reads
//	GET  /api/v1/metrics     unified telemetry exposition
//	GET  /healthz, /readyz   liveness / readiness
//
// plus the deprecated pre-v1 shims (/api/put, /api/put/line,
// /api/query, /metrics). SIGINT/SIGTERM shut down gracefully:
// the listener stops, then the bus drains into storage, then the
// proxy flushes, then the cluster stops.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/sentinel"
)

func main() {
	var (
		addr       = flag.String("addr", ":4242", "listen address")
		nodes      = flag.Int("nodes", 4, "storage nodes (region servers + TSDs)")
		salt       = flag.Int("salt", -1, "salt buckets (-1: one per node, 0: disable)")
		partitions = flag.Int("partitions", 8, "commit-log partitions for the ingestion topic")
		workers    = flag.Int("workers", 4, "storage-writer consumers draining the bus into the proxy")
		cache      = flag.Int("cache", 512, "query-tier window cache entries (negative disables)")
		rate       = flag.Float64("rate", 0, "per-client request rate limit (req/s; 0 disables)")
		apiKeys    = flag.String("api-keys", "", "comma-separated X-API-Key values granted their own rate-limit bucket (unlisted keys fall back to per-IP)")
		drainFor   = flag.Duration("drain", 15*time.Second, "graceful shutdown budget")

		sealAfter    = flag.Int64("seal-after", 3600, "fleet-seconds behind the ingest frontier before a closed storage row seals into the compressed block tier")
		compactEvery = flag.Duration("compact-every", 15*time.Second, "storage maintenance cadence: seal closed rows, spill over-budget blocks, enforce retention (0 disables)")
		rawTTL       = flag.Int64("raw-ttl", 0, "drop sealed raw blocks older than this many fleet-seconds (rollups survive; 0 keeps forever)")
		rollupTTL    = flag.Int64("rollup-ttl", 0, "drop rollup buckets older than this many fleet-seconds (0 keeps forever)")
		spillBytes   = flag.Int64("spill-bytes", 64<<20, "resident compressed payload budget before sealed blocks spill to the HDFS tier (negative spills everything)")
	)
	flag.Parse()
	// -salt reads -1 as one bucket per node and 0 as no salting;
	// Config.SaltBuckets reads 0 as one per node and -1 as none.
	buckets := *salt
	switch {
	case buckets < 0:
		buckets = 0
	case buckets == 0:
		buckets = -1
	}
	st, err := newStack(stackConfig{
		storage: sentinel.Config{
			StorageNodes:  *nodes,
			SaltBuckets:   buckets,
			SealAfter:     *sealAfter,
			CompactEvery:  *compactEvery,
			RawTTL:        *rawTTL,
			RollupTTL:     *rollupTTL,
			HotBlockBytes: *spillBytes,
		},
		partitions: *partitions,
		workers:    *workers,
		// Reads fan out across every TSD through the cached window tier.
		query: query.Config{
			MaxEntries: *cache,
			Timeout:    10 * time.Second,
			HedgeDelay: 25 * time.Millisecond,
			ServeStale: true,
		},
		gateway: api.Config{RatePerSec: *rate, APIKeys: api.SplitKeys(*apiKeys)},
	})
	if err != nil {
		log.Fatalf("ingestd: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           st.gw,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("ingestd: %d nodes, salt=%d, %d partitions, %d writers, listening on %s",
		*nodes, *salt, *partitions, *workers, *addr)

	select {
	case err := <-errc:
		log.Fatalf("ingestd: serve: %v", err)
	case <-ctx.Done():
	}
	// Graceful shutdown, in dependency order: stop accepting requests,
	// drain the bus into storage, flush the proxy, then tear down.
	log.Printf("ingestd: shutting down (budget %s)", *drainFor)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("ingestd: http shutdown: %v", err)
	}
	if err := st.broker.Drain(shutdownCtx); err != nil {
		log.Printf("ingestd: bus drain: %v", err)
	}
	st.writers.Stop()
	if err := st.Proxy.Drain(shutdownCtx); err != nil {
		log.Printf("ingestd: proxy drain: %v", err)
	}
	st.stop()
	log.Printf("ingestd: shutdown complete")
}

// stackConfig sizes an ingestd stack.
type stackConfig struct {
	storage    sentinel.Config
	partitions int
	workers    int
	// query tunes the read tier; newStack wires in the breakers.
	query query.Config
	// gateway carries the gateway's client-facing options (rate limit,
	// API keys, access log); newStack fills in the rest.
	gateway api.Config
}

// stack is ingestd's running pipeline: the sentinel storage stack
// behind a commit-log bus, its storage writers, the cached query tier
// and the /api/v1 gateway over them.
type stack struct {
	*sentinel.Storage
	broker  *bus.Broker
	topic   *bus.Topic
	group   *bus.Group
	writers *ingest.StorageWriters
	engine  *query.Engine
	gw      *api.Gateway
}

// newStack boots the storage stack, the bus and its storage consumer
// group, the query tier and the gateway.
func newStack(cfg stackConfig) (*stack, error) {
	storage, err := sentinel.NewStorage(cfg.storage)
	if err != nil {
		return nil, err
	}
	s := &stack{Storage: storage, broker: bus.New(bus.Config{Partitions: cfg.partitions})}
	s.topic = s.broker.Topic(sentinel.TopicEnergy)
	s.group = s.topic.Group(sentinel.GroupStorage)
	s.writers = ingest.StartStorageWriters(context.Background(), bus.LocalGroup{Group: s.group}, s.Proxy, cfg.workers)
	s.engine = s.QueryEngine(cfg.query)

	reg := telemetry.NewRegistry()
	reg.RegisterCounter("bus_published", &s.broker.Published)
	reg.RegisterCounter("bus_polled", &s.broker.Polled)
	reg.RegisterCounter("bus_rebalances", &s.broker.Rebalances)
	reg.RegisterFunc("storage_lag", s.group.Lag)
	reg.RegisterCounter("writer_delivered", &s.writers.Delivered)
	reg.RegisterCounter("writer_failures", &s.writers.Failures)
	reg.RegisterCounter("writer_parks", &s.writers.Parks)
	reg.RegisterGauge("writer_parked", &s.writers.Parked)
	reg.RegisterCounter("query_cache_hits", &s.engine.CacheHits)
	reg.RegisterCounter("query_cache_misses", &s.engine.CacheMisses)
	reg.RegisterCounter("query_subqueries", &s.engine.SubQueries)
	reg.RegisterCounter("query_failovers", &s.engine.Failovers)
	reg.RegisterCounter("query_hedged", &s.engine.Hedged)
	reg.RegisterCounter("query_hedge_wins", &s.engine.HedgeWins)
	reg.RegisterCounter("query_degraded_serves", &s.engine.DegradedServes)
	s.RegisterMetrics(reg)

	gw := cfg.gateway
	gw.Publisher = &api.BusPublisher{Topic: bus.LocalTopic{Topic: s.topic}}
	gw.Query = s.engine
	gw.Registry = reg
	gw.Ready = []api.ReadyCheck{
		{Name: "bus", Check: func() error {
			if !s.broker.Running() {
				return errors.New("bus not accepting publishes")
			}
			return nil
		}},
		s.ReadyCheck(),
	}
	s.gw = api.New(gw)
	return s, nil
}

// stop tears the stack down: writers, then the bus, then storage.
func (s *stack) stop() {
	s.writers.Stop()
	s.broker.Close()
	s.Close()
}
