// Command vizserver boots the full integrated system at laptop scale —
// simulated fleet, storage cluster, FDR detector — runs the live loop
// (ingest → detect → write back) and serves the Figure-3 web
// application behind the unified /api/v1 gateway.
//
//	vizserver -addr :8080 -units 20 -sensors 60
//
// Open http://localhost:8080/ for the fleet overview; click a machine
// for sparklines with red anomaly flags; click a sensor for the
// drill-down. Programmatic access goes through /api/v1/* (fleet
// pagination, raw queries, the SSE anomaly stream at
// /api/v1/anomalies/stream) or the sentinel/client SDK; the pre-v1
// /api/* paths still serve as deprecated shims. SIGINT/SIGTERM shuts
// down gracefully: listener, live loop, SSE tail, detector pool, then
// the system tiers in dependency order.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/sentinel"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		units      = flag.Int("units", 20, "simulated units")
		sensors    = flag.Int("sensors", 60, "sensors per unit")
		nodes      = flag.Int("nodes", 4, "storage nodes")
		train      = flag.Int("train", 120, "training window (steps)")
		onset      = flag.Int64("onset", 150, "fault onset step")
		tick       = flag.Duration("tick", 2*time.Second, "live-loop interval (one fleet second per tick)")
		partitions = flag.Int("partitions", 0, "commit-log partitions (0: one per unit, capped at 16)")
		workers    = flag.Int("workers", 2, "streaming detector workers (0: detect synchronously per tick)")
		cache      = flag.Int("cache", 512, "query-tier window cache entries (negative disables)")
		maxPoints  = flag.Int("maxpoints", 400, "max rendered samples per series (LTTB; 0 takes the gateway default of 512)")
		rate       = flag.Float64("rate", 0, "per-client request rate limit (req/s; 0 disables)")
		apiKeys    = flag.String("api-keys", "", "comma-separated X-API-Key values granted their own rate-limit bucket (unlisted keys fall back to per-IP)")
		drainFor   = flag.Duration("drain", 15*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	nparts := *partitions
	if nparts <= 0 {
		nparts = *units
		if nparts > 16 {
			nparts = 16
		}
	}
	sys, err := sentinel.New(sentinel.Config{
		StorageNodes:   *nodes,
		Units:          *units,
		SensorsPerUnit: *sensors,
		FaultFraction:  0.4,
		FaultOnset:     *onset,
		Partitions:     nparts,
	})
	if err != nil {
		log.Fatalf("vizserver: %v", err)
	}
	defer sys.Close()

	log.Printf("ingesting %d training steps…", *train)
	if _, err := sys.IngestRange(0, *train); err != nil {
		log.Fatalf("vizserver: ingest: %v", err)
	}
	log.Printf("training %d unit models…", *units)
	if err := sys.TrainFromTSDB(0, *train, true); err != nil {
		log.Fatalf("vizserver: train: %v", err)
	}

	// Live loop: every tick advances fleet time one second and ingests
	// the snapshot onto the commit log. With detector workers the flags
	// come back asynchronously — the pool's consumer group evaluates
	// each published batch, writes flags to storage and publishes them
	// onto the anomaly feed (the SSE stream's source); with -workers=0
	// detection runs synchronously per tick (the pre-bus behaviour).
	var pool *sentinel.DetectorPool
	if *workers > 0 {
		pool = sys.StartDetectors(*workers)
		log.Printf("streaming detection: %d workers over %d partitions", *workers, nparts)
	}
	var now atomic.Int64
	now.Store(int64(*train))
	loopCtx, stopLoop := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		ticker := time.NewTicker(*tick)
		defer ticker.Stop()
		for {
			select {
			case <-loopCtx.Done():
				return
			case <-ticker.C:
			}
			t := now.Load()
			if _, err := sys.IngestRange(t, 1); err != nil {
				log.Printf("vizserver: ingest tick %d: %v", t, err)
				continue
			}
			if *workers <= 0 {
				if _, err := sys.Detect(t, 1); err != nil {
					log.Printf("vizserver: detect tick %d: %v", t, err)
				}
			}
			now.Add(1)
		}
	}()

	// The read path: the system's gateway — scatter-gather across the
	// TSD tier behind the shared circuit breakers, a watermark-
	// invalidated window cache with stale serving, LTTB-bounded
	// payloads and the SSE anomaly tail.
	gw, tail := sys.Gateway(0, sentinel.GatewayConfig{
		Now:          now.Load,
		MaxPoints:    *maxPoints,
		CacheEntries: *cache,
		RatePerSec:   *rate,
		APIKeys:      api.SplitKeys(*apiKeys),
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           gw,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("vizserver: fleet overview at http://localhost%s/ (faults begin at t=%d)\n", *addr, *onset)

	select {
	case err := <-errc:
		log.Fatalf("vizserver: serve: %v", err)
	case <-ctx.Done():
	}
	// Graceful shutdown in dependency order: stop the live loop (no
	// new publishes), end SSE streams, stop the detector pool, shut
	// the listener, then let sys.Close drain writers → bus → proxy →
	// cluster.
	log.Printf("vizserver: shutting down (budget %s)", *drainFor)
	stopLoop()
	<-loopDone
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	tail.Close()
	if pool != nil {
		pool.Stop()
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("vizserver: http shutdown: %v", err)
	}
	log.Printf("vizserver: shutdown complete")
}
