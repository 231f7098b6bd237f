// Ingestscaling: a laptop-scale reproduction of Figure 2 (left) — the
// ingestion throughput sweep over cluster sizes — followed by a demo
// of the commit-log tier that feeds it: a consumer crashes mid-stream
// without committing, and the replacement replays from the last
// committed offset with nothing lost.
//
//	go run ./examples/ingestscaling
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/bus"
	"repro/internal/ingest"
	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/sentinel"
)

func main() {
	// Emulated per-node ceiling: the paper measured ~11–13k samples/s
	// per commodity storage node; with speedup 1 the simulator enforces
	// those rates in real time, so the sweep directly reads in paper
	// scale.
	const (
		paperRate = 13300.0
		speedup   = 1.0
		window    = 800 * time.Millisecond
	)
	fleet := simdata.NewFleet(simdata.Config{Units: 20, SensorsPerUnit: 100, Seed: 42})

	fmt.Println("Figure 2 (left) at laptop scale: throughput vs storage nodes")
	fmt.Printf("%-8s %-24s %-20s\n", "nodes", "paper-scale samples/s", "hottest node share")
	var xs, ys []float64
	for _, nodes := range []int{2, 4, 6, 8} {
		st, err := sentinel.NewStorage(sentinel.Config{
			StorageNodes:     nodes,
			PerNodeRate:      paperRate * speedup,
			ProxyMaxInFlight: 2 * nodes,
		})
		if err != nil {
			log.Fatal(err)
		}
		driver := ingest.NewDriver(fleet, st.Proxy, ingest.DriverConfig{BatchSize: 500, Senders: 8})
		start := time.Now()
		var total int64
		for step := int64(0); time.Since(start) < window; step++ {
			stats, err := driver.Run(step, 1)
			if err != nil {
				log.Fatal(err)
			}
			total += stats.Samples
		}
		st.Proxy.Flush()
		rate := float64(total) / time.Since(start).Seconds() / speedup
		maxShare := 0.0
		for _, s := range st.Cluster.WriteShares() {
			if s > maxShare {
				maxShare = s
			}
		}
		st.Close()
		fmt.Printf("%-8d %-24.0f %-20.0f%%\n", nodes, rate, 100*maxShare)
		xs = append(xs, float64(nodes))
		ys = append(ys, rate)
	}
	_, slope, r2 := telemetry.LinearFit(xs, ys)
	fmt.Printf("\nlinear fit: %.0f samples/s per added node (R²=%.4f)\n", slope, r2)
	fmt.Println("paper: ~11k samples/s per added node, 399k at 30 nodes")

	replayDemo(fleet)
}

// replayDemo shows why the commit log sits between producers and
// consumers: a detector consumer crashes after processing — but not
// committing — a few batches, and its replacement replays exactly from
// the committed offset. Nothing is lost, some work is redone:
// at-least-once.
func replayDemo(fleet *simdata.Fleet) {
	fmt.Println("\nCommit-log replay after a consumer crash")
	broker := bus.New(bus.Config{Partitions: 1})
	defer broker.Close()
	topic := broker.Topic("energy")
	group := topic.Group("detectors")

	// Publish 10 one-step batches for unit 0 onto the single partition.
	driver := ingest.NewBusDriver(fleet, bus.LocalTopic{Topic: topic}, ingest.DriverConfig{
		BatchSize: fleet.Sensors(), // one record per step
		Senders:   1,
	})
	if _, err := driver.Run(0, 10); err != nil {
		log.Fatal(err)
	}
	// The fleet has 20 units keyed onto 1 partition: 200 records.
	fmt.Printf("published %d records (high-water %d)\n",
		broker.Published.Value(), topic.HighWater(0))

	ctx := context.Background()
	c1 := group.Join()
	buf := make([]bus.Record, 0, 64)
	processed := int64(0)
	for processed < 120 {
		recs, err := c1.Poll(ctx, buf)
		if err != nil {
			log.Fatal(err)
		}
		// Commit only the first poll; everything after is processed
		// but uncommitted — the crash will force its redelivery.
		if processed == 0 {
			if err := c1.CommitPolled(recs); err != nil {
				log.Fatal(err)
			}
		}
		processed += int64(len(recs))
	}
	fmt.Printf("consumer 1 processed %d records, committed through offset %d, then crashed\n",
		processed, group.Committed(0))
	c1.Leave() // the "crash": gone without committing its tail

	// The replacement resumes from the committed offset: the
	// uncommitted tail is replayed, the committed prefix is not.
	c2 := group.Join()
	replayedFrom := int64(-1)
	total := int64(0)
	for group.Lag() > 0 {
		recs, err := c2.Poll(ctx, buf)
		if err != nil {
			log.Fatal(err)
		}
		if replayedFrom < 0 && len(recs) > 0 {
			replayedFrom = recs[0].Offset
		}
		total += int64(len(recs))
		if err := c2.CommitPolled(recs); err != nil {
			log.Fatal(err)
		}
	}
	c2.Leave()
	fmt.Printf("consumer 2 replayed from offset %d: %d records redelivered, lag now %d\n",
		replayedFrom, total, group.Lag())
	fmt.Printf("at-least-once: %d processed ≥ %d published; offsets [%d,%d) were evaluated twice\n",
		processed+total, broker.Published.Value(), replayedFrom, processed)
}
