// Command tsdbench regenerates the paper's Figure 2 and the §III-B
// engineering findings on the simulated cluster:
//
//	tsdbench -sweep                 # Fig. 2 left: throughput vs node count
//	tsdbench -series -nodes 10      # Fig. 2 right: cumulative samples vs time
//	tsdbench -ablation salting      # §III-B: salted vs unsalted keys
//	tsdbench -ablation backpressure # §III-B: proxy vs unbuffered ingestion
//	tsdbench -ablation compaction   # §III-B: row compaction RPC overhead
//
// The per-node service rate emulates the paper's commodity-node
// ceiling (~13.3k samples/s/node), accelerated by -speedup so a sweep
// finishes in seconds; printed rates are rescaled to paper-scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/proxy"
	"repro/internal/simdata"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/sentinel"
)

func main() {
	var (
		sweep    = flag.Bool("sweep", false, "run the Figure 2 (left) node sweep")
		series   = flag.Bool("series", false, "run the Figure 2 (right) stable-rate series")
		ablation = flag.String("ablation", "", "run an ablation: salting | backpressure | compaction")
		nodes    = flag.Int("nodes", 10, "node count for -series and ablations")
		rate     = flag.Float64("rate", 13300, "emulated per-node service rate (samples/s, paper scale)")
		speedup  = flag.Float64("speedup", 1, "time acceleration factor (1 = real paper-scale rates)")
		seconds  = flag.Float64("seconds", 2.0, "wall-clock measurement window per configuration")
		units    = flag.Int("units", 100, "fleet units")
		sensors  = flag.Int("sensors", 1000, "sensors per unit")
	)
	flag.Parse()

	switch {
	case *sweep:
		runSweep(*rate, *speedup, *seconds, *units, *sensors)
	case *series:
		runSeries(*nodes, *rate, *speedup, *seconds, *units, *sensors)
	case *ablation != "":
		runAblation(*ablation, *nodes, *rate, *speedup, *seconds, *units, *sensors)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// rig is one bootstrapped storage stack plus its workload driver.
type rig struct {
	*sentinel.Storage
	fleet *simdata.Fleet
}

// buildRig boots nodes region servers + TSDs at the emulated rate,
// salted one bucket per node or not at all.
func buildRig(nodes int, emulatedRate float64, salted bool, units, sensors int) (*rig, error) {
	salt := -1
	if salted {
		salt = nodes
	}
	st, err := sentinel.NewStorage(sentinel.Config{
		StorageNodes:     nodes,
		SaltBuckets:      salt,
		PerNodeRate:      emulatedRate,
		RSQueueCap:       4096,
		ProxyMaxInFlight: 2 * nodes,
	})
	if err != nil {
		return nil, err
	}
	fleet := simdata.NewFleet(simdata.Config{Units: units, SensorsPerUnit: sensors, Seed: 42})
	return &rig{Storage: st, fleet: fleet}, nil
}

// measure streams load through the proxy for roughly window seconds
// and returns achieved samples/second.
func (r *rig) measure(window float64) float64 {
	driver := ingest.NewDriver(r.fleet, r.Proxy, ingest.DriverConfig{BatchSize: 1000, Senders: 8})
	start := time.Now()
	var total int64
	step := int64(0)
	for time.Since(start).Seconds() < window {
		stats, err := driver.Run(step, 1)
		if err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		total += stats.Samples
		step++
	}
	r.Proxy.Flush()
	return float64(total) / time.Since(start).Seconds()
}

func runSweep(paperRate, speedup, seconds float64, units, sensors int) {
	fmt.Println("Figure 2 (left): ingestion throughput vs storage nodes")
	fmt.Printf("emulated per-node rate %.0f samples/s (paper scale), speedup ×%.0f\n\n", paperRate, speedup)
	fmt.Printf("%-8s %-22s %-22s\n", "nodes", "measured samples/s", "paper-scale samples/s")
	var xs, ys []float64
	for _, n := range []int{10, 15, 20, 25, 30} {
		r, err := buildRig(n, paperRate*speedup, true, units, sensors)
		if err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		got := r.measure(seconds)
		r.Close()
		paperScale := got / speedup
		fmt.Printf("%-8d %-22.0f %-22.0f\n", n, got, paperScale)
		xs = append(xs, float64(n))
		ys = append(ys, paperScale)
	}
	_, slope, r2 := telemetry.LinearFit(xs, ys)
	fmt.Printf("\nlinear fit: %.0f samples/s per added node (paper: ~11k), R²=%.4f\n", slope, r2)
	fmt.Println("paper reference: 10→173k, 15→233k, 20→257k, 25→325k, 30→399k samples/s")
}

func runSeries(nodes int, paperRate, speedup, seconds float64, units, sensors int) {
	fmt.Printf("Figure 2 (right): cumulative samples vs time, %d nodes\n\n", nodes)
	r, err := buildRig(nodes, paperRate*speedup, true, units, sensors)
	if err != nil {
		log.Fatalf("tsdbench: %v", err)
	}
	defer r.Close()
	// Submit continuously in the background; the *delivered* counter on
	// the proxy is the ingestion-side truth Figure 2 plots.
	stop := make(chan struct{})
	go func() {
		driver := ingest.NewDriver(r.fleet, r.Proxy, ingest.DriverConfig{BatchSize: 1000, Senders: 8})
		for step := int64(0); ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := driver.Run(step, 1); err != nil {
				return
			}
		}
	}()
	fmt.Printf("%-12s %-16s %-16s\n", "elapsed(s)", "cumulative", "interval rate/s")
	var xs, ys []float64
	start := time.Now()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	prev := int64(0)
	prevT := start
	for now := range tick.C {
		cum := r.Proxy.Delivered.Value()
		el := now.Sub(start).Seconds()
		rate := float64(cum-prev) / now.Sub(prevT).Seconds()
		fmt.Printf("%-12.2f %-16d %-16.0f\n", el, cum, rate)
		xs = append(xs, el)
		ys = append(ys, float64(cum))
		prev, prevT = cum, now
		if el >= seconds {
			break
		}
	}
	close(stop)
	_, slope, r2 := telemetry.LinearFit(xs, ys)
	fmt.Printf("\ncumulative-curve: slope %.0f samples/s, linearity R² = %.5f (stable rate ⇒ ≈1)\n", slope/speedup, r2)
}

func runAblation(which string, nodes int, paperRate, speedup, seconds float64, units, sensors int) {
	switch which {
	case "salting":
		fmt.Println("§III-B ablation: row-key salting")
		for _, salted := range []bool{false, true} {
			r, err := buildRig(nodes, paperRate*speedup, salted, units, sensors)
			if err != nil {
				log.Fatalf("tsdbench: %v", err)
			}
			got := r.measure(seconds)
			shares := r.Cluster.WriteShares()
			maxShare := 0.0
			for _, s := range shares {
				if s > maxShare {
					maxShare = s
				}
			}
			r.Close()
			fmt.Printf("  salted=%-5v throughput=%8.0f samples/s  hottest-server share=%.0f%%\n",
				salted, got/speedup, 100*maxShare)
		}
		fmt.Println("  (paper: salting gave a dramatic increase by using all RegionServers)")
	case "backpressure":
		fmt.Println("§III-B ablation: buffering reverse proxy vs unbuffered clients")
		// Unbuffered: fail-fast clients hammer the TSD tier directly;
		// region servers have small queues and crash on overflow.
		runBackpressure(nodes, paperRate*speedup, seconds, units, sensors)
	case "compaction":
		fmt.Println("§III-B ablation: OpenTSDB row compaction RPC cost")
		runCompaction(nodes, units, sensors)
	default:
		log.Fatalf("tsdbench: unknown ablation %q", which)
	}
}

// runBackpressure contrasts unbounded concurrent producers (real
// OpenTSDB applies no backpressure toward HBase: RegionServer RPC
// queues overflow until servers crash) against the same load pushed
// through the buffering proxy, whose bounded in-flight window keeps
// queue depth under the RegionServers' capacity. It wires the stack by
// hand, not through sentinel.NewStorage: the ablation needs fail-fast
// TSDs (OpenTSDB's missing backpressure), which no runtime runs.
func runBackpressure(nodes int, emulatedRate, seconds float64, units, sensors int) {
	const writers = 128
	for _, buffered := range []bool{false, true} {
		cluster, err := hbase.NewCluster(hbase.Config{
			RegionServers:    nodes,
			ServiceRatePerRS: emulatedRate,
			RSQueueCap:       8,
			CrashOnOverflow:  64,
		})
		if err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		deploy, err := tsdb.NewDeployment(cluster, nodes, tsdb.TSDConfig{
			SaltBuckets: nodes,
			Workers:     writers, // the TSD tier itself is not the bottleneck
			QueueCap:    writers * 4,
			FailFast:    true, // OpenTSDB gives HBase no backpressure
		})
		if err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		if err := deploy.CreateTable(); err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		fleet := simdata.NewFleet(simdata.Config{Units: units, SensorsPerUnit: sensors, Seed: 42})
		var delivered, failed int64
		if buffered {
			// Proxy bounds concurrency below the RS queue capacity.
			px, err := proxy.New(cluster.Network(), deploy.Addrs(), proxy.Config{MaxInFlight: nodes})
			if err != nil {
				log.Fatalf("tsdbench: %v", err)
			}
			driver := ingest.NewDriver(fleet, px, ingest.DriverConfig{BatchSize: 500, Senders: writers})
			start := time.Now()
			for step := int64(0); time.Since(start).Seconds() < seconds; step++ {
				_, _ = driver.Run(step, 1)
			}
			px.Flush()
			delivered = px.Delivered.Value()
			failed = px.Dropped.Value()
			px.Close()
		} else {
			// Unbounded: every producer slams the TSD tier directly.
			var rr atomic.Uint64
			addrs := deploy.Addrs()
			sink := ingest.SinkFunc(func(pts []tsdb.Point) error {
				addr := addrs[int(rr.Add(1))%len(addrs)]
				_, err := cluster.Network().Call(context.Background(), addr, "put", &tsdb.PutBatch{Points: pts})
				return err
			})
			driver := ingest.NewDriver(fleet, sink, ingest.DriverConfig{BatchSize: 500, Senders: writers})
			start := time.Now()
			for step := int64(0); time.Since(start).Seconds() < seconds; step++ {
				stats, _ := driver.Run(step, 1)
				delivered += stats.Samples
				failed += stats.Failures
			}
		}
		crashed := 0
		for _, rs := range cluster.RegionServers() {
			if rs.Crashed() {
				crashed++
			}
		}
		fmt.Printf("  buffered=%-5v delivered=%10d  failed-batches=%6d  crashed-regionservers=%d/%d\n",
			buffered, delivered, failed, crashed, nodes)
		cluster.Stop()
	}
	fmt.Println("  (paper: without the proxy, RegionServers crashed from overloaded RPC queues)")
}

// runCompaction counts RPC calls with OpenTSDB row compaction on and
// off. It wires one TSD by hand, not through sentinel.NewStorage: the
// ablation toggles tsdb.TSDConfig.CompactionEnabled, which no runtime
// runs with.
func runCompaction(nodes, units, sensors int) {
	for _, enabled := range []bool{false, true} {
		cluster, err := hbase.NewCluster(hbase.Config{RegionServers: nodes})
		if err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		deploy, err := tsdb.NewDeployment(cluster, 1, tsdb.TSDConfig{SaltBuckets: nodes, CompactionEnabled: enabled})
		if err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		if err := deploy.CreateTable(); err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		tsd := deploy.TSDs()[0]
		fleet := simdata.NewFleet(simdata.Config{Units: units, SensorsPerUnit: sensors, Seed: 42})
		var pts []tsdb.Point
		for t := int64(0); t < 20; t++ {
			for u := 0; u < min(units, 5); u++ {
				for s := 0; s < min(sensors, 50); s++ {
					pts = append(pts, tsdb.EnergyPoint(u, s, t, fleet.Value(u, s, t)))
				}
			}
		}
		before := cluster.Network().Calls.Value()
		if err := tsd.Put(pts); err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		if _, err := tsd.CompactRows(1 << 40); err != nil {
			log.Fatalf("tsdbench: %v", err)
		}
		calls := cluster.Network().Calls.Value() - before
		fmt.Printf("  compaction=%-5v  RPC calls for %d samples: %d (%.3f calls/sample)\n",
			enabled, len(pts), calls, float64(calls)/float64(len(pts)))
		cluster.Stop()
	}
	fmt.Println("  (paper: compaction was disabled to reduce RPC calls to HBase)")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
