// Command e2ebench is the repository's end-to-end benchmark. It boots
// one in-process sentinel.System the way the daemons run it, drives
// its gateway over loopback HTTP with the sentinel/client SDK, checks
// every output against the generator, and prints one JSON result.
//
//	bash e2ebench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and the traced mode are described in README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "ingest, dashboard or live")
	seed := flag.Uint64("seed", 1, "seed of the traffic drawn over the fixed dataset")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	if err := benchMain(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func benchMain(workload string, seed uint64, seconds, trace int) error {
	switch workload {
	case "ingest", "dashboard", "live":
	default:
		return fmt.Errorf("unknown workload %q (want ingest, dashboard or live)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+150*time.Second)
	defer cancel()
	rep, err := execute(ctx, workload, seed, time.Duration(seconds)*time.Second, trace == 1)
	if err != nil {
		return err
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "e2ebench: failed:", f)
	}
	info := map[string]any{"env": environment(workload, seed, seconds, trace), "detail": rep.detail}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]reportedMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type reportedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment records what the result was measured on.
func environment(workload string, seed uint64, seconds, trace int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
