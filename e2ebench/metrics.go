package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end metrics only
}

// endToEnd lists the metrics an untraced run prints, for every
// workload. Each has a workload-specific meaning, documented in
// README.md: an "op" is a stored sample on ingest and live, and a
// rendered view on dashboard.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.2},
	{"latency_p50_ms", "ms", "lower", 0.2},
	{"cpu_us_per_op", "us", "lower", 0.2},
	{"heap_bytes_per_sample", "B", "lower", 0.2},
	{"alarm_precision", "ratio", "higher", 0.05},
	{"alarm_recall", "ratio", "higher", 0.05},
}

// perLayer lists the metrics a traced run prints, for every workload.
// A layer the workload does not exercise reports 0. The live
// workload's generator lateness and overview latency are on its detail
// line instead: live is not among the gated workloads (see README.md).
var perLayer = []metricDef{
	{Name: "api.put_server_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.view_server_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.view_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.client_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.errors", Unit: "count", Better: "lower"},
	{Name: "api.tail_events", Unit: "count", Better: "higher"},
	{Name: "api.tail_dropped", Unit: "count", Better: "lower"},
	{Name: "bus.publish_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bus.publish_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "bus.storage_lag_max", Unit: "records", Better: "lower"},
	{Name: "bus.detector_lag_max", Unit: "records", Better: "lower"},
	{Name: "bus.polled_per_published", Unit: "ratio", Better: "lower"},
	{Name: "ingest.points_delivered", Unit: "count", Better: "higher"},
	{Name: "ingest.parks", Unit: "count", Better: "lower"},
	{Name: "proxy.queue_depth_max", Unit: "batches", Better: "lower"},
	{Name: "proxy.retries", Unit: "count", Better: "lower"},
	{Name: "rpc.calls", Unit: "count", Better: "lower"},
	{Name: "rpc.queue_overflows", Unit: "count", Better: "lower"},
	{Name: "rpc.tsd_queue_depth_max", Unit: "calls", Better: "lower"},
	{Name: "tsdb.put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "tsdb.query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "tsdb.samples_returned_per_view", Unit: "count", Better: "lower"},
	{Name: "tsdb.read_amplification", Unit: "ratio", Better: "lower"},
	{Name: "hbase.cells_written", Unit: "count", Better: "higher"},
	{Name: "hbase.scans", Unit: "count", Better: "lower"},
	{Name: "hbase.flushes", Unit: "count", Better: "lower"},
	{Name: "query.cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "query.subqueries_per_query", Unit: "ratio", Better: "lower"},
	{Name: "detect.batches", Unit: "count", Better: "higher"},
	{Name: "detect.samples_evaluated", Unit: "count", Better: "higher"},
	{Name: "detect.flags_written", Unit: "count", Better: "lower"},
	{Name: "detect.errors", Unit: "count", Better: "lower"},
	{Name: "detect.parks", Unit: "count", Better: "lower"},
	{Name: "detect.alert_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "detect.alert_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "go.allocs_per_sample", Unit: "count", Better: "lower"},
	{Name: "go.allocs_per_view", Unit: "count", Better: "lower"},
	{Name: "go.sched_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.boot_s", Unit: "s", Better: "lower"},
	{Name: "setup.preload_s", Unit: "s", Better: "lower"},
	{Name: "setup.train_s", Unit: "s", Better: "lower"},
	{Name: "tracing_overhead", Unit: "ratio", Better: "lower"},
}

// workloadDef names one workload.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is the schema of BENCHMARK.json at the repository
// root; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eEntry    `json:"end_to_end"`
	PerLayer   []layerEntry  `json:"per_layer"`
}

type e2eEntry struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// parseBenchmarkFile decodes and validates BENCHMARK.json.
func parseBenchmarkFile(data []byte) (*benchmarkFile, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("decode BENCHMARK.json: %w", err)
	}
	return &f, f.validate()
}

func (f *benchmarkFile) validate() error {
	if len(f.Command) == 0 || len(f.Command) > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", len(f.Command))
	}
	if len(f.Paths) == 0 || len(f.Paths) > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", len(f.Paths))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per_layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !validName(name) {
			return fmt.Errorf("invalid name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range f.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	check := func(name, unit, better string) error {
		if err := use(name); err != nil {
			return err
		}
		if !validUnit(unit) {
			return fmt.Errorf("metric %s: invalid unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher", name)
		}
		return nil
	}
	setup := false
	for _, m := range f.EndToEnd {
		if err := check(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end lacks setup_s (s, lower)")
	}
	for _, m := range f.PerLayer {
		if err := check(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}
