package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(ramp(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports no percentile")
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(100, 0)
	s := schedule{start: start, rate: 400}
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got := s.due(1).Sub(start); got != 2500*time.Microsecond {
		t.Errorf("due(1) is %v after the start, want 2.5ms", got)
	}
	if got := s.due(400).Sub(start); got != time.Second {
		t.Errorf("due(400) is %v after the start, want 1s", got)
	}
	// Operations due strictly before the end are the ones sent.
	if got := s.count(start.Add(time.Second)); got != 400 {
		t.Errorf("count(1s) = %d, want 400", got)
	}
	if got := s.count(start.Add(time.Second + time.Nanosecond)); got != 401 {
		t.Errorf("count(1s+1ns) = %d, want 401", got)
	}
	if got := s.count(start.Add(-time.Second)); got != 0 {
		t.Errorf("count before the start = %d, want 0", got)
	}
}

func TestLatenessAccounting(t *testing.T) {
	var l lateness
	due := time.Unix(0, 0)
	l.record(due, due.Add(-time.Millisecond))   // early: waited, not late
	l.record(due, due.Add(lateThreshold))       // at the threshold: on time
	l.record(due, due.Add(lateThreshold+1))     // just past it: late
	l.record(due, due.Add(40*time.Millisecond)) // stalled
	if got := l.frac(); got != 0.5 {
		t.Errorf("late fraction = %v, want 0.5", got)
	}
	want := []float64{0, 1, 1.000001, 40}
	if got := l.by.sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("lateness = %v ms, want %v", got, want)
	}
	var empty lateness
	if empty.frac() != 0 {
		t.Error("no sends should read as never late")
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "api.put_server_ms_p50", "go.gc_cpu_frac", "7d", "a-b", strings.Repeat("x", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false, want true", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "ü", strings.Repeat("x", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true, want false", s)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(m.Name) || !validUnit(m.Unit) {
			t.Errorf("metric %s has an invalid name or unit %q", m.Name, m.Unit)
		}
	}
}

// TestBenchmarkFile checks BENCHMARK.json against its schema, checks it
// lists exactly the metrics this program prints, and round-trips it.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseBenchmarkFile(data)
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end = %+v\nprogram prints %+v", e2e, endToEnd)
	}
	var layer []metricDef
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer = %+v\nprogram prints %+v", layer, perLayer)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"ingest", "dashboard"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, want %v", names, want)
	}
	out, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	again, err := parseBenchmarkFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, again) {
		t.Errorf("round trip changed the file:\n%+v\n%+v", f, again)
	}
}

func TestBenchmarkFileRejects(t *testing.T) {
	good, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(map[string]any){
		"unknown key":  func(m map[string]any) { m["extra"] = 1 },
		"bound > 0.25": func(m map[string]any) { m["end_to_end"].([]any)[0].(map[string]any)["bound"] = 0.5 },
		"bad name":     func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["name"] = "a b" },
		"one workload": func(m map[string]any) { m["workloads"] = m["workloads"].([]any)[:1] },
		"run_seconds":  func(m map[string]any) { m["run_seconds"] = 61 },
		"no setup_s":   func(m map[string]any) { m["end_to_end"] = m["end_to_end"].([]any)[1:] },
	}
	for name, mutate := range bad {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseBenchmarkFile(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 25}}, 15},
		{[][2]int64{{5, 15}, {0, 10}}, 15},
		{[][2]int64{{0, 30}, {5, 10}}, 30},
	}
	for _, c := range cases {
		if got := covered(c.ivs); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestAnalyzeSelfTimeAndClientOverhead(t *testing.T) {
	const m = int64(time.Millisecond)
	spans := []span{
		{Trace: 1, ID: 1, Name: spanClient + ".view", Start: 0, End: 12 * m},
		{Trace: 1, ID: 2, Parent: 1, Name: spanHTTP + ".view", Start: 1 * m, End: 11 * m},
		{Trace: 1, ID: 3, Parent: 2, Name: spanQuery, Start: 2 * m, End: 6 * m},
		{Trace: 1, ID: 4, Parent: 2, Name: spanQuery, Start: 4 * m, End: 8 * m},
		{Trace: 1, ID: 5, Parent: 3, Name: spanTSDGet, Start: 3 * m, End: 5 * m},
	}
	st := analyze(spans)
	if got := st.viewSelf.sorted(); !reflect.DeepEqual(got, []float64{4}) {
		t.Errorf("view self time = %v ms, want [4]", got)
	}
	if got := st.clientOverhead.sorted(); !reflect.DeepEqual(got, []float64{2}) {
		t.Errorf("client overhead = %v ms, want [2]", got)
	}
	if got := st.p(spanTSDGet, 0.5); got != 2 {
		t.Errorf("tsdb.query p50 = %v ms, want 2", got)
	}
}

func TestRowOrder(t *testing.T) {
	r := &run{seed: 7}
	seen := map[[2]int64]bool{}
	for i := int64(0); i < 3*units; i++ {
		u, ts := r.rowAt(i)
		if want := trainSteps + i/units; ts != want {
			t.Errorf("row %d at fleet-second %d, want %d", i, ts, want)
		}
		if seen[[2]int64{int64(u), ts}] {
			t.Errorf("row %d repeats unit %d at %d", i, u, ts)
		}
		seen[[2]int64{int64(u), ts}] = true
		if got := r.rowIndex(u, ts); got != i {
			t.Errorf("rowIndex(rowAt(%d)) = %d", i, got)
		}
	}
	if r.rowIndex(units, trainSteps) < units {
		t.Error("an unknown unit must map past its fleet-second")
	}
	other := &run{seed: 8}
	same := true
	for ts := int64(trainSteps); ts < trainSteps+5; ts++ {
		same = same && reflect.DeepEqual(unitOrder(r.seed, ts), unitOrder(other.seed, ts))
	}
	if same {
		t.Error("different seeds should send units in different orders")
	}
}
