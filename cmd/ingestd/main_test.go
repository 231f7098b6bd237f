package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/sentinel"
)

// testLogger silences gateway access logs in tests.
func testLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// startStack boots a small ingestd pipeline through newStack, the
// constructor main uses.
func startStack(t *testing.T) *stack {
	t.Helper()
	st, err := newStack(stackConfig{
		storage:    sentinel.Config{StorageNodes: 2},
		partitions: 4,
		workers:    2,
		query:      query.Config{MaxEntries: 64},
		gateway:    api.Config{AccessLog: testLogger()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.stop)
	return st
}

// testStack boots the full ingestd pipeline — bus topic → storage
// writers → proxy → TSD tier, fronted by the /api/v1 gateway. flush
// blocks until everything published has reached storage.
func testStack(t *testing.T) (gw *api.Gateway, topic *bus.Topic, deploy *tsdb.Deployment, engine *query.Engine, flush func()) {
	t.Helper()
	st := startStack(t)
	flush = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := st.group.Sync(ctx); err != nil {
			t.Fatalf("storage group never drained: %v", err)
		}
		st.Proxy.Flush()
	}
	return st.gw, st.topic, st.TSDB, st.engine, flush
}

func do(t *testing.T, gw http.Handler, method, path, body, contentType string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	return rec
}

func TestPutJSONEndpoint(t *testing.T) {
	gw, _, deploy, _, flush := testStack(t)
	body := `[{"metric":"energy","timestamp":11,"value":3.5,"tags":{"unit":"1","sensor":"2"}}]`
	rec := do(t, gw, "POST", "/api/v1/points", body, "application/json")
	if rec.Code != 200 {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"accepted":1`) {
		t.Fatalf("body = %s", rec.Body)
	}
	flush()
	series, err := deploy.TSDs()[0].Query(tsdb.Query{Metric: "energy", Tags: tsdb.EnergyTags(1, 2), Start: 0, End: 100})
	if err != nil || len(series) != 1 || series[0].Samples[0].Value != 3.5 {
		t.Fatalf("stored = %+v, %v", series, err)
	}
	// Errors: wrong method is 405; a bad body is a 400 envelope.
	if rec = do(t, gw, "GET", "/api/v1/points", "", ""); rec.Code != 405 {
		t.Fatalf("GET status = %d", rec.Code)
	}
	for _, body := range []string{
		"{bad",
		// Past the storable range: the row key's uint32 hour base would
		// wrap. Both JSON shapes must refuse it before the ack.
		`[{"metric":"energy","timestamp":4294967296,"value":1,"tags":{"unit":"1","sensor":"2"}}]`,
		`{"points":[{"metric":"energy","timestamp":4294967296,"value":1,"tags":{"unit":"1","sensor":"2"}}]}`,
		`{"points":[{"metric":"energy","timestamp":5,"value":1,"tags":{}}]}`,
	} {
		rec = do(t, gw, "POST", "/api/v1/points", body, "application/json")
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), `"code":"bad_request"`) {
			t.Fatalf("bad body %q: status = %d (%s)", body, rec.Code, rec.Body)
		}
	}
}

// TestLegacyPutShims proves the pre-v1 URLs still serve, marked
// deprecated, with their historical 204 answer.
func TestLegacyPutShims(t *testing.T) {
	gw, _, deploy, _, flush := testStack(t)
	rec := do(t, gw, "POST", "/api/put",
		`{"metric":"energy","timestamp":12,"value":1.5,"tags":{"unit":"3","sensor":"1"}}`, "application/json")
	if rec.Code != 204 {
		t.Fatalf("legacy put status = %d (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Deprecation") != "true" {
		t.Fatal("legacy put not marked deprecated")
	}
	if !strings.Contains(rec.Header().Get("Link"), "/api/v1/points") {
		t.Fatalf("legacy put Link = %q", rec.Header().Get("Link"))
	}
	rec = do(t, gw, "POST", "/api/put/line", "put energy 20 1.25 unit=4 sensor=5\n\nput energy 21 1.5 unit=4 sensor=5\n", "")
	if rec.Code != 204 {
		t.Fatalf("legacy line status = %d (%s)", rec.Code, rec.Body)
	}
	flush()
	series, err := deploy.TSDs()[0].Query(tsdb.Query{Metric: "energy", Tags: tsdb.EnergyTags(4, 5), Start: 0, End: 100})
	if err != nil || len(series) != 1 || len(series[0].Samples) != 2 {
		t.Fatalf("stored = %+v, %v", series, err)
	}
	if rec = do(t, gw, "POST", "/api/put/line", "bogus line\n", ""); rec.Code != 400 {
		t.Fatalf("bad line status = %d", rec.Code)
	}
}

// TestPutLinesV1 covers the text/plain spelling of the v1 write path.
func TestPutLinesV1(t *testing.T) {
	gw, _, deploy, _, flush := testStack(t)
	rec := do(t, gw, "POST", "/api/v1/points", "put energy 30 2.25 unit=6 sensor=0\n", "text/plain")
	if rec.Code != 200 {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	flush()
	series, err := deploy.TSDs()[0].Query(tsdb.Query{Metric: "energy", Tags: tsdb.EnergyTags(6, 0), Start: 0, End: 100})
	if err != nil || len(series) != 1 {
		t.Fatalf("stored = %+v, %v", series, err)
	}
}

// TestLegacyQueryFormatPreserved pins the pre-v1 /api/query contract:
// `to` required, hand-rolled [{"series":…,"samples":[[t,v]]}] body —
// now served through the cached query tier.
func TestLegacyQueryFormatPreserved(t *testing.T) {
	gw, _, deploy, _, _ := testStack(t)
	if err := deploy.TSDs()[0].Put([]tsdb.Point{tsdb.EnergyPoint(7, 8, 30, 9.75)}); err != nil {
		t.Fatal(err)
	}
	rec := do(t, gw, "GET", "/api/query?unit=7&sensor=8&from=0&to=100", "", "")
	if rec.Code != 200 {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	out := rec.Body.String()
	if !strings.Contains(out, "energy{sensor=8,unit=7}") || !strings.Contains(out, "[30,9.75]") {
		t.Fatalf("query body = %s", out)
	}
	if rec.Header().Get("Deprecation") != "true" {
		t.Fatal("legacy query not marked deprecated")
	}
	// Missing 'to' is a client error.
	if rec = do(t, gw, "GET", "/api/query?unit=7", "", ""); rec.Code != 400 {
		t.Fatalf("missing to status = %d", rec.Code)
	}
}

// TestQueryServedFromCacheNotTSD is the regression test for the old
// /api/query handler bypassing the query tier: a repeated identical
// query must be a cache hit — zero additional TSD scans.
func TestQueryServedFromCacheNotTSD(t *testing.T) {
	gw, _, deploy, engine, flush := testStack(t)
	body := `[{"metric":"energy","timestamp":40,"value":2.5,"tags":{"unit":"1","sensor":"0"}},
	          {"metric":"energy","timestamp":41,"value":2.75,"tags":{"unit":"1","sensor":"0"}}]`
	if rec := do(t, gw, "POST", "/api/v1/points", body, "application/json"); rec.Code != 200 {
		t.Fatalf("put status = %d", rec.Code)
	}
	flush()
	const url = "/api/v1/query?unit=1&sensor=0&from=0&to=100"
	rec := do(t, gw, "GET", url, "", "")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"v":2.75`) {
		t.Fatalf("first query = %d (%s)", rec.Code, rec.Body)
	}
	scans := deploy.QueriesServed()
	hits := engine.CacheHits.Value()
	rec = do(t, gw, "GET", url, "", "")
	if rec.Code != 200 {
		t.Fatalf("repeat query = %d", rec.Code)
	}
	if got := deploy.QueriesServed(); got != scans {
		t.Fatalf("repeated query hit storage: %d → %d TSD scans (query tier bypassed)", scans, got)
	}
	if engine.CacheHits.Value() <= hits {
		t.Fatal("repeated query did not hit the window cache")
	}
	// The legacy shim shares the same engine and cache.
	scans = deploy.QueriesServed()
	if rec = do(t, gw, "GET", "/api/query?unit=1&sensor=0&from=0&to=100", "", ""); rec.Code != 200 {
		t.Fatalf("legacy query = %d", rec.Code)
	}
	if got := deploy.QueriesServed(); got != scans {
		t.Fatalf("legacy query bypassed the cache: %d → %d TSD scans", scans, got)
	}
}

// TestMetricsUnified proves both metrics paths serve the registry
// exposition (the hand-rolled /metrics writer is gone).
func TestMetricsUnified(t *testing.T) {
	gw, _, _, _, flush := testStack(t)
	if rec := do(t, gw, "POST", "/api/v1/points",
		`[{"metric":"energy","timestamp":1,"value":1,"tags":{"unit":"0","sensor":"0"}}]`, "application/json"); rec.Code != 200 {
		t.Fatalf("put = %d", rec.Code)
	}
	flush()
	for _, path := range []string{"/api/v1/metrics", "/metrics"} {
		rec := do(t, gw, "GET", path, "", "")
		if rec.Code != 200 {
			t.Fatalf("%s status = %d", path, rec.Code)
		}
		body := rec.Body.String()
		for _, want := range []string{"bus_published 1", "proxy_accepted 1", "http_requests"} {
			if !strings.Contains(body, want) {
				t.Fatalf("%s missing %q:\n%s", path, want, body)
			}
		}
	}
	// The legacy path is a shim: deprecated, pointing at v1.
	rec := do(t, gw, "GET", "/metrics", "", "")
	if rec.Header().Get("Deprecation") != "true" {
		t.Fatal("legacy /metrics not marked deprecated")
	}
}

// TestReadyzDistinctFromHealthz: liveness always answers; readiness
// reflects the bus and storage checks main wires.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	st := startStack(t)
	ready := func(wantCode int) map[string]string {
		t.Helper()
		if rec := do(t, st.gw, "GET", "/healthz", "", ""); rec.Code != 200 {
			t.Fatalf("healthz = %d (liveness must not depend on readiness)", rec.Code)
		}
		rec := do(t, st.gw, "GET", "/readyz", "", "")
		if rec.Code != wantCode {
			t.Fatalf("readyz = %d, want %d (%s)", rec.Code, wantCode, rec.Body)
		}
		var resp v1.ReadyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		status := make(map[string]string)
		for _, c := range resp.Checks {
			status[c.Name] = c.Status
		}
		return status
	}
	if got := ready(200); got["bus"] != v1.ReadyOK || got["storage"] != v1.ReadyOK {
		t.Fatalf("fresh stack checks = %v", got)
	}
	// One tripped TSD circuit degrades storage without failing readiness.
	addrs := st.TSDB.Addrs()
	trip := func(addr string) {
		for b := st.Breakers.For(addr); b.State() == resilience.Closed; {
			b.Failure()
		}
	}
	trip(addrs[0])
	if got := ready(200); got["storage"] != v1.ReadyDegraded {
		t.Fatalf("one open circuit: checks = %v", got)
	}
	// A stopped bus fails readiness.
	st.broker.Close()
	if got := ready(503); got["bus"] != v1.ReadyDown || got["storage"] != v1.ReadyDegraded {
		t.Fatalf("bus closed: checks = %v", got)
	}
	// Every circuit open takes storage down too.
	for _, a := range addrs[1:] {
		trip(a)
	}
	if got := ready(503); got["storage"] != v1.ReadyDown {
		t.Fatalf("all circuits open: checks = %v", got)
	}
}

// TestPublishRoutesMixedUnits proves one HTTP request carrying many
// units fans out across partitions keyed by unit.
func TestPublishRoutesMixedUnits(t *testing.T) {
	gw, topic, deploy, _, flush := testStack(t)
	var sb strings.Builder
	for u := 0; u < 8; u++ {
		fmt.Fprintf(&sb, "put energy 40 2.5 unit=%d sensor=0\n", u)
	}
	rec := do(t, gw, "POST", "/api/v1/points", sb.String(), "text/plain")
	if rec.Code != 200 {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	touched := 0
	for p := 0; p < topic.Partitions(); p++ {
		if topic.HighWater(p) > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("8 units landed on %d partitions; want spread", touched)
	}
	flush()
	for u := 0; u < 8; u++ {
		series, err := deploy.TSDs()[0].Query(tsdb.Query{Metric: "energy", Tags: tsdb.EnergyTags(u, 0), Start: 0, End: 100})
		if err != nil || len(series) != 1 {
			t.Fatalf("unit %d: stored = %+v, %v", u, series, err)
		}
	}
}

// TestStorageMetricsMatchAcrossRuntimes: the in-process System, a
// store-role cluster node and ingestd build one storage stack, so each
// exposes the same storage metric names and has the sealed tier
// attached.
func TestStorageMetricsMatchAcrossRuntimes(t *testing.T) {
	parse := func(exposition string) map[string]bool {
		out := make(map[string]bool)
		for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
			out[strings.Fields(line)[0]] = true
		}
		return out
	}
	names := func(reg *telemetry.Registry) map[string]bool {
		var b strings.Builder
		reg.Expose(&b)
		return parse(b.String())
	}
	bare, err := sentinel.NewStorage(sentinel.Config{StorageNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	bare.RegisterMetrics(reg)
	bare.Close()
	want := names(reg)
	for _, n := range []string{"proxy_accepted", "proxy_queue_depth", "breakers_open", "blocks_sealed", "compactor_passes"} {
		if !want[n] {
			t.Fatalf("storage metrics lack %q: %v", n, want)
		}
	}

	sys, err := sentinel.New(sentinel.Config{StorageNodes: 1, Units: 1, SensorsPerUnit: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	sysReg := telemetry.NewRegistry()
	sys.RegisterMetrics(sysReg)

	node, err := sentinel.StartNode(sentinel.NodeConfig{
		Name:         "store",
		Roles:        []sentinel.Role{sentinel.RoleStore},
		ZKNode:       "store",
		StorageNodes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)

	st := startStack(t)
	rec := do(t, st.gw, "GET", "/api/v1/metrics", "", "")
	if rec.Code != 200 {
		t.Fatalf("ingestd metrics = %d", rec.Code)
	}

	runtimes := []struct {
		name    string
		storage *sentinel.Storage
		got     map[string]bool
	}{
		{"System", sys.Storage, names(sysReg)},
		{"store node", node.Storage, names(node.Registry())},
		{"ingestd", st.Storage, parse(rec.Body.String())},
	}
	for _, rt := range runtimes {
		if rt.storage.TSDB.BlockStore() == nil {
			t.Errorf("%s: no sealed tier attached", rt.name)
		}
		for n := range want {
			if !rt.got[n] {
				t.Errorf("%s: missing storage metric %q", rt.name, n)
			}
		}
	}
}
