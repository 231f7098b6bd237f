package api

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/admission"
	v1 "repro/internal/api/v1"
	"repro/internal/bus"
	"repro/internal/hbase"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
	"repro/internal/viz"
)

// putBody is the hot-path payload: one point, the minimal ingest unit.
const putBody = `[{"metric":"energy","timestamp":11,"value":3.5,"tags":{"unit":"1","sensor":"2"}}]`

func benchTopic(b *testing.B) *bus.Topic {
	b.Helper()
	// No consumer groups attached: the topic is a plain log, publishes
	// never block on backpressure, and the benchmark measures the HTTP
	// path rather than the drain rate.
	broker := bus.New(bus.Config{Partitions: 4})
	b.Cleanup(broker.Close)
	return broker.Topic("energy")
}

// BenchmarkGatewayPutPathAdmission is the ingest edge with the
// overload controller in the chain: the admitted-path cost of the
// admission stage must be invisible (two atomic loads, the latency
// EWMA feed) — it shares BenchmarkGatewayPutPath's ALLOC_PINS prefix,
// so a controller that starts allocating per request fails the gate.
func BenchmarkGatewayPutPathAdmission(b *testing.B) {
	gw := New(Config{
		Publisher: &BusPublisher{Topic: bus.LocalTopic{Topic: benchTopic(b)}},
		Registry:  telemetry.NewRegistry(),
		AccessLog: testLogger(),
		Admission: admission.NewController(admission.Config{
			Signals: []admission.Signal{{Name: "idle", Load: func() int64 { return 0 }, Limit: 1 << 20}},
		}),
	})
	for i := 0; i < 64; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		gw.ServeHTTP(httptest.NewRecorder(), req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d (%s)", rec.Code, rec.Body)
		}
	}
}

// BenchmarkGatewayPutPath measures the full v1 ingest edge: routing,
// the complete standard middleware chain, body parse, per-unit
// grouping and the bus publish. Its allocs/op is pinned in ALLOC_PINS
// so a new middleware cannot silently tax ingestion — compare
// BenchmarkIngestPutBaseline for the chain's overhead.
func BenchmarkGatewayPutPath(b *testing.B) {
	gw := New(Config{
		Publisher: &BusPublisher{Topic: bus.LocalTopic{Topic: benchTopic(b)}},
		Registry:  telemetry.NewRegistry(),
		AccessLog: testLogger(),
	})
	// Warm the wrapper pools and per-route instruments so the pin
	// measures the steady state the ingest edge actually runs at.
	for i := 0; i < 64; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		gw.ServeHTTP(httptest.NewRecorder(), req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/api/v1/points", strings.NewReader(putBody))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d (%s)", rec.Code, rec.Body)
		}
	}
}

// BenchmarkIngestPutBaseline is the pre-gateway ingestd handler shape
// — read, parse, publish, 204 — under the same harness, the reference
// the put-path pin is judged against (the acceptance criterion allows
// the chain one attributable allocation per layer over this).
func BenchmarkIngestPutBaseline(b *testing.B) {
	topic := benchTopic(b)
	h := func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		points, err := ingest.ParseJSON(body)
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		for key, batch := range ingest.GroupByUnit(points) {
			if _, err := topic.Publish(r.Context(), key, batch); err != nil {
				http.Error(w, err.Error(), 503)
				return
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/api/put", strings.NewReader(putBody))
		rec := httptest.NewRecorder()
		h(rec, req)
		if rec.Code != 204 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkGatewayCachedQuery measures the read hot path: a repeated
// identical window query served from the query tier's cache through
// the full middleware chain and JSON encoding.
func BenchmarkGatewayCachedQuery(b *testing.B) {
	cluster, err := hbase.NewCluster(hbase.Config{RegionServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cluster.Stop)
	d, err := tsdb.NewDeployment(cluster, 1, tsdb.TSDConfig{SaltBuckets: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CreateTable(); err != nil {
		b.Fatal(err)
	}
	var pts []tsdb.Point
	for ts := int64(0); ts < 300; ts++ {
		pts = append(pts, tsdb.EnergyPoint(1, 2, ts, float64(ts%17)))
	}
	if err := d.TSDs()[0].Put(pts); err != nil {
		b.Fatal(err)
	}
	engine := query.NewFromDeployment(d, query.Config{MaxEntries: 64})
	gw := New(Config{
		Backend:   &viz.Backend{Q: engine, Units: 2, Sensors: 4},
		Query:     engine,
		Registry:  telemetry.NewRegistry(),
		Now:       func() int64 { return 299 },
		AccessLog: testLogger(),
	})
	const path = "/api/v1/query?unit=1&sensor=2&from=0&to=299"
	// Warm the window cache.
	warm := httptest.NewRecorder()
	gw.ServeHTTP(warm, httptest.NewRequest("GET", path, nil))
	if warm.Code != 200 {
		b.Fatalf("warmup = %d", warm.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkGatewayMachineView records the compression trade on the
// dashboard's main read: one machine view of 50 sensors × 60 samples
// (~120 KB of JSON at full float precision, pre-encoded so only the
// compression is timed) through the Gzip middleware. It reports the
// compressed size next to ns/op, the two sides of the pool's
// compression level.
func BenchmarkGatewayMachineView(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	view := v1.MachineView{Unit: 3, Status: "ok", Sensors: make([]v1.SensorSeries, 50)}
	for s := range view.Sensors {
		ss := v1.SensorSeries{Sensor: s, Samples: make([]v1.Sample, 60), Anomalies: []v1.Sample{}}
		for i := range ss.Samples {
			ss.Samples[i] = v1.Sample{Timestamp: 1_700_000_000 + int64(i), Value: 500 + 20*rng.NormFloat64()}
		}
		ss.Latest = ss.Samples[59].Value
		view.Sensors[s] = ss
	}
	body, err := json.Marshal(view)
	if err != nil {
		b.Fatal(err)
	}
	h := Gzip()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", v1.ContentTypeJSON)
		_, _ = w.Write(body)
	}))
	var compressed int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("GET", "/api/v1/machines/3", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		compressed = rec.Body.Len()
	}
	b.ReportMetric(float64(len(body)), "json-B")
	b.ReportMetric(float64(compressed), "gzip-B")
}
