package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/rpc"
	"repro/internal/tsdb"
	"repro/sentinel"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program.
const (
	spanClient  = "client"       // the SDK call, as the client sees it
	spanHTTP    = "http"         // the gateway handler (suffixed with the route kind)
	spanPublish = "bus.publish"  // api.Publisher: group by unit, publish to the log
	spanQuery   = "query.engine" // api.Querier / viz.Querier: the query tier
	spanTSDPut  = "tsdb.put"     // rpc handler → TSD.PutContext
	spanTSDGet  = "tsdb.query"   // rpc handler → TSD.QueryContext
)

// maxSpans bounds the spans one run keeps in memory.
const maxSpans = 1 << 20

// span is one timed interval at a layer boundary. Spans of one
// request share Trace; Parent is the span that caused this one.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans while on; off, every hook is one atomic load.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	ids     atomic.Uint64
	httpErr atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// ref identifies a span to its children.
type ref struct{ trace, id uint64 }

// begin opens a span under the span carried by ctx (a new trace when
// there is none). It returns ctx unchanged and a nil span when off.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *span) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	s := &span{ID: t.ids.Add(1), Name: name, Start: int64(time.Since(t.epoch))}
	if p, ok := ctx.Value(spanKey{}).(ref); ok {
		s.Trace, s.Parent = p.trace, p.id
	} else {
		s.Trace = s.ID
	}
	return context.WithValue(ctx, spanKey{}, ref{s.Trace, s.ID}), s
}

// end closes and keeps s (a nil span is ignored).
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, *s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot returns the spans kept so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the kept spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceHeader carries "<trace>-<parent>" from the client to the
// gateway, so server spans join the client's trace.
const traceHeader = "X-Bench-Span"

// tracingTransport stamps the caller's span onto each request.
type tracingTransport struct{ next http.RoundTripper }

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p, ok := req.Context().Value(spanKey{}).(ref); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, strconv.FormatUint(p.trace, 10)+"-"+strconv.FormatUint(p.id, 10))
	}
	return tt.next.RoundTrip(req)
}

// routeKind groups gateway routes the way the metrics report them.
func routeKind(path string) string {
	switch {
	case path == "/api/v1/points":
		return "put"
	case path == "/api/v1/anomalies/top":
		return "overview"
	case strings.HasPrefix(path, "/api/v1/machines/"), path == "/api/v1/query":
		return "view"
	}
	return "other"
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handler wraps the gateway in a server span per request.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		ctx := r.Context()
		if tr, id, ok := strings.Cut(r.Header.Get(traceHeader), "-"); ok {
			a, err1 := strconv.ParseUint(tr, 10, 64)
			b, err2 := strconv.ParseUint(id, 10, 64)
			if err1 == nil && err2 == nil {
				ctx = context.WithValue(ctx, spanKey{}, ref{a, b})
			}
		}
		ctx, s := t.begin(ctx, spanHTTP+"."+routeKind(r.URL.Path))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		t.end(s)
		if sw.code >= 300 {
			t.httpErr.Add(1)
		}
	})
}

// tracedPublisher times api.Publisher calls.
type tracedPublisher struct {
	next api.Publisher
	tr   *tracer
}

func (p *tracedPublisher) PublishPoints(ctx context.Context, points []tsdb.Point) (int, error) {
	ctx, s := p.tr.begin(ctx, spanPublish)
	n, err := p.next.PublishPoints(ctx, points)
	p.tr.end(s)
	return n, err
}

// tracedQuerier times api.Querier (and viz.Querier) calls.
type tracedQuerier struct {
	next api.Querier
	tr   *tracer
}

func (q *tracedQuerier) QueryContext(ctx context.Context, query tsdb.Query) ([]tsdb.Series, error) {
	ctx, s := q.tr.begin(ctx, spanQuery)
	out, err := q.next.QueryContext(ctx, query)
	q.tr.end(s)
	return out, err
}

// tsdQueueCap and tsdWorkers are the TSD tier's rpc server defaults
// (tsdb.TSDConfig), which the timing handlers keep.
const (
	tsdQueueCap = 1024
	tsdWorkers  = 4
)

// instrumentTSDs re-registers every TSD's rpc address with a handler
// that dispatches the TSD's methods exactly as its own does, inside a
// span. Call it before any traffic: re-registering replaces the
// original server.
func (t *tracer) instrumentTSDs(sys *sentinel.System) error {
	net := sys.Cluster.Network()
	addrs := sys.TSDB.Addrs()
	for i, d := range sys.TSDB.TSDs() {
		d := d
		h := func(ctx context.Context, method string, payload any) (any, error) {
			switch method {
			case "put":
				ctx, s := t.begin(ctx, spanTSDPut)
				err := d.PutContext(ctx, payload.(*tsdb.PutBatch).Points)
				t.end(s)
				return nil, err
			case "query":
				ctx, s := t.begin(ctx, spanTSDGet)
				series, err := d.QueryContext(ctx, payload.(*tsdb.QueryRequest).Query)
				t.end(s)
				if err != nil {
					return nil, err
				}
				return &tsdb.QueryResponse{Series: series}, nil
			case "compact":
				return d.CompactRowsContext(ctx, payload.(int64))
			}
			return nil, fmt.Errorf("%s: unknown method %q", d.Name(), method)
		}
		if _, err := net.Register(addrs[i], h, rpc.ServerConfig{QueueCap: tsdQueueCap, Workers: tsdWorkers}); err != nil {
			return fmt.Errorf("instrument %s: %w", addrs[i], err)
		}
	}
	return nil
}

// spanStats derives the span-based per-layer figures.
type spanStats struct {
	byName         map[string]*samples
	viewSelf       samples // http.view minus its query.engine children
	clientOverhead samples // client span minus the server span it caused
}

func analyze(spans []span) *spanStats {
	st := &spanStats{byName: map[string]*samples{}}
	children := map[uint64][]span{}
	server := map[uint64]span{} // by parent (the client span)
	for i := range spans {
		s := &spans[i]
		if st.byName[s.Name] == nil {
			st.byName[s.Name] = &samples{}
		}
		st.byName[s.Name].add(s.dur())
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], *s)
		}
		if strings.HasPrefix(s.Name, spanHTTP+".") && s.Parent != 0 {
			server[s.Parent] = *s
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Name == spanHTTP+".view":
			var ivs [][2]int64
			for _, c := range children[s.ID] {
				if c.Name == spanQuery {
					ivs = append(ivs, [2]int64{c.Start, c.End})
				}
			}
			st.viewSelf.add(s.dur() - float64(covered(ivs))/1e6)
		case strings.HasPrefix(s.Name, spanClient+"."):
			if srv, ok := server[s.ID]; ok {
				st.clientOverhead.add(s.dur() - srv.dur())
			}
		}
	}
	return st
}

// p returns the q-quantile of the named span's durations in ms (0
// when there are none).
func (st *spanStats) p(name string, q float64) float64 {
	s := st.byName[name]
	if s == nil {
		return 0
	}
	v, _ := percentile(s.sorted(), q)
	return v
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	started := false
	for _, iv := range ivs {
		switch {
		case !started || iv[0] > end:
			total += iv[1] - iv[0]
			end = iv[1]
			started = true
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}
