package main

import (
	"bytes"
	"errors"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"bos/internal/engine"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// spans records durations by name. Safe for concurrent use.
type spans struct {
	mu sync.Mutex
	d  map[string]latencies
}

func (s *spans) add(name string, d time.Duration) {
	s.mu.Lock()
	if s.d == nil {
		s.d = map[string]latencies{}
	}
	s.d[name] = append(s.d[name], d)
	s.mu.Unlock()
}

// reset drops every recorded span (set-up traffic is not measured).
func (s *spans) reset() {
	s.mu.Lock()
	s.d = nil
	s.mu.Unlock()
}

// snapshot copies the recorded spans.
func (s *spans) snapshot() map[string]latencies {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]latencies, len(s.d))
	for k, v := range s.d {
		out[k] = append(latencies(nil), v...)
	}
	return out
}

// tracedBackend times every call into the engine from outside, at the
// server.Backend seam. It forwards every method unchanged, CompactAll too,
// so a traced server runs the same engine path as one built with
// server.Options.Engine.
type tracedBackend struct {
	inner server.Backend
	spans
}

func newTracedBackend(inner server.Backend) *tracedBackend {
	return &tracedBackend{inner: inner}
}

func (b *tracedBackend) since(name string, start time.Time) { b.add(name, time.Since(start)) }

func (b *tracedBackend) InsertGrouped(ints map[string][]tsfile.Point, floats map[string][]tsfile.FloatPoint) error {
	defer b.since("insert", time.Now())
	return b.inner.InsertGrouped(ints, floats)
}

// QueryEach, QueryFloats and QueryFilterEach stream their points into the
// HTTP response, so their spans include the CSV formatting of the reply.
func (b *tracedBackend) QueryEach(series string, minT, maxT int64, fn func(tsfile.Point) error) error {
	defer b.since("scan", time.Now())
	return b.inner.QueryEach(series, minT, maxT, fn)
}

func (b *tracedBackend) QueryFloats(series string, minT, maxT int64) ([]tsfile.FloatPoint, error) {
	defer b.since("scan", time.Now())
	return b.inner.QueryFloats(series, minT, maxT)
}

func (b *tracedBackend) QueryFilterEach(series string, minT, maxT, minV, maxV int64, fn func(tsfile.Point) error) error {
	defer b.since("filter", time.Now())
	return b.inner.QueryFilterEach(series, minT, maxT, minV, maxV, fn)
}

func (b *tracedBackend) Downsample(series string, minT, maxT, window int64) ([]engine.Bucket, error) {
	defer b.since("window", time.Now())
	return b.inner.Downsample(series, minT, maxT, window)
}

func (b *tracedBackend) Aggregate(series string, minT, maxT int64) (engine.Bucket, error) {
	defer b.since("aggregate", time.Now())
	return b.inner.Aggregate(series, minT, maxT)
}

func (b *tracedBackend) Series() ([]string, error) { return b.inner.Series() }

func (b *tracedBackend) SeriesKind(series string) (string, error) {
	return b.inner.SeriesKind(series)
}

func (b *tracedBackend) SeriesStats() ([]engine.SeriesStat, error) { return b.inner.SeriesStats() }

func (b *tracedBackend) Stats() (engine.Stats, error) {
	defer b.since("stats", time.Now())
	return b.inner.Stats()
}

func (b *tracedBackend) Flush() error {
	defer b.since("flush", time.Now())
	return b.inner.Flush()
}

func (b *tracedBackend) CompactAll() (engine.CompactStats, error) {
	defer b.since("compact", time.Now())
	c, ok := b.inner.(server.Compactor)
	if !ok {
		return engine.CompactStats{}, errors.New("backend does not support compaction")
	}
	return c.CompactAll()
}

// tracedHandler times each request the server handles, from the handler's
// entry to its return, by endpoint class.
type tracedHandler struct {
	inner http.Handler
	spans
}

func newTracedHandler(inner http.Handler) *tracedHandler { return &tracedHandler{inner: inner} }

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	switch r.URL.Path {
	case "/ingest":
		h.add("ingest", time.Since(start))
	case "/query", "/agg":
		h.add("query", time.Since(start))
	case "/stats":
		h.add("stats", time.Since(start))
	}
}

// tracer gathers a traced run's per-layer figures over its measured phase:
// the decorators' spans, /stats deltas, allocation and a CPU profile. On
// an untraced run it does nothing.
type tracer struct {
	st            *stack
	prof          bytes.Buffer
	before, after statsDoc
	alloc0, alloc uint64 // runtime.MemStats.TotalAlloc at start, delta at stop
	handler       map[string]latencies
	backend       map[string]latencies
}

// startTrace begins tracing on a traced stack.
func startTrace(st *stack, on bool) (*tracer, error) {
	if !on {
		return nil, nil
	}
	t := &tracer{st: st}
	cl := &conn{hc: newHTTPClient(1), base: st.base}
	defer cl.hc.CloseIdleConnections()
	var err error
	if t.before, err = cl.getStats(); err != nil {
		return nil, err
	}
	st.tb.reset()
	st.th.reset()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc0 = ms.TotalAlloc
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, err
	}
	return t, nil
}

// stop ends the measured phase's trace.
func (t *tracer) stop() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc = ms.TotalAlloc - t.alloc0
	t.handler = t.st.th.snapshot()
	t.backend = t.st.tb.snapshot()
	cl := &conn{hc: newHTTPClient(1), base: t.st.base}
	defer cl.hc.CloseIdleConnections()
	var err error
	t.after, err = cl.getStats()
	return err
}

// report sets the per-layer metrics. points is the number of points the
// phase ingested and queries the number of queries it answered. Every
// metric is printed on every workload: one of a path the workload does not
// run reads 0.
func (t *tracer) report(rep *report, points, queries int64) error {
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return err
	}
	for layer, pct := range layerShares(samples) {
		rep.set("cpu."+layer+"_pct", "%", pct)
	}
	q := func(name, span string, l map[string]latencies, quant float64) {
		rep.set(name, "ms", l[span].quantile(quant))
	}
	ratio := func(name, unit string, num, den int64) {
		v := 0.0
		if den > 0 {
			v = float64(num) / float64(den)
		}
		rep.set(name, unit, v)
	}
	b, a := t.before, t.after
	rep.set("engine.files", "count", float64(a.Files))
	q("engine.stats_p50_ms", "stats", t.backend, 0.50)
	q("server.ingest_service_p50_ms", "ingest", t.handler, 0.50)
	q("engine.insert_p50_ms", "insert", t.backend, 0.50)
	q("engine.insert_p99_ms", "insert", t.backend, 0.99)
	ratio("server.batches_per_group", "batches/group", a.IngestBatches-b.IngestBatches, a.IngestGroups-b.IngestGroups)
	ratio("engine.wal_records_per_group", "records/group", a.WALRecords-b.WALRecords, a.WALGroups-b.WALGroups)
	ratio("alloc_bytes_per_point", "B/point", int64(t.alloc), points)
	q("server.query_service_p50_ms", "query", t.handler, 0.50)
	q("engine.scan_p50_ms", "scan", t.backend, 0.50)
	q("engine.window_p50_ms", "window", t.backend, 0.50)
	q("engine.filter_p50_ms", "filter", t.backend, 0.50)
	q("engine.aggregate_p50_ms", "aggregate", t.backend, 0.50)
	var compact float64
	for _, d := range t.backend["compact"] {
		compact += d.Seconds()
	}
	rep.set("engine.compact_s", "s", compact)
	rep.set("engine.compact_bytes_in", "B", float64(a.CompactedBytesIn-b.CompactedBytesIn))
	rep.set("engine.compact_bytes_out", "B", float64(a.CompactedBytesOut-b.CompactedBytesOut))
	rep.set("pushdown.stats_chunks", "count", float64(a.Pushdown.Stats-b.Pushdown.Stats))
	rep.set("pushdown.inlier_chunks", "count", float64(a.Pushdown.Inlier-b.Pushdown.Inlier))
	rep.set("pushdown.full_chunks", "count", float64(a.Pushdown.Full-b.Pushdown.Full))
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	ratio("cache.hit_rate", "ratio", hits, hits+misses)
	rep.set("cache.misses", "count", float64(misses))
	rep.set("cache.evictions", "count", float64(a.Cache.Evictions-b.Cache.Evictions))
	ratio("alloc_bytes_per_query", "B/query", int64(t.alloc), queries)
	return nil
}
