package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAppendHundredths(t *testing.T) {
	for v, want := range map[int64]string{
		2357: "23.57", 100: "1.00", 5: "0.05", 0: "0.00", -5: "-0.05", -12345: "-123.45",
	} {
		if got := string(appendHundredths(nil, v)); got != want {
			t.Errorf("appendHundredths(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	if floatOf(2357) != 23.57 || floatOf(-5) != -0.05 {
		t.Fatalf("floatOf: %v %v", floatOf(2357), floatOf(-5))
	}
	for _, v := range []int64{1, 7, 2357, -5, 99999, -123456} {
		got, err := hundredthsOf(floatOf(v))
		if err != nil || got != v {
			t.Errorf("hundredthsOf(floatOf(%d)) = %d, %v", v, got, err)
		}
	}
	if _, err := hundredthsOf(23.571); err == nil {
		t.Error("hundredthsOf accepted a value with three decimals")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a := makeSpecs(7, 8, "d", 1000)
	b := makeSpecs(7, 8, "d", 1000)
	c := makeSpecs(8, 8, "d", 1000)
	if fmt.Sprint(modelPoints(&a[0], 50)) != fmt.Sprint(modelPoints(&b[0], 50)) {
		t.Fatal("the same seed gave different points")
	}
	if fmt.Sprint(modelPoints(&a[0], 50)) == fmt.Sprint(modelPoints(&c[0], 50)) {
		t.Fatal("different seeds gave the same points")
	}
	if !a[3].float || a[0].float {
		t.Fatal("every fourth series should be a float series")
	}
	pts := modelPoints(&a[0], 3)
	if pts[0].T != baseT || pts[1].T != baseT+1000 {
		t.Fatalf("timestamps %v", pts)
	}
}

func TestOutlierRate(t *testing.T) {
	s := makeSpecs(1, 1, "d", 1000)[0]
	out := 0
	const n = 100000
	for _, p := range modelPoints(&s, n) {
		if math.Abs(float64(p.V-s.center)) > 15*s.sigma {
			out++
		}
	}
	if out < n/200 || out > n/50 {
		t.Fatalf("%d outliers in %d points, want about 1%%", out, n)
	}
}

// model is a hand-made series: values at t = 10, 14, 15, 19, 20, 27.
var model = []point{{10, 5}, {14, -3}, {15, 8}, {19, 8}, {20, 100}, {27, 1}}

func TestModelBucketsEdges(t *testing.T) {
	// Windows of 5 from 10: [10,15) [15,20) [20,25) [25,30); 27 is past to.
	got := modelBuckets(model, 10, 26, 5)
	want := []bucket{
		{start: 10, count: 2, min: -3, max: 5, sum: 2},
		{start: 15, count: 2, min: 8, max: 8, sum: 16},
		{start: 20, count: 1, min: 100, max: 100, sum: 100},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// From 12 the windows move: [12,17) [17,22) [22,27] and 10 is out.
	got = modelBuckets(model, 12, 27, 5)
	want = []bucket{
		{start: 12, count: 2, min: -3, max: 8, sum: 5},
		{start: 17, count: 2, min: 8, max: 100, sum: 108},
		{start: 27, count: 1, min: 1, max: 1, sum: 1},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestCheckWindows(t *testing.T) {
	good := "10,2,-3,5,2,1\n15,2,8,8,16,8\n20,1,100,100,100,100\n"
	if err := checkWindows([]byte(good), model, 10, 26, 5); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"10,2,-3,5,2,1\n15,2,8,8,16,8\n",                           // a window missing
		"10,2,-3,5,3,1.5\n15,2,8,8,16,8\n20,1,100,100,100,100\n",   // wrong sum
		"10,2,-3,5,2,1.5\n15,2,8,8,16,8\n20,1,100,100,100,100\n",   // wrong avg
		"11,2,-3,5,2,1\n15,2,8,8,16,8\n20,1,100,100,100,100\n",     // wrong start
		"10,2,-3,5,2,1\n15,2,8,8,16,8\n20,1,100,100,100,100\n25,1", // extra row
	} {
		if err := checkWindows([]byte(bad), model, 10, 26, 5); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestCheckFilterBands(t *testing.T) {
	// The band is inclusive on both ends: 5 and 8 are in [5, 8].
	if err := checkFilter([]byte("10,5\n15,8\n19,8\n"), model, 0, 100, 5, 8); err != nil {
		t.Fatal(err)
	}
	// An upper outlier band.
	if err := checkFilter([]byte("20,100\n"), model, 0, 100, 50, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	// Time range and band together.
	if err := checkFilter([]byte("15,8\n"), model, 11, 16, 5, 8); err != nil {
		t.Fatal(err)
	}
	if err := checkFilter([]byte("10,5\n15,8\n"), model, 0, 100, 5, 8); err == nil {
		t.Error("accepted a filter missing a point on the band's edge")
	}
	if err := checkFilter([]byte("10,5\n14,-3\n15,8\n19,8\n"), model, 0, 100, 5, 8); err == nil {
		t.Error("accepted a point outside the band")
	}
}

func TestCheckScan(t *testing.T) {
	n, err := checkScan([]byte("14,-3\n15,8\n19,8\n"), model, 11, 19)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := checkScan([]byte("14,-3\n15,9\n19,8\n"), model, 11, 19); err == nil {
		t.Error("accepted a wrong value")
	}
	if _, err := checkScan(nil, model, 11, 12); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

func TestCheckFloatScan(t *testing.T) {
	fm := []point{{1, 2357}, {2, -5}, {3, 100}}
	// The server prints the shortest form, forced to carry a '.'.
	if n, err := checkFloatScan([]byte("1,23.57\n2,-0.05\n3,1.0\n"), fm, 1, 3); err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := checkFloatScan([]byte("1,23.570000000000004\n2,-0.05\n3,1.0\n"), fm, 1, 3); err == nil {
		t.Error("accepted a float one ulp off the decimal sent")
	}
}

func TestCheckAgg(t *testing.T) {
	// Points 14..20: -3 + 8 + 8 + 100.
	want := aggReply{Count: 4, Min: -3, Max: 100, Sum: 113}
	if err := checkAgg(want, model, 11, 20); err != nil {
		t.Fatal(err)
	}
	if err := checkAgg(aggReply{Count: 4, Min: -3, Max: 100, Sum: 112}, model, 11, 20); err == nil {
		t.Error("accepted a wrong sum")
	}
	if err := checkAgg(aggReply{}, model, 30, 40); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

func TestVerifySeries(t *testing.T) {
	s := makeSpecs(3, 1, "d", 1000)[0]
	all := modelPoints(&s, 6) // three rounds of two points
	if err := verifySeries(&s, append([]point(nil), all[:4]...), []byte{acked, acked, notSent}, 2); err != nil {
		t.Fatal(err)
	}
	// A failed round may be stored or not.
	if err := verifySeries(&s, append([]point(nil), all[:2]...), []byte{acked, failed, notSent}, 2); err != nil {
		t.Fatal(err)
	}
	if err := verifySeries(&s, append([]point(nil), all[:2]...), []byte{acked, acked, notSent}, 2); err == nil {
		t.Error("accepted a missing acknowledged round")
	}
	if err := verifySeries(&s, append([]point(nil), all...), []byte{acked, acked, notSent}, 2); err == nil {
		t.Error("accepted points that were never sent")
	}
	bad := append([]point(nil), all[:4]...)
	bad[2].V++
	if err := verifySeries(&s, bad, []byte{acked, acked, notSent}, 2); err == nil {
		t.Error("accepted a wrong value")
	}
}

// A fake server that answers every raw scan with the model's points but
// one value off: the run must count each such reply as a failed operation.
func TestWrongPointCountsAsFailedOperation(t *testing.T) {
	specs := makeSpecs(5, 8, "d", 1000)
	qs := &queryStore{specs: specs, model: make([][]point, len(specs))}
	for i := range specs {
		qs.model[i] = modelPoints(&specs[i], 5000)
		if specs[i].float {
			qs.flts = append(qs.flts, i)
		} else {
			qs.ints = append(qs.ints, i)
		}
	}
	byName := map[string][]point{}
	for i := range specs {
		byName[specs[i].name] = qs.model[i]
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseInt(r.FormValue("from"), 10, 64)
		to, _ := strconv.ParseInt(r.FormValue("to"), 10, 64)
		var b bytes.Buffer
		for i, p := range inRange(byName[r.FormValue("series")], from, to) {
			if i == 1 {
				p.V++ // the one wrong point
			}
			fmt.Fprintf(&b, "%d,%d\n", p.T, p.V)
		}
		w.Write(b.Bytes())
	}))
	defer fake.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	cl := &conn{hc: hc, base: fake.URL}
	q := newQueryRun(1, qs)
	rep := newReport()
	for i := 0; i < 3; i++ {
		rep.op(q.one(cl, qScan))
	}
	if r := rep.result(); r.Attempted != 3 || r.Failed != 3 || !r.Correct {
		t.Fatalf("attempted %d failed %d correct %v; want 3, 3, true", r.Attempted, r.Failed, r.Correct)
	}
}

// A fake ingest endpoint that acknowledges one point less than was sent.
func TestShortAckCountsAsFailedOperation(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"points":999,"series":1}`)
	}))
	defer fake.Close()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	in, err := buildIngestRounds(1, narrowShape, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer in.free()
	ir := &ingestRun{shape: narrowShape, in: in}
	rep := newReport()
	rep.op(ir.post(&conn{hc: hc, base: fake.URL}, 0, in.conns[0].body(0)))
	if r := rep.result(); r.Failed != 1 {
		t.Fatalf("failed %d, want 1", r.Failed)
	}
}

func TestIngestBodies(t *testing.T) {
	in, err := buildIngestRounds(2, wideShape, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer in.free()
	gpc := wideShape.groupsPerConn()
	if len(in.conns[0].ends) != 2*gpc || len(in.conns[1].ends) != 2*gpc {
		t.Fatalf("bodies per connection: %d, %d", len(in.conns[0].ends), len(in.conns[1].ends))
	}
	// Body 1 of connection 1 is round 0, group 3: series 150..199.
	lines := strings.Split(strings.TrimSuffix(string(in.conns[1].body(1)), "\n"), "\n")
	if len(lines) != wideShape.reqPoints() {
		t.Fatalf("%d lines, want %d", len(lines), wideShape.reqPoints())
	}
	if !strings.HasPrefix(lines[0], "w00150,") || !strings.HasPrefix(lines[49], "w00199,") || !strings.HasPrefix(lines[50], "w00150,") {
		t.Fatalf("unexpected lines %q %q %q", lines[0], lines[49], lines[50])
	}
	// The second point of series 150 follows its first by one step.
	want := modelPoints(&in.specs[150], 2)
	if lines[50] != strings.TrimSuffix(string(appendLine(nil, &in.specs[150], want[1].T, want[1].V)), "\n") {
		t.Fatalf("line %q, want point %v", lines[50], want[1])
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"bos/internal/bitio.(*Reader).ReadRunInt64", "bos/internal/core.decodeBOS", "bos/internal/core.DecodeBlockScratch", "bos/internal/tsfile.decodeColumns"}, layerDecode},
		{[]string{"bos/internal/stats.NewDistinct", "bos/internal/core.planBitWidth", "bos/internal/core.PlanFor", "bos/internal/core.EncodeBlock"}, layerPlan},
		{[]string{"bos/internal/core.encodeBOS", "bos/internal/core.EncodeBlock", "bos/internal/tsfile.encodeChunk"}, layerEncode},
		{[]string{"runtime.memmove", "runtime.growslice", "bos/internal/server.(*batch).addLine"}, layerMalloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "bos/internal/server.parseBatch"}, layerGC},
		{[]string{"strconv.ParseInt", "bos/internal/server.(*batch).addLine", "bos/internal/server.parseBatch", "bos/internal/server.(*Server).handleIngest"}, layerParse},
		{[]string{"syscall.Syscall", "os.(*File).Write", "bos/internal/engine.(*wal).writeBuf", "bos/internal/engine.(*Engine).walAwait", "bos/internal/engine.(*Engine).InsertBatch"}, layerWAL},
		{[]string{"sort.Stable", "bos/internal/engine.dedupeSort", "bos/internal/engine.(*Engine).flushSnapshot"}, layerMemtable},
		{[]string{"bos/internal/engine.(*Compaction).collectIntSeries", "bos/internal/engine.(*Compaction).Merge.func1", "bos/internal/engine.fanOut"}, layerCompact},
		{[]string{"bos/internal/engine.(*Engine).Stats", "bos/internal/server.engineBackend.Stats", "bos/internal/server.(*Server).handleStats"}, layerStats},
		{[]string{"bos/internal/engine.(*Engine).WindowAgg.func1", "bos/internal/engine.fanOut"}, layerQueryPlan},
		{[]string{"bos/internal/pushdown.(*Evaluator).EvalChunk", "bos/internal/engine.(*Engine).WindowAgg.func1"}, layerPushdown},
		{[]string{"bos/internal/chunkcache.(*Cache).get", "bos/internal/tsfile.(*Reader).readChunk"}, layerTSFile},
		{[]string{"strconv.AppendInt", "bos/internal/server.(*chunkedCSV).writeInt", "bos/internal/server.(*Server).handleQuery"}, layerHTTP},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "bufio.(*Writer).Flush", "net/http.(*response).finishRequest", "net/http.(*conn).serve"}, layerHTTP},
		{[]string{"net/http.(*ServeMux).ServeHTTP", "main.(*tracedHandler).ServeHTTP", "net/http.serverHandler.ServeHTTP", "net/http.(*conn).serve"}, layerHTTP},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, layerLoadgen},
		{[]string{"encoding/json.Unmarshal", "main.(*ingestRun).post", "main.(*ingestRun).drive.func1"}, layerLoadgen},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, layerOther},
		{nil, layerOther},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// Every rule names a known layer, and no earlier rule's prefix covers a
// later rule's prefix, which would leave the later rule dead.
func TestLayerRulesReachable(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for j, r := range layerRules {
		if !known[r.layer] || r.layer == layerOther {
			t.Errorf("rule %q names layer %q", r.prefix, r.layer)
		}
		for _, earlier := range layerRules[:j] {
			if strings.HasPrefix(r.prefix, earlier.prefix) {
				t.Errorf("rule %q is shadowed by the earlier rule %q", r.prefix, earlier.prefix)
			}
		}
	}
}

// Every sample lands in exactly one layer: the shares of any profile sum
// to 100, whatever its stacks.
func TestLayerSharesSumTo100(t *testing.T) {
	var samples []sample
	names := []string{"", "runtime.mallocgc", "main.x", "bos/internal/core.decodeBOS", "unknown.f", "net/http.(*conn).serve", "bos/internal/engine.(*wal).sync"}
	for i := 0; i < 200; i++ {
		var st []string
		for k := 0; k < i%5; k++ {
			st = append(st, names[(i*7+k*3)%len(names)])
		}
		samples = append(samples, sample{stack: st, count: int64(1 + i%3)})
	}
	sum := 0.0
	shares := layerShares(samples)
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-9 || len(shares) != len(layers) {
		t.Fatalf("shares sum to %v over %d layers", sum, len(shares))
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// A profile from runtime/pprof decodes, and its samples carry this
// package's function names ("main." in the benchmark's binary, the import
// path in a test binary).
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	burnCPU(500 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burnCPU") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in burnCPU among %d samples", len(samples))
	}
}

func TestCheckManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	manifest := `{"end_to_end": [{"name": "a_ms", "unit": "ms"}], "per_layer": [{"name": "b", "unit": "count"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced bool
		got    map[string]metric
		ok     bool
	}{
		{false, map[string]metric{"a_ms": {1, "ms"}}, true},
		{true, map[string]metric{"b": {1, "count"}}, true},
		{false, map[string]metric{}, false},                                     // missing
		{false, map[string]metric{"a_ms": {1, "s"}}, false},                     // wrong unit
		{false, map[string]metric{"a_ms": {1, "ms"}, "b": {1, "count"}}, false}, // extra
	} {
		if err := checkManifest(path, tc.traced, tc.got); (err == nil) != tc.ok {
			t.Errorf("checkManifest(traced=%v, %v) = %v, want ok=%v", tc.traced, tc.got, err, tc.ok)
		}
	}
}
