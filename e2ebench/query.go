package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

const (
	queryRounds = 24 // ingest rounds loaded: 24000 points in each of the 64 series
	// queryCacheBytes is the chunk-cache budget of the query workload. The
	// decoded store is 64 series x 24000 points x 16 B = 24.6 MB, four
	// times the budget; a series' chunk decodes to 384 KB, so 16 fit.
	queryCacheBytes = 6 << 20
	zipfS           = 1.2 // popularity skew over the int and the float series
)

// queryStore is the loaded store's model: every series' points in time
// order (float values as hundredths).
type queryStore struct {
	specs []spec
	model [][]point
	ints  []int // indexes of the int series
	flts  []int // indexes of the float series
}

// loadQueryStore loads a store through HTTP ingest with the ingest
// workload's generator, flushes it and compacts it with one POST
// /compact?mode=full. It returns the store's model. When traced, the trace
// starts before the compaction.
func loadQueryStore(c config, rep *report, st *stack, tr **tracer) (*queryStore, error) {
	shape := narrowShape
	in, err := buildIngestRounds(c.seed, shape, queryRounds)
	if err != nil {
		return nil, err
	}
	defer in.free()
	qs := &queryStore{specs: in.specs, model: make([][]point, len(in.specs))}
	for i := range in.specs {
		qs.model[i] = modelPoints(&in.specs[i], queryRounds*shape.pts)
		if in.specs[i].float {
			qs.flts = append(qs.flts, i)
		} else {
			qs.ints = append(qs.ints, i)
		}
	}
	ir := &ingestRun{shape: shape, in: in}
	ir.drive(st, rep, time.Duration(math.MaxInt64))
	total := int64(len(in.specs) * queryRounds * shape.pts)
	if err := st.flush(); err != nil {
		return nil, err
	}
	if tr != nil {
		if *tr, err = startTrace(st, true); err != nil {
			return nil, err
		}
	}
	cl := &conn{hc: newHTTPClient(1), base: st.base}
	defer cl.hc.CloseIdleConnections()
	code, body, err := cl.do("POST", "/compact?mode=full", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST /compact: status %d: %s", code, body)
	}
	var cr struct{ Points int64 }
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, fmt.Errorf("POST /compact: %w", err)
	}
	rep.check(func() error {
		if cr.Points != total {
			return fmt.Errorf("compaction rewrote %d points, %d were loaded", cr.Points, total)
		}
		return nil
	}())
	return qs, nil
}

// queryKind names the operations of the query mix.
type queryKind int

const (
	qScan queryKind = iota
	qFloatScan
	qWindow
	qInlier
	qOutlier
	qAgg
	qStats
)

// queryMix is one round of the query workload, in order.
var queryMix = []queryKind{
	qScan, qWindow, qAgg, qScan, qInlier, qFloatScan, qScan, qWindow, qOutlier, qAgg,
	qScan, qWindow, qFloatScan, qScan, qInlier, qAgg, qScan, qWindow, qOutlier, qStats,
}

// queryRun is the measured phase's state.
type queryRun struct {
	qs     *queryStore
	rng    *rand.Rand
	zi, zf *rand.Zipf
	start  time.Time
	sent   int64 // operations sent, scrapes included
}

func newQueryRun(seed int64, qs *queryStore) *queryRun {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &queryRun{
		qs:  qs,
		rng: rng,
		zi:  rand.NewZipf(rng, zipfS, 1, uint64(len(qs.ints)-1)),
		zf:  rand.NewZipf(rng, zipfS, 1, uint64(len(qs.flts)-1)),
	}
}

// span picks a random time range of n to 2n points of series s.
func (q *queryRun) span(s, n int) (int64, int64) {
	m := q.qs.model[s]
	k := n + q.rng.Intn(n+1)
	if k > len(m) {
		k = len(m)
	}
	lo := q.rng.Intn(len(m) - k + 1)
	return m[lo].T, m[lo+k-1].T
}

// one issues and checks one operation of the mix.
func (q *queryRun) one(cl *conn, kind queryKind) error {
	series := q.qs.ints[q.zi.Uint64()]
	if kind == qFloatScan {
		series = q.qs.flts[q.zf.Uint64()]
	}
	sp := &q.qs.specs[series]
	model := q.qs.model[series]
	path := make([]byte, 0, 128)
	path = append(path, "/query?series="...)
	path = append(path, sp.name...)
	var from, to, window, vmin, vmax int64
	switch kind {
	case qScan, qFloatScan:
		from, to = q.span(series, 2000)
	case qWindow:
		from, to = q.span(series, 8000)
		window = 60 * sp.step
		path = append(path, "&window="...)
		path = strconv.AppendInt(path, window, 10)
	case qInlier, qOutlier:
		from, to = q.span(series, 4000)
		vmin, vmax = sp.center-int64(sp.sigma), sp.center+int64(sp.sigma)
		if kind == qOutlier { // the upper outliers only
			vmin, vmax = sp.center+int64(10*sp.sigma), math.MaxInt64
		}
		path = append(path, "&vmin="...)
		path = strconv.AppendInt(path, vmin, 10)
		path = append(path, "&vmax="...)
		path = strconv.AppendInt(path, vmax, 10)
	case qAgg:
		from, to = model[0].T, model[len(model)-1].T // whole series: footer statistics
		if q.rng.Intn(3) > 0 {
			from, to = q.span(series, 4000)
		}
		path = append(path[:0], "/agg?series="...)
		path = append(path, sp.name...)
	case qStats:
		sd, err := cl.getStats()
		q.sent++
		if err != nil {
			return err
		}
		return checkCompacted(sd, q.qs.points())
	}
	path = append(path, "&from="...)
	path = strconv.AppendInt(path, from, 10)
	path = append(path, "&to="...)
	path = strconv.AppendInt(path, to, 10)

	code, body, err := cl.do("GET", string(path), nil)
	q.sent++
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	switch kind {
	case qScan, qFloatScan:
		check := checkScan
		if kind == qFloatScan {
			check = checkFloatScan
		}
		_, err := check(body, model, from, to)
		return wrap(path, err)
	case qWindow:
		return wrap(path, checkWindows(body, model, from, to, window))
	case qInlier, qOutlier:
		return wrap(path, checkFilter(body, model, from, to, vmin, vmax))
	default: // qAgg
		var got aggReply
		if err := json.Unmarshal(body, &got); err != nil {
			return wrap(path, err)
		}
		return wrap(path, checkAgg(got, model, from, to))
	}
}

func wrap(path []byte, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("GET %s: %w", path, err)
}

func (qs *queryStore) points() int64 {
	var n int64
	for _, m := range qs.model {
		n += int64(len(m))
	}
	return n
}

// checkCompacted checks /stats on the compacted store: one file holding
// every loaded point, nothing buffered.
func checkCompacted(sd statsDoc, points int64) error {
	if sd.Files != 1 || sd.MemPoints != 0 || int64(sd.DiskPoints) != points {
		return fmt.Errorf("compacted store: %d files, %d buffered and %d disk points; want 1, 0 and %d",
			sd.Files, sd.MemPoints, sd.DiskPoints, points)
	}
	return nil
}

// runQuery is the query workload.
func runQuery(c config, rep *report) error {
	var (
		st     *stack
		qs     *queryStore
		tr     *tracer
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
			st, qs = nil, nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		opt, err := engineOptions(dataDir(c, i))
		if err != nil {
			return err
		}
		opt.EncodeWorkers = 1 // see README.md: the shared-packer fault
		opt.CacheBytes = queryCacheBytes
		if st, err = openStack(opt, c.trace); err != nil {
			return err
		}
		var trp **tracer
		if c.trace && i == setupRuns-1 {
			trp = &tr
		}
		if qs, err = loadQueryStore(c, rep, st, trp); err != nil {
			st.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	cl := &conn{hc: newHTTPClient(1), base: st.base}
	defer cl.hc.CloseIdleConnections()
	sd, err := cl.getStats()
	if err != nil {
		return err
	}
	rep.check(checkCompacted(sd, qs.points()))

	q := newQueryRun(c.seed, qs)
	runtime.GC()
	cpu0 := cpuTime()
	q.start = time.Now()
	for time.Since(q.start) < c.seconds {
		for _, kind := range queryMix {
			rep.op(q.one(cl, kind))
		}
	}
	cpu := cpuTime() - cpu0
	if err := tr.stop(); err != nil {
		return err
	}
	if c.trace {
		return tr.report(rep, 0, q.sent)
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("bytes_per_point", "B/point", sd.BytesPerPoint)
	rep.set("cpu_ms_per_request", "ms", ms(cpu)/float64(q.sent))
	return nil
}
