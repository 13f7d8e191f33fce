package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// ingestShape is the request shape of an ingest workload. The series are
// split into groups of perReq consecutive series; one request carries pts
// points of every series of one group, and one round posts every group
// once. Group g belongs to connection g%ingestConns, so each series is
// written by one connection, in time order.
type ingestShape struct {
	series     int    // series written
	perReq     int    // series per request
	pts        int    // points per series per request
	step       int64  // timestamp step in ms
	prefix     string // series name prefix
	statsEvery int    // a /stats scrape follows every statsEvery-th request of a connection; 0: none
	// rate sizes the pre-encoded input: rate points per second of the
	// measured phase. It is below the rate the server sustains today, so a
	// run posts a fixed amount of work, and the phase ends when the input
	// runs out or the run's time is up, whichever comes first.
	rate int
}

var (
	// narrowShape: 1000-point single-series batches into 64 long series.
	narrowShape = ingestShape{series: 64, perReq: 1, pts: 1000, step: 1000, prefix: "d", rate: 600_000}
	// wideShape: a gateway's batches, 50 series x 20 points, over 16000 series.
	wideShape = ingestShape{series: 16000, perReq: 50, pts: 20, step: 10000, prefix: "w", statsEvery: 50, rate: 250_000}
)

func (s ingestShape) groups() int        { return s.series / s.perReq }
func (s ingestShape) reqPoints() int     { return s.perReq * s.pts }
func (s ingestShape) roundPoints() int   { return s.series * s.pts }
func (s ingestShape) groupsPerConn() int { return s.groups() / ingestConns }

const ingestConns = 2

// ingestInputs holds every request body of a run, encoded during set-up.
type ingestInputs struct {
	specs  []spec
	rounds int
	conns  [ingestConns]bodyArena
}

// bodyArena stores a connection's bodies back to back, in send order:
// body i is round i/groupsPerConn, group ingestConns*(i%groupsPerConn)+c.
// The bytes live in an anonymous mapping outside the Go heap, so hundreds
// of megabytes of input neither pace nor burden the in-process server's
// garbage collector; only the pages written become resident.
type bodyArena struct {
	mem  []byte // the whole mapping
	n    int    // bytes used
	ends []int
}

func (a *bodyArena) body(i int) []byte {
	start := 0
	if i > 0 {
		start = a.ends[i-1]
	}
	return a.mem[start:a.ends[i]]
}

// maxLine bounds one line-protocol line: a series name of at most 8
// bytes, two int64s and three separators.
const maxLine = 8 + 2*20 + 3

// roundsFor is the number of rounds that holds shape.rate points per
// second of a measured phase of the given length.
func roundsFor(shape ingestShape, seconds time.Duration) int {
	want := int(seconds.Seconds() * float64(shape.rate))
	return (want + shape.roundPoints() - 1) / shape.roundPoints()
}

// buildIngestRounds encodes the bodies of the given number of rounds.
// Release them with free.
func buildIngestRounds(seed int64, shape ingestShape, rounds int) (*ingestInputs, error) {
	in := &ingestInputs{specs: makeSpecs(seed, shape.series, shape.prefix, shape.step), rounds: rounds}
	gens := make([]*gen, len(in.specs))
	for i := range in.specs {
		gens[i] = newGen(&in.specs[i])
	}
	for c := range in.conns {
		a := &in.conns[c]
		size := rounds * shape.groupsPerConn() * shape.reqPoints() * maxLine
		mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			in.free()
			return nil, fmt.Errorf("mapping %d bytes of input: %w", size, err)
		}
		a.mem = mem
		a.ends = make([]int, 0, rounds*shape.groupsPerConn())
	}
	var line []byte
	for r := 0; r < rounds; r++ {
		for g := 0; g < shape.groups(); g++ {
			a := &in.conns[g%ingestConns]
			lo := g * shape.perReq
			for j := 0; j < shape.pts; j++ {
				for s := lo; s < lo+shape.perReq; s++ {
					t, v := gens[s].next()
					line = appendLine(line[:0], &in.specs[s], t, v)
					a.n += copy(a.mem[a.n:], line)
				}
			}
			a.ends = append(a.ends, a.n)
		}
	}
	return in, nil
}

// free unmaps the bodies.
func (in *ingestInputs) free() {
	for c := range in.conns {
		if in.conns[c].mem != nil {
			syscall.Munmap(in.conns[c].mem)
			in.conns[c] = bodyArena{}
		}
	}
}

// Round status of one group, as the store must reflect it.
const (
	notSent byte = iota
	acked
	failed
)

// ingestRun is the state of one measured ingest phase.
type ingestRun struct {
	shape    ingestShape
	in       *ingestInputs
	status   [][]byte           // [group][round]
	requests [ingestConns]int64 // ingest requests and mid-run scrapes sent
	points   [ingestConns]int64 // points acknowledged
}

// drive runs the closed loop: each connection posts its bodies in order
// and stops at the first round boundary after the deadline or when its
// bodies run out.
func (ir *ingestRun) drive(st *stack, rep *report, dur time.Duration) {
	hc := newHTTPClient(ingestConns)
	defer hc.CloseIdleConnections()
	shape := ir.shape
	ir.status = make([][]byte, shape.groups())
	for g := range ir.status {
		ir.status[g] = make([]byte, ir.in.rounds)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &conn{hc: hc, base: st.base}
			gpc := shape.groupsPerConn()
			sent := 0
			for r := 0; r < ir.in.rounds && time.Since(start) < dur; r++ {
				for k := 0; k < gpc; k++ {
					g := ingestConns*k + c
					err := ir.post(cl, c, ir.in.conns[c].body(r*gpc+k))
					ir.status[g][r] = acked
					if err != nil {
						ir.status[g][r] = failed
					}
					rep.op(err)
					ir.requests[c]++
					sent++
					if shape.statsEvery > 0 && sent%shape.statsEvery == 0 {
						rep.op(ir.scrape(cl, c))
						ir.requests[c]++
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// post sends one ingest body and checks the acknowledgement.
func (ir *ingestRun) post(cl *conn, c int, body []byte) error {
	code, resp, err := cl.do("POST", "/ingest", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST /ingest: status %d: %s", code, resp)
	}
	var ack struct{ Points, Series int }
	if err := json.Unmarshal(resp, &ack); err != nil {
		return fmt.Errorf("POST /ingest: %w", err)
	}
	if ack.Points != ir.shape.reqPoints() || ack.Series != ir.shape.perReq {
		return fmt.Errorf("POST /ingest: acknowledged %d points in %d series, sent %d in %d",
			ack.Points, ack.Series, ir.shape.reqPoints(), ir.shape.perReq)
	}
	ir.points[c] += int64(ack.Points)
	return nil
}

// scrape reads /stats?series=0 mid-run. The server has acknowledged at
// least this connection's points, so the store must hold that many.
func (ir *ingestRun) scrape(cl *conn, c int) error {
	sd, err := cl.getStats()
	if err != nil {
		return err
	}
	if int64(sd.MemPoints+sd.DiskPoints) < ir.points[c] {
		return fmt.Errorf("GET /stats: %d points stored, %d acknowledged on one connection",
			sd.MemPoints+sd.DiskPoints, ir.points[c])
	}
	return nil
}

// runIngest is the ingest and ingest_wide workload: set up, post for the
// run's length, flush, and check the store against the model.
func runIngest(c config, rep *report, shape ingestShape) error {
	var (
		st     *stack
		in     *ingestInputs
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
			in.free()
			st, in = nil, nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if in, err = buildIngestRounds(c.seed, shape, roundsFor(shape, c.seconds)); err != nil {
			return err
		}
		opt, err := engineOptions(dataDir(c, i))
		if err != nil {
			return err
		}
		if st, err = openStack(opt, c.trace); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	defer in.free()

	ir := &ingestRun{shape: shape, in: in}
	runtime.GC()
	cpu0 := cpuTime()
	tr, err := startTrace(st, c.trace)
	if err != nil {
		return err
	}
	ir.drive(st, rep, c.seconds)
	if err := tr.stop(); err != nil {
		return err
	}
	var points int64
	for k := range ir.points {
		points += ir.points[k]
	}
	if points == 0 {
		return fmt.Errorf("no ingest request succeeded")
	}

	in.free() // the checks regenerate the model from the seed
	if err := st.flush(); err != nil {
		return err
	}
	cpu := cpuTime() - cpu0
	cl := &conn{hc: newHTTPClient(1), base: st.base}
	defer cl.hc.CloseIdleConnections()
	sd, err := cl.getStats()
	if err != nil {
		return err
	}
	rep.check(checkFlushed(sd, points, ir.failedPoints()))
	rep.check(verifyStore(st.dir, in.specs, func(s int) []byte { return ir.status[s/shape.perReq] }, shape.pts))

	if c.trace {
		return tr.report(rep, points, 0)
	}
	var requests int64
	for _, n := range ir.requests {
		requests += n
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("bytes_per_point", "B/point", sd.BytesPerPoint)
	rep.set("cpu_ms_per_request", "ms", ms(cpu)/float64(requests))
	return nil
}

// failedPoints counts the points of failed requests, which the store may
// or may not hold.
func (ir *ingestRun) failedPoints() int64 {
	var n int64
	for _, rounds := range ir.status {
		for _, s := range rounds {
			if s == failed {
				n += int64(ir.shape.reqPoints())
			}
		}
	}
	return n
}

// checkFlushed checks /stats after the final flush: nothing buffered, and
// every acknowledged point on disk.
func checkFlushed(sd statsDoc, acked, maybe int64) error {
	if sd.MemPoints != 0 {
		return fmt.Errorf("after flush: mem_points %d, want 0", sd.MemPoints)
	}
	if d := int64(sd.DiskPoints); d < acked || d > acked+maybe {
		return fmt.Errorf("after flush: disk_points %d, acknowledged %d", d, acked)
	}
	return nil
}
