package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"syscall"
	"time"

	"bos/internal/engine"
	"bos/internal/packers"
	"bos/internal/server"
	"bos/internal/tsfile"
)

// stack is one server under test: an engine over its own data directory,
// internal/server over it, and an HTTP listener on loopback.
type stack struct {
	dir  string
	eng  *engine.Engine
	srv  *server.Server
	hs   *http.Server
	done chan error // Serve's return value
	base string     // "http://127.0.0.1:port"

	// Set on traced runs only.
	tb *tracedBackend
	th *tracedHandler
}

// engineOptions is the engine configuration the benchmark serves: the
// program's defaults with the program's default packer, as cmd/bosserver
// builds it, over dir.
func engineOptions(dir string) (engine.Options, error) {
	p, err := packers.ByName("bosb")
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{Dir: dir, File: tsfile.Options{Packer: p}}, nil
}

// openStack starts a server over a fresh engine. A traced stack serves
// through the timing decorators; an untraced one hands the engine to
// internal/server directly.
func openStack(opt engine.Options, traced bool) (*stack, error) {
	if err := os.RemoveAll(opt.Dir); err != nil {
		return nil, err
	}
	eng, err := engine.Open(opt)
	if err != nil {
		return nil, err
	}
	st := &stack{dir: opt.Dir, eng: eng}
	sopt := server.Options{Engine: eng, PackerName: "bosb"}
	if traced {
		st.tb = newTracedBackend(server.NewEngineBackend(eng))
		sopt = server.Options{Backend: st.tb, PackerName: "bosb"}
	}
	if st.srv, err = server.New(sopt); err != nil {
		return nil, errors.Join(err, eng.Close())
	}
	var h http.Handler = st.srv.Handler()
	if traced {
		st.th = newTracedHandler(h)
		h = st.th
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, eng.Close())
	}
	st.base = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: h}
	st.done = make(chan error, 1)
	go func() { st.done <- st.hs.Serve(ln) }()
	return st, nil
}

// close stops the listener, drains the server, closes the engine and
// removes the data directory.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := st.srv.Close(); err == nil {
		err = cerr
	}
	if cerr := st.eng.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// newHTTPClient returns a client that holds at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// conn is one closed-loop client: it sends a request, reads the whole
// reply into a reused buffer, and only then sends the next.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// do sends one request, reads the whole reply, and returns the status and
// the body (valid until the next call).
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// statsDoc is the part of GET /stats the benchmark reads.
type statsDoc struct {
	Files             int     `json:"files"`
	MemPoints         int     `json:"mem_points"`
	DiskPoints        int     `json:"disk_points"`
	BytesPerPoint     float64 `json:"bytes_per_point"`
	IngestBatches     int64   `json:"ingest_batches"`
	IngestGroups      int64   `json:"ingest_groups"`
	WALGroups         int64   `json:"wal_groups"`
	WALRecords        int64   `json:"wal_records"`
	CompactedBytesIn  int64   `json:"compacted_bytes_in"`
	CompactedBytesOut int64   `json:"compacted_bytes_out"`
	Cache             struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
	Pushdown struct {
		Stats  int64 `json:"stats"`
		Inlier int64 `json:"inlier"`
		Full   int64 `json:"full"`
	} `json:"pushdown"`
}

// getStats scrapes GET /stats?series=0.
func (c *conn) getStats() (statsDoc, error) {
	var sd statsDoc
	code, body, err := c.do("GET", "/stats?series=0", nil)
	if err != nil {
		return sd, err
	}
	if code != http.StatusOK {
		return sd, fmt.Errorf("GET /stats: status %d: %s", code, body)
	}
	return sd, json.Unmarshal(body, &sd)
}

// latencies collects request durations.
type latencies []time.Duration

// quantile returns the q-quantile (nearest rank) in milliseconds.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// flush persists buffered writes through the path the server uses.
func (st *stack) flush() error {
	if st.tb != nil {
		return st.tb.Flush()
	}
	return st.eng.Flush()
}

// cpuTime is the CPU time the process has used, user and system. On a
// shared virtual machine the host runs other guests on this one's virtual
// CPUs in bursts (steal: 1-37% of CPU time during runs on the machine the
// reference figures come from, moving a run's throughput by up to a
// quarter). A kernel with paravirtual steal accounting leaves steal out of
// a process's CPU time, so unlike wall time it does not grow with steal.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
