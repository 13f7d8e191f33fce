// Command e2ebench is the repository's end-to-end benchmark. It serves
// internal/server in process on a loopback listener over an engine.Engine
// with the BOS-B packer, drives it over HTTP with closed-loop clients whose
// request bodies are encoded during set-up, checks every reply against its
// own model of the generated inputs, and prints one JSON result line.
//
//	go run . -workload ingest -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and the known fault that
// keeps some traffic out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // data directories go under it
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's operations, failures and metrics. Safe for
// concurrent use by the client goroutines.
type report struct {
	attempted, failed atomic.Int64

	mu      sync.Mutex
	wrong   []string // final-state check failures: the run is not correct
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// op counts one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		if r.failed.Add(1) <= 5 {
			fmt.Fprintln(os.Stderr, "e2ebench: failed operation:", err)
		}
	}
}

// check records a failed final-state check.
func (r *report) check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "e2ebench: check failed:", err)
	r.mu.Lock()
	r.wrong = append(r.wrong, err.Error())
	r.mu.Unlock()
}

func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *report) result() result {
	return result{
		Correct:   len(r.wrong) == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"ingest":      func(c config, r *report) error { return runIngest(c, r, narrowShape) },
	"ingest_wide": func(c config, r *report) error { return runIngest(c, r, wideShape) },
	"query":       runQuery,
}

// setupRuns is how many times a run sets up; setup_s is their median, and
// the last set-up is the one measured.
const setupRuns = 3

func main() {
	var (
		c       config
		seconds float64
		trace   int
		repro   bool
	)
	flag.StringVar(&c.workload, "workload", "ingest", "workload: ingest, ingest_wide or query")
	flag.Int64Var(&c.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "directory for the runs' data directories")
	flag.BoolVar(&repro, "repro-shared-packer", false, "reproduce the concurrent-decode fault (see README.md) and exit")
	flag.Parse()
	c.seconds = time.Duration(seconds * float64(time.Second))
	c.trace = trace == 1
	if repro {
		if err := reproSharedPacker(c); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: bad arguments; see -help")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(c.workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	c.workdir = dir
	rep := newReport()
	err = run(c, rep)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res := rep.result()
	if err := checkManifest("BENCHMARK.json", c.trace, res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// dataDir names the data directory of set-up i.
func dataDir(c config, i int) string { return filepath.Join(c.workdir, fmt.Sprintf("data-%d", i)) }

// checkManifest checks that a run reports exactly the metrics the manifest
// at path lists for its kind of run, each in its listed unit: the
// end-to-end metrics on an untraced run, the per-layer ones on a traced
// run.
func checkManifest(path string, traced bool, got map[string]metric) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := m.EndToEnd
	if traced {
		want = m.PerLayer
	}
	for _, w := range want {
		g, ok := got[w.Name]
		if !ok {
			return fmt.Errorf("metric %s of %s not reported", w.Name, path)
		}
		if g.Unit != w.Unit {
			return fmt.Errorf("metric %s reported in %s, %s lists %s", w.Name, g.Unit, path, w.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, %s lists %d", len(got), path, len(want))
	}
	return nil
}
