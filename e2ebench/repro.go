package main

import (
	"fmt"
	"net/http"
	"os"
	"time"
)

// reproSharedPacker reproduces the concurrent-decode fault the README
// describes: it loads the ingest workload's store without compacting it,
// so every series spans many files, and then has one client issue raw
// scans and windowed aggregates. Each such read decodes the series' files
// on several goroutines through the engine's one packer. The fault shows
// as a panic that ends the process, or as an error reply naming a corrupt
// block in a store that holds none; the latter is reported and returns
// nil. If neither comes within the run's length, it fails.
func reproSharedPacker(c config) error {
	dir, err := os.MkdirTemp(c.workdir, "repro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opt, err := engineOptions(dir + "/data")
	if err != nil {
		return err
	}
	st, err := openStack(opt, false)
	if err != nil {
		return err
	}
	defer st.close()
	rep := newReport()
	in, err := buildIngestRounds(c.seed, narrowShape, queryRounds)
	if err != nil {
		return err
	}
	defer in.free()
	(&ingestRun{shape: narrowShape, in: in}).drive(st, rep, time.Hour)
	if err := st.flush(); err != nil {
		return err
	}
	cl := &conn{hc: newHTTPClient(1), base: st.base}
	defer cl.hc.CloseIdleConnections()
	sd, err := cl.getStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: store of %d points in %d files; reading\n", sd.DiskPoints, sd.Files)
	from, to := baseT, baseT+int64(queryRounds*narrowShape.pts)*narrowShape.step
	start := time.Now()
	for n := 0; time.Since(start) < c.seconds; n++ {
		s := &in.specs[n%len(in.specs)]
		if s.float {
			continue
		}
		for _, q := range []string{"", "&window=60000"} {
			path := fmt.Sprintf("/query?series=%s&from=%d&to=%d%s", s.name, from, to, q)
			code, body, err := cl.do("GET", path, nil)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				fmt.Fprintf(os.Stderr, "e2ebench: fault reproduced after %d reads: GET %s: status %d: %s\n", 2*n, path, code, body)
				return nil
			}
		}
	}
	return fmt.Errorf("no fault within %v", c.seconds)
}
