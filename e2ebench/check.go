package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"bos/internal/packers"
	"bos/internal/tsfile"
)

// The checkers compare server replies with the benchmark's own model of
// the points it generated. None of them compares against an earlier
// output of the program.

// nextLine splits the first line off a reply body.
func nextLine(body []byte) (line, rest []byte) {
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		return body[:i], body[i+1:]
	}
	return body, nil
}

// parsePairs parses CSV rows "t,v" with integer values.
func parsePairs(body []byte) ([]point, error) {
	var out []point
	for len(body) > 0 {
		var line []byte
		line, body = nextLine(body)
		c := bytes.IndexByte(line, ',')
		if c < 0 {
			return nil, fmt.Errorf("row %q: want t,v", line)
		}
		t, err := strconv.ParseInt(string(line[:c]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", line, err)
		}
		v, err := strconv.ParseInt(string(line[c+1:]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", line, err)
		}
		out = append(out, point{t, v})
	}
	return out, nil
}

// inRange returns the model points with from <= T <= to; pts is in time
// order.
func inRange(pts []point, from, to int64) []point {
	lo := sort.Search(len(pts), func(i int) bool { return pts[i].T >= from })
	hi := sort.Search(len(pts), func(i int) bool { return pts[i].T > to })
	if lo > hi {
		return nil
	}
	return pts[lo:hi]
}

// checkScan checks an integer raw scan: exactly the model's points in
// [from, to], in order.
func checkScan(body []byte, model []point, from, to int64) (int, error) {
	got, err := parsePairs(body)
	if err != nil {
		return 0, err
	}
	return len(got), samePoints(got, inRange(model, from, to))
}

// checkFilter checks a value filter: exactly the model's points in
// [from, to] with vmin <= v <= vmax.
func checkFilter(body []byte, model []point, from, to, vmin, vmax int64) error {
	got, err := parsePairs(body)
	if err != nil {
		return err
	}
	var want []point
	for _, p := range inRange(model, from, to) {
		if p.V >= vmin && p.V <= vmax {
			want = append(want, p)
		}
	}
	return samePoints(got, want)
}

func samePoints(got, want []point) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("point %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkFloatScan checks a float raw scan: the model's points in [from, to],
// each value equal to the float64 parsed from the decimal text sent.
func checkFloatScan(body []byte, model []point, from, to int64) (int, error) {
	want := inRange(model, from, to)
	n := 0
	for len(body) > 0 {
		var line []byte
		line, body = nextLine(body)
		c := bytes.IndexByte(line, ',')
		if c < 0 {
			return n, fmt.Errorf("row %q: want t,v", line)
		}
		t, err := strconv.ParseInt(string(line[:c]), 10, 64)
		if err != nil {
			return n, fmt.Errorf("row %q: %w", line, err)
		}
		v, err := strconv.ParseFloat(string(line[c+1:]), 64)
		if err != nil {
			return n, fmt.Errorf("row %q: %w", line, err)
		}
		if n >= len(want) {
			return n, fmt.Errorf("more than the %d points in range", len(want))
		}
		if t != want[n].T || v != floatOf(want[n].V) {
			return n, fmt.Errorf("point %d is (%d, %v), want (%d, %v)", n, t, v, want[n].T, floatOf(want[n].V))
		}
		n++
	}
	if n != len(want) {
		return n, fmt.Errorf("%d points, want %d", n, len(want))
	}
	return n, nil
}

// bucket is one windowed aggregate.
type bucket struct {
	start, count, min, max, sum int64
}

// modelBuckets folds the model's points in [from, to] into windows with
// the API's formula start = from + (t-from)/window*window, in start order,
// empty windows left out.
func modelBuckets(model []point, from, to, window int64) []bucket {
	var out []bucket
	for _, p := range inRange(model, from, to) {
		start := from + (p.T-from)/window*window
		if n := len(out); n == 0 || out[n-1].start != start {
			out = append(out, bucket{start: start, min: p.V, max: p.V})
		}
		b := &out[len(out)-1]
		b.count++
		b.sum += p.V
		b.min = min(b.min, p.V)
		b.max = max(b.max, p.V)
	}
	return out
}

// checkWindows checks /query?window= rows "start,count,min,max,sum,avg".
func checkWindows(body []byte, model []point, from, to, window int64) error {
	want := modelBuckets(model, from, to, window)
	i := 0
	for len(body) > 0 {
		var line []byte
		line, body = nextLine(body)
		f := bytes.Split(line, []byte{','})
		if len(f) != 6 {
			return fmt.Errorf("row %q: want 6 fields", line)
		}
		var got bucket
		for k, dst := range []*int64{&got.start, &got.count, &got.min, &got.max, &got.sum} {
			n, err := strconv.ParseInt(string(f[k]), 10, 64)
			if err != nil {
				return fmt.Errorf("row %q: %w", line, err)
			}
			*dst = n
		}
		avg, err := strconv.ParseFloat(string(f[5]), 64)
		if err != nil {
			return fmt.Errorf("row %q: %w", line, err)
		}
		if i >= len(want) {
			return fmt.Errorf("more than the %d windows in range", len(want))
		}
		if got != want[i] || avg != float64(want[i].sum)/float64(want[i].count) {
			return fmt.Errorf("window %d is %q, want %+v", i, line, want[i])
		}
		i++
	}
	if i != len(want) {
		return fmt.Errorf("%d windows, want %d", i, len(want))
	}
	return nil
}

// aggReply is the /agg response.
type aggReply struct {
	Count         int64
	Min, Max, Sum int64
}

// checkAgg checks /agg: the exact count, min, max and sum of the model's
// points in [from, to].
func checkAgg(got aggReply, model []point, from, to int64) error {
	var want aggReply
	for i, p := range inRange(model, from, to) {
		if i == 0 {
			want.Min, want.Max = p.V, p.V
		}
		want.Count++
		want.Sum += p.V
		want.Min = min(want.Min, p.V)
		want.Max = max(want.Max, p.V)
	}
	if got != want {
		return fmt.Errorf("aggregate %+v, want %+v", got, want)
	}
	return nil
}

// verifyStore decodes every data file under dir, one file at a time on
// this goroutine and each through a reader with a packer of its own, and
// checks every series against the model. status(s) gives series s's
// round statuses; a round holds pts points. Acknowledged rounds must be
// stored exactly, failed ones may be stored or not, and nothing else may
// be stored.
func verifyStore(dir string, specs []spec, status func(s int) []byte, pts int) error {
	paths, err := filepath.Glob(filepath.Join(dir, "data-*.tsf"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	got := make([][]point, len(specs))
	index := make(map[string]int, len(specs))
	for i := range specs {
		index[specs[i].name] = i
	}
	for _, path := range paths {
		if err := readFile(path, specs, index, got); err != nil {
			return err
		}
	}
	for i := range specs {
		if err := verifySeries(&specs[i], got[i], status(i), pts); err != nil {
			return fmt.Errorf("series %s: %w", specs[i].name, err)
		}
	}
	return nil
}

// readFile appends one data file's points to got, by series; float values
// are stored back as hundredths, which the check compares exactly.
func readFile(path string, specs []spec, index map[string]int, got [][]point) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	p, err := packers.ByName("bosb")
	if err != nil {
		return err
	}
	r, err := tsfile.OpenReader(f, info.Size(), tsfile.Options{Packer: p})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, name := range r.Series() {
		i, ok := index[name]
		if !ok {
			return fmt.Errorf("%s: unknown series %q", path, name)
		}
		if !specs[i].float {
			ps, err := r.ReadAll(name)
			if err != nil {
				return fmt.Errorf("%s: %s: %w", path, name, err)
			}
			for _, q := range ps {
				got[i] = append(got[i], point{q.T, q.V})
			}
			continue
		}
		fs, err := r.ReadAllFloats(name)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", path, name, err)
		}
		for _, q := range fs {
			v, err := hundredthsOf(q.V)
			if err != nil {
				return fmt.Errorf("%s: %s at %d: %w", path, name, q.T, err)
			}
			got[i] = append(got[i], point{q.T, v})
		}
	}
	return nil
}

// hundredthsOf maps a stored float back to the scaled value whose decimal
// text parses to exactly that float, or fails.
func hundredthsOf(f float64) (int64, error) {
	v := int64(f * 100)
	for _, c := range []int64{v, v - 1, v + 1} {
		if floatOf(c) == f {
			return c, nil
		}
	}
	return 0, fmt.Errorf("value %v is no two-decimal value that was sent", f)
}

// verifySeries checks one series' stored points against its model.
func verifySeries(s *spec, got []point, status []byte, pts int) error {
	sort.Slice(got, func(i, j int) bool { return got[i].T < got[j].T })
	g := newGen(s)
	k := 0
	for r, st := range status {
		if st == notSent {
			break
		}
		for j := 0; j < pts; j++ {
			t, v := g.next()
			if k < len(got) && got[k].T == t {
				if got[k].V != v {
					return fmt.Errorf("point at %d is %d, want %d", t, got[k].V, v)
				}
				k++
				continue
			}
			if st == acked {
				return fmt.Errorf("acknowledged point at %d (round %d) is missing", t, r)
			}
		}
	}
	if k != len(got) {
		return errors.New("the store holds points that were never sent")
	}
	return nil
}
