package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped protocol-buffer profiles runtime/pprof
// writes: just the samples, their locations and the function names, enough
// to charge each sample to a layer without importing a profile library.

// sample is one distinct stack of a CPU profile.
type sample struct {
	stack []string // function names, leaf first, inlined frames included
	count int64    // samples taken on this stack
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

var errProto = errors.New("profile: malformed protocol buffer")

// field is one decoded protocol-buffer field.
type field struct {
	num  int
	wire int
	u    uint64 // varint and fixed values
	b    []byte // length-delimited payload
}

// fields decodes a message into its fields, in order.
func fields(msg []byte) ([]field, error) {
	var out []field
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errProto
		}
		msg = msg[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.u, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, errProto
			}
			f.u, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errProto
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, errProto
			}
			f.u, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.u}, nil
	}
	if f.wire != 2 {
		return nil, errProto
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a CPU profile written by runtime/pprof.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, leaf first
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.b))
		case fProfileFunction:
			fs, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case fFunctionID:
					id = g.u
				case fFunctionName:
					name = g.u
				}
			}
			funcName[id] = name
		case fProfileLocation:
			fs, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case fLocationID:
					id = g.u
				case fLocationLine:
					ls, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == fLineFunction {
							fns = append(fns, l.u)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileSample:
			fs, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var rs rawSample
			first := true
			for _, g := range fs {
				switch g.num {
				case fSampleLocation:
					v, err := g.varints()
					if err != nil {
						return nil, err
					}
					rs.locs = append(rs.locs, v...)
				case fSampleValue:
					v, err := g.varints()
					if err != nil {
						return nil, err
					}
					if first && len(v) > 0 { // value[0] is the sample count
						rs.count = int64(v[0])
						first = false
					}
				}
			}
			raws = append(raws, rs)
		}
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		s := sample{count: rs.count}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if i := funcName[fn]; i < uint64(len(strs)) {
					name = strs[i]
				}
				s.stack = append(s.stack, name)
			}
		}
		out = append(out, s)
	}
	return out, nil
}
