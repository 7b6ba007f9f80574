package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzip-compressed protocol
// buffer (github.com/google/pprof/proto/profile.proto). This file decodes
// the part the layer attribution needs: sample types, samples, locations
// with their inlined lines, functions and the string table.

// Field numbers of the profile.proto messages read here.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// cpuSample is one profile sample: its stack as function names, innermost
// first (inlined frames included), and the CPU time it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	samples []cpuSample
}

// decodeProfile decodes a gzip-compressed CPU profile.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type valueType struct{ typ, unit int64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []valueType
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcNames   = map[uint64]int64{}    // function ID -> string index
		strs        []string
	)
	err = eachField(raw, func(f field) error {
		switch f.num {
		case profSampleType:
			var vt valueType
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case valueTypeType:
					vt.typ = int64(g.v)
				case valueTypeUnit:
					vt.unit = int64(g.v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case profSample:
			var s rawSample
			err := eachField(f.data, func(g field) error {
				if g.num != sampleLocationID && g.num != sampleValue {
					return nil
				}
				vs, err := g.varints()
				if g.num == sampleLocationID {
					s.locs = append(s.locs, vs...)
				} else {
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case locationID:
					id = g.v
				case locationLine:
					return eachField(g.data, func(h field) error {
						if h.num == lineFunctionID {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case functionID:
					id = g.v
				case functionName:
					name = int64(g.v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// The CPU time is the value whose type is "cpu" in "nanoseconds";
	// runtime/pprof puts it second, after the sample count.
	valueIdx := -1
	for i, vt := range sampleTypes {
		if str(vt.typ) == "cpu" && str(vt.unit) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	prof := &cpuProfile{samples: make([]cpuSample, 0, len(samples))}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		prof.samples = append(prof.samples, cpuSample{stack: stack, ns: s.values[valueIdx]})
	}
	return prof, nil
}

// layers are the repository's modules a CPU sample can be charged to.
// Helper packages that are not layers (circuit, isa, rng, stats) are
// charged to the layer that called them.
var layers = []string{
	"core", "scoreboard", "iq", "regfile", "predictor", "cache", "sram",
	"stable", "energy", "workload", "trace", "ckpt", "journal", "sim", "service",
}

// Two more buckets complete the attribution: runtime holds samples with no
// repository frame on the stack (GC, the scheduler, the netpoller) and
// bench holds the benchmark's own code (result digests, span bookkeeping).
const (
	layerRuntime = "runtime"
	layerBench   = "bench"
)

// layerOf maps a function name to its layer, or "" when the function
// belongs to no layer. The benchmark's functions are named main.* in its
// binary and lowvcc/benchmark.* in its test binary.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "lowvcc/benchmark.") {
		return layerBench
	}
	rest, ok := strings.CutPrefix(fn, "lowvcc/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return ""
}

// attribute charges each sample's CPU time to the innermost layer frame on
// its stack, or to runtime when there is none. JSON encoding, HTTP and
// sha256 time thereby land in the layer that called them. Every sample is
// charged exactly once, so the layers sum to the profile total.
func attribute(p *cpuProfile) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.samples {
		layer := layerRuntime
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.ns
	}
	return out
}

// field is one protocol-buffer field: v holds varint and fixed-width
// values, data the bytes of a length-delimited one.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// varints returns the field's integers whether it was written as a single
// varint or as a packed run of them; runtime/pprof writes both forms.
func (f field) varints() ([]uint64, error) {
	switch f.wire {
	case 0:
		return []uint64{f.v}, nil
	case 2:
		var out []uint64
		for b := f.data; len(b) > 0; {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad packed varint")
			}
			out = append(out, v)
			b = b[n:]
		}
		return out, nil
	default:
		return nil, fmt.Errorf("field %d: wire type %d is not an integer", f.num, f.wire)
	}
}

// eachField calls fn for every field of the message b.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
