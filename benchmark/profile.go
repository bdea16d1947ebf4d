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

// The CPU profile is read with a small decoder for the gzip-compressed
// protobuf that runtime/pprof writes (github.com/google/pprof, profile.proto),
// so the benchmark needs neither `go tool pprof` nor its text output. Only
// the fields layer attribution needs are decoded: sample types, samples,
// locations with their inline line stacks, functions and the string table.

// profile is a decoded CPU profile.
type profile struct {
	sampleTypes []string // value type names, e.g. "samples", "cpu"
	samples     []profSample
}

// profSample is one sampled stack and its values.
type profSample struct {
	// funcs lists the stack's function names, innermost (leaf) first,
	// inlined frames expanded in place.
	funcs  []string
	values []int64
}

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint and fixed-width values
	b    []byte // length-delimited payload
}

// pbFields splits one protobuf message into its fields.
func pbFields(msg []byte) ([]pbField, error) {
	var out []pbField
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, errors.New("profile: bad length-delimited field")
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints returns a repeated integer field's values, which the encoder may
// write packed (one length-delimited run) or one varint per value.
func pbUints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	if f.wire != 2 {
		return nil, fmt.Errorf("profile: field %d: wire type %d is not an integer", f.num, f.wire)
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// pbSubfields splits an embedded message field into its fields.
func pbSubfields(f pbField) ([]pbField, error) {
	if f.wire != 2 {
		return nil, fmt.Errorf("profile: field %d is not a message", f.num)
	}
	return pbFields(f.b)
}

// parseProfile decodes a gzip-compressed (or raw) pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	// Strings, functions and locations may follow the samples that name
	// them, so collect everything by id first and resolve at the end.
	var (
		strs       []string
		typeIdx    []uint64
		rawSamples [][2][]uint64 // location ids, values
		funcName   = map[uint64]uint64{}
		locFuncs   = map[uint64][]uint64{}
	)
	for _, f := range top {
		switch f.num {
		case 1: // sample_type: ValueType{type = 1, unit = 2}
			sub, err := pbSubfields(f)
			if err != nil {
				return nil, err
			}
			var t uint64
			for _, s := range sub {
				if s.num == 1 {
					t = s.v
				}
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample: Sample{location_id = 1, value = 2}
			sub, err := pbSubfields(f)
			if err != nil {
				return nil, err
			}
			var s [2][]uint64
			for _, sf := range sub {
				if sf.num != 1 && sf.num != 2 {
					continue
				}
				vs, err := pbUints(sf)
				if err != nil {
					return nil, err
				}
				s[sf.num-1] = append(s[sf.num-1], vs...)
			}
			rawSamples = append(rawSamples, s)
		case 4: // location: Location{id = 1, line = 4}, Line{function_id = 1}
			sub, err := pbSubfields(f)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.v
				case 4:
					line, err := pbSubfields(lf)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function: Function{id = 1, name = 2}
			sub, err := pbSubfields(f)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6: // string_table
			if f.wire != 2 {
				return nil, errors.New("profile: bad string table entry")
			}
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range typeIdx {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, rs := range rawSamples {
		var s profSample
		for _, loc := range rs[0] {
			for _, fid := range locFuncs[loc] {
				name, err := str(funcName[fid])
				if err != nil {
					return nil, err
				}
				s.funcs = append(s.funcs, name)
			}
		}
		for _, v := range rs[1] {
			s.values = append(s.values, int64(v))
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// repoPrefix is the import-path prefix of the simulator's packages.
const repoPrefix = "repro/internal/"

// The benchmark's own frames: "main." in the built binary, the import path
// when the package is compiled into a test binary.
var benchPrefixes = []string{"main.", "repro/benchmark."}

// Layer names for CPU attribution. layerBench is the benchmark's own code
// (readback_64 fills and compares its buffers there), layerOther any repo
// package outside cpuLayers, and layerRuntime a stack with no repo frame.
const (
	layerBench   = "bench"
	layerOther   = "other"
	layerRuntime = "runtime"
)

// cpuLayers are the repo packages reported one by one; together with
// bench, other and runtime every sample lands in exactly one layer.
var cpuLayers = []string{
	"sim", "netsim", "mpi", "adio", "core", "nvm", "pfs", "store", "extent",
	"mpe", "mpiio", "harness", "workloads", "fault", "trace", "metrics", "critpath",
}

// layerOf charges a stack (innermost frame first) to the innermost frame
// that belongs to the repo, so time in fmt, maps or the allocator counts
// against the repo code that called it.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
			return layerOther
		}
		for _, b := range benchPrefixes {
			if strings.HasPrefix(fn, b) {
				return layerBench
			}
		}
	}
	return layerRuntime
}

// allLayers is every layer layerOf can return, in report order.
func allLayers() []string {
	return append(append([]string(nil), cpuLayers...), layerBench, layerOther, layerRuntime)
}

// layerShares returns each layer's share of the profile's CPU time (the
// "cpu" sample value, or the last value when no type is named so). Every
// layer of allLayers is present; the shares sum to 1 unless the profile is
// empty, in which case all are 0.
func layerShares(p *profile) map[string]float64 {
	col := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			col = i
		}
	}
	per := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if col < 0 || col >= len(s.values) {
			continue
		}
		per[layerOf(s.funcs)] += s.values[col]
		total += s.values[col]
	}
	out := make(map[string]float64)
	for _, l := range allLayers() {
		if total > 0 {
			out[l] = float64(per[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
