// A minimal decoder for the protobuf CPU profiles runtime/pprof writes:
// just the samples, their stacks' function names and their string labels.
// The standard library exposes no profile reader, and the benchmark may
// import nothing beyond it and the repository.

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
)

type pSample struct {
	locs   []uint64
	value  int64 // CPU nanoseconds (the profile's second value)
	labels map[int64]int64
}

type pLocation struct{ funcs []uint64 } // innermost (inlined) first

type profile struct {
	samples []pSample
	locs    map[uint64]pLocation
	funcs   map[uint64]int64 // function id -> name string index
	strs    []string
}

// label returns the sample's string label under key, or "".
func (s pSample) label(p *profile, key string) string {
	for k, v := range s.labels {
		if int(k) < len(p.strs) && p.strs[k] == key && int(v) < len(p.strs) {
			return p.strs[v]
		}
	}
	return ""
}

// frames returns the sample's function names, innermost first.
func (s pSample) frames(p *profile) []string {
	var out []string
	for _, id := range s.locs {
		for _, fid := range p.locs[id].funcs {
			if si, ok := p.funcs[fid]; ok && int(si) < len(p.strs) {
				out = append(out, p.strs[si])
			}
		}
	}
	return out
}

var errProto = errors.New("profile: malformed protobuf")

// field is one decoded protobuf field: a varint value or a byte payload.
type field struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// fields splits a protobuf message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return nil, fmt.Errorf("%w: wire type %d", errProto, f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(f field) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile parses an uncompressed profile.proto message.
func decodeProfile(b []byte) (*profile, error) {
	top, err := fields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64]pLocation{}, funcs: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			s, err := decodeSample(f.bytes)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var loc pLocation
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					lf, err := fields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range lf {
						if h.num == 1 {
							loc.funcs = append(loc.funcs, h.v)
						}
					}
				}
			}
			p.locs[id] = loc
		case 5: // function
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.bytes))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (pSample, error) {
	sub, err := fields(b)
	if err != nil {
		return pSample{}, err
	}
	var s pSample
	var values []uint64
	for _, g := range sub {
		switch g.num {
		case 1:
			v, err := varints(g)
			if err != nil {
				return pSample{}, err
			}
			s.locs = append(s.locs, v...)
		case 2:
			v, err := varints(g)
			if err != nil {
				return pSample{}, err
			}
			values = append(values, v...)
		case 3: // label
			lf, err := fields(g.bytes)
			if err != nil {
				return pSample{}, err
			}
			var key, str int64
			for _, h := range lf {
				switch h.num {
				case 1:
					key = int64(h.v)
				case 2:
					str = int64(h.v)
				}
			}
			if s.labels == nil {
				s.labels = map[int64]int64{}
			}
			s.labels[key] = str
		}
	}
	if len(values) > 0 {
		s.value = int64(values[len(values)-1])
	}
	return s, nil
}
