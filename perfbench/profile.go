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

// The traced run's CPU profile is folded into per-layer self shares.
// runtime/pprof writes the gzipped protobuf profile.proto format; the
// decoder below reads only the fields the fold needs: sample types,
// samples, locations with their inlined lines, functions and strings.

// layers are the repository modules a sample can be attributed to, in
// addition to "runtime" and "other".
var layers = []string{"workload", "cache", "system", "sim", "dramcache", "dram", "backing", "experiments", "serve"}

// simLayers are the layers that do simulator work.
var simLayers = map[string]bool{"workload": true, "cache": true, "system": true, "sim": true,
	"dramcache": true, "dram": true, "backing": true}

// fold is a profile folded per layer.
type fold struct {
	share map[string]float64 // layer -> share of all samples; the shares sum to 1
	// hitSim is the share of the samples on HTTP connection goroutines
	// that fall in a simulator layer: the simulator's part of the serve
	// hit path.
	hitSim  float64
	samples int
}

// layerOf attributes one sample by its stack, leaf first. A sample whose
// leaf is in the Go runtime is runtime self time. Otherwise it belongs
// to the innermost frame in a layer's package (tdram/internal/<layer>),
// so standard-library and helper-package frames count for the layer
// that called them; a stack with no layer frame is "other".
func layerOf(stack []string) string {
	if len(stack) > 0 && isRuntime(stack[0]) {
		return "runtime"
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "tdram/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	if strings.HasPrefix(fn, "runtime.") {
		return true
	}
	// internal/runtime/syscall is socket and file I/O, which belongs to
	// whoever issued it.
	return strings.HasPrefix(fn, "internal/runtime/") && !strings.HasPrefix(fn, "internal/runtime/syscall.")
}

// foldProfile decodes a runtime/pprof CPU profile and folds it.
func foldProfile(raw []byte) (*fold, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	f := &fold{share: map[string]float64{}}
	var total, onConn, onConnSim float64
	for _, s := range p.samples {
		stack := p.stack(s.locations)
		l := layerOf(stack)
		w := float64(s.value)
		f.share[l] += w
		total += w
		f.samples++
		for _, fn := range stack {
			if strings.HasPrefix(fn, "net/http.(*conn).serve") {
				onConn += w
				if simLayers[l] {
					onConnSim += w
				}
				break
			}
		}
	}
	if total > 0 {
		for l := range f.share {
			f.share[l] /= total
		}
	}
	if onConn > 0 {
		f.hitSim = onConnSim / onConn
	}
	return f, nil
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]string   // function id -> name
}

type profSample struct {
	locations []uint64 // leaf first
	value     int64
}

func (p *profile) stack(locs []uint64) []string {
	var names []string
	for _, id := range locs {
		for _, fid := range p.locations[id] {
			names = append(names, p.functions[fid])
		}
	}
	return names
}

// decodeProfile reads a gzipped profile.proto message.
func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var sampleTypes [][]byte
	var rawSamples [][]byte
	funcNames := map[uint64]int64{}
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, b)
		case 2: // sample
			rawSamples = append(rawSamples, b)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range funcNames {
		if name < 0 || int(name) >= len(strs) {
			return nil, errors.New("profile: function name out of range")
		}
		p.functions[id] = strs[name]
	}
	// The CPU-time value: the sample type whose type is "cpu", else the last.
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		var typ uint64
		if err := fields(st, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if int(typ) < len(strs) && strs[typ] == "cpu" {
			valueIdx = i
		}
	}
	for _, b := range rawSamples {
		var s profSample
		var values []int64
		err := fields(b, func(num int, v uint64, packed []byte) error {
			switch num {
			case 1:
				if packed != nil {
					return varints(packed, func(v uint64) { s.locations = append(s.locations, v) })
				}
				s.locations = append(s.locations, v)
			case 2:
				if packed != nil {
					return varints(packed, func(v uint64) { values = append(values, int64(v)) })
				}
				values = append(values, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= 0 && valueIdx < len(values) {
			s.value = values[valueIdx]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its
// bytes. Fixed-width fields are skipped.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: truncated field")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// varints decodes a packed repeated varint field.
func varints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
