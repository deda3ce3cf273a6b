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

// foldProfile adds the CPU time of a runtime/pprof CPU profile to acc,
// keyed by the layer (cpuLayer) of each sample's leaf frame, and the
// time of leaf functions outside every named layer to other, keyed by
// function. It decodes just the parts of profile.proto the fold needs:
// samples, locations, functions and the string table.
func foldProfile(gz []byte, acc, other map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string table index
		strs     []string
	)
	err = protoFields(raw, func(field int, _ uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			if err := protoFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			// A CPU profile's sample types are [samples/count, cpu/nanoseconds].
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := protoFields(msg, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined call.
					if !first {
						return nil
					}
					first = false
					return protoFields(b, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := protoFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if si, ok := funcName[locFunc[s.leaf]]; ok && si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		l := cpuLayer(name)
		acc[l] += s.value
		if l == "other" {
			other[name] += s.value
		}
	}
	return nil
}

// cpuLayer maps a fully qualified Go function name to its layer: the
// repro/internal package (last path element, so mac/wigig is "wigig"),
// "runtime" for the Go runtime (including its assembly stubs, which have
// no package qualifier, such as aeshashbody), or "other".
func cpuLayer(fn string) string {
	const prefix = "repro/internal/"
	if strings.HasPrefix(fn, prefix) {
		pkg := fn[len(prefix):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:]
		}
		for _, l := range cpuLayers {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || (fn != "" && !strings.Contains(fn, ".")) {
		return "runtime"
	}
	return "other"
}

var errProto = errors.New("malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value (payload nil) or the
// length-delimited payload. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, given either one
// unpacked value (payload nil) or a packed payload.
func appendVarints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		u, n := binary.Uvarint(payload)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		payload = payload[n:]
	}
	return dst
}
