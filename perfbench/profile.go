package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile the benchmark takes of its own traced run is decoded
// here with a minimal reader of the pprof protobuf format, so the module
// needs nothing beyond the standard library. Only the fields attribution
// needs are read: samples (location ids, values, labels), locations
// (their inlined function lines), functions (names) and the string table.

// profSample is one decoded CPU sample: its stack, innermost frame
// first, its CPU nanoseconds and its pprof labels.
type profSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels [][2]int64 // (key, str) string-table indices
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				case 3:
					var k, str int64
					_ = walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						switch f {
						case 1:
							k = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{k, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.vals) > 1 {
			ps.nanos = s.vals[1]
		} else if len(s.vals) == 1 {
			ps.nanos = s.vals[0]
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields iterates the fields of one protobuf message; fn gets the
// varint value for wire type 0 and the bytes for wire type 2.
func walkFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends one varint (wire 0) or a packed run (wire 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// cpuModules are the modules CPU self time is attributed to, in report
// order. "bench" is this benchmark's own code, "runtime_other" the Go
// runtime outside garbage collection (allocation, scheduling), "other"
// whatever matched nothing.
var cpuModules = []string{
	"bitstream", "frame", "node", "core", "bus", "fastpath", "errmodel", "sim",
	"abcheck", "verify", "chaos", "serve", "serve.journal", "fleet", "obs",
	"runtime_gc", "net_http", "encoding_json", "runtime_other", "bench", "other",
}

// packageModule maps a Go package path to its module, or "" for
// packages that pass attribution on to their caller (sync, syscall, os,
// internal/poll, ...).
func packageModule(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch rest {
		case "bus/fastpath":
			return "fastpath"
		case "serve/journal":
			return "serve.journal"
		case "serve/fsio":
			return "" // the storage seam: charged to journal, spool or checkpoint caller
		case "obs/span":
			return "obs"
		}
		top, _, _ := strings.Cut(rest, "/")
		for _, m := range cpuModules {
			if m == top {
				return m
			}
		}
		return "other"
	}
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || pkg == "runtime/internal/atomic":
		return "runtime"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/") || pkg == "net" || pkg == "net/textproto" || pkg == "net/url":
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return ""
}

// funcPackage extracts the package path from a pprof function name such
// as "repro/internal/bus/fastpath.(*Engine).Run".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// gcRoots mark a runtime sample as garbage-collection work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
	"runtime.sweepone", "runtime.scanobject", "runtime.gcMarkDone",
}

// attribute returns the module a sample's self time belongs to: the
// innermost frame whose package maps to a module. Runtime frames count
// as runtime_gc when the stack is garbage-collection work.
func attribute(stack []string) string {
	for _, fn := range stack {
		mod := packageModule(funcPackage(fn))
		switch mod {
		case "":
			continue
		case "runtime":
			for _, f := range stack {
				for _, root := range gcRoots {
					if strings.HasPrefix(f, root) {
						return "runtime_gc"
					}
				}
			}
			return "runtime_other"
		default:
			return mod
		}
	}
	return "other"
}

// cpuShares folds samples into the self-time share of each module and,
// separately, of each value of the "layer" pprof label the benchmark
// sets around its own calls.
func cpuShares(samples []profSample) (byModule, byLabel map[string]float64, totalNanos int64) {
	byModule, byLabel = map[string]float64{}, map[string]float64{}
	for _, s := range samples {
		totalNanos += s.nanos
	}
	if totalNanos == 0 {
		return byModule, byLabel, 0
	}
	for _, s := range samples {
		share := float64(s.nanos) / float64(totalNanos)
		byModule[attribute(s.stack)] += share
		label := s.labels["layer"]
		if label == "" {
			label = "(unlabeled: service and runtime goroutines)"
		}
		byLabel[label] += share
	}
	return byModule, byLabel, totalNanos
}
