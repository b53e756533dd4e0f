package main

// profile.go attributes a runtime/pprof CPU profile to the simulator's
// modules. The profile is a gzipped profile.proto message; the few
// fields attribution needs are decoded here with a minimal protobuf
// reader, since the standard library ships a profile writer but no
// reader.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// hostModules are the per-module host self-time shares the traced pass
// reports, in output order: the ddio/internal packages, three runtime
// classes, and everything else.
var hostModules = []string{
	"sim", "netsim", "cluster", "disk", "bus", "pfs", "hpf", "tcfs", "core", "twophase",
	"workload", "fault", "exp", "serve", "trace", "plot", "stats",
	"runtime.gc", "runtime.sched", "runtime.malloc", "other",
}

// attribute decodes a gzipped CPU profile and returns each module's share
// of the sampled CPU time (summing to 1) and the total CPU nanoseconds
// sampled.
func attribute(gz []byte) (shares map[string]float64, totalNs int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("bench: reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: reading profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	ns := map[string]int64{}
	for _, s := range prof.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fn := range prof.locs[id] {
				frames = append(frames, prof.strings[prof.funcs[fn]])
			}
		}
		ns[classify(frames)] += s.value
		totalNs += s.value
	}
	shares = make(map[string]float64, len(hostModules))
	for _, m := range hostModules {
		if totalNs > 0 {
			shares[m] = float64(ns[m]) / float64(totalNs)
		} else {
			shares[m] = 0
		}
	}
	return shares, totalNs, nil
}

// classify charges one sample, given its frames leaf first, to a module:
//   - a runtime leaf goes to the first runtime class (gc, sched, malloc)
//     found walking up through runtime frames;
//   - otherwise — library code, or runtime work no class claims, such as
//     memmove — goes to the nearest ddio/internal caller, so a module's
//     share counts the library calls it makes;
//   - a stack with no such caller (HTTP plumbing, the benchmark itself)
//     goes to "other".
func classify(frames []string) string {
	for _, f := range frames {
		if !isRuntime(pkgOf(f)) {
			break
		}
		if c := runtimeClass(f); c != "" {
			return c
		}
	}
	for _, f := range frames {
		if mod, ok := strings.CutPrefix(pkgOf(f), "ddio/internal/"); ok {
			for _, m := range hostModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
	}
	return "other"
}

// pkgOf returns the import path of a profile function name such as
// "ddio/internal/sim.(*Engine).loop" or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation; its type list may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// runtimeClasses maps runtime function-name prefixes (after "runtime.")
// to a class; the first match wins.
var runtimeClasses = []struct{ prefix, class string }{
	{"gcAssistAlloc", "runtime.gc"},
	{"gc", "runtime.gc"},
	{"(*gc", "runtime.gc"},
	{"scan", "runtime.gc"},
	{"greyobject", "runtime.gc"},
	{"markroot", "runtime.gc"},
	{"findObject", "runtime.gc"},
	{"bgsweep", "runtime.gc"},
	{"sweepone", "runtime.gc"},
	{"(*sweepLocked)", "runtime.gc"},
	{"(*mspan).sweep", "runtime.gc"},
	{"(*mspan).typePointers", "runtime.gc"},
	{"(*typePointers)", "runtime.gc"},
	{"wbBuf", "runtime.gc"},
	{"(*wbBuf)", "runtime.gc"},
	{"bulkBarrier", "runtime.gc"},
	{"bgscavenge", "runtime.gc"},
	{"(*scavenger", "runtime.gc"},
	{"(*pageAlloc)", "runtime.gc"},
	{"mallocgc", "runtime.malloc"},
	{"nextFree", "runtime.malloc"},
	{"(*mcache)", "runtime.malloc"},
	{"(*mcentral)", "runtime.malloc"},
	{"(*mheap)", "runtime.malloc"},
	{"(*mspan)", "runtime.malloc"},
	{"heapSetType", "runtime.malloc"},
	{"heapBitsSetType", "runtime.malloc"},
	{"newobject", "runtime.malloc"},
	{"newarray", "runtime.malloc"},
	{"makeslice", "runtime.malloc"},
	{"makemap", "runtime.malloc"},
	{"growslice", "runtime.malloc"},
	{"rawstring", "runtime.malloc"},
	{"rawbyteslice", "runtime.malloc"},
	{"memclrNoHeapPointers", "runtime.malloc"},
	{"schedule", "runtime.sched"},
	{"findRunnable", "runtime.sched"},
	{"park_m", "runtime.sched"},
	{"gopark", "runtime.sched"},
	{"goready", "runtime.sched"},
	{"ready", "runtime.sched"},
	{"chansend", "runtime.sched"},
	{"chanrecv", "runtime.sched"},
	{"send", "runtime.sched"},
	{"recv", "runtime.sched"},
	{"selectgo", "runtime.sched"},
	{"runq", "runtime.sched"},
	{"globrunq", "runtime.sched"},
	{"stealWork", "runtime.sched"},
	{"futex", "runtime.sched"},
	{"note", "runtime.sched"},
	{"sem", "runtime.sched"}, // semacquire, semrelease, semasleep, semawakeup
	{"lock", "runtime.sched"},
	{"unlock", "runtime.sched"},
	{"mcall", "runtime.sched"},
	{"gogo", "runtime.sched"},
	{"execute", "runtime.sched"},
	{"casgstatus", "runtime.sched"},
	{"gosched", "runtime.sched"},
	{"goschedImpl", "runtime.sched"},
	{"wakep", "runtime.sched"},
	{"startm", "runtime.sched"},
	{"stopm", "runtime.sched"},
	{"mPark", "runtime.sched"},
	{"handoffp", "runtime.sched"},
	{"acquirep", "runtime.sched"},
	{"releasep", "runtime.sched"},
	{"resetspinning", "runtime.sched"},
	{"checkTimers", "runtime.sched"},
	{"(*timers)", "runtime.sched"},
	{"usleep", "runtime.sched"},
	{"osyield", "runtime.sched"},
	{"procyield", "runtime.sched"},
	{"netpoll", "runtime.sched"},
	{"sysmon", "runtime.sched"},
	{"retake", "runtime.sched"},
	{"entersyscall", "runtime.sched"},
	{"exitsyscall", "runtime.sched"},
	{"newproc", "runtime.sched"},
	{"goexit", "runtime.sched"},
}

// runtimeClass returns the class of a runtime function, or "" for runtime
// work no class claims.
func runtimeClass(fn string) string {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return ""
	}
	for _, c := range runtimeClasses {
		if strings.HasPrefix(name, c.prefix) {
			return c.class
		}
	}
	return ""
}

// profile is the part of a decoded profile.proto attribution uses.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strings []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

// profile.proto field numbers.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6
	fValueTypeType     = 1
	fSampleLocation    = 1
	fSampleValue       = 2
	fLocationID        = 1
	fLocationLine      = 4
	fLineFunction      = 1
	fFunctionID        = 1
	fFunctionName      = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	var sampleTypes []int64 // type string index per value
	var rawSamples []sample
	var rawValues [][]int64
	err := eachField(b, func(field int, v uint64, data []byte) error {
		switch field {
		case fProfileSampleType:
			return eachField(data, func(f int, v uint64, _ []byte) error {
				if f == fValueTypeType {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case fProfileSample:
			var s sample
			var vals []int64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case fSampleLocation:
					return eachVarint(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return eachVarint(v, d, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			rawSamples = append(rawSamples, s)
			rawValues = append(rawValues, vals)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: decoding profile: %w", err)
	}
	// Weight samples by CPU time when the profile carries it, else count.
	vi := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if t >= 0 && t < int64(len(p.strings)) && p.strings[t] == "cpu" {
			vi = i
		}
	}
	for i, s := range rawSamples {
		if vi >= 0 && vi < len(rawValues[i]) {
			s.value = rawValues[i][vi]
		}
		p.samples = append(p.samples, s)
	}
	for _, name := range p.funcs {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("bench: decoding profile: function name index %d out of range", name)
		}
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed value, data a length-delimited payload.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", key&7, field)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (data set)
// or one per field occurrence (v).
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
