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

// A CPU profile is folded per sample to the layer that owns its innermost
// repo frame: the simulator module (leaserelease/internal/<module>) or the
// benchmark itself (package main, or leaserelease/perfbench in its test
// binary). Runtime frames below that frame are
// charged to it, so a malloc inside the directory counts as coherence.
// Samples with no repo frame are runtime work the program did not call
// directly: garbage collection if any frame belongs to the collector,
// otherwise scheduling and idle spinning.

const internalPrefix = "leaserelease/internal/"

// layerOfModule maps a module path under internal/ to its layer name.
// The workload code that runs on simulated memory shares one layer.
func layerOfModule(mod string) string {
	switch mod {
	case "coherence/tardis":
		return "tardis"
	case "ds", "locks", "multiqueue", "stm", "apps/pagerank":
		return "ds"
	}
	return mod
}

// gcFramePrefixes identify the collector's frames (mark, sweep, scavenge,
// write barriers) in a stack with no repo frame.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.bgscavenge", "runtime.(*gcWork)",
	"runtime.wbBuf", "runtime.(*gcControllerState)",
}

// foldStack returns the layer a sample is charged to. frames run from the
// leaf (innermost) to the root.
func foldStack(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, internalPrefix) {
			return layerOfModule(packageOf(f[len(internalPrefix):]))
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "leaserelease/perfbench.") {
			return "perfbench"
		}
	}
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// packageOf strips the symbol from a qualified function name: the package
// path ends at the first dot after its last slash.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile decodes a gzipped pprof CPU profile and sums each sample's
// CPU time in seconds per layer.
func foldProfile(data []byte) (map[string]float64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.funcName[fid])
			}
		}
		out[foldStack(frames)] += float64(s.cpuNanos) / 1e9
	}
	return out, nil
}

// profile holds the few parts of profile.proto the fold needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs     []uint64 // leaf first
	cpuNanos int64
}

func decodeProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					return appendVarints(&vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				// The CPU profile's values are [samples/count, cpu/nanoseconds].
				s.cpuNanos = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLines[id] = fids
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. Varint fields pass their value in
// v; length-delimited fields pass their bytes in b. Fixed-width fields are
// skipped: profile.proto's fields of interest use neither.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints adds a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
