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

// Layers, in report order. A profile sample's self time goes to
// exactly one of them, so their sum is the profile total.
const (
	layerSched = "runtime.sched"
	layerGC    = "runtime.gc"
	layerOther = "other"
)

var layers = []string{
	"guest", "sim", "kvm", "hostmm", "pagecache", "blockdev", "kprobe", "ebpf",
	"prefetch", "store", "check", "obs", "vmm", "snapshot", "workload",
	"experiments", layerOther, layerSched, layerGC,
}

// pkgLayer folds top-level internal packages into the layer they
// belong to; subpackages (prefetch/reap, prefetch/faast,
// prefetch/faasnap, ebpf/absint) already count under their parent.
// Packages not named here and not layers themselves count as other.
var pkgLayer = map[string]string{
	"core":  "prefetch",
	"trace": "workload",
}

const internalPrefix = "snapbpf/internal/"

// gcWorkers are the runtime's background GC goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf attributes a stack (innermost frame first) to a layer: the
// package of the innermost snapbpf/internal frame wins; a stack with
// no such frame is GC when a GC worker runs it, scheduler otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		rest := fn[len(internalPrefix):]
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return layerOther
	}
	for _, fn := range stack {
		for _, w := range gcWorkers {
			if fn == w {
				return layerGC
			}
		}
	}
	return layerSched
}

// sample is one decoded CPU profile sample.
type sample struct {
	stack []string // function names, innermost first, inlined frames expanded
	label string   // value of the "cell" pprof label, "" when unlabeled
	count int64    // profiling signals merged into this sample
	nanos int64    // CPU time they stand for
}

// layerNanos sums sample time per layer and returns the total, which
// the per-layer sums add up to by construction.
func layerNanos(samples []sample) (map[string]int64, int64) {
	out := make(map[string]int64, len(layers))
	var total int64
	for _, s := range samples {
		out[layerOf(s.stack)] += s.nanos
		total += s.nanos
	}
	return out, total
}

// parseProfile decodes a gzipped profile.proto CPU profile as written
// by runtime/pprof: the samples/count and cpu/nanoseconds values of
// every sample, its stack resolved to function names and its "cell"
// label.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		strs      []string
		raws      []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		sampleTyp [][2]int64              // type, unit
	)
	err = walk(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var t [2]int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTyp = append(sampleTyp, t)
			return err
		case 2: // sample
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l [2]int64
					err := walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							l[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	countIdx, nanosIdx := -1, -1
	for i, t := range sampleTyp {
		switch str(t[0]) + "/" + str(t[1]) {
		case "samples/count":
			countIdx = i
		case "cpu/nanoseconds":
			nanosIdx = i
		}
	}
	if countIdx < 0 || nanosIdx < 0 {
		return nil, errors.New("profile: not a CPU profile")
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if countIdx >= len(r.values) || nanosIdx >= len(r.values) {
			return nil, errors.New("profile: sample without values")
		}
		s := sample{count: r.values[countIdx], nanos: r.values[nanosIdx]}
		for _, loc := range r.locs {
			for _, fid := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fid]))
			}
		}
		for _, l := range r.labels {
			if str(l[0]) == cellLabel {
				s.label = str(l[1])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends a repeated varint field, packed (b non-nil) or
// not (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walk calls fn for each field of a protobuf message: varint and
// fixed-width fields pass their value, length-delimited ones their
// bytes (never nil).
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
