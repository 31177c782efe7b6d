package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// profile is the part of a runtime/pprof CPU profile the cost card needs:
// each sample's stack and CPU time, with frames resolved to function names
// and files.
type profile struct {
	samples []pSample
}

// pSample is one stack, leaf frame first (inlined frames expanded, the
// innermost first), and the CPU nanoseconds charged to it.
type pSample struct {
	frames []pFrame
	nanos  int64
}

type pFrame struct {
	fn, file string
}

const internalPrefix = "xtsim/internal/"

// fileBuckets splits the hottest packages by source file.
var fileBuckets = map[string]map[string]string{
	"sim": {
		"engine.go":   "cpu.sim.engine",
		"proc.go":     "cpu.sim.proc",
		"mailbox.go":  "cpu.sim.proc",
		"resource.go": "cpu.sim.resource",
		"parallel.go": "cpu.sim.parallel",
		"":            "cpu.sim.engine",
	},
	"network": {
		"hybrid.go":   "cpu.network.hybrid",
		"parallel.go": "cpu.network.parallel",
		"":            "cpu.network.fabric",
	},
	"mpi": {
		"hybrid.go":   "cpu.mpi.hybrid",
		"profile.go":  "cpu.mpi.observe",
		"timeline.go": "cpu.mpi.observe",
		"":            "cpu.mpi.core",
	},
}

// pkgBuckets maps the other packages under xtsim/internal to their layer.
var pkgBuckets = map[string]string{
	"core":      "cpu.core",
	"machine":   "cpu.core",
	"torus":     "cpu.torus",
	"apps":      "cpu.apps",
	"hpcc":      "cpu.hpcc",
	"kernels":   "cpu.hpcc",
	"lustre":    "cpu.lustre",
	"io":        "cpu.lustre",
	"telemetry": "cpu.telemetry",
	"timeline":  "cpu.timeline",
	"critpath":  "cpu.critpath",
	"trace":     "cpu.trace",
	"expt":      "cpu.expt",
	"serve":     "cpu.expt",
}

// bucketOf names the layer of an xtsim/internal function, and reports
// false for any other frame.
func bucketOf(fn, file string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	// The package path ends at the first '.', which also precedes any
	// receiver or generic shape.
	pkg := rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg = rest[:i]
	}
	top, _, _ := strings.Cut(pkg, "/")
	if files, ok := fileBuckets[top]; ok {
		if b, ok := files[filepath.Base(file)]; ok {
			return b, true
		}
		return files[""], true
	}
	if b, ok := pkgBuckets[top]; ok {
		return b, true
	}
	return "cpu.other", true
}

// calibPrefix starts the function names of the host-speed calibration
// (calib.go), whose samples are not part of any repetition.
const calibPrefix = "main.calib"

// attribute charges each sample to the innermost xtsim/internal frame on
// its stack, so runtime work beneath a layer (channel handoffs, mallocgc,
// GC assists) counts toward that layer; samples with no such frame go to
// cpu.runtime, and calibration samples are left out. It returns CPU
// seconds per bucket and in total.
func (p *profile) attribute() (map[string]float64, float64) {
	out := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		b := "cpu.runtime"
		for _, f := range s.frames {
			if strings.HasPrefix(f.fn, calibPrefix) {
				b = ""
				break
			}
			if name, ok := bucketOf(f.fn, f.file); ok {
				b = name
				break
			}
		}
		if b == "" {
			continue
		}
		sec := float64(s.nanos) / 1e9
		out[b] += sec
		total += sec
	}
	return out, total
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Field numbers of the profile.proto messages parseProfile reads.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
	functionFile = 4
)

// parseProfile decodes an uncompressed profile.proto message.
func parseProfile(b []byte) (*profile, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		typeIdx []uint64
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleType:
			return eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == valueTypeType {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := eachField(msg, func(n int, v uint64, packed []byte) error {
				switch n {
				case sampleLocation:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n int, v uint64, line []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var f rawFunc
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					f.name = v
				case functionFile:
					f.file = v
				}
				return nil
			})
			funcs[id] = f
			return err
		case profStrings:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; charge the cpu value.
	cpu := len(typeIdx) - 1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no sample types")
	}
	p := &profile{}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("sample has fewer values than sample types")
		}
		ps := pSample{nanos: s.values[cpu]}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				ps.frames = append(ps.frames, pFrame{fn: str(f.name), file: str(f.file)})
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes; fixed-width
// fields are skipped.
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether it arrived
// as a single value (packed == nil) or packed.
func eachVarint(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}
