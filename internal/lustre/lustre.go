// Package lustre models the Lustre parallel filesystem of the Cray
// XT3/XT4 (§2, Figure 1): a single Metadata Server (MDS), Object Storage
// Servers (OSS) each hosting Object Storage Targets (OSTs), file striping
// across OSTs, and compute-node clients reaching the servers over the
// simulated SeaStar network via liblustre.
//
// The paper describes the architecture and flags the single-MDS metadata
// bottleneck at scale; the model makes both the striping bandwidth
// behaviour and that bottleneck measurable, and the IOR-like benchmark in
// this package exercises them.
package lustre

import (
	"fmt"
	"sort"

	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
)

// Config sizes a Lustre deployment.
type Config struct {
	// OSSCount is the number of Object Storage Servers (on SIO nodes).
	OSSCount int
	// OSTsPerOSS is the number of storage targets each OSS serves.
	OSTsPerOSS int
	// OSTBandwidth is each OST's disk bandwidth in bytes/s.
	OSTBandwidth float64
	// OSSNetBandwidth is each OSS's network/back-end bandwidth in
	// bytes/s (shared by its OSTs).
	OSSNetBandwidth float64
	// MDSOpLatency is the metadata-operation service time in seconds;
	// with one MDS this serialises opens/creates at scale (§2).
	MDSOpLatency float64
	// DefaultStripeCount is the stripe count used when a file does not
	// set its own (Lustre's default was 4 at ORNL).
	DefaultStripeCount int
	// StripeSize is the striping unit in bytes (Lustre default 1 MiB).
	StripeSize int64
	// BypassFabric, when set, still prices the OSS network and OST disk
	// service legs but skips the torus delivery between client and OSS —
	// the control knob of interference studies: with it set, I/O consumes
	// no fabric links, so any compute-phase slowdown it removes was network
	// contention. Always valid; defaults to off (full-fidelity routing).
	BypassFabric bool
}

// DefaultConfig mirrors a mid-2007 NCCS scratch filesystem: 36 OSSes of 2
// OSTs, ~250 MB/s per OST.
func DefaultConfig() Config {
	return Config{
		OSSCount:           36,
		OSTsPerOSS:         2,
		OSTBandwidth:       250e6,
		OSSNetBandwidth:    1.2e9,
		MDSOpLatency:       250e-6,
		DefaultStripeCount: 4,
		StripeSize:         1 << 20,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.OSSCount < 1:
		return fmt.Errorf("lustre: OSSCount = %d", c.OSSCount)
	case c.OSTsPerOSS < 1:
		return fmt.Errorf("lustre: OSTsPerOSS = %d", c.OSTsPerOSS)
	case c.OSTBandwidth <= 0 || c.OSSNetBandwidth <= 0:
		return fmt.Errorf("lustre: invalid bandwidths %+v", c)
	case c.MDSOpLatency <= 0:
		return fmt.Errorf("lustre: MDSOpLatency = %v", c.MDSOpLatency)
	case c.DefaultStripeCount < 1 || c.DefaultStripeCount > c.OSSCount*c.OSTsPerOSS:
		return fmt.Errorf("lustre: stripe count %d out of range", c.DefaultStripeCount)
	case c.StripeSize < 1:
		return fmt.Errorf("lustre: StripeSize = %d", c.StripeSize)
	}
	return nil
}

// TotalOSTs returns the OST count.
func (c Config) TotalOSTs() int { return c.OSSCount * c.OSTsPerOSS }

// FS is a live filesystem instance attached to a simulated system.
type FS struct {
	Cfg    Config
	eng    *sim.Engine
	fabric *network.Fabric

	mds     sim.FIFOResource  // single metadata server (§2's bottleneck)
	ostDisk []*sim.PSResource // per-OST disk bandwidth
	ossNet  []*sim.PSResource // per-OSS network path, shared by its OSTs
	ostNode []int             // fabric node hosting each OST's OSS

	// probe is the serial engine domain's reservation probe, nil while no
	// observer is on — the fabric's nil-gate idiom: observers off cost
	// each stripe one nil check. It carries telemetry's I/O counters and
	// the timeline's OST bins. A system with I/O attached plans the serial
	// engine (core.System.AttachIO), so one probe covers every stripe.
	probe *timeline.Probe

	nextFileID int
	// Stats.
	MetaOps uint64
}

// New attaches a filesystem to an existing engine and fabric. When the
// fabric carries a reserved SIO partition (network.NewWithSIO), OSSes are
// placed round-robin over exactly those nodes; otherwise they fall back to
// round-robin from the top of the node range, mimicking SIO placement at
// the torus edge.
func New(eng *sim.Engine, fabric *network.Fabric, cfg Config) (*FS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fs := &FS{Cfg: cfg, eng: eng, fabric: fabric}
	nNodes := fabric.Tor.Nodes()
	sio := fabric.SIONodes()
	for oss := 0; oss < cfg.OSSCount; oss++ {
		net := sim.NewPSResource(eng, cfg.OSSNetBandwidth)
		node := nNodes - 1 - (oss % nNodes)
		if len(sio) > 0 {
			node = sio[oss%len(sio)]
		}
		for t := 0; t < cfg.OSTsPerOSS; t++ {
			fs.ostDisk = append(fs.ostDisk, sim.NewPSResource(eng, cfg.OSTBandwidth))
			fs.ossNet = append(fs.ossNet, net)
			fs.ostNode = append(fs.ostNode, node)
		}
	}
	return fs, nil
}

// InstallProbe installs the reservation probe the filesystem's transfers
// report to; its IO counters, when set, must be sized for OSTs().
// core.System.Plan calls it for a filesystem registered with AttachIO,
// before any traffic.
func (fs *FS) InstallProbe(p *timeline.Probe) { fs.probe = p }

// OSTs reports the deployment's object-storage-target count.
func (fs *FS) OSTs() int { return fs.Cfg.TotalOSTs() }

// ioStats returns telemetry's I/O counters, nil unless telemetry is on.
func (fs *FS) ioStats() *telemetry.IOStats {
	if fs.probe == nil {
		return nil
	}
	return fs.probe.IO
}

// TelemetryReport assembles the filesystem's deterministic I/O report over
// [0, horizon]: MDS pressure from the FIFO resource, client byte totals
// and the per-OST byte distribution from the hot-path counters, OST
// bandwidth utilizations (bytes served / OSTBandwidth×horizon), and the
// client write-time histogram. Returns nil unless telemetry is enabled.
func (fs *FS) TelemetryReport(horizon float64) *telemetry.IOReport {
	t := fs.ioStats()
	if t == nil {
		return nil
	}
	rep := &telemetry.IOReport{
		OSTs:               fs.Cfg.TotalOSTs(),
		MDSOps:             fs.MetaOps,
		MDSBusySeconds:     float64(fs.mds.Busy),
		MDSUtilization:     telemetry.Round6(fs.mds.Utilization(sim.Time(horizon))),
		ClientBytesWritten: t.ClientBytesWritten,
		ClientBytesRead:    t.ClientBytesRead,
		OSTBytes:           append([]int64(nil), t.OSTBytes...),
		OSTWriteBytes:      append([]int64(nil), t.OSTWriteBytes...),
		WriteCount:         t.WriteCount,
		WriteSeconds:       t.WriteSeconds,
	}
	if horizon > 0 && len(t.OSTBytes) > 0 {
		full := fs.Cfg.OSTBandwidth * horizon
		var sum, max float64
		for i, b := range t.OSTBytes {
			u := float64(b) / full
			sum += u
			if u > max {
				max = u
				rep.BusiestOST = i
			}
		}
		rep.OSTMeanUtilization = telemetry.Round6(sum / float64(len(t.OSTBytes)))
		rep.OSTMaxUtilization = telemetry.Round6(max)
	}
	for i, n := range t.WriteHist {
		if n == 0 {
			continue
		}
		le := telemetry.IOHistUpperSeconds(i)
		if i == telemetry.IOHistBuckets-1 {
			le = 0 // unbounded last bucket
		}
		rep.WriteHist = append(rep.WriteHist, telemetry.IOHistCell{LeSeconds: le, Count: n})
	}
	return rep
}

// File is an open striped file.
type File struct {
	fs          *FS
	ID          int
	StripeCount int
	StripeSize  int64
	// firstOST is the file's starting OST (round-robin layout).
	firstOST int
}

// Create performs a metadata operation on the MDS and returns a file
// striped over stripeCount OSTs (0 means the filesystem default). The
// calling process pays the (possibly queued) MDS latency — this is where
// single-MDS metadata storms hurt.
func (fs *FS) Create(p *sim.Proc, stripeCount int) *File {
	if stripeCount == 0 {
		stripeCount = fs.Cfg.DefaultStripeCount
	}
	if stripeCount < 1 || stripeCount > fs.Cfg.TotalOSTs() {
		panic(fmt.Sprintf("lustre: stripe count %d out of range [1,%d]", stripeCount, fs.Cfg.TotalOSTs()))
	}
	fs.metadataOp(p)
	fs.nextFileID++
	return &File{
		fs:          fs,
		ID:          fs.nextFileID,
		StripeCount: stripeCount,
		StripeSize:  fs.Cfg.StripeSize,
		firstOST:    (fs.nextFileID * 7) % fs.Cfg.TotalOSTs(),
	}
}

// Open performs the metadata lookup for an existing file.
func (fs *FS) Open(p *sim.Proc, f *File) {
	fs.metadataOp(p)
}

// metadataOp serialises through the single MDS.
func (fs *FS) metadataOp(p *sim.Proc) {
	start := fs.mds.Reserve(p.Now(), fs.Cfg.MDSOpLatency)
	p.WaitUntil(start + fs.Cfg.MDSOpLatency)
	fs.MetaOps++
}

// ostFor maps a file offset to the OST holding it.
func (f *File) ostFor(offset int64) int {
	stripeIdx := int(offset/f.StripeSize) % f.StripeCount
	return (f.firstOST + stripeIdx) % f.fs.Cfg.TotalOSTs()
}

// WriteRequest tracks one in-flight transfer: its stripes are issued (and
// their fabric links reserved) at issue time, service proceeds through the
// OSS/OST resources, and Await blocks a process until the slowest stripe
// lands. Obtained from File.WriteBehind; the blocking Write/Read paths use
// one internally.
type WriteRequest struct {
	fs     *FS
	write  bool
	start  sim.Time
	finish sim.Time

	outstanding int
	done        sim.Condition
}

// Done reports whether every stripe of the request has completed.
func (r *WriteRequest) Done() bool { return r.outstanding == 0 }

// Finish returns the completion time; meaningful once Done.
func (r *WriteRequest) Finish() sim.Time { return r.finish }

// Await blocks p until the request completes. Returns immediately when the
// request is already done (or was empty).
func (r *WriteRequest) Await(p *sim.Proc) {
	for r.outstanding > 0 {
		r.done.Await(p)
	}
}

// complete retires one stripe; the last one stamps the finish time, feeds
// the write-time histogram, and wakes waiters.
func (r *WriteRequest) complete() {
	r.outstanding--
	if r.outstanding > 0 {
		return
	}
	fs := r.fs
	r.finish = fs.eng.Now()
	if r.write {
		if t := fs.ioStats(); t != nil {
			t.ObserveWrite(float64(r.finish - r.start))
		}
	}
	r.done.Broadcast()
}

// issue launches length bytes of transfer between the client and the
// file's OSTs onto req, starting at time at. Each stripe's bytes traverse
// the fabric to the OSS node (links reserved cut-through at issue time —
// this is where I/O bursts contend with compute traffic), then the OSS
// network path and the OST disk, both processor-shared with concurrent
// streams. With Cfg.BypassFabric the torus leg is skipped and service
// starts immediately.
func (f *File) issue(at sim.Time, clientNode int, offset, length int64, write bool, req *WriteRequest) {
	if length <= 0 {
		return
	}
	fs := f.fs
	if t := fs.ioStats(); t != nil {
		if write {
			t.ClientBytesWritten += length
		} else {
			t.ClientBytesRead += length
		}
	}
	// Split the request into per-OST byte counts.
	perOST := make(map[int]int64)
	for pos := offset; pos < offset+length; {
		stripeEnd := (pos/f.StripeSize + 1) * f.StripeSize
		end := offset + length
		if stripeEnd < end {
			end = stripeEnd
		}
		perOST[f.ostFor(pos)] += end - pos
		pos = end
	}
	// Launch all stripe transfers in OST order (map iteration order would
	// randomise resource-reservation order and break run reproducibility).
	osts := make([]int, 0, len(perOST))
	for ost := range perOST {
		osts = append(osts, ost)
	}
	sort.Ints(osts)
	for _, ost := range osts {
		bytes := perOST[ost]
		req.outstanding++
		ost := ost
		if pr := fs.probe; pr != nil {
			pr.Stripe(ost, bytes, write, at, float64(bytes)/fs.Cfg.OSTBandwidth)
		}
		// OSS network path then OST disk, processor-shared with concurrent
		// streams.
		serve := func() {
			fs.ossNet[ost].ConsumeAsync(float64(bytes), func() {
				fs.ostDisk[ost].ConsumeAsync(float64(bytes), req.complete)
			})
		}
		if fs.Cfg.BypassFabric {
			serve()
			continue
		}
		// Network leg between client and OSS node.
		msg := network.Msg{
			SrcNode: clientNode, DstNode: fs.ostNode[ost],
			Bytes: bytes, Mode: machine.SN,
		}
		if !write {
			msg.SrcNode, msg.DstNode = msg.DstNode, msg.SrcNode
		}
		fs.fabric.Deliver(at, msg, sim.ArriveFunc(func(arrive sim.Time) {
			serve()
		}))
	}
}

// transfer moves length bytes between the client and the file's OSTs,
// blocking the calling process until the slowest stripe completes.
func (f *File) transfer(p *sim.Proc, clientNode int, offset, length int64, write bool) {
	req := WriteRequest{fs: f.fs, write: write, start: p.Now()}
	f.issue(p.Now(), clientNode, offset, length, write, &req)
	req.Await(p)
}

// Write writes length bytes at offset from the client on clientNode.
func (f *File) Write(p *sim.Proc, clientNode int, offset, length int64) {
	f.transfer(p, clientNode, offset, length, true)
}

// Read reads length bytes at offset into the client on clientNode.
func (f *File) Read(p *sim.Proc, clientNode int, offset, length int64) {
	f.transfer(p, clientNode, offset, length, false)
}

// WriteBehind issues a write without blocking the client: stripe traffic
// departs now (reserving fabric links exactly as a blocking write would)
// while the caller continues computing. Await the returned request — or
// the checkpoint layer's Drain — before reusing the buffer's region.
func (f *File) WriteBehind(p *sim.Proc, clientNode int, offset, length int64) *WriteRequest {
	req := &WriteRequest{fs: f.fs, write: true, start: p.Now()}
	f.issue(p.Now(), clientNode, offset, length, true, req)
	return req
}
