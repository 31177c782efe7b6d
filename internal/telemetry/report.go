package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// LinkHot is one entry of the busiest-links list.
type LinkHot struct {
	// Link labels the directed link ("node 12 +X").
	Link string `json:"link"`
	// Utilization is busy/horizon.
	Utilization float64 `json:"utilization"`
	// Bytes is payload bytes serialised through the link.
	Bytes int64 `json:"bytes"`
	// WaitSeconds is total queue-wait behind the link.
	WaitSeconds float64 `json:"wait_seconds"`
}

// FabricReport is the fabric's exported telemetry: per-class and
// per-dimension utilization summaries plus the per-node congestion field
// the heatmap renders. Built by network.Fabric.TelemetryReport.
type FabricReport struct {
	// NX, NY, NZ are the torus dimensions (a flat fabric reports its node
	// count as NX×1×1).
	NX, NY, NZ int `json:"-"`
	// Torus is the printable topology ("4x4x4").
	Torus string `json:"torus"`
	// MsgsDelivered and BytesDelivered mirror the fabric's totals.
	MsgsDelivered  uint64 `json:"msgs_delivered"`
	BytesDelivered uint64 `json:"bytes_delivered"`
	// LocalBytes is same-node memcpy traffic (never touches the NIC).
	LocalBytes int64 `json:"local_bytes"`
	// HopBytes is Σ bytes×hops over remote messages; the link class's total
	// bytes must equal it exactly (CheckConservation).
	HopBytes int64 `json:"hop_bytes"`
	// Classes summarises each resource class: "link", "nic_tx", "nic_rx",
	// "vn_proxy", in that fixed order.
	Classes []ClassSummary `json:"classes"`
	// Dims summarises the links of each torus dimension (X, Y, Z).
	Dims []ClassSummary `json:"dims"`
	// NodeUtil is each node's mean outgoing-link utilization — the
	// congestion heatmap's data, indexed by node id.
	NodeUtil []float64 `json:"node_util"`
	// TopLinks lists the busiest directed links, utilization-descending
	// (ties break toward lower link ids).
	TopLinks []LinkHot `json:"top_links,omitempty"`
}

// Class returns the summary of the named class, or a zero summary if the
// report lacks it.
func (r *FabricReport) Class(name string) ClassSummary {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassSummary{Class: name}
}

// Dim returns the per-dimension link summary of the named dimension.
func (r *FabricReport) Dim(name string) ClassSummary {
	for _, d := range r.Dims {
		if d.Class == name {
			return d
		}
	}
	return ClassSummary{Class: name}
}

// CheckConservation verifies the fabric's byte accounting: payload bytes
// injected at the NICs plus same-node memcpy bytes must equal the fabric's
// delivered total, and the per-link byte counters must sum to exactly the
// hop-weighted delivered bytes. A violation means an instrumentation point
// is missing or double-counting.
func (r *FabricReport) CheckConservation() error {
	tx := r.Class("nic_tx").Bytes
	if got, want := tx+r.LocalBytes, int64(r.BytesDelivered); got != want {
		return fmt.Errorf("telemetry: NIC-tx %d + local %d = %d bytes, but fabric delivered %d", tx, r.LocalBytes, got, want)
	}
	if got, want := r.Class("link").Bytes, r.HopBytes; got != want {
		return fmt.Errorf("telemetry: per-link bytes sum to %d, but hop-weighted delivered bytes are %d", got, want)
	}
	return nil
}

// Report is the complete telemetry export of one simulated run.
type Report struct {
	SchemaVersion  int           `json:"schema_version"`
	HorizonSeconds float64       `json:"horizon_seconds"`
	Fabric         *FabricReport `json:"fabric,omitempty"`
	MPI            *MPIReport    `json:"mpi,omitempty"`
	IO             *IOReport     `json:"io,omitempty"`
}

// WriteJSON writes the report as indented JSON. encoding/json marshals
// struct fields in declaration order and the report holds no maps, so the
// bytes are deterministic.
func (r *Report) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// heatCell maps a utilization fraction to one heatmap character: '.' for
// idle, digits for floor(u×10), '#' for ≈saturated.
func heatCell(u float64) byte {
	switch {
	case u <= 0:
		return '.'
	case u >= 0.995:
		return '#'
	default:
		d := int(u * 10)
		if d > 9 {
			d = 9
		}
		return byte('0' + d)
	}
}

// WriteHeatmap renders the congestion heatmap as text: one X×Y grid per Z
// plane, each cell the node's mean outgoing-link utilization (see
// heatCell's scale).
func (r *FabricReport) WriteHeatmap(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("congestion heatmap: mean outgoing-link utilization per node (%s torus)\n", r.Torus)
	row := make([]byte, r.NX)
	for z := 0; z < r.NZ; z++ {
		p("z=%d\n", z)
		for y := 0; y < r.NY; y++ {
			for x := 0; x < r.NX; x++ {
				id := x + r.NX*(y+r.NY*z)
				row[x] = heatCell(r.NodeUtil[id])
			}
			p("  y=%-3d |%s|\n", y, row)
		}
	}
	p("scale: '.' idle, digit d = utilization in [d*10%%,(d+1)*10%%), '#' >= 99.5%%\n")
	return err
}
