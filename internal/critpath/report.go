package critpath

import (
	"encoding/json"
	"io"
)

// Attribution is one category's share of the critical path.
type Attribution struct {
	// Category is one of the fixed set: "compute", "mpi_wait",
	// "queue_wait", "nic_injection", "link_transit", "io_wait".
	Category string `json:"category"`
	// Seconds is path time attributed to the category; the six categories
	// sum to MakespanSeconds (within float addition error).
	Seconds float64 `json:"seconds"`
	// Share is Seconds / MakespanSeconds, rounded to 1e-6.
	Share float64 `json:"share"`
}

// Contributor is one named entry of a top-k list (an op class, a rank, or
// a directed link).
type Contributor struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// SlackStats summarises per-rank slack: blocked-on-remote time plus
// trailing idle — how much a rank could slow before the runtime changes.
type SlackStats struct {
	MinRank     int     `json:"min_rank"`
	MinSeconds  float64 `json:"min_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	MaxRank     int     `json:"max_rank"`
	MaxSeconds  float64 `json:"max_seconds"`
	// Top lists the slackest ranks, seconds-descending.
	Top []Contributor `json:"top,omitempty"`
}

// Report is the critical-path export of one simulated run. It holds no
// maps and every slice is built in a fixed order, so its JSON rendering is
// byte-identical across runs.
type Report struct {
	SchemaVersion   int     `json:"schema_version"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	Ranks           int     `json:"ranks"`
	WaitsRecorded   int     `json:"waits_recorded"`
	EdgesRecorded   int     `json:"edges_recorded"`
	// Dropped counts records lost to the recorder cap; nonzero means the
	// attribution may be partially degraded (never silently).
	Dropped uint64 `json:"dropped"`
	// PathSteps and PathHops count walk iterations and cross-rank jumps.
	PathSteps int `json:"path_steps"`
	PathHops  int `json:"path_hops"`
	// Attribution splits the path into the six categories, fixed order.
	Attribution []Attribution `json:"attribution"`
	// ByClass lists path time per MPI op class (untruncated); ByRank and
	// ByLink are top-k lists. All are seconds-descending.
	ByClass []Contributor `json:"by_class,omitempty"`
	ByRank  []Contributor `json:"by_rank,omitempty"`
	ByLink  []Contributor `json:"by_link,omitempty"`
	Slack   *SlackStats   `json:"slack,omitempty"`
}

// Category returns the named attribution entry (zero value if absent).
func (r *Report) Category(name string) Attribution {
	for _, a := range r.Attribution {
		if a.Category == name {
			return a
		}
	}
	return Attribution{Category: name}
}

// Class returns the named op-class contributor (zero value if absent).
func (r *Report) Class(name string) Contributor {
	for _, c := range r.ByClass {
		if c.Name == name {
			return c
		}
	}
	return Contributor{Name: name}
}

// AttributionSum is the six categories' total — by construction equal to
// MakespanSeconds up to float addition error; experiments assert the
// difference stays under 1e-9 s.
func (r *Report) AttributionSum() float64 {
	s := 0.0
	for _, a := range r.Attribution {
		s += a.Seconds
	}
	return s
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
