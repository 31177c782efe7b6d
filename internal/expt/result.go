package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"xtsim/internal/machine"
)

// Row is one line of a table: the cell strings, already formatted the way
// the paper's artifact prints them.
type Row struct {
	Cells []string `json:"cells"`
}

// Block kinds.
const (
	// BlockTable renders its rows through a tabwriter (aligned columns).
	BlockTable = "table"
	// BlockText renders its text verbatim (free-form notes, trace lines).
	BlockText = "text"
)

// Block is one contiguous piece of an experiment's output: an aligned
// table or a verbatim text run. Blocks render in order.
type Block struct {
	Kind string `json:"kind"`
	Rows []Row  `json:"rows,omitempty"`
	Text string `json:"text,omitempty"`
}

// Result is the structured output of one experiment run: the data the text
// tables are rendered from, and what the JSON artifacts serialize.
type Result struct {
	// ID, Artifact and Title mirror the Experiment that produced the result.
	ID       string `json:"id"`
	Artifact string `json:"artifact"`
	Title    string `json:"title"`
	// Blocks hold the experiment's tables and notes in output order.
	Blocks []Block `json:"blocks"`
	// SimSeconds accumulates simulated time where the experiment tracks it
	// (discrete-event runs report their makespan); zero when untracked.
	SimSeconds float64 `json:"sim_seconds"`
	// Attachments are machine-readable exports (telemetry or critical-path
	// JSON documents) attached on request via the -telemetry / -critpath
	// flags; they render after the blocks and are embedded verbatim in
	// JSON artifacts.
	Attachments []Attachment `json:"attachments,omitempty"`

	// budget is the Runner's worker budget while the experiment runs
	// under one (see runCells), nil otherwise.
	budget chan struct{}
}

// Attachment is one machine-readable export attached to a result under
// the documented schema: Kind selects the export family and schema
// ("telemetry" — EXPERIMENTS.md telemetry schema; "critpath" —
// EXPERIMENTS.md critical-path schema), Name says which run of the
// experiment it describes, and JSON is the export document verbatim.
type Attachment struct {
	Kind string          `json:"kind"`
	Name string          `json:"name"`
	JSON json.RawMessage `json:"json"`
}

// Attach renders one JSON export through write (a WriteJSON-style method
// value) and attaches it under (kind, name). This is the shared mechanism
// behind the opt-in exports; experiments should prefer it over hand-rolled
// text blocks so `xtsim -json` artifacts carry the document structurally.
func (r *Result) Attach(kind, name string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	r.Attachments = append(r.Attachments, Attachment{
		Kind: kind,
		Name: name,
		JSON: json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n")),
	})
	return nil
}

// Table appends a new table block and returns a builder for its rows.
func (r *Result) Table() *Table {
	r.Blocks = append(r.Blocks, Block{Kind: BlockTable})
	return &Table{res: r, idx: len(r.Blocks) - 1}
}

// Textf appends formatted text verbatim; callers include their own
// newlines, exactly like fmt.Fprintf on a stream.
func (r *Result) Textf(format string, args ...any) {
	r.appendText(fmt.Sprintf(format, args...))
}

// Textln appends one line of text plus a newline.
func (r *Result) Textln(line string) {
	r.appendText(line + "\n")
}

func (r *Result) appendText(s string) {
	// Merge consecutive text into one block so a multi-line note is a
	// single artifact entry.
	if n := len(r.Blocks); n > 0 && r.Blocks[n-1].Kind == BlockText {
		r.Blocks[n-1].Text += s
		return
	}
	r.Blocks = append(r.Blocks, Block{Kind: BlockText, Text: s})
}

// AddSimSeconds accumulates simulated time into the result's metrics.
func (r *Result) AddSimSeconds(s float64) { r.SimSeconds += s }

// Render writes the blocks to w exactly as the pre-structured experiments
// printed them: tables through a tabwriter with the historical settings,
// text verbatim. Rendering is deterministic: same Result, same bytes.
func (r *Result) Render(w io.Writer) error {
	for _, b := range r.Blocks {
		switch b.Kind {
		case BlockTable:
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			for _, row := range b.Rows {
				for i, c := range row.Cells {
					if i > 0 {
						fmt.Fprint(tw, "\t")
					}
					fmt.Fprint(tw, c)
				}
				fmt.Fprintln(tw)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		case BlockText:
			if _, err := io.WriteString(w, b.Text); err != nil {
				return err
			}
		default:
			return fmt.Errorf("expt: unknown block kind %q in %s", b.Kind, r.ID)
		}
	}
	for _, a := range r.Attachments {
		if _, err := fmt.Fprintf(w, "\n%s export (%s):\n%s\n", a.Kind, a.Name, a.JSON); err != nil {
			return err
		}
	}
	return nil
}

// Table builds rows of one table block. The builder addresses its block by
// index so it stays valid when Result.Blocks reallocates.
type Table struct {
	res *Result
	idx int
}

// Row appends one table row.
func (t *Table) Row(cells ...string) {
	b := &t.res.Blocks[t.idx]
	b.Rows = append(b.Rows, Row{Cells: cells})
}

// ArtifactSchemaVersion identifies the JSON artifact layout; bump it on
// incompatible changes (EXPERIMENTS.md documents the schema per version).
const ArtifactSchemaVersion = 1

// Artifact is the machine-readable record of one experiment run, written
// by `xtsim -json <dir>` as <dir>/<id>.json. It is self-contained: the
// machine configurations are the model's full input set, so a stored
// artifact can be interpreted (or diffed) without the repo checkout that
// produced it.
type Artifact struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`
	PaperArtifact string `json:"paper_artifact"`
	Title         string `json:"title"`
	// Options is the scale the run used.
	Options Options `json:"options"`
	// Machines lists every machine preset the campaign draws from
	// (Table 1 systems plus the §6 comparison platforms) with all
	// calibrated model constants.
	Machines []machine.Machine `json:"machines"`
	// Blocks are the structured rows/notes; identical to what Render
	// prints as text.
	Blocks []Block `json:"blocks"`
	// SimSeconds is simulated time where tracked (see Result.SimSeconds).
	SimSeconds float64 `json:"sim_seconds"`
	// Attachments are the opt-in machine-readable exports (see
	// Result.Attachments), embedded verbatim.
	Attachments []Attachment `json:"attachments,omitempty"`
	// WallSeconds is host wall-clock time for the run; the only
	// nondeterministic field.
	WallSeconds float64 `json:"wall_seconds"`
	// Error is the failure message for an unsuccessful run, empty on
	// success. Blocks may be partial when set.
	Error string `json:"error,omitempty"`
}
