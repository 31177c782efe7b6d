package xtsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"xtsim/internal/expt"
)

// exportRow pins one observer export of the -short campaign: the
// attachment's byte length and SHA-256, keyed by experiment, kind and name.
type exportRow struct {
	id, kind, name string
	bytes          int
	sha256         string
}

// observerExports pins every attachment the -short campaign renders with
// every observer on (`xtsim -run all -short -telemetry -critpath
// -timeline`), in campaign order. An observer change that claims to leave
// its exports alone must leave every row unchanged; a deliberate schema
// change regenerates the table from TestObserverExportsPinned's failure
// output.
var observerExports = []exportRow{
	{"congestion", "telemetry", "VN NIC-sharing run", 5356, "672875d821f1bf8969abcd87b03da89b9498d2bd0e906916f64d71db263ae8d0"},
	{"critpath", "critpath", "POP barotropic standard CG (XT4 VN)", 3080, "f62716b5f014a5966a1445d8d156484a041c97bf1a757e1b896ba82e14d2e59e"},
	{"critpath", "critpath", "CAM physics VN (XT4)", 2972, "16cf319f5470c7e258f261dbc8b95d1dddc712029077322219e8c55dd2035c68"},
	{"critpath", "critpath", "S3D weak-scaling step (XT4 VN)", 2224, "cc70c73c869d7502e098ba37cd75612e7da4e577d0ab1ed92edf316b4e582cb5"},
	{"ext-io", "telemetry", "IOR widest-stripe run", 6625, "de3bac2dac6c86f7f0ee43cde605e986aefb81ac2c16539b5637d5edead065b6"},
	{"ext-ckpt", "telemetry", "checkpointed S3D run", 10345, "b58fbdb240717c53c50968c5d1dcc9854ccea184f85cafd7cde1ab2e800d24db"},
	{"ext-ckpt", "critpath", "checkpointed S3D run", 3825, "4818f7b6d245530aef8689908efec69886a30e080b0687af4d5328c61a6cbb5d"},
	{"ext-parallel", "parallel", "4-domain S3D run", 836, "3220b7b58e9e6fcd9878d1c3934f11ceb522d2bb0da98379969ed04ea085b960"},
	{"ext-timeline", "timeline", "checkpointed S3D run", 30070, "ed9213a25c0d89c8394abadda697d048dd0b8e73872d00aac2e5451d191c5276"},
}

// TestObserverExportsPinned runs the -short campaign with every observer
// on. With the attachments taken out, the rendering must equal
// experiments_output.txt (observers change no table), and each attachment
// must match its pinned length and hash in observerExports. On a mismatch
// it prints the observed table.
func TestObserverExportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full short-scale campaign; skipped in -short")
	}
	golden, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	r := &expt.Runner{
		Jobs: runtime.NumCPU(),
		Opts: expt.Options{Short: true, Telemetry: true, CritPath: true, Timeline: true},
	}
	var tables bytes.Buffer
	var got []exportRow
	for _, s := range r.Run(expt.All()) {
		if s.Err != nil {
			t.Fatalf("%s failed: %v", s.Experiment.ID, s.Err)
		}
		for _, a := range s.Result.Attachments {
			sum := sha256.Sum256(a.JSON)
			got = append(got, exportRow{s.Experiment.ID, a.Kind, a.Name, len(a.JSON), hex.EncodeToString(sum[:])})
		}
		s.Result.Attachments = nil
		if err := s.Render(&tables); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(tables.Bytes(), golden) {
		t.Error("with the attachments taken out, the observer campaign does not render experiments_output.txt")
	}
	same := len(got) == len(observerExports)
	var observed strings.Builder
	for i, g := range got {
		fmt.Fprintf(&observed, "\t{%q, %q, %q, %d, %q},\n", g.id, g.kind, g.name, g.bytes, g.sha256)
		if i < len(observerExports) && observerExports[i] != g {
			same = false
			t.Errorf("%s %s export %q: %d bytes, sha256 %s; pinned %+v", g.id, g.kind, g.name, g.bytes, g.sha256, observerExports[i])
		}
	}
	if !same {
		t.Errorf("observerExports does not match the campaign's exports; observed table:\n%s", observed.String())
	}
}
