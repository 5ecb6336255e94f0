package pipeline_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRunArchiveGolden pins the JSON archives of one pass of all three
// variants (detConfig's 8-frame G3 run: ours, NEMO and srdecoder with
// Bicubic) byte for byte: every pixel-derived quality figure, modelled
// stage latency, energy rail and byte count. A change that claims to leave
// the numbers alone must leave the golden file alone. Regenerate with `go test ./internal/pipeline -run ArchiveGolden -update`.
func TestRunArchiveGolden(t *testing.T) {
	got := runJSON(t, runners(t)["onepass"])
	golden := filepath.Join("testdata", "run_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("run archives drifted from %s (re-run with -update if intended)", golden)
	}
}
