package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gamestreamsr/internal/experiments"
)

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should fail")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command should fail")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
	if err := run([]string{"list"}); err != nil {
		t.Errorf("list failed: %v", err)
	}
}

func TestCmdRunValidation(t *testing.T) {
	if err := cmdRun(nil); err == nil {
		t.Error("missing id should fail")
	}
	if err := cmdRun([]string{"fig99"}); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := cmdRun([]string{"fig7"}); err != nil {
		t.Errorf("fig7 failed: %v", err)
	}
	if err := cmdRun([]string{"fig3b", "-simdiv", "8"}); err != nil {
		t.Errorf("fig3b with flags failed: %v", err)
	}
	if err := cmdRun([]string{"fig7", "-bogusflag"}); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestCmdRender(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "frame.ppm")
	if err := cmdRender([]string{"G1", "5", out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("missing %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "frame_depth.pgm")); err != nil {
		t.Error("missing depth dump")
	}
	// Validation.
	if err := cmdRender([]string{"G1", "5"}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := cmdRender([]string{"G99", "5", out}); err == nil {
		t.Error("unknown game should fail")
	}
	if err := cmdRender([]string{"G1", "notanumber", out}); err == nil {
		t.Error("bad frame index should fail")
	}
}

func TestCmdRoI(t *testing.T) {
	dir := t.TempDir()
	if err := cmdRoI([]string{"G3", "30", dir}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"frame_roi.ppm", "depth.pgm", "nearness.pgm", "foreground.pgm", "weighted.pgm", "selected_layer.pgm"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	if err := cmdRoI([]string{"G3"}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := cmdRoI([]string{"G42", "0", dir}); err == nil {
		t.Error("unknown game should fail")
	}
	if err := cmdRoI([]string{"G3", "x", dir}); err == nil {
		t.Error("bad frame index should fail")
	}
}

func TestCmdSim(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "res.json")
	if err := cmdSim([]string{"-frames", "3", "-gop", "3", "-json", out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("missing %s", out)
	}
	for _, p := range []string{"nemo", "srdec"} {
		if err := cmdSim([]string{"-frames", "2", "-gop", "2", "-pipeline", p}); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	if err := cmdSim([]string{"-pipeline", "quantum"}); err == nil {
		t.Error("unknown pipeline should fail")
	}
	if err := cmdSim([]string{"-game", "G99"}); err == nil {
		t.Error("unknown game should fail")
	}
}

func TestCmdReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.md")
	// Restrict to G3 so the per-game experiments stay fast.
	if err := cmdReport([]string{out, "-simdiv", "8", "-gop", "4", "-games", "G3"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"# GameStreamSR — generated results", "## fig10a", "## extgop", "```"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := cmdReport(nil); err == nil {
		t.Error("missing path should fail")
	}
}

// TestDocsMatchRegistry keeps the docs in step with the experiment
// registry: RESULTS.md's sections are experiments.IDs() in order, followed
// by its one hand-written "bench" note, and EXPERIMENTS.md's extensions list
// names exactly the registered ext* ids.
func TestDocsMatchRegistry(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var sections []string
	for _, m := range regexp.MustCompile(`(?m)^## (\S+) — `).FindAllStringSubmatch(read("RESULTS.md"), -1) {
		sections = append(sections, m[1])
	}
	if want := append(experiments.IDs(), "bench"); !slices.Equal(sections, want) {
		t.Errorf("RESULTS.md sections = %v, want %v", sections, want)
	}

	_, list, ok := strings.Cut(read("EXPERIMENTS.md"), "\n## Extensions")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no extensions section")
	}
	list, _, _ = strings.Cut(list, "\n## ")
	var listed, registered []string
	for _, m := range regexp.MustCompile("(?m)^\\* `(ext\\w+)`").FindAllStringSubmatch(list, -1) {
		listed = append(listed, m[1])
	}
	for _, id := range experiments.IDs() {
		if strings.HasPrefix(id, "ext") {
			registered = append(registered, id)
		}
	}
	slices.Sort(listed)
	slices.Sort(registered)
	if !slices.Equal(listed, registered) {
		t.Errorf("EXPERIMENTS.md lists extensions %v, the registry has %v", listed, registered)
	}
}
