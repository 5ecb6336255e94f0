package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastOpt keeps per-game experiments affordable in the test suite.
func fastOpt() Options {
	return Options{SimDiv: 8, GOPSize: 4, Frames: 4, GameIDs: []string{"G3"}}
}

func TestIDsAndTitles(t *testing.T) {
	ids := IDs()
	if len(ids) != 19 {
		t.Fatalf("got %d experiments", len(ids))
	}
	for _, id := range ids {
		title, err := Title(id)
		if err != nil || title == "" {
			t.Errorf("Title(%s) = %q, %v", id, title, err)
		}
	}
	if _, err := Title("fig99"); err == nil {
		t.Error("unknown title should fail")
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", &bytes.Buffer{}, Options{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestTableI(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("tab1", &buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"G1", "Metro Exodus", "G10", "Racing"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig2(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig2", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "VIOLATED") {
		t.Error("SOTA timeline should show deadline violations")
	}
	if !strings.Contains(out, "reference") {
		t.Error("missing reference frames")
	}
}

func TestFig3a(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig3a", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "720p x2") || !strings.Contains(out, "240p x6") {
		t.Errorf("missing sweep rows:\n%s", out)
	}
}

func TestFig3b(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig3b", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The knee: the RoI window is real-time, 720p is not.
	if !strings.Contains(out, "300x300 (RoI)") {
		t.Errorf("missing RoI row:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.Contains(l, "(RoI)") && !strings.Contains(l, "yes") {
			t.Errorf("RoI row should be real-time: %s", l)
		}
		if strings.HasPrefix(l, "720p") && !strings.Contains(l, "no") {
			t.Errorf("720p row should violate: %s", l)
		}
	}
}

func TestFig7(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig7", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Samsung") || !strings.Contains(buf.String(), "Pixel") {
		t.Errorf("missing devices:\n%s", buf.String())
	}
}

func TestFig8WithDump(t *testing.T) {
	dir := t.TempDir()
	opt := fastOpt()
	opt.OutDir = dir
	var buf bytes.Buffer
	if err := Run("fig8", &buf, opt); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig8_G3_depth.pgm", "fig8_G3_nearness.pgm", "fig8_G3_weighted.pgm", "fig8_G3_selected.pgm"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing dump %s: %v", f, err)
		}
	}
}

func TestFig10a(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig10a", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Samsung Galaxy Tab S8") || !strings.Contains(out, "Google Pixel 7 Pro") {
		t.Errorf("missing device rows:\n%s", out)
	}
	if !strings.Contains(out, "x") {
		t.Error("missing speedup values")
	}
}

func TestFig10c(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig10c", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, stage := range []string{"render", "transmit", "decode", "upscale", "TOTAL"} {
		if !strings.Contains(out, stage) {
			t.Errorf("missing stage %q:\n%s", stage, out)
		}
	}
}

func TestFig11And12(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig11", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MEAN") || !strings.Contains(buf.String(), "%") {
		t.Errorf("fig11 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := Run("fig12", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "upscaling (NPU+GPU)") {
		t.Errorf("fig12 output:\n%s", buf.String())
	}
}

func TestFig13(t *testing.T) {
	opt := fastOpt()
	var buf bytes.Buffer
	if err := Run("fig13", &buf, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mean: ours") {
		t.Errorf("missing summary:\n%s", out)
	}
	// 3 GOPs of 4 = 12 frame rows.
	if got := strings.Count(out, "intra"); got != 3 {
		t.Errorf("expected 3 reference frames, got %d", got)
	}
}

func TestFig14(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig14a", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "G3") || !strings.Contains(buf.String(), "MEAN") {
		t.Errorf("fig14a output:\n%s", buf.String())
	}
	buf.Reset()
	if err := Run("fig14b", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LPIPS improvement") {
		t.Errorf("fig14b output:\n%s", buf.String())
	}
}

func TestFig15(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig15", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SOTA (NEMO)", "GameStreamSR", "SR-integrated decoder", "bicubic", "lanczos3"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestExtensions(t *testing.T) {
	opt := fastOpt()
	var buf bytes.Buffer
	if err := Run("extgop", &buf, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GOP") {
		t.Errorf("extgop output:\n%s", buf.String())
	}
	buf.Reset()
	if err := Run("extadapt", &buf, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "throttled") {
		t.Errorf("extadapt output:\n%s", buf.String())
	}
	buf.Reset()
	if err := Run("extgantt", &buf, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "npu") || !strings.Contains(out, "gpu") {
		t.Errorf("extgantt output:\n%s", out)
	}
}

func TestMisc(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("misc", &buf, fastOpt()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "79%") || !strings.Contains(out, "52%") {
		t.Errorf("missing utilisation numbers:\n%s", out)
	}
	if !strings.Contains(out, "66% saving") {
		t.Errorf("missing bandwidth saving:\n%s", out)
	}
	if !strings.Contains(out, "2.8 W") {
		t.Errorf("missing eye-tracking power:\n%s", out)
	}
}
