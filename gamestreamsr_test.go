package gamestreamsr_test

import (
	"bytes"
	"strings"
	"testing"

	gssr "gamestreamsr"
	"gamestreamsr/internal/testkit"
)

// The facade integration test: a downstream user's happy path.
func TestPublicAPISession(t *testing.T) {
	g, err := gssr.GameByID("G1")
	if err != nil {
		t.Fatal(err)
	}
	session, err := gssr.NewSession(gssr.Config{Game: g, SimDiv: 8, GOPSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	fps, err := res.UpscaleFPS(gssr.ReferenceFrame)
	if err != nil {
		t.Fatal(err)
	}
	if fps < 58 {
		t.Errorf("reference-frame upscale FPS = %.1f, want real-time", fps)
	}
	for _, f := range res.Frames {
		if f.Stages.Upscale > gssr.RealTimeDeadline {
			t.Errorf("frame %d violates the deadline", f.Index)
		}
	}
}

func TestPublicAPIRegistries(t *testing.T) {
	if len(gssr.Games()) != 10 {
		t.Error("ten workloads expected")
	}
	if len(gssr.Devices()) != 2 {
		t.Error("two devices expected")
	}
	if _, err := gssr.DeviceByName("pixel"); err != nil {
		t.Error(err)
	}
	if gssr.DefaultServer() == nil {
		t.Error("server profile missing")
	}
	if len(gssr.ExperimentIDs()) != 19 {
		t.Errorf("got %d experiments", len(gssr.ExperimentIDs()))
	}
}

func TestPublicAPIEnginesAndMetrics(t *testing.T) {
	g, _ := gssr.GameByID("G3")
	rd := &gssr.Renderer{}
	out := g.Render(rd, 10, 128, 72)
	lo, err := gssr.Resize(out.Color, 64, 36, gssr.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []gssr.SREngine{gssr.NewFastSR(), gssr.BilinearSR(), gssr.NewEDSR(gssr.EDSRSpec{Blocks: 2, Channels: 8})} {
		up, err := eng.Upscale(lo, 2)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if up.W != 128 || up.H != 72 {
			t.Fatalf("%s: output %dx%d", eng.Name(), up.W, up.H)
		}
		p, err := gssr.PSNR(out.Color, up)
		if err != nil || p < 15 {
			t.Errorf("%s: PSNR %.1f, %v", eng.Name(), p, err)
		}
	}
	if _, err := gssr.SSIM(out.Color, out.Color); err != nil {
		t.Error(err)
	}
	if d, err := gssr.LPIPS(out.Color, out.Color); err != nil || d != 0 {
		t.Errorf("self LPIPS = %f, %v", d, err)
	}
}

func TestPublicAPIRoIDetection(t *testing.T) {
	g, _ := gssr.GameByID("G6")
	rd := &gssr.Renderer{}
	out := g.Render(rd, 30, 160, 90)
	det, err := gssr.NewRoIDetector(gssr.RoIConfig{WindowW: 40, WindowH: 40})
	if err != nil {
		t.Fatal(err)
	}
	rect, err := det.Detect(out.Depth)
	if err != nil {
		t.Fatal(err)
	}
	if !rect.In(160, 90) {
		t.Errorf("RoI %v out of bounds", rect)
	}
	// Merge path: upscale RoI and composite.
	roiImg := testkit.MustSub(out.Color, rect.X, rect.Y, rect.W, rect.H).Compact()
	hr, err := gssr.NewFastSR().Upscale(roiImg, 2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gssr.Resize(out.Color, 320, 180, gssr.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	if err := gssr.MergeRoI(base, hr, rect, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g, _ := gssr.GameByID("G2")
	cfg := gssr.Config{Game: g, SimDiv: 8, GOPSize: 4}
	res, err := gssr.Run(cfg, 3, gssr.Ours(), gssr.NEMO(), gssr.SRDecoder(gssr.Bicubic))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"gamestreamsr", "nemo", "srdecoder"} {
		if res[i].Pipeline != want || len(res[i].Frames) != 3 {
			t.Errorf("result %d = %s, %d frames; want %s, 3", i, res[i].Pipeline, len(res[i].Frames), want)
		}
	}
}

func TestPublicAPIExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := gssr.RunExperiment("fig7", &buf, gssr.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "min RoI") {
		t.Errorf("experiment output:\n%s", buf.String())
	}
}

func TestPublicAPIRoITracking(t *testing.T) {
	det, err := gssr.NewRoIDetector(gssr.RoIConfig{WindowW: 36, WindowH: 36})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gssr.NewRoITracker(det, gssr.RoITrackConfig{MaxStep: 6})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := gssr.GameByID("G7")
	rd := &gssr.Renderer{}
	for i := 0; i < 3; i++ {
		out := g.Render(rd, i*8, 160, 90)
		r, err := tr.Detect(out.Depth)
		if err != nil {
			t.Fatal(err)
		}
		if !r.In(160, 90) {
			t.Fatalf("tracked RoI %v out of bounds", r)
		}
	}
	// Pipeline-level toggle.
	cfg := gssr.Config{Game: g, SimDiv: 8, GOPSize: 3, RoITrack: &gssr.RoITrackConfig{MaxStep: 4}}
	s, err := gssr.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}
}
