package main

import (
	"path/filepath"
	"testing"
	"time"
)

// smoke is a 160×90 stand-in for the live workloads: big enough for the
// client's 64 px RoI window, small enough for a GOP to take a blink.
var smoke = workload{Name: "smoke", Kind: kindLive, W: 160, H: 90}

// TestTracedCompositionSmoke runs the traced composition in-process over one
// GOP of spans and one of allocation deltas, and checks that spans nest
// frame → side → call and that every layer the workload exercises got a
// number.
func TestTracedCompositionSmoke(t *testing.T) {
	in := smoke.inputs(1)
	c, err := newComp(smoke, in, 0, []mode{modeSpans, modeMem}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.tr = &tracer{t0: time.Now()}
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	if c.last == nil || c.last.W != smoke.W*scale || c.last.H != smoke.H*scale {
		t.Fatalf("last frame = %v, want a %dx%d image", c.last, smoke.W*scale, smoke.H*scale)
	}

	byID := map[int]span{}
	for _, s := range c.tr.spans {
		byID[s.ID] = s
		if s.EndUS < s.StartUS {
			t.Errorf("span %d (%s.%s) ends before it starts", s.ID, s.Layer, s.Name)
		}
	}
	calls := 0
	for _, s := range c.tr.spans {
		p := byID[s.Parent]
		switch {
		case s.Layer == structLayer && s.Name == "frame":
			if s.Parent != 0 {
				t.Errorf("frame span %d has parent %d", s.ID, s.Parent)
			}
		case s.Layer == structLayer:
			if p.Layer != structLayer || p.Name != "frame" || p.Frame != s.Frame {
				t.Errorf("%s span %d hangs under %s.%s of frame %d, want its frame's root", s.Name, s.ID, p.Layer, p.Name, p.Frame)
			}
		default:
			calls++
			if p.Layer != structLayer || (p.Name != "server" && p.Name != "client") || p.Frame != s.Frame {
				t.Errorf("call span %s.%s of frame %d hangs under %s.%s of frame %d", s.Layer, s.Name, s.Frame, p.Layer, p.Name, p.Frame)
			}
		}
	}
	// Per frame: render, detect, encode, send | recv, decode, bilinear, crop, sr, merge.
	if want := 10 * gopSize; calls != want {
		t.Errorf("%d call spans over one GOP, want %d", calls, want)
	}
	for id, self := range selfTimes(c.tr.spans) {
		if self < -1e-6 {
			t.Errorf("span %d has negative self time %v", id, self)
		}
	}

	m := map[string]float64{}
	c.layerMetrics(m)
	for _, name := range []string{
		"render.frame_ms", "roi.detect_ms", "codec.encode_intra_ms", "codec.encode_inter_ms",
		"codec.decode_intra_ms", "codec.decode_inter_ms", "stream.send_us", "stream.recv_us",
		"upscale.bilinear_ms", "frame.crop_us", "sr.roi_ms", "upscale.merge_us",
		"server.serial_ms", "client.serial_ms", "pipeline.serial_sum_ms",
		"codec.coded_bytes_intra", "codec.coded_bytes_inter", "stream.overhead_bytes", "stream.handshake_ms",
		"render.frame_allocs", "upscale.bilinear_alloc_kb", "stream.wire_allocs",
	} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, m[name])
		}
	}
	for name := range m {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("the composition reports %q, which BENCHMARK.json does not list", name)
		}
	}
}

// TestReplayCompositionEndsOnTheCycleFrame checks the replay source: a
// composition that starts mid-stream on a GOP boundary shows, as its last
// frame, the same pixels as one that played the stream from the start.
func TestReplayCompositionEndsOnTheCycleFrame(t *testing.T) {
	wl := workload{Name: "smoke_replay", Kind: kindReplay, W: 160, H: 90}
	in := wl.inputs(2)
	built, err := buildReplay(wl.W, wl.H, in.Start, replayCycle)
	if err != nil {
		t.Fatal(err)
	}
	// Through the file, as the replay server of a pass gets it.
	path := filepath.Join(t.TempDir(), "cycle.gob")
	if err := built.writeFile(path); err != nil {
		t.Fatal(err)
	}
	rf, err := readReplay(path)
	if err != nil {
		t.Fatal(err)
	}
	last := func(first, gops int) *comp {
		c, err := newComp(wl, in, first, make([]mode, gops), rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.run(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	whole, tail := last(0, 3), last(2*gopSize, 1) // frames 0–35 and 24–35: past the cycle's wrap
	if !whole.last.Equal(tail.last) {
		t.Error("the stream's tail composed alone ends on different pixels than the whole stream")
	}
}
