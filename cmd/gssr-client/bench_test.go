package main

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/testkit"
	"gamestreamsr/internal/upscale"
)

// benchFrame builds one coded 320×180 frame with a 64×64 RoI — the demo
// stream's shape.
func benchFrame(b testing.TB) ([]byte, frame.Rect) {
	b.Helper()
	img := frame.NewImage(320, 180)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			i := y*img.Stride + x
			img.R[i] = uint8(x * 3)
			img.G[i] = uint8(y * 5)
			img.B[i] = uint8((x + y) * 2)
		}
	}
	enc, err := codec.NewEncoder(codec.Config{Width: img.W, Height: img.H, GOPSize: 12, QStep: 6})
	if err != nil {
		b.Fatal(err)
	}
	payload, _, err := enc.Encode(img)
	if err != nil {
		b.Fatal(err)
	}
	return payload, frame.Rect{X: 128, Y: 72, W: 64, H: 64}
}

// benchClientFrame is the gssr-client per-frame loop — showFrame: decode,
// bilinear base ∥ RoI SR, merge — with or without the full observability
// path (flight recorder spans, e2e age, deadline accounting, histogram, and
// a Stats report every 60 frames). The delta is the recorder + backchannel
// overhead BENCH_e2e.json records.
func benchClientFrame(b *testing.B, instrumented bool) {
	payload, roi := benchFrame(b)
	st := newSessionState(nil) // nil registry, recorder and histogram: every call is a no-op
	var clock stream.ClockSync
	pkt := stream.FramePacket{Payload: payload, RoI: roi}
	if instrumented {
		st.stats = true
		st.reg = telemetry.NewRegistry()
		st.rec = frametrace.New(frametrace.Config{Frames: frametrace.DefaultFrames, Metrics: st.reg})
		st.rec.SetProcess("client")
		st.rec.SetClockSync(250*time.Microsecond, 700*time.Microsecond)
		st.ageHist = st.reg.Histogram("client_frame_age_seconds", telemetry.LatencyBuckets())
		clock = stream.ClockSync{Synced: true}
		pkt.SendUnixMicro = time.Now().UnixMicro()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Index, pkt.FlightID = uint32(i), uint64(i+1)
		if shown, err := st.showFrame(pkt, time.Now(), 0, clock); err != nil || !shown {
			b.Fatalf("frame %d: shown=%v err=%v", i, shown, err)
		}
		if instrumented && (i+1)%60 == 0 {
			p := stream.StatsPacket{
				Seq: uint32(i / 60), WindowFrames: uint32(len(st.wDecode)),
				DecodeP50: pctDur(st.wDecode, 50), DecodeP99: pctDur(st.wDecode, 99),
				SRP50: pctDur(st.wSR, 50), SRP99: pctDur(st.wSR, 99),
				AgeP50: pctDur(st.wAge, 50), AgeP99: pctDur(st.wAge, 99),
			}
			st.wDecode, st.wSR, st.wAge = st.wDecode[:0], st.wSR[:0], st.wAge[:0]
			if err := stream.WriteStats(io.Discard, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkClientFrameBare(b *testing.B)         { benchClientFrame(b, false) }
func BenchmarkClientFrameInstrumented(b *testing.B) { benchClientFrame(b, true) }

// TestShowFrameMatchesAllocatingComposition pins the pooled, overlapped
// frame path to the plain composition it replaced — allocating Resize,
// compacted RoI crop, Engine.Upscale, Merge — byte for byte over a GOP with
// motion, including a shed (zero-RoI) frame and the buffers' second and
// later trips through the pool. The RoI is a strided view of the decoded
// frame, which each engine reads in place: sr.Fast, the client's; the
// compiled EDSR; and plain bilinear.
func TestShowFrameMatchesAllocatingComposition(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine sr.Engine
	}{
		{"fast", sr.NewFast(sr.FastConfig{})},
		{"edsr", sr.NewInterpEDSR(sr.Spec{})},
		{"plain", sr.BilinearEngine{}},
	} {
		t.Run(tc.name, func(t *testing.T) { showFrameMatches(t, tc.engine) })
	}
}

func showFrameMatches(t *testing.T, engine sr.Engine) {
	const w, h, scale = 160, 90, sr.Scale
	enc, err := codec.NewEncoder(codec.Config{Width: w, Height: h, GOPSize: 4, QStep: 6})
	if err != nil {
		t.Fatal(err)
	}
	st := newSessionState(nil)
	st.engine = engine
	st.rec = frametrace.New(frametrace.Config{})
	ref := codec.NewDecoder()
	img := frame.NewImage(w, h)
	for i := 0; i < 9; i++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := y*img.Stride + x
				img.R[p], img.G[p], img.B[p] = uint8((x+3*i)*3), uint8(y*5+i), uint8((x+y)*2)
			}
		}
		payload, _, err := enc.Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		roi := frame.Rect{X: 40 + 2*i, Y: 13, W: 64, H: 64}
		if i == 5 {
			roi = frame.Rect{} // the shed ladder's bilinear-only rung
		}
		shown, err := st.showFrame(stream.FramePacket{Index: uint32(i), Payload: payload, RoI: roi}, time.Now(), 0, stream.ClockSync{})
		if err != nil || !shown {
			t.Fatalf("frame %d: shown=%v err=%v", i, shown, err)
		}

		df, err := ref.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := upscale.Resize(df.Image, w*scale, h*scale, upscale.Bilinear)
		if err != nil {
			t.Fatal(err)
		}
		if r := roi.Clamp(w, h); !r.Empty() {
			hr, err := engine.Upscale(testkit.MustSub(df.Image, r.X, r.Y, r.W, r.H).Compact(), scale)
			if err != nil {
				t.Fatal(err)
			}
			if err := upscale.Merge(want, hr, r, scale); err != nil {
				t.Fatal(err)
			}
		}
		if !st.lastUp.Equal(want) {
			t.Fatalf("frame %d: pooled frame differs from the allocating composition", i)
		}
	}
	if rep := st.rec.Report(); rep.Delivered != 9 || rep.Frames != 9 {
		t.Fatalf("delivered=%d of %d frames, want 9 of 9", rep.Delivered, rep.Frames)
	}
	// A corrupt payload freezes the display instead of ending the session,
	// and leaves the frame on display alone: the same image, the same
	// pixels. The recorder marks the frame frozen with no latency, and the
	// Stats window's latencies leave it out.
	onScreen := st.lastUp
	pixels := onScreen.Clone()
	shown, err := st.showFrame(stream.FramePacket{Index: 9, Payload: []byte{1, 2, 3}}, time.Now(), 0, stream.ClockSync{})
	if rep := st.rec.Report(); err != nil || shown || rep.Frames-rep.Delivered != 1 || rep.Delivered != 9 {
		t.Fatalf("corrupt frame: shown=%v err=%v delivered=%d of %d frames", shown, err, rep.Delivered, rep.Frames)
	}
	if st.lastUp != onScreen || !st.lastUp.Equal(pixels) {
		t.Fatal("corrupt frame: the frame on display changed")
	}
	frames := st.rec.Snapshot().Frames
	if last := frames[len(frames)-1]; len(frames) != 10 || last.Index != 9 || !last.Frozen || last.Latency != 0 {
		t.Fatalf("corrupt frame's record: %d records, last %+v; want the 10th frozen with no latency", len(frames), last)
	}
	if lat := st.rec.WindowLatencies(nil); len(lat) != 9 {
		t.Fatalf("window latencies = %v, want the 9 shown frames'", lat)
	}
}

// TestShowFrameSteadyState holds the client's frame at the paper's geometry
// to its pooled steady state. The cycle is what gssr-server streams for G3 at
// 1280×720 — GOP 12, q 6, the client's default 64-px RoI window — 24 frames,
// shown round and round. Once 48 frames have warmed the pool, showFrame
// allocates at most 10 times and under 1 KB a frame: no pixel buffer and no
// residual plane is made per frame.
func TestShowFrameSteadyState(t *testing.T) {
	const cycleLen, warm, timed = 24, 48, 48
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	src, err := pipeline.NewSource(g, codec.Config{Width: 1280, Height: 720, GOPSize: 12, QStep: 6}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	cycle := make([]stream.FramePacket, cycleLen)
	for i := range cycle {
		data, key, roi, err := src.NextFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		cycle[i] = stream.FramePacket{Index: uint32(i), Payload: bytes.Clone(data), Keyenc: key, RoI: roi}
	}
	st := newSessionState(nil)
	show := func(i int) {
		if shown, err := st.showFrame(cycle[i%cycleLen], time.Now(), 0, stream.ClockSync{}); err != nil || !shown {
			t.Fatalf("frame %d: shown=%v err=%v", i, shown, err)
		}
	}
	next := 0
	showNext := func() { show(next); next++ }
	for next < warm {
		showNext()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(timed, showNext) // one untimed frame first
	runtime.ReadMemStats(&m1)
	size := float64(m1.TotalAlloc-m0.TotalAlloc) / (timed + 1)
	t.Logf("steady state: %.1f allocations, %.0f B a frame", allocs, size)
	if allocs > 10 || size >= 1024 {
		t.Errorf("showFrame allocates %.1f times and %.0f B a frame at 1280x720, want <= 10 and < 1 KB", allocs, size)
	}
}

// TestStatsWindowsFollowBackchannel: the per-frame samples behind the Stats
// report are kept only while something empties them. With -stats-every 0
// nothing does, and a session that appended anyway grew three slices for
// the life of the process.
func TestStatsWindowsFollowBackchannel(t *testing.T) {
	payload, roi := benchFrame(t)
	clock := stream.ClockSync{Synced: true}
	for _, on := range []bool{false, true} {
		st := newSessionState(nil)
		st.stats = on
		const n = 200
		for i := 0; i < n; i++ {
			pkt := stream.FramePacket{Index: uint32(i), Payload: payload, RoI: roi, SendUnixMicro: time.Now().UnixMicro()}
			if shown, err := st.showFrame(pkt, time.Now(), 0, clock); err != nil || !shown {
				t.Fatalf("frame %d: shown=%v err=%v", i, shown, err)
			}
		}
		want := 0
		if on {
			want = n
		}
		for name, w := range map[string][]float64{"decode": st.wDecode, "sr": st.wSR, "age": st.wAge} {
			if len(w) != want || !on && cap(w) != 0 {
				t.Errorf("backchannel on=%v: %s window holds %d samples (cap %d) after %d frames, want %d", on, name, len(w), cap(w), n, want)
			}
		}
	}
}
