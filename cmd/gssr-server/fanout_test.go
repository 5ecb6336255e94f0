package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
)

// The fan-out harness (BENCH_fanout.json): one publisher session encoding a
// channel through the relay, N spectators on the same GOP stream over real
// TCP. The smoke test pins the qualitative relay contract — a stalled
// spectator is evicted by the two-rung ladder without taking the healthy
// ones down, and a late joiner's first frame is the cached keyframe. The
// full run quantifies the two headline numbers: encode cost is O(1) in
// subscriber count, and late-join time-to-first-frame does not wait for a
// GOP boundary.

// fanSource streams synthetic paced frames with payloads large enough that
// a spectator who stops reading fills the kernel socket buffers and stalls
// its relay writer — the condition the eviction ladder exists for. (The
// relay-level unit test covers the ladder deterministically; this is the
// socket-level version.)
type fanSource struct {
	frames  int
	gop     int
	pace    time.Duration
	payload []byte
}

func (s *fanSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.frames {
		return nil, false, frame.Rect{}, io.EOF
	}
	if s.pace > 0 && i > 0 {
		time.Sleep(s.pace)
	}
	s.payload[0], s.payload[1] = byte(i), byte(i>>8)
	return s.payload, i%s.gop == 0, frame.Rect{}, nil
}

// timedSource wraps the real pipeline.Source and accounts every NextFrame call
// (render + RoI detect + encode): the publisher-side per-frame cost whose
// independence from subscriber count the full benchmark asserts.
type timedSource struct {
	inner stream.FrameSource
	ns    atomic.Int64
	n     atomic.Int64
}

func (s *timedSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	t0 := time.Now()
	data, key, rect, err := s.inner.NextFrame(i)
	s.ns.Add(time.Since(t0).Nanoseconds())
	s.n.Add(1)
	return data, key, rect, err
}

func (s *timedSource) SetSched(c *parallel.Client) {
	if sa, ok := s.inner.(stream.SchedAware); ok {
		sa.SetSched(c)
	}
}

func (s *timedSource) meanFrameMicros() float64 {
	if s.n.Load() == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(s.n.Load()) / 1e3
}

// publish opens the publisher session on channel and drains its own copy of
// the stream (the publisher is a normal session whose encode the relay
// taps).
func publish(addr, channel string) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	c := stream.NewClient(conn)
	if _, err := c.Handshake(stream.Hello{
		Device: "pub", RoIWindow: 16, Scale: 2,
		Version: stream.ProtocolVersion, Channel: channel,
	}); err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, err := c.RecvFrame(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		n++
	}
}

// spectate joins channel and drains frames until EOF or error. The first
// onFrame callback (if non-nil) runs per frame and may sleep to model a
// slow reader; a nil return from it stops reading early.
type spectatorResult struct {
	frames   int
	firstKey bool
	firstIdx uint32
	lastIdx  uint32
	ttff     time.Duration
	err      error
}

func spectate(addr, channel, device string, onFrame func(n int, pkt stream.FramePacket) bool) spectatorResult {
	var res spectatorResult
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		res.err = err
		return res
	}
	defer conn.Close()
	c := stream.NewClient(conn)
	t0 := time.Now()
	if _, err := c.Subscribe(stream.Subscribe{Channel: channel, Device: device}); err != nil {
		res.err = err
		return res
	}
	for {
		pkt, err := c.RecvFrame()
		if err != nil {
			if err != io.EOF {
				res.err = err
			}
			return res
		}
		if res.frames == 0 {
			res.ttff = time.Since(t0)
			res.firstKey, res.firstIdx = pkt.Keyenc, pkt.Index
		}
		res.lastIdx = pkt.Index
		res.frames++
		if onFrame != nil && !onFrame(res.frames, pkt) {
			return res
		}
	}
}

// waitCounter polls reg until the named metric reaches min or the deadline
// lapses.
func waitCounter(t testing.TB, reg *telemetry.Registry, name string, min int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for reg.Snapshot().Counter(name) < min {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (at %d)", name, min, reg.Snapshot().Counter(name))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitGauge(t testing.TB, reg *telemetry.Registry, name string, min int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for reg.Snapshot().Gauge(name) < min {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (at %d)", name, min, reg.Snapshot().Gauge(name))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFanoutSmoke is the CI-sized fan-out e2e: 1 publisher and 8 spectators
// over real TCP, one of which stops reading mid-stream. The stalled reader
// must climb the eviction ladder (drop-to-keyframe, then disconnect on zero
// progress) while the healthy seven ride the stream to its end, and a late
// joiner's first frame must be a keyframe — no waiting for the next GOP
// boundary.
func TestFanoutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fan-out smoke is not -short")
	}
	const (
		channel   = "arena"
		nFrames   = 100
		gop       = 5
		nHealthy  = 7
		payloadKB = 64
	)
	reg := telemetry.NewRegistry()
	srv := &stream.MultiServer{
		Accept:          stream.Accept{Width: 32, Height: 32, GOPSize: gop, QStep: 6},
		MaxFrames:       nFrames,
		MaxSessions:     4,
		MaxSubscribers:  16,
		SubscriberQueue: 4,
		Metrics:         reg,
		NewSource: func(stream.Hello) (stream.FrameSource, error) {
			return &fanSource{frames: nFrames, gop: gop, pace: 3 * time.Millisecond, payload: make([]byte, payloadKB<<10)}, nil
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	addr := l.Addr().String()

	pubDone := make(chan error, 1)
	go func() {
		_, err := publish(addr, channel)
		pubDone <- err
	}()
	waitGauge(t, reg, "stream_relay_channels_active", 1, 10*time.Second)

	var wg sync.WaitGroup
	healthy := make([]spectatorResult, nHealthy)
	for i := 0; i < nHealthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			healthy[i] = spectate(addr, channel, fmt.Sprintf("spec-%d", i), nil)
		}(i)
	}
	// The stalled reader: two frames, then it stops consuming entirely. Its
	// kernel buffers fill, its relay writer blocks, its queue overflows —
	// the ladder flushes it to the next keyframe, sees zero progress, and
	// disconnects it. Once the eviction counter moves it resumes draining
	// so the blocked server write unblocks promptly.
	var slow spectatorResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		slow = spectate(addr, channel, "spec-slow", func(n int, _ stream.FramePacket) bool {
			if n == 2 {
				// Plain poll, not waitCounter: t.Fatalf must not run off
				// the test goroutine. A timeout here surfaces as the
				// eviction assertions failing below.
				deadline := time.Now().Add(20 * time.Second)
				for reg.Snapshot().Counter("stream_relay_subscribers_evicted_total") < 1 && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
			}
			return true
		})
	}()

	// A late joiner after the stream is well under way: its first frame is
	// the channel's cached keyframe, served immediately.
	waitCounter(t, reg, "stream_relay_frames_fanout_total", 3*gop, 10*time.Second)
	late := spectate(addr, channel, "spec-late", nil)

	wg.Wait()
	if err := <-pubDone; err != nil {
		t.Fatalf("publisher: %v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-serveDone

	if late.err != nil || late.frames == 0 {
		t.Fatalf("late joiner: %d frames, err %v", late.frames, late.err)
	}
	if !late.firstKey {
		t.Errorf("late joiner's first frame (index %d) was not a keyframe", late.firstIdx)
	}
	s := reg.Snapshot()
	if got := s.Counter("stream_relay_subscribers_evicted_total"); got != 1 {
		t.Errorf("evicted %d subscribers, want exactly the stalled one", got)
	}
	if s.Counter("stream_relay_drop_to_key_total") < 1 {
		t.Error("the stalled reader never hit the drop-to-keyframe rung")
	}
	if slow.frames >= nFrames {
		t.Errorf("stalled reader received the full stream (%d frames) — never evicted", slow.frames)
	}
	for i, h := range healthy {
		if h.err != nil {
			t.Errorf("healthy spectator %d: %v", i, h.err)
		}
		if h.frames == 0 {
			t.Errorf("healthy spectator %d starved", i)
			continue
		}
		// Unaffected by the stalled peer: the stream rode to its end.
		if h.lastIdx != nFrames-1 {
			t.Errorf("healthy spectator %d ended at frame %d, want %d", i, h.lastIdx, nFrames-1)
		}
		if h.frames < nFrames/2 {
			t.Errorf("healthy spectator %d got only %d/%d frames", i, h.frames, nFrames)
		}
	}
}

// newTimedGameSource builds the real gssr-server source (render + depth RoI
// + block codec) wrapped in per-frame accounting.
func newTimedGameSource(t testing.TB, w, h, gop int) *timedSource {
	t.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	src, err := pipeline.NewSource(g, codec.Config{Width: w, Height: h, GOPSize: gop, QStep: 6}, 32, bufpool.New())
	if err != nil {
		t.Fatal(err)
	}
	return &timedSource{inner: src}
}

// runFanout drives one publisher at nFrames real encoded frames with nSubs
// draining spectators and returns the mean per-frame publisher cost (µs)
// and the late joiner's time to first frame (zero when lateJoin is false).
func runFanout(t testing.TB, nSubs, nFrames, gop int, lateJoin bool) (meanUS float64, ttff time.Duration) {
	t.Helper()
	const w, h = 320, 180
	src := newTimedGameSource(t, w, h, gop)
	reg := telemetry.NewRegistry()
	srv := &stream.MultiServer{
		Accept:         stream.Accept{Width: w, Height: h, GOPSize: gop, QStep: 6},
		MaxFrames:      nFrames,
		MaxSessions:    4,
		MaxSubscribers: 16,
		Metrics:        reg,
		Sched:          parallel.Default(),
		NewSource:      func(stream.Hello) (stream.FrameSource, error) { return src, nil },
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	addr := l.Addr().String()

	pubDone := make(chan error, 1)
	go func() {
		_, err := publish(addr, "bench")
		pubDone <- err
	}()
	if nSubs > 0 || lateJoin {
		waitGauge(t, reg, "stream_relay_channels_active", 1, 10*time.Second)
	}
	var wg sync.WaitGroup
	for i := 0; i < nSubs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r := spectate(addr, "bench", fmt.Sprintf("bench-%d", i), nil); r.err != nil {
				t.Errorf("spectator %d: %v", i, r.err)
			}
		}(i)
	}
	if lateJoin {
		waitCounter(t, reg, "stream_relay_frames_fanout_total", int64(2*gop*max(nSubs, 1)), 10*time.Second)
		r := spectate(addr, "bench", "bench-late", nil)
		if r.err != nil || !r.firstKey {
			t.Errorf("late joiner: firstKey=%v err=%v", r.firstKey, r.err)
		}
		ttff = r.ttff
	}
	wg.Wait()
	if err := <-pubDone; err != nil {
		t.Fatalf("publisher: %v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-serveDone
	return src.meanFrameMicros(), ttff
}

// TestFanoutFull is the BENCH_fanout.json run: the real render+RoI+encode
// publisher at 0, 1 and 8 spectators, asserting the per-frame publisher
// cost is flat in subscriber count (the relay taps the one encode — it
// never re-encodes), plus the late-join time-to-first-frame. Gated behind
// FANOUT_FULL=1.
func TestFanoutFull(t *testing.T) {
	if os.Getenv("FANOUT_FULL") == "" {
		t.Skip("set FANOUT_FULL=1 to run the recorded fan-out benchmark")
	}
	const nFrames, gop = 240, 12
	alone, _ := runFanout(t, 0, nFrames, gop, false)
	one, _ := runFanout(t, 1, nFrames, gop, false)
	eight, ttff := runFanout(t, 8, nFrames, gop, true)
	t.Logf("publisher per-frame cost: alone %.0fµs, 1 sub %.0fµs (%.3fx), 8 subs %.0fµs (%.3fx)",
		alone, one, one/alone, eight, eight/alone)
	t.Logf("late-join TTFF at 8 subscribers: %v (GOP period ≈ %v)", ttff, time.Duration(gop)*time.Duration(alone*1e3))
	if ratio := eight / alone; ratio > 1.15 {
		t.Errorf("publisher cost at 8 subscribers is %.3fx the solo cost, want <= 1.15x (encode must be O(1) in subscribers)", ratio)
	}
}
