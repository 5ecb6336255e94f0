package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
)

// gaugeOf returns the named gauge's value in s (0 when absent).
func gaugeOf(s telemetry.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// The saturation harness (BENCH_scale.json): a MultiServer over real TCP,
// fed by synthetic sessions whose per-frame cost is a calibrated CPU spin
// routed through the session's scheduler client. Offered load is expressed
// against nominal capacity — the number of sessions whose aggregate
// per-frame work fits the frame deadline at the 60 FPS delivery rate — and
// the shed ladder scales each session's work the way the real ladder scales
// the RoI/SR path (shrunken RoI ≈ ½, bilinear-only ≈ ⅕, demoted ≈ ⅒).

var spinSink atomic.Uint64

// spin burns roughly iters loop iterations of CPU. The sink keeping the
// loop alive is atomic: concurrent sessions spin at the same time.
func spin(iters int) {
	var acc uint64
	for i := 0; i < iters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinSink.Add(acc)
}

// calibrateSpin measures loop iterations per millisecond, single-threaded.
func calibrateSpin() int {
	const probe = 1 << 22
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		spin(probe)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return int(float64(probe) / (float64(best) / float64(time.Millisecond)))
}

// satSource is the synthetic per-session workload: work milliseconds of
// spin per frame at full quality, scaled down by the shed ladder, dispatched
// through the session's scheduler client (stream.SchedAware + Shedder).
type satSource struct {
	frames    int
	work      time.Duration // single-thread work per frame at ShedNone
	iterPerMs int
	client    *parallel.Client
	level     int32
	mu        sync.Mutex
	payload   []byte
}

func (s *satSource) SetSched(c *parallel.Client) { s.client = c }

func (s *satSource) SetShedLevel(level int) {
	s.mu.Lock()
	s.level = int32(level)
	s.mu.Unlock()
}

func (s *satSource) shedScale() float64 {
	s.mu.Lock()
	level := int(s.level)
	s.mu.Unlock()
	switch {
	case level >= stream.ShedDemoted:
		return 0.1
	case level >= stream.ShedBilinearOnly:
		return 0.2
	case level >= stream.ShedRoIShrink:
		return 0.5
	}
	return 1
}

func (s *satSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.frames {
		return nil, false, frame.Rect{}, io.EOF
	}
	ms := float64(s.work) / float64(time.Millisecond) * s.shedScale()
	iters := int(ms * float64(s.iterPerMs))
	const chunks = 16
	s.client.For(chunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			spin(iters / chunks)
			// Yield between chunks so concurrent sessions interleave
			// within a frame (queueing shows up inside the frame's
			// latency) instead of each frame riding one OS timeslice.
			runtime.Gosched()
		}
	})
	return s.payload, i == 0, frame.Rect{}, nil
}

type satConfig struct {
	sessions  int
	burst     int // sessions started back-to-back before stagger applies
	frames    int
	work      time.Duration
	deadline  time.Duration
	stagger   time.Duration
	admission *stream.AdmissionPolicy
	shed      *stream.ShedPolicy
}

type satResult struct {
	offered   int
	admitted  int
	rejected  int
	p99       time.Duration
	maxShed   int64
	latencies int
}

// runSaturation starts a MultiServer with the given control policies and
// drives cfg.sessions closed-loop clients against it with staggered
// arrivals, then pools the final per-session latency windows for the p99.
func runSaturation(t testing.TB, cfg satConfig, iterPerMs int) satResult {
	t.Helper()
	reg := telemetry.NewRegistry()
	sched := parallel.NewScheduler(0)
	srv := &stream.MultiServer{
		Accept:       stream.Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		MaxSessions:  cfg.sessions,
		Metrics:      reg,
		FlightFrames: 128,
		FlightRetain: cfg.sessions,
		Deadline:     cfg.deadline,
		Sched:        sched,
		Admission:    cfg.admission,
		Shed:         cfg.shed,
		NewSource: func(stream.Hello) (stream.FrameSource, error) {
			return &satSource{
				frames:    cfg.frames,
				work:      cfg.work,
				iterPerMs: iterPerMs,
				payload:   make([]byte, 64),
			}, nil
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	addr := l.Addr().String()

	var wg sync.WaitGroup
	var mu sync.Mutex
	res := satResult{offered: cfg.sessions}
	// Sample the shed gauge continuously: the ladder's peak happens during
	// the overloaded ramp, not at the end of the run.
	var maxShedSeen int64
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				if v := gaugeOf(reg.Snapshot(), "stream_shed_level_max"); v > maxShedSeen {
					maxShedSeen = v
				}
			}
		}
	}()
	for i := 0; i < cfg.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("session %d: dial: %v", i, err)
				return
			}
			defer conn.Close()
			c := stream.NewClient(conn)
			_, err = c.Handshake(stream.Hello{Device: fmt.Sprintf("sat-%d", i), RoIWindow: 8, Scale: 2})
			var rej *stream.RejectedError
			if errors.As(err, &rej) {
				mu.Lock()
				res.rejected++
				mu.Unlock()
				return
			}
			if err != nil {
				t.Errorf("session %d: handshake: %v", i, err)
				return
			}
			mu.Lock()
			res.admitted++
			mu.Unlock()
			for {
				if _, err := c.RecvFrame(); err != nil {
					return
				}
			}
		}(i)
		if i >= cfg.burst-1 {
			time.Sleep(cfg.stagger)
		}
	}
	wg.Wait()
	close(stopSample)
	sampleWG.Wait()
	res.maxShed = maxShedSeen

	// Pool every admitted session's final latency window: the criterion is
	// about the frames admitted sessions actually delivered at steady state.
	var lats []time.Duration
	for _, w := range sessionLatencies(t, srv) {
		lats = append(lats, w...)
	}
	res.latencies = len(lats)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.p99 = lats[(len(lats)*99+99)/100-1]
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-done
	return res
}

// TestSaturationSmoke is the CI-sized saturation run: a handful of sessions
// at ~4x nominal capacity with admission and shedding on. It asserts the
// control plane's qualitative behaviour — the ladder engages, the server
// survives and drains cleanly — without timing-sensitive thresholds.
func TestSaturationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation smoke is not -short")
	}
	iterPerMs := calibrateSpin()
	deadline := 8 * time.Millisecond
	// Nominal capacity at 60 FPS delivery: deadline/work sessions per core.
	// work = deadline/2 puts capacity at 2 sessions; 8 offered = 4x, all
	// arriving at once so the overload (and therefore the shed ladder) is
	// guaranteed to engage before admission can thin the load.
	cfg := satConfig{
		sessions: 8,
		burst:    8,
		frames:   120,
		work:     deadline / 2,
		deadline: deadline,
		shed:     &stream.ShedPolicy{EscalateStreak: 4, RecoverFrames: 600},
	}
	res := runSaturation(t, cfg, iterPerMs)
	t.Logf("smoke: offered %d admitted %d rejected %d p99 %v maxShed %d (%d window samples)",
		res.offered, res.admitted, res.rejected, res.p99, res.maxShed, res.latencies)
	if res.admitted == 0 {
		t.Fatal("no session admitted")
	}
	if res.latencies == 0 {
		t.Fatal("no latencies recorded in the session windows")
	}
	if res.p99 <= 0 {
		t.Fatal("no p99 computed")
	}
	if res.maxShed < 1 {
		t.Errorf("shed ladder never engaged at 4x overload (maxShed %d)", res.maxShed)
	}
}

// TestSaturationFull is the BENCH_scale.json run: baseline, 4x load without
// the control plane, and 4x load with admission+shedding. Gated behind
// SATURATION_FULL=1 — it runs for tens of seconds by design.
func TestSaturationFull(t *testing.T) {
	if os.Getenv("SATURATION_FULL") == "" {
		t.Skip("set SATURATION_FULL=1 to run the recorded saturation benchmark")
	}
	iterPerMs := calibrateSpin()
	deadline := 8 * time.Millisecond
	// Per-frame work at 3/4 of the deadline mirrors the paper's pipeline
	// occupancy (~13 ms of a 16.6 ms budget): nominal capacity is a single
	// session per core with slack, and 12 offered sessions are 9x that.
	work := 3 * deadline / 4
	base := satConfig{
		sessions: 1,
		burst:    1,
		frames:   300,
		work:     work,
		deadline: deadline,
	}
	baseline := runSaturation(t, base, iterPerMs)

	loaded := base
	loaded.sessions = 12
	loaded.burst = 6
	loaded.stagger = 300 * time.Millisecond
	noshed := runSaturation(t, loaded, iterPerMs)

	ctl := loaded
	ctl.admission = &stream.AdmissionPolicy{MinSlack: 3 * deadline / 8, MinSamples: 16}
	ctl.shed = &stream.ShedPolicy{EscalateStreak: 4, RecoverFrames: 600}
	shed := runSaturation(t, ctl, iterPerMs)

	offeredLoad := float64(loaded.sessions) * float64(work) / float64(deadline)
	t.Logf("deadline %v, work/frame %v, offered load %.2fx nominal capacity", deadline, work, offeredLoad)
	t.Logf("baseline: p99 %v (%d samples)", baseline.p99, baseline.latencies)
	t.Logf("no-shed: admitted %d/%d p99 %v (ratio %.2fx)",
		noshed.admitted, noshed.offered, noshed.p99, float64(noshed.p99)/float64(baseline.p99))
	t.Logf("shed: admitted %d/%d rejected %d p99 %v (ratio %.2fx) maxShed %d",
		shed.admitted, shed.offered, shed.rejected, shed.p99,
		float64(shed.p99)/float64(baseline.p99), shed.maxShed)
	if shed.admitted == 0 {
		t.Fatal("control-plane run admitted no sessions")
	}
	if ratio := float64(shed.p99) / float64(baseline.p99); ratio > 1.5 {
		t.Errorf("admitted-session p99 %v is %.2fx the single-session baseline %v, want <= 1.5x",
			shed.p99, ratio, baseline.p99)
	}
}
