package stream

// ISSUE 10 acceptance: the SLO watchdog end to end. An induced
// deadline-miss streak on a live session must freeze exactly ONE capture
// bundle (hysteresis — no capture storm even though every subsequent frame
// also misses), and that bundle's flight trace must contain the triggering
// frames. A second test hammers /debug/flight and /debug/diag concurrently
// while frames are in flight, the shape the race detector needs to see.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/testkit"
)

func TestMissStreakTriggersOneBundle(t *testing.T) {
	reg := telemetry.NewRegistry()
	lg := logx.NewRing(io.Discard)
	dir := t.TempDir()
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		NewSource:    func(Hello) (FrameSource, error) { return &countingSource{n: 64}, nil },
		Metrics:      reg,
		FlightFrames: 32,
		// Every frame misses a 1 ns budget, so the default 8-miss streak
		// threshold is crossed early in the session and every later frame
		// re-triggers — the exact storm the cooldown must flatten.
		Deadline: time.Nanosecond,
		Log:      slog.New(lg),
	}
	d := diag.New(diag.Config{Metrics: reg, Flight: srv, Log: lg, Dir: dir, Cooldown: time.Hour})
	defer d.Close()
	srv.Diag = d
	addr, _ := startMulti(t, srv)
	defer shutdownMulti(t, srv)

	if n := runClient(t, addr, "misser"); n != 64 {
		t.Fatalf("client got %d frames, want 64", n)
	}

	d.Close() // cuts the capture's profile window short and publishes it
	b := d.Latest()
	if b == nil || b.Seq != 1 {
		t.Fatalf("newest bundle %+v, want the one and only (seq 1: cooldown hysteresis)", b)
	}
	if b.Reason != "miss_streak" {
		t.Fatalf("bundle reason %q, want miss_streak", b.Reason)
	}
	if b.Detail["session"] == "" {
		t.Errorf("bundle names no session: %v", b.Detail)
	}
	// The storm was contained, not absent: the later misses of the same
	// streak asked for captures and were suppressed.
	s := reg.Snapshot()
	if got := testkit.CounterOf(s, "diag_triggers_suppressed_total"); got == 0 {
		t.Error("no suppressed triggers — the miss streak should have re-triggered past the first capture")
	}
	if got := testkit.CounterOf(s, "diag_bundles_total"); got != 1 {
		t.Errorf("diag_bundles_total = %d, want 1", got)
	}

	// The frozen flight trace holds the triggering frames: the miss streak
	// is visible in the dump, including the very frame named by the bundle.
	if len(b.FlightTrace) == 0 {
		t.Fatal("bundle carries no flight trace")
	}
	dumps, err := frametrace.ParseChromeTrace(bytes.NewReader(b.FlightTrace))
	if err != nil {
		t.Fatalf("bundle flight trace unparseable: %v", err)
	}
	missed, foundTrigger := 0, false
	for _, nd := range dumps {
		for _, f := range nd.Dump.Frames {
			if f.Missed {
				missed++
				if fmt.Sprint(f.ID) == b.Detail["flight"] {
					foundTrigger = true
				}
			}
		}
	}
	if missed == 0 {
		t.Error("bundle flight trace holds no missed frames")
	}
	if !foundTrigger {
		t.Errorf("triggering flight id %s not in the bundle's dump (%d missed frames)", b.Detail["flight"], missed)
	}
}

// TestConcurrentDumpsWhileStreaming hammers the two dump endpoints —
// /debug/flight (merging live recorders) and /debug/diag (capturing and
// serving bundles) — while sessions actively record frames, so the race
// detector sees dump reads racing ring writes.
func TestConcurrentDumpsWhileStreaming(t *testing.T) {
	reg := telemetry.NewRegistry()
	lg := logx.NewRing(io.Discard)
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		NewSource:    func(Hello) (FrameSource, error) { return &countingSource{n: 120}, nil },
		Metrics:      reg,
		FlightFrames: 16,
		Log:          slog.New(lg),
	}
	// A nanosecond cooldown never suppresses, so every ?trigger=1 request
	// exercises the full capture path concurrently with the streams.
	d := diag.New(diag.Config{Metrics: reg, Flight: srv, Log: lg, Cooldown: time.Nanosecond})
	defer d.Close()
	srv.Diag = d
	addr, _ := startMulti(t, srv)
	defer shutdownMulti(t, srv)

	flightMux := telemetry.Handler(reg, srv)
	diagHandler := d.Handler()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if n := runClient(t, addr, fmt.Sprintf("streamer-%d", i)); n != 120 {
				t.Errorf("client %d got %d frames, want 120", i, n)
			}
		}(i)
	}
	dumpDone := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-dumpDone:
				return
			default:
			}
			rr := httptest.NewRecorder()
			flightMux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight", nil))
			if rr.Code != 200 {
				t.Errorf("/debug/flight status %d", rr.Code)
				return
			}
			if _, err := frametrace.ParseChromeTrace(rr.Body); err != nil {
				t.Errorf("/debug/flight unparseable mid-stream: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-dumpDone:
				return
			default:
			}
			rr := httptest.NewRecorder()
			diagHandler.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/diag?trigger=1", nil))
			// 200 on capture; concurrent captures single-flight down to one,
			// so a losing request can still serve (200) or miss (404) the
			// latest bundle — only a 5xx is wrong.
			if rr.Code >= 500 {
				t.Errorf("/debug/diag status %d", rr.Code)
				return
			}
			if rr.Code == 200 && rr.Header().Get("Content-Type") == "application/json" {
				if _, err := diag.ParseBundle(rr.Body); err != nil {
					t.Errorf("/debug/diag bundle unparseable: %v", err)
					return
				}
			}
		}
	}()

	// Let the hammer goroutines overlap the full life of the streams.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	time.Sleep(50 * time.Millisecond)
	close(dumpDone)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("streams did not finish")
	}
	if d.Latest() == nil {
		t.Error("no bundle captured during the hammer run")
	}
}

// shutdownMulti tears a test MultiServer down within a bounded window.
func shutdownMulti(t *testing.T, srv *MultiServer) {
	t.Helper()
	if err := srv.Shutdown(contextWithTimeout(t)); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestMissStreakBundleWithoutFlightFrames: the diag watchdog reads the
// session recorder, which every session has whatever FlightFrames says.
func TestMissStreakBundleWithoutFlightFrames(t *testing.T) {
	lg := logx.NewRing(io.Discard)
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Shed:      &ShedPolicy{EscalateStreak: 2},
		Deadline:  time.Nanosecond,
		Log:       slog.New(lg),
		NewSource: func(Hello) (FrameSource, error) { return &countingSource{n: 8}, nil },
	}
	d := diag.New(diag.Config{Flight: srv, Log: lg, Dir: t.TempDir(), Cooldown: time.Hour})
	defer d.Close()
	srv.Diag = d
	addr, _ := startMulti(t, srv)
	defer shutdownMulti(t, srv)
	if n := runClient(t, addr, "misser"); n != 8 {
		t.Fatalf("client got %d frames, want 8", n)
	}
	d.Close() // publishes the capture in flight
	if b := d.Latest(); b == nil || b.Reason != "miss_streak" {
		t.Fatalf("latest bundle %+v, want a miss_streak one", b)
	}
}
