package stream

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// TestE2EDistributedTrace is the end-to-end check of the observability
// pipeline over real TCP: a MultiServer with per-session flight recorders
// streams to a client that runs its own recorder, adopts the server's
// flight IDs, reports Stats on the backchannel, and says Bye. Afterwards
// the two flight dumps must correlate frame-for-frame on one clock-aligned
// timeline, and the server's /metrics registry must expose the
// client-reported e2e p99 per session. Run under -race in CI.
func TestE2EDistributedTrace(t *testing.T) {
	const nFrames = 24
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept: Accept{Width: 64, Height: 36, GOPSize: 6, QStep: 6},
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i >= nFrames {
					return nil, false, frame.Rect{}, io.EOF
				}
				// Pace the stream so the session is still live while the
				// client's mid-stream stats reports travel the backchannel
				// (tiny frames would otherwise burst out and close first).
				time.Sleep(2 * time.Millisecond)
				return bytes.Repeat([]byte{byte(i)}, 512), i%6 == 0, frame.Rect{X: 0, Y: 0, W: 16, H: 16}, nil
			}), nil
		},
		Metrics:      reg,
		FlightFrames: 64,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	cfg, err := c.Handshake(Hello{Device: "e2e", RoIWindow: 16, Scale: 2, Version: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Version != ProtocolVersion {
		t.Fatalf("accept version %d", cfg.Version)
	}
	clock := c.Clock()
	if !clock.Synced {
		t.Fatal("no clock sync on a versioned TCP session")
	}
	// Both endpoints share one physical clock, so the Cristian error bound
	// is directly checkable: |estimated offset − 0| ≤ RTT/2.
	if clock.Offset.Abs() > clock.RTT/2+time.Microsecond {
		t.Errorf("|offset| %v > RTT/2 %v", clock.Offset.Abs(), clock.RTT/2)
	}

	// The client-side recorder adopts server flight IDs and reports stats
	// mid-stream — the gssr-client loop in miniature.
	rec := frametrace.New(frametrace.Config{Frames: 64})
	rec.SetProcess("client")
	rec.SetClockSync(clock.Offset, clock.RTT)
	remoteLabel := metricLabel(conn.LocalAddr().String())
	frames := 0
	for {
		tRecv := time.Now()
		pkt, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pkt.FlightID == 0 {
			t.Fatalf("frame %d has no flight ID", pkt.Index)
		}
		fid := rec.BeginFrameAt(pkt.FlightID, int(pkt.Index))
		rec.Span(fid, "recv", "recv", tRecv, time.Since(tRecv))
		tPresent := time.Now()
		rec.Span(fid, "present", "present", tPresent, 0)
		if age := tPresent.Sub(clock.ServerTime(pkt.SendUnixMicro)); age > 0 {
			rec.SetAge(fid, age)
		}
		frames++
		// Report mid-stream only: the final window would race the server's
		// post-Bye close (gssr-client tolerates that race; the test avoids it).
		if frames%8 == 0 && frames < nFrames {
			if err := c.SendStats(StatsPacket{
				Seq: uint32(frames / 8), WindowFrames: 8,
				AgeP50: 2 * time.Millisecond, AgeP99: 4 * time.Millisecond,
				DecodeP99: time.Millisecond,
			}); err != nil {
				t.Fatalf("stats: %v", err)
			}
			if frames == 8 {
				// The backchannel is async to the frame stream: wait for the
				// first report to land while the session is still live — the
				// per-session gauges are unregistered at teardown, so the
				// live window is the only time they are observable.
				deadline := time.Now().Add(5 * time.Second)
				for counterOf(reg.Snapshot(), "stream_client_stats_total") == 0 {
					if time.Now().After(deadline) {
						t.Fatal("no stats report reached the server registry")
					}
					time.Sleep(time.Millisecond)
				}
				if got := gaugeOf(reg.Snapshot(), "stream_client_age_p99_us_"+remoteLabel); got != 4000 {
					t.Errorf("per-session client age p99 gauge = %d, want 4000", got)
				}
			}
		}
	}
	if frames != nFrames {
		t.Fatalf("received %d frames, want %d", frames, nFrames)
	}
	if err := c.Bye(); err != nil {
		t.Fatal(err)
	}

	// Merge the two sides: every client frame must appear on the server
	// track under the same flight ID, clock-aligned.
	var flight bytes.Buffer
	if err := srv.WriteFlight(&flight); err != nil {
		t.Fatal(err)
	}
	serverDumps, err := frametrace.ParseChromeTrace(&flight)
	if err != nil {
		t.Fatal(err)
	}
	if len(serverDumps) != 1 {
		t.Fatalf("%d server sessions dumped", len(serverDumps))
	}
	clientDump := rec.Snapshot()
	aligned := frametrace.AlignDumps([]frametrace.NamedDump{
		serverDumps[0], {Name: "client", Dump: clientDump},
	})
	corr := frametrace.Correlate(aligned[0].Dump, aligned[1].Dump)
	if len(corr) != nFrames {
		t.Fatalf("correlated %d frames, want %d", len(corr), nFrames)
	}
	// The alignment inherits the Cristian estimate's error (≤ RTT/2 per
	// endpoint), so on loopback — where the true send→present gap is only a
	// few µs — a correlated age may come out slightly negative. Anything
	// beyond the sync error bound means the alignment itself is broken.
	ageFloor := -(clock.RTT + time.Millisecond)
	for _, fc := range corr {
		if fc.Age < ageFloor {
			t.Errorf("frame %d: wire-to-present age %v below clock-error floor %v", fc.ID, fc.Age, ageFloor)
		}
		if fc.Age > 5*time.Second {
			t.Errorf("frame %d: absurd age %v (alignment broken?)", fc.ID, fc.Age)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-serveDone

	// Session teardown must unregister the per-session gauges — under
	// session churn every reconnect has a fresh ephemeral port, and leaked
	// gauges grew /metrics without bound.
	if got := gaugeOf(reg.Snapshot(), "stream_client_age_p99_us_"+remoteLabel); got != 0 {
		t.Errorf("per-session gauge survived teardown: %d", got)
	}
}
