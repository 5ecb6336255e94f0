package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/stream"
)

// TestMain logs as main does: through slog's default onto logx.Default(),
// whose ring TestBenchContract reads.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(logx.Default()))
	os.Exit(m.Run())
}

// TestNextFrameMatchesSerialComposition drives pipeline.Source, as run()
// builds it for every session, and requires each frame's payload,
// keyframe flag and RoI to equal the kernels composed by hand, one after
// the other: RenderInto, then the detector's reference pipeline (DetectDebug
// is the one public form of it), then EncodeInto on a plain encoder with no
// pool and no session client (internal/codec's differential tests pin that
// encoder to its own reference loops). Two GOPs at every shed level, on the
// default client and on a session's own.
func TestNextFrameMatchesSerialComposition(t *testing.T) {
	const w, h, gop, q, win, nFrames = 160, 90, 6, 6, 64, 12
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	cc := codec.Config{Width: w, Height: h, GOPSize: gop, QStep: q}
	sched := parallel.NewScheduler(2)
	for _, withClient := range []bool{false, true} {
		for _, level := range []int{stream.ShedNone, stream.ShedRoIShrink, stream.ShedBilinearOnly, stream.ShedDemoted} {
			t.Run(fmt.Sprintf("client=%v/shed=%d", withClient, level), func(t *testing.T) {
				src, err := pipeline.NewSource(g, cc, win, bufpool.New())
				if err != nil {
					t.Fatal(err)
				}
				if withClient {
					src.SetSched(sched.NewClient(parallel.ClientConfig{Name: "session"}))
				}
				src.SetShedLevel(level)

				window := map[int]int{stream.ShedNone: win, stream.ShedRoIShrink: win / 2}[level]
				var det *roi.Detector
				if window > 0 {
					if det, err = roi.New(roi.Config{WindowW: window, WindowH: window}); err != nil {
						t.Fatal(err)
					}
				}
				enc, err := codec.NewEncoder(cc)
				if err != nil {
					t.Fatal(err)
				}
				rd := &render.Renderer{}
				var out render.Output
				for i := 0; i < nFrames; i++ {
					data, key, rect, err := src.NextFrame(i)
					if err != nil {
						t.Fatal(err)
					}
					g.RenderInto(&out, rd, i, w, h)
					var wantRect frame.Rect
					if det != nil {
						if wantRect, _, err = det.DetectDebug(out.Depth); err != nil {
							t.Fatal(err)
						}
					}
					want, ft, err := enc.EncodeInto(nil, out.Color)
					if err != nil {
						t.Fatal(err)
					}
					if rect != wantRect {
						t.Fatalf("frame %d: RoI %v, composition %v", i, rect, wantRect)
					}
					if key != (ft == codec.Intra) || key != (i%gop == 0) {
						t.Fatalf("frame %d: keyframe flag %v, composition coded %v", i, key, ft)
					}
					if !bytes.Equal(data, want) {
						t.Fatalf("frame %d: payload (%d B) differs from the composition's (%d B)", i, len(data), len(want))
					}
				}
			})
		}
	}
}

// TestRunRejectsUndecodableConfig: a codec configuration past the bitstream
// bounds stops the server before it listens, instead of every client on its
// first frame.
func TestRunRejectsUndecodableConfig(t *testing.T) {
	for _, cfg := range []serverConfig{
		{addr: "127.0.0.1:0", gameID: "G3", frames: 1, width: 320, height: 180, gop: 12, qstep: 300},
		{addr: "127.0.0.1:0", gameID: "G3", frames: 1, width: 9000, height: 180, gop: 12, qstep: 6},
	} {
		err := run(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), "codec:") {
			t.Errorf("run(%dx%d q=%d) = %v, want a codec configuration error", cfg.width, cfg.height, cfg.qstep, err)
		}
	}
}

// TestFramesMustNotBeNegative: a negative -frames would stream no frame to
// any client and still exit 0, so it is refused when the flags are parsed;
// 0 (until the source ends) and positive counts pass through, as do the
// flags the benchmark harness passes.
func TestFramesMustNotBeNegative(t *testing.T) {
	for _, v := range []string{"-1", "-120"} {
		if _, err := parseFlags([]string{"-frames=" + v}); err == nil || !strings.Contains(err.Error(), "-frames") {
			t.Errorf("-frames=%s: err %v, want a refusal naming the flag", v, err)
		}
	}
	for args, want := range map[string]int{"": 120, "-frames=0": 0, "-frames=7": 7} {
		cfg, err := parseFlags(strings.Fields(args))
		if err != nil || cfg.frames != want {
			t.Errorf("parseFlags(%q): frames %d, err %v; want %d", args, cfg.frames, err, want)
		}
	}
	args := "-addr 127.0.0.1:0 -game G5 -frames 600 -w 640 -h 360 -gop 12 -q 6 -admission -shed -shed-streak 3"
	cfg, err := parseFlags(strings.Fields(args))
	if err != nil || cfg.addr != "127.0.0.1:0" || cfg.gameID != "G5" || cfg.frames != 600 || cfg.width != 640 || cfg.height != 360 ||
		cfg.gop != 12 || cfg.qstep != 6 || cfg.admission == nil || cfg.shed == nil || cfg.shed.EscalateStreak != 3 {
		t.Errorf("parseFlags(%q) = %+v, %v", args, cfg, err)
	}
}

// logWatch returns a function that waits up to ten seconds for a line the
// process logs after this call containing substr, and returns it.
func logWatch(t *testing.T) func(substr string) string {
	var logged uint64 // the ring is the process's: look only at what is added
	if old := logx.Default().Recent(1); len(old) > 0 {
		logged = old[0].Seq
	}
	return func(substr string) string {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			for _, e := range logx.Default().Recent(0) {
				if e.Seq > logged && strings.Contains(e.Line, substr) {
					return e.Line
				}
			}
		}
		t.Fatalf("gssr-server logged no line with %q", substr)
		return ""
	}
}

// startRun starts run(ctx, cfg) and dials the address it logs.
func startRun(t *testing.T, ctx context.Context, cfg serverConfig, awaitLine func(string) string) (net.Conn, chan error) {
	t.Helper()
	ran := make(chan error, 1)
	go func() { ran <- run(ctx, cfg) }()
	m := regexp.MustCompile(`\baddr=(\S+)`).FindStringSubmatch(awaitLine("addr="))
	conn, err := net.Dial("tcp", m[1])
	if err != nil {
		t.Fatalf("the addr= field is not the listening address: %v", err)
	}
	return conn, ran
}

// TestBenchContract pins the two log lines bench/run.go reads from a
// gssr-server run (the client's half is in cmd/gssr-client): the first line
// carrying addr=, from which it learns where `-addr 127.0.0.1:0` landed, and
// the `hello` line's roi_window= field.
func TestBenchContract(t *testing.T) {
	awaitLine := logWatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, _ := startRun(t, ctx, serverConfig{addr: "127.0.0.1:0", gameID: "G3", frames: 6, width: 64, height: 36, gop: 3, qstep: 6}, awaitLine)
	defer conn.Close()
	c := stream.NewClient(conn)
	if _, err := c.Handshake(stream.Hello{Device: "contract", RoIWindow: 16, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	frames := 0
	for ; ; frames++ {
		if _, err := c.RecvFrame(); err != nil {
			break
		}
	}
	_ = c.Bye()
	if frames != 6 {
		t.Fatalf("%d frames, want 6", frames)
	}
	if hello := awaitLine("roi_window="); !strings.Contains(hello, "hello ") || !strings.Contains(hello, "roi_window=16") {
		t.Fatalf("hello line %q, want roi_window=16", hello)
	}
}

// TestRunShutsDownOnCancel: the end of run's context (SIGINT or SIGTERM in
// main) during a live session shuts the server down — run returns nil
// within shutdownBound and the client's stream ends with the server's Bye.
func TestRunShutsDownOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn, ran := startRun(t, ctx, serverConfig{addr: "127.0.0.1:0", gameID: "G3", frames: 0, width: 64, height: 36, gop: 3, qstep: 6}, logWatch(t))
	defer conn.Close()
	c := stream.NewClient(conn)
	if _, err := c.Handshake(stream.Hello{Device: "shutdown", RoIWindow: 16, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvFrame(); err != nil {
		t.Fatalf("no frame before the shutdown: %v", err)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("run = %v, want nil after a shutdown", err)
		}
		t.Logf("run returned %v after the cancel", time.Since(start))
	case <-time.After(shutdownBound + time.Second):
		t.Fatalf("run still serving %v after the cancel", shutdownBound+time.Second)
	}
	conn.SetReadDeadline(time.Now().Add(shutdownBound))
	for {
		_, err := c.RecvFrame()
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("the client's connection is still open after the shutdown")
		}
		// A shutdown ends the stream the way its last frame would: with a
		// Bye, which the client reads as the end of the stream.
		if err != io.EOF {
			t.Fatalf("RecvFrame after the shutdown = %v, want io.EOF", err)
		}
		break
	}
}
