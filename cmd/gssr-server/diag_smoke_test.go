package main

// TestDiagSmoke is the command-level diagnostics e2e: a real pipeline.Source
// session (render → RoI → encode, the path run() builds) streams against an
// impossible per-frame budget, the SLO watchdog freezes a capture bundle
// into the -diag directory, and the bundle file round-trips through
// diag.ParseBundle and diag.RenderBundle — the same pipeline `gssr diag`
// runs on an operator's box.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
)

func TestDiagSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("diag smoke is not -short")
	}
	const nFrames = 48
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	lg := logx.NewRing(io.Discard)
	dir := t.TempDir()
	const w, h, gop, q = 64, 36, 6, 6
	srv := &stream.MultiServer{
		Accept:       stream.Accept{Width: w, Height: h, GOPSize: gop, QStep: q},
		MaxFrames:    nFrames,
		MaxSessions:  2,
		Metrics:      reg,
		FlightFrames: 32,
		Sched:        parallel.Default(),
		Deadline:     time.Nanosecond, // every frame misses; the streak trips the watchdog
		Log:          slog.New(lg),
		NewSource: func(hello stream.Hello) (stream.FrameSource, error) {
			return pipeline.NewSource(g, codec.Config{Width: w, Height: h, GOPSize: gop, QStep: q}, hello.RoIWindow, bufpool.New())
		},
	}
	d := diag.New(diag.Config{Metrics: reg, Flight: srv, Log: lg, Dir: dir, Cooldown: time.Hour})
	defer d.Close()
	srv.Diag = d

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
	c := stream.NewClient(conn)
	if _, err := c.Handshake(stream.Hello{Device: "diag-smoke", RoIWindow: 16, Scale: 2}); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	frames := 0
	for {
		if _, err := c.RecvFrame(); err != nil {
			break
		}
		frames++
	}
	if frames != nFrames {
		t.Fatalf("client received %d frames, want %d", frames, nFrames)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-serveDone
	d.Close() // as run's deferred Close: the capture in flight is written

	// The watchdog must have produced exactly one bundle file on disk.
	matches, err := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("diag dir holds %d bundle files, want 1: %v", len(matches), matches)
	}

	// Round-trip the file the way `gssr diag <bundle>` does.
	f, err := os.Open(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := diag.ParseBundle(f)
	if err != nil {
		t.Fatalf("bundle file unparseable: %v", err)
	}
	if b.Reason != "miss_streak" {
		t.Errorf("bundle reason %q, want miss_streak", b.Reason)
	}
	if b.Build.GoVersion == "" {
		t.Error("bundle carries no build info")
	}
	if len(b.CPUProfile) == 0 || b.CPUStart.Before(b.Time) {
		t.Errorf("bundle profile of %d bytes from %v, want one from the trigger at %v on",
			len(b.CPUProfile), b.CPUStart, b.Time)
	}
	var out bytes.Buffer
	if err := diag.RenderBundle(&out, b, 5, "cpu.pb.gz"); err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{"miss_streak", "flight window", "build: go"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendered bundle missing %q:\n%s", want, out.String())
		}
	}
	if testing.Verbose() {
		fmt.Println(out.String())
	}
}
