package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gamestreamsr"
	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// spanNames adds "process name" for every span name in dump's frames.
func spanNames(set map[string]bool, process string, dump *frametrace.Dump) {
	for _, f := range dump.Frames {
		for _, s := range f.Spans {
			set[process+" "+s.Name] = true
		}
	}
}

// TestSpanNamesGolden pins the span names each process records, taken from
// a real short run of each: the client's frame spans (bench/run.go reads
// `recv` and `present`), the offline engine's stage lanes (bench/child.go
// reads `client` and `measure`) and a gssr-server session's, the session
// rendering, detecting and encoding a game through pipeline.Source as
// gssr-server's does. A rename or a dropped span blinds the benchmark or a
// trace reader; it fails here. The list is testdata/span_names.txt, one
// "process span" a line; rewrite it with -update.
func TestSpanNamesGolden(t *testing.T) {
	const w, h, nFrames = 128, 72, 4
	got := map[string]bool{}

	cc := codec.Config{Width: w, Height: h, GOPSize: 3, QStep: 6}
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	srv := &stream.MultiServer{
		Accept:    stream.Accept{Width: w, Height: h, GOPSize: cc.GOPSize, QStep: cc.QStep},
		MaxFrames: nFrames,
		Log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		NewSource: func(hello stream.Hello) (stream.FrameSource, error) {
			return pipeline.NewSource(g, cc, hello.RoIWindow, bufpool.New())
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(context.Background())
	flight := filepath.Join(t.TempDir(), "flight.json")
	if err := run(context.Background(), clientConfig{
		addr: l.Addr().String(), devName: "s8", scale: 2,
		flightPath: flight, flightFrames: 16, statsEvery: 60, ping: stream.DefaultPingInterval,
	}); err != nil {
		t.Fatal(err)
	}
	for process, read := range map[string]func() ([]byte, error){
		"client": func() ([]byte, error) { return os.ReadFile(flight) },
		"server": func() ([]byte, error) {
			var b bytes.Buffer
			err := srv.WriteFlight(&b)
			return b.Bytes(), err
		},
	} {
		raw, err := read()
		if err != nil {
			t.Fatal(err)
		}
		dumps, err := frametrace.ParseChromeTrace(bytes.NewReader(raw))
		if err != nil || len(dumps) != 1 {
			t.Fatalf("%s flight: %d processes, %v; want one", process, len(dumps), err)
		}
		spanNames(got, process, dumps[0].Dump)
	}

	rec := gamestreamsr.NewFlightRecorder(gamestreamsr.FlightConfig{Frames: nFrames})
	sess, err := gamestreamsr.NewSession(gamestreamsr.Config{SimDiv: 8, GOPSize: 3, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(nFrames); err != nil {
		t.Fatal(err)
	}
	spanNames(got, "engine", rec.Snapshot())

	var lines []string
	for k := range got {
		lines = append(lines, k)
	}
	sort.Strings(lines)
	text := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "span_names.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Errorf("span names moved; got:\n%s\nwant:\n%s", text, want)
	}
}
