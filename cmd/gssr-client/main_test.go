package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/stream"
)

// rejectingServer answers every opening message with rej and closes,
// counting the connections it saw.
func rejectingServer(t *testing.T, rej stream.Reject) (addr string, dials chan struct{}) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	dials = make(chan struct{}, 8)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			dials <- struct{}{}
			if _, err := stream.ReadMsg(conn); err == nil {
				_ = stream.WriteReject(conn, rej)
			}
			conn.Close()
		}
	}()
	return l.Addr().String(), dials
}

// TestRejectIsFinal: a typed Reject comes back from a session as it is — the
// server understood the hello and said no, so without -reconnect there is no
// second attempt, not even for a busy server.
func TestRejectIsFinal(t *testing.T) {
	addr, dials := rejectingServer(t, stream.Reject{Code: stream.RejectBusy, Reason: "no headroom"})
	err := run(context.Background(), clientConfig{addr: addr, devName: "s8", scale: 2, flightFrames: 8})
	var rej *stream.RejectedError
	if !errors.As(err, &rej) || rej.Code != stream.RejectBusy {
		t.Fatalf("want RejectedError(busy), got %v", err)
	}
	if len(dials) != 1 {
		t.Fatalf("client dialled %d times after a reject, want 1", len(dials))
	}
}

// TestVersionMismatchRejected: the reject a server of another protocol
// version sends is fatal in the reconnect loop — `-reconnect 3` dials once.
func TestVersionMismatchRejected(t *testing.T) {
	addr, dials := rejectingServer(t, stream.Reject{Code: stream.RejectBadHello, Reason: "protocol version 4, this server speaks 5"})
	err := run(context.Background(), clientConfig{
		addr: addr, devName: "s8", scale: 2, flightFrames: 8,
		reconnect: 3, reconnectBase: time.Millisecond, reconnectMax: time.Millisecond,
	})
	var rej *stream.RejectedError
	if !errors.As(err, &rej) || rej.Code != stream.RejectBadHello || !strings.Contains(err.Error(), "this server speaks 5") {
		t.Fatalf("want the bad-hello reject with its reason, got %v", err)
	}
	if len(dials) != 1 {
		t.Fatalf("client dialled %d times, want 1", len(dials))
	}
}

// codedSource encodes a moving gradient: real codec frames, so the client
// runs its whole decode → upscale ∥ SR → merge path.
type codedSource struct {
	enc *codec.Encoder
	img *frame.Image
}

func (s *codedSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	for y := 0; y < s.img.H; y++ {
		for x := 0; x < s.img.W; x++ {
			p := y*s.img.Stride + x
			s.img.R[p], s.img.G[p], s.img.B[p] = uint8(x*3+i), uint8(y*5), uint8(x+y+i)
		}
	}
	data, ftype, err := s.enc.Encode(s.img)
	return data, ftype == codec.Intra, frame.Rect{X: 16, Y: 8, W: 16, H: 16}, err
}

// TestBenchContract pins what bench/run.go reads from a gssr-client run (the
// root module has no other record of it, and bench/ is a module `go test
// ./...` does not reach): the `session summary` log line's kb= field, and in
// the -flight dump one process with a clock_sync epoch whose frames carry
// their index, the frozen flag, latency_us, age_us and the `recv` and
// `present` spans. A rename of any of them blinds the benchmark.
func TestBenchContract(t *testing.T) {
	const w, h, nFrames = 64, 36, 6
	srv := &stream.MultiServer{
		Accept:    stream.Accept{Width: w, Height: h, GOPSize: 3, QStep: 6},
		MaxFrames: nFrames,
		Log:       logx.New(logx.Config{Out: io.Discard}),
		NewSource: func(stream.Hello) (stream.FrameSource, error) {
			enc, err := codec.NewEncoder(codec.Config{Width: w, Height: h, GOPSize: 3, QStep: 6})
			return &codedSource{enc: enc, img: frame.NewImage(w, h)}, err
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(context.Background())

	flight := filepath.Join(t.TempDir(), "flight.json")
	var logged uint64 // the ring is the process's: look only at what this run adds
	if old := logx.Default().Recent(1); len(old) > 0 {
		logged = old[0].Seq
	}
	if err := run(context.Background(), clientConfig{
		addr: l.Addr().String(), devName: "s8", scale: 2,
		flightPath: flight, flightFrames: 16, statsEvery: 60, ping: stream.DefaultPingInterval,
	}); err != nil {
		t.Fatal(err)
	}

	var summary string
	for _, e := range logx.Default().Recent(0) {
		if e.Seq > logged && strings.Contains(e.Line, "session summary") {
			summary = e.Line
		}
	}
	m := regexp.MustCompile(`\bkb=([0-9.]+)`).FindStringSubmatch(summary)
	if m == nil {
		t.Fatalf("no `session summary` line with kb=: %q", summary)
	}
	if kb, err := strconv.ParseFloat(m[1], 64); err != nil || kb <= 0 {
		t.Fatalf("session summary kb=%q", m[1])
	}

	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"clock_sync"`, `"latency_us"`, `"age_us"`, `"frozen"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("flight dump has no %s", key)
		}
	}
	dumps, err := frametrace.ParseChromeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || dumps[0].Dump.EpochUnixMicro == 0 {
		t.Fatalf("want one process with a clock_sync epoch, got %d", len(dumps))
	}
	frames := dumps[0].Dump.Frames
	if len(frames) != nFrames {
		t.Fatalf("%d frames in the dump, want %d", len(frames), nFrames)
	}
	anyAge := false
	for i, fr := range frames {
		spans := map[string]bool{}
		for _, s := range fr.Spans {
			spans[s.Name] = true
		}
		if fr.Index != i || fr.Frozen || fr.Latency <= 0 || !spans["recv"] || !spans["present"] {
			t.Errorf("frame %d: index %d frozen %v latency %v spans %v", i, fr.Index, fr.Frozen, fr.Latency, spans)
		}
		anyAge = anyAge || fr.Age > 0
	}
	if !anyAge {
		t.Error("no frame carries age_us")
	}
}
