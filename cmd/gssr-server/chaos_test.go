package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/faultnet"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/stream"
)

// The chaos harness (BENCH_chaos.json): one player's session over real TCP,
// killed mid-GOP by a scripted faultnet reset and redialled with its resume
// token. The smoke test pins the contract of a solo resume — the token comes
// back unchanged, the server files both sessions under the first
// connection's identity, and the redialled session starts at a keyframe and
// streams the same bytes a fault-free run would. The full run measures
// reconnect-to-first-frame across reset/redial cycles.

// chaosSource streams paced frames whose payloads are a pure function of
// the frame index: every session's fresh source regenerates the exact
// bytes of the first, so the client can assert byte-identity across the
// drop.
type chaosSource struct {
	frames, gop, size int
	pace              time.Duration
}

func (s *chaosSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.frames {
		return nil, false, frame.Rect{}, io.EOF
	}
	if s.pace > 0 && i > 0 {
		time.Sleep(s.pace)
	}
	return chaosFrame(i, s.size), i%s.gop == 0, frame.Rect{}, nil
}

// chaosFrame is the deterministic payload for frame i — what the client
// must receive for that index, before and after the redial.
func chaosFrame(i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(i*131 + j*7)
	}
	return p
}

// genResult is one connection's outcome.
type genResult struct {
	identity   string        // the connection's address as the server sees it
	token      string        // resume token from the Accept
	frames     int           // frames drained before the session ended
	badPayload int           // frames out of order or unlike chaosFrame(Index)
	firstKey   bool          // frame 0 arrived first, as a keyframe, byte-exact
	ttff       time.Duration // dial → first frame (handshake included)
	err        error         // terminal error; nil on clean EOF
}

// playResumable dials addr, handshakes replaying token (empty on the first
// dial) and drains the session, checking every frame against the
// deterministic source. A non-nil script wraps the dialled connection in
// faultnet — the scripted fault (a byte-triggered reset) is what ends the
// connection uncleanly.
func playResumable(addr, token string, size int, script *faultnet.Script) genResult {
	var res genResult
	t0 := time.Now()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		res.err = err
		return res
	}
	res.identity = raw.LocalAddr().String()
	var conn net.Conn = raw
	if script != nil {
		conn = faultnet.Wrap(raw, *script)
	}
	defer conn.Close()
	c := stream.NewClient(conn)
	cfg, err := c.Handshake(stream.Hello{Device: "player", RoIWindow: 16, Scale: 2, ResumeToken: token})
	if err != nil {
		res.err = err
		return res
	}
	res.token = cfg.Token
	for {
		pkt, err := c.RecvFrame()
		if err != nil {
			if err == io.EOF {
				_ = c.Bye()
				err = nil
			}
			res.err = err
			return res
		}
		exact := int(pkt.Index) == res.frames && string(pkt.Payload) == string(chaosFrame(res.frames, size))
		if res.frames == 0 {
			res.ttff = time.Since(t0)
			res.firstKey = exact && pkt.Keyenc
		}
		if !exact {
			res.badPayload++
		}
		res.frames++
	}
}

// chaosRun holds one reset/redial experiment's measurements.
type chaosRun struct {
	first         genResult
	redials       []genResult     // one per reset, in order; the last runs fault-free
	reconnectTTFF []time.Duration // per redial: dial → first frame on the new session
	latencies     map[string][]time.Duration
}

// runChaos drives nDrops reset/redial cycles of one player: the first
// connection and every redial but the last carry a byte-triggered faultnet
// reset; the last redial streams fault-free to EOF. Every redial replays
// the token the first Accept issued.
func runChaos(t testing.TB, nDrops, nFrames, gop, size int, pace time.Duration, resetAt int64) chaosRun {
	t.Helper()
	srv := &stream.MultiServer{
		Accept:       stream.Accept{Width: 32, Height: 32, GOPSize: gop, QStep: 6},
		MaxFrames:    nFrames,
		MaxSessions:  4,
		FlightFrames: 16,
		FlightRetain: nDrops + 1,
		IdleTimeout:  -1, // harness clients do not heartbeat
		NewSource: func(stream.Hello) (stream.FrameSource, error) {
			return &chaosSource{frames: nFrames, gop: gop, size: size, pace: pace}, nil
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-serveDone
	}()
	addr := l.Addr().String()
	reset := func() *faultnet.Script {
		return &faultnet.Script{Events: []faultnet.Event{{AtBytes: resetAt, Action: faultnet.Reset}}}
	}

	var run chaosRun
	run.first = playResumable(addr, "", size, reset())
	if run.first.err == nil {
		t.Fatalf("the doomed first connection ended cleanly after %d frames", run.first.frames)
	}
	if run.first.token == "" {
		t.Fatal("the first Accept carried no resume token")
	}
	for drop := 0; drop < nDrops; drop++ {
		script := reset()
		if drop == nDrops-1 {
			script = nil
		}
		next := playResumable(addr, run.first.token, size, script)
		if next.frames == 0 {
			t.Fatalf("redial %d got no frames (err %v)", drop+1, next.err)
		}
		run.redials = append(run.redials, next)
		run.reconnectTTFF = append(run.reconnectTTFF, next.ttff)
	}
	run.latencies = sessionLatencies(t, srv)
	return run
}

// checkChaos asserts the solo-resume contract on a finished run.
func checkChaos(t *testing.T, run chaosRun, nFrames int) {
	t.Helper()
	if run.first.badPayload > 0 || !run.first.firstKey {
		t.Errorf("first connection: %d bad frames, keyframe first %v", run.first.badPayload, run.first.firstKey)
	}
	for i, r := range run.redials {
		if r.token != run.first.token {
			t.Errorf("redial %d: resume token changed: %q → %q", i+1, run.first.token, r.token)
		}
		if !r.firstKey {
			t.Errorf("redial %d: the first frame is not the keyframe chaosFrame(0)", i+1)
		}
		if r.badPayload > 0 {
			t.Errorf("redial %d: %d frames out of order or unlike the source", i+1, r.badPayload)
		}
	}
	last := run.redials[len(run.redials)-1]
	if last.err != nil || last.frames != nFrames {
		t.Errorf("the fault-free redial drained %d frames (err %v), want %d", last.frames, last.err, nFrames)
	}
	// Every session is filed under the first connection's identity, one
	// recorder each, in dial order.
	if len(run.latencies) != len(run.redials)+1 {
		t.Errorf("the flight payload holds %d sessions, want %d: %v", len(run.latencies), len(run.redials)+1, keys(run.latencies))
	}
	for k := 0; k <= len(run.redials); k++ {
		key := fmt.Sprintf("%s#%d", run.first.identity, k)
		if len(run.latencies[key]) == 0 {
			t.Errorf("the flight payload has no window for %s: %v", key, keys(run.latencies))
		}
	}
}

// sessionLatencies returns every retained session's delivered-frame
// latencies keyed "identity#k" (k numbers successive sessions under one
// identity, in admission order), read through the server's /debug/flight
// payload.
func sessionLatencies(t testing.TB, srv *stream.MultiServer) map[string][]time.Duration {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	dumps, err := frametrace.ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]time.Duration, len(dumps))
	seen := map[string]int{}
	for _, d := range dumps {
		id := strings.TrimSuffix(d.Name, " (closed)")
		var lat []time.Duration
		for _, f := range d.Dump.Frames {
			if f.ID != 0 && !f.Frozen && f.Latency > 0 {
				lat = append(lat, f.Latency)
			}
		}
		out[fmt.Sprintf("%s#%d", id, seen[id])] = lat
		seen[id]++
	}
	return out
}

func keys(m map[string][]time.Duration) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestChaosSmoke is the CI-sized chaos e2e at the command level: one
// scripted mid-GOP reset of a player's connection, then a redial with its
// resume token.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke is not -short")
	}
	const (
		nFrames = 60
		gop     = 5
		size    = 2 << 10
	)
	// ~23 frames of ~2KB cross 48KB mid-GOP: the reset cuts a frame inside
	// a GOP, so the redial has to start over at a keyframe.
	run := runChaos(t, 1, nFrames, gop, size, 3*time.Millisecond, 48<<10)
	if f := run.first.frames; f == 0 || f%gop == 0 || f >= nFrames {
		t.Errorf("the reset left %d frames delivered: want it mid-GOP and mid-stream", f)
	}
	checkChaos(t, run, nFrames)
	t.Logf("reconnect-to-first-frame: %v", run.reconnectTTFF[0])
}

// TestChaosFull is the BENCH_chaos.json run: 3 reset/redial cycles of one
// player, recording reconnect-to-first-frame per cycle. Gated behind
// CHAOS_FULL=1.
func TestChaosFull(t *testing.T) {
	if os.Getenv("CHAOS_FULL") == "" {
		t.Skip("set CHAOS_FULL=1 to run the recorded chaos benchmark")
	}
	const (
		nDrops  = 3
		nFrames = 200
		gop     = 10
		size    = 4 << 10
	)
	run := runChaos(t, nDrops, nFrames, gop, size, 3*time.Millisecond, 96<<10)
	checkChaos(t, run, nFrames)
	t.Logf("first connection: %d frames before the reset", run.first.frames)
	for i, ttff := range run.reconnectTTFF {
		t.Logf("redial %d: dial → first frame %v (%d frames)", i+1, ttff, run.redials[i].frames)
	}
}
