package stream

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/faultnet"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

// This file is the fault-tolerance suite (DESIGN.md §15): heartbeat
// liveness, the idle reaper, resume tokens, and channel park/reclaim across
// publisher drops — both at the relay unit level and end to end over real
// TCP with faultnet injecting the failures.

// pacedSource serves n frames with a fixed inter-frame gap — long enough
// that a session's liveness window elapses between frames unless the client
// heartbeats.
type pacedSource struct {
	n    int
	pace time.Duration
}

func (s *pacedSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.n {
		return nil, false, frame.Rect{}, io.EOF
	}
	if i > 0 {
		time.Sleep(s.pace)
	}
	return []byte{byte(i)}, i == 0, frame.Rect{W: 4, H: 4}, nil
}

// TestPingPong: a client heartbeats mid-stream; the server pongs (counted
// in stream_pings_total), and the client's RTT estimate updates from the
// echoed timestamp.
func TestPingPong(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	done := serveFrames(server, ServerOptions{
		Metrics: reg,
		Source:  &pacedSource{n: 3, pace: 50 * time.Millisecond},
	})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "hb", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := c.SendPing(); err != nil {
					return
				}
			}
		}
	}()
	frames := 0
	for {
		_, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	close(stop)
	wg.Wait()
	if frames != 3 {
		t.Fatalf("got %d frames, want 3", frames)
	}
	rtt, pongs := c.PingRTT()
	if pongs == 0 {
		t.Fatal("no pongs observed over a 100ms session of 10ms pings")
	}
	if rtt < 0 || rtt > 5*time.Second {
		t.Fatalf("implausible heartbeat RTT %v", rtt)
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (awaitHangup)
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if n := reg.Snapshot().Counter("stream_pings_total"); n == 0 {
		t.Fatal("server counted no pings")
	}
}

// TestResumeTokenIssued: a session's Accept carries the server's resume
// token.
func TestResumeTokenIssued(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	done := serveFrames(server, ServerOptions{ResumeToken: "feedc0de00112233"})
	c := NewClient(client)
	cfg, err := c.Handshake(Hello{Device: "rt", RoIWindow: 8, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Token != "feedc0de00112233" {
		t.Errorf("token %q, want the configured one", cfg.Token)
	}
	for {
		if _, err := c.RecvFrame(); err != nil {
			break
		}
	}
	_ = c.Bye() // a client that is done hangs up; the server waits for it (awaitHangup)
	<-done
}

// TestIdleReaperReapsSilentV4: a client that goes completely silent (no
// reads, no heartbeats) is reaped once the idle window elapses — the read
// deadline fires, the connection is closed (unblocking the stuck frame
// writer), and the reap is counted.
func TestIdleReaperReapsSilentV4(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	done := serveFrames(server, ServerOptions{
		Metrics:     reg,
		IdleTimeout: 80 * time.Millisecond,
		Source:      &pacedSource{n: 100, pace: time.Millisecond},
		SlowSend:    -1,
	})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "dead", RoIWindow: 8, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	// Silence: no pings, no reads. The server's next frame write blocks on
	// the pipe; only the reaper can end the session.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("session to a silent peer ended cleanly")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reaper never fired")
	}
	if n := reg.Snapshot().Counter("stream_sessions_reaped_total"); n != 1 {
		t.Fatalf("stream_sessions_reaped_total = %d, want 1", n)
	}
}

// TestIdleReaperSparesHeartbeatingClient: frames arrive slower than the idle
// window, but the client's heartbeats keep the session alive — liveness
// measures peer traffic, not frame cadence.
func TestIdleReaperSparesHeartbeatingClient(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	reg := telemetry.NewRegistry()
	done := serveFrames(server, ServerOptions{
		Metrics:     reg,
		IdleTimeout: 80 * time.Millisecond,
		Source:      &pacedSource{n: 3, pace: 200 * time.Millisecond},
		SlowSend:    -1,
	})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "alive", RoIWindow: 8, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := c.SendPing(); err != nil {
					return
				}
			}
		}
	}()
	frames := 0
	for {
		_, err := c.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
	}
	close(stop)
	wg.Wait()
	_ = c.Bye() // a client that is done hangs up; the server waits for it (awaitHangup)
	if err := <-done; err != nil {
		t.Fatalf("heartbeating session reaped: %v", err)
	}
	if frames != 3 {
		t.Fatalf("got %d frames, want 3", frames)
	}
	if n := reg.Snapshot().Counter("stream_sessions_reaped_total"); n != 0 {
		t.Fatalf("stream_sessions_reaped_total = %d, want 0", n)
	}
}

// TestRejectedErrorSurfacesReason pins the operator-facing error text: the
// server's reason string and retry hint must both appear, so a fatal reject
// in client logs says *why* ("channel taken"), not just a code.
func TestRejectedErrorSurfacesReason(t *testing.T) {
	e := &RejectedError{Code: RejectBusy, Reason: "no SLO headroom: p99 4ms", RetryAfter: 2 * time.Second}
	msg := e.Error()
	for _, want := range []string{"no SLO headroom: p99 4ms", "retry after 2s"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	bare := &RejectedError{Code: RejectChannelTaken, Reason: `channel "arena" already has a publisher`}
	if !strings.Contains(bare.Error(), `channel "arena" already has a publisher`) {
		t.Errorf("error %q missing reason", bare.Error())
	}
}

// --- relay park/reclaim unit tests -------------------------------------------

// TestRelayParkReclaim walks the park lifecycle at the relay level: a parked
// channel keeps its registry entry (Create still fails), keeps serving
// late-join subscribers from the keyframe cache, refuses the wrong token,
// and hands itself back for the right one.
func TestRelayParkReclaim(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRelay(reg, 8, 4)
	r.SetParkGrace(time.Hour) // reclaim is test-driven; the timer must not fire
	ch, err := r.Create("arena", Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6})
	if err != nil {
		t.Fatal(err)
	}
	ch.setResume("tok-1", "pub-origin")
	ch.Publish(FramePacket{Index: 0, Keyenc: true, Payload: []byte("key")})
	sub, err := ch.Subscribe("s0")
	if err != nil {
		t.Fatal(err)
	}

	if !ch.park() {
		t.Fatal("park refused with grace and token set")
	}
	if !ch.Parked() {
		t.Fatal("channel not parked")
	}
	snap := reg.Snapshot()
	if g := snap.Gauge("stream_relay_channels_parked"); g != 1 {
		t.Fatalf("parked gauge = %d, want 1", g)
	}
	if n := snap.Counter("stream_relay_channel_parks_total"); n != 1 {
		t.Fatalf("parks = %d, want 1", n)
	}
	// The registry entry survives: a second publisher cannot take the name.
	if _, err := r.Create("arena", Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6}); !errors.Is(err, errChannelTaken) {
		t.Fatalf("Create on parked channel = %v, want channel-taken", err)
	}
	// Late joiners still get the cached keyframe while parked.
	late, err := ch.Subscribe("late")
	if err != nil {
		t.Fatalf("Subscribe on parked channel: %v", err)
	}
	select {
	case rf := <-late.Frames():
		if !rf.pkt.Keyenc || string(rf.pkt.Payload) != "key" {
			t.Fatalf("late joiner got %+v, want cached keyframe", rf.pkt)
		}
	default:
		t.Fatal("late joiner's queue has no cached keyframe")
	}
	// The original subscriber's queue stayed open (it still holds the
	// pre-park keyframe).
	select {
	case _, ok := <-sub.Frames():
		if !ok {
			t.Fatal("subscriber queue closed by park")
		}
	default:
		t.Fatal("subscriber lost its queued frame across the park")
	}

	if _, err := r.Reclaim("arena", "wrong"); !errors.Is(err, errChannelTaken) {
		t.Fatalf("Reclaim with wrong token = %v, want channel-taken", err)
	}
	if _, err := r.Reclaim("arena", ""); !errors.Is(err, errChannelTaken) {
		t.Fatalf("Reclaim with empty token = %v, want channel-taken", err)
	}
	if _, err := r.Reclaim("nope", "tok-1"); !errors.Is(err, errUnknownChannel) {
		t.Fatalf("Reclaim of unknown name = %v, want unknown-channel", err)
	}
	got, err := r.Reclaim("arena", "tok-1")
	if err != nil {
		t.Fatalf("Reclaim: %v", err)
	}
	if got != ch || ch.Parked() {
		t.Fatal("reclaim did not un-park the original channel")
	}
	// A live (un-parked) channel refuses reclaim even with the right token —
	// exactly what a duplicate publisher must see.
	if _, err := r.Reclaim("arena", "tok-1"); !errors.Is(err, errChannelTaken) {
		t.Fatalf("Reclaim of live channel = %v, want channel-taken", err)
	}
	snap = reg.Snapshot()
	if g := snap.Gauge("stream_relay_channels_parked"); g != 0 {
		t.Fatalf("parked gauge = %d after reclaim, want 0", g)
	}
	if n := snap.Counter("stream_relay_channel_reclaims_total"); n != 1 {
		t.Fatalf("reclaims = %d, want 1", n)
	}
	ch.close(false)
}

// TestRelayParkExpiry: a park that nobody reclaims runs out its grace window
// and the channel closes gracefully — subscribers get their queued tail and
// a closed queue, the registry entry is released.
func TestRelayParkExpiry(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRelay(reg, 8, 4)
	r.SetParkGrace(30 * time.Millisecond)
	ch, err := r.Create("arena", Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6})
	if err != nil {
		t.Fatal(err)
	}
	ch.setResume("tok-1", "pub")
	ch.Publish(FramePacket{Index: 0, Keyenc: true, Payload: []byte("key")})
	sub, err := ch.Subscribe("s0")
	if err != nil {
		t.Fatal(err)
	}
	if !ch.park() {
		t.Fatal("park refused")
	}
	// Queued tail first, then the close.
	if rf, ok := <-sub.Frames(); !ok || !rf.pkt.Keyenc {
		t.Fatalf("queued keyframe lost (ok=%v)", ok)
	}
	waitFor(t, "park expiry", func() bool {
		_, ok := <-sub.Frames()
		return !ok
	})
	waitFor(t, "registry release", func() bool { return r.Lookup("arena") == nil })
	// Expired means gone: a reclaim with the right token is too late.
	if _, err := r.Reclaim("arena", "tok-1"); !errors.Is(err, errUnknownChannel) {
		t.Fatalf("Reclaim after expiry = %v, want unknown-channel", err)
	}
	snap := reg.Snapshot()
	if n := snap.Counter("stream_relay_park_expired_total"); n != 1 {
		t.Fatalf("park_expired = %d, want 1", n)
	}
	if g := snap.Gauge("stream_relay_channels_parked"); g != 0 {
		t.Fatalf("parked gauge = %d, want 0", g)
	}
	if n := snap.Counter("stream_relay_channel_reclaims_total"); n != 0 {
		t.Fatalf("reclaims = %d, want 0", n)
	}
}

// TestRelayReclaimExpiryRace hammers reclaim against a tiny grace window:
// whatever interleaving occurs, exactly one side wins (reclaimed or
// expired, never both, never neither) and the parked gauge lands at 0 or
// 1 matching the winner. Run with -race this also proves the timer/reclaim
// paths share no unsynchronised state.
func TestRelayReclaimExpiryRace(t *testing.T) {
	for i := 0; i < 20; i++ {
		reg := telemetry.NewRegistry()
		r := NewRelay(reg, 8, 4)
		r.SetParkGrace(time.Millisecond)
		ch, err := r.Create("arena", Accept{Width: 8, Height: 8, GOPSize: 4, QStep: 6})
		if err != nil {
			t.Fatal(err)
		}
		ch.setResume("tok", "pub")
		if !ch.park() {
			t.Fatal("park refused")
		}
		// Race the reclaim against the expiry timer.
		_, rerr := r.Reclaim("arena", "tok")
		if rerr == nil {
			// Reclaimed: the channel must be live and the timer defused.
			if ch.Parked() {
				t.Fatal("reclaimed channel still parked")
			}
			time.Sleep(5 * time.Millisecond) // give a leaked timer time to misfire
			if r.Lookup("arena") != ch {
				t.Fatal("expiry fired after a successful reclaim")
			}
			ch.close(false)
		} else {
			// Lost the race: the channel expired (or is mid-expiry).
			waitFor(t, "expiry", func() bool { return r.Lookup("arena") == nil })
		}
		snap := reg.Snapshot()
		won, expired := snap.Counter("stream_relay_channel_reclaims_total"), snap.Counter("stream_relay_park_expired_total")
		if won+expired != 1 {
			t.Fatalf("iteration %d: reclaims %d + expiries %d, want exactly 1 winner", i, won, expired)
		}
		if g := snap.Gauge("stream_relay_channels_parked"); g != 0 {
			t.Fatalf("iteration %d: parked gauge = %d, want 0", i, g)
		}
	}
}

// TestRelayShutdownWhileParked: server shutdown during a grace window must
// tear the parked channel down (timer stopped, gauge cleared) — not leave a
// timer firing into a dead relay.
func TestRelayShutdownWhileParked(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRelay(reg, 8, 4)
	r.SetParkGrace(time.Hour)
	ch, err := r.Create("arena", Accept{Width: 8, Height: 8, GOPSize: 4, QStep: 6})
	if err != nil {
		t.Fatal(err)
	}
	ch.setResume("tok", "pub")
	sub, err := ch.Subscribe("s0")
	if err != nil {
		t.Fatal(err)
	}
	if !ch.park() {
		t.Fatal("park refused")
	}
	r.Shutdown()
	if _, ok := <-sub.Frames(); ok {
		t.Fatal("subscriber queue still open after shutdown")
	}
	if !sub.Abandoned() {
		t.Fatal("shutdown should abandon the queued tail")
	}
	if g := reg.Snapshot().Gauge("stream_relay_channels_parked"); g != 0 {
		t.Fatalf("parked gauge = %d after shutdown, want 0", g)
	}
	if _, err := r.Reclaim("arena", "tok"); !errors.Is(err, errUnknownChannel) {
		t.Fatalf("Reclaim after shutdown = %v, want unknown-channel", err)
	}
}

// TestRelayParkRefusals: parking is an opt-in that needs both a grace window
// and a resume token; without either the publisher drop closes the channel
// at once.
func TestRelayParkRefusals(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRelay(reg, 8, 4)
	r.SetParkGrace(0) // disabled
	ch, _ := r.Create("a", Accept{Width: 8, Height: 8, GOPSize: 4, QStep: 6})
	ch.setResume("tok", "pub")
	if ch.park() {
		t.Fatal("parked with grace disabled")
	}
	r.SetParkGrace(time.Hour)
	ch2, _ := r.Create("b", Accept{Width: 8, Height: 8, GOPSize: 4, QStep: 6})
	if ch2.park() {
		t.Fatal("parked without a resume token")
	}
	ch2.setResume("tok", "pub")
	ch2.close(false)
	if ch2.park() {
		t.Fatal("parked a closed channel")
	}
	ch.close(false)
}

// --- end-to-end chaos --------------------------------------------------------

// steppedSource emits one frame per token on steps, with payloads that are a
// pure function of the frame index — so a reconnected publisher's stream is
// byte-identical to the fault-free run, frame for frame.
type steppedSource struct {
	n     int
	steps chan struct{}
}

func chaosPayload(i int) []byte {
	return []byte{byte(i), byte(i >> 8), 0xcd, byte(i * 7)}
}

func (s *steppedSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.n {
		return nil, false, frame.Rect{}, io.EOF
	}
	if _, ok := <-s.steps; !ok {
		return nil, false, frame.Rect{}, io.EOF
	}
	return chaosPayload(i), i%4 == 0, frame.Rect{W: 8, H: 8}, nil
}

// TestChannelSurvivesPublisherDrop is the headline chaos scenario: a
// publisher feeding 4 spectators dies mid-GOP; the channel parks; a second
// publisher Hello without the token bounces off RejectChannelTaken (with
// the reason surfaced); the publisher reconnects with its resume token,
// reclaims the channel within the grace window, and every spectator rides
// through — zero disconnects, zero evictions, and every frame payload
// byte-identical to the fault-free stream for its index.
func TestChannelSurvivesPublisherDrop(t *testing.T) {
	const nFrames = 12
	steps := make(chan struct{}, nFrames*2)
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:      Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:     reg,
		IdleTimeout: -1, // the drop is explicit; keep the reaper out of the timing
		ParkGrace:   10 * time.Second,
		NewSource:   func(Hello) (FrameSource, error) { return &steppedSource{n: nFrames, steps: steps}, nil },
	}
	addr, done := startMulti(t, srv)
	defer func() {
		close(steps)
		srv.Shutdown(contextWithTimeout(t))
		<-done
	}()

	// Publisher #1, with a channel: the Accept carries the resume token.
	pubConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	pub := NewClient(pubConn)
	cfg, err := pub.Handshake(Hello{Device: "pub", RoIWindow: 8, Scale: 2, Version: ProtocolVersion, Channel: "arena"})
	if err != nil {
		t.Fatal(err)
	}
	token := cfg.Token
	if token == "" {
		t.Fatal("publisher got no resume token")
	}

	// First frame out (the cached keyframe), then 4 spectators attach.
	steps <- struct{}{}
	if _, err := pub.RecvFrame(); err != nil {
		t.Fatal(err)
	}
	type specState struct {
		mu      sync.Mutex
		frames  []FramePacket
		err     error
		preDrop int // frames seen before the publisher died
	}
	const nSpecs = 4
	specs := make([]*specState, nSpecs)
	var wg sync.WaitGroup
	for i := range specs {
		st := &specState{}
		specs[i] = st
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c := NewClient(conn)
		if _, err := c.Subscribe(Subscribe{Channel: "arena", Device: "spec"}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pkt, err := c.RecvFrame()
				st.mu.Lock()
				if err != nil {
					st.err = err
					st.mu.Unlock()
					return
				}
				st.frames = append(st.frames, pkt)
				st.mu.Unlock()
			}
		}()
	}
	waitFor(t, "spectators attached", func() bool { return srv.SubscriberCount() == nSpecs })

	// Stream up to frame 5 — mid-GOP (the GOP is 4, so 5 is a delta) — then
	// kill the publisher's socket without a Bye.
	for i := 1; i <= 5; i++ {
		steps <- struct{}{}
		if _, err := pub.RecvFrame(); err != nil {
			t.Fatal(err)
		}
	}
	pubConn.Close()
	steps <- struct{}{} // frame 6: fans out to spectators, then the dead socket errors the session
	waitFor(t, "channel park", func() bool {
		return reg.Snapshot().Counter("stream_relay_channel_parks_total") == 1
	})
	ch := srv.relay.Lookup("arena")
	if ch == nil || !ch.Parked() {
		t.Fatal("channel gone or not parked after publisher drop")
	}
	for _, st := range specs {
		st.mu.Lock()
		st.preDrop = len(st.frames)
		st.mu.Unlock()
	}

	// A rival publisher without the token is refused while the park holds,
	// and the reject reason reaches its error string.
	rivalConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rival := NewClient(rivalConn)
	_, err = rival.Handshake(Hello{Device: "rival", RoIWindow: 8, Scale: 2, Version: ProtocolVersion, Channel: "arena"})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Code != RejectChannelTaken {
		t.Fatalf("rival publisher got %v, want channel-taken reject", err)
	}
	if !strings.Contains(rej.Error(), `channel "arena" already has a publisher`) {
		t.Fatalf("reject reason not surfaced: %q", rej.Error())
	}
	rivalConn.Close()

	// Publisher #2 replays the token and reclaims: same channel, same
	// spectators, and a fresh deterministic source restarting at frame 0.
	pub2Conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub2Conn.Close()
	pub2 := NewClient(pub2Conn)
	cfg2, err := pub2.Handshake(Hello{Device: "pub", RoIWindow: 8, Scale: 2, Version: ProtocolVersion, Channel: "arena", ResumeToken: token})
	if err != nil {
		t.Fatalf("reclaim handshake: %v", err)
	}
	if cfg2.Token != token {
		t.Fatalf("resumed session re-issued token %q, want %q", cfg2.Token, token)
	}
	waitFor(t, "channel reclaim", func() bool {
		return reg.Snapshot().Counter("stream_relay_channel_reclaims_total") == 1
	})
	if srv.SubscriberCount() != nSpecs {
		t.Fatalf("%d spectators after reclaim, want %d", srv.SubscriberCount(), nSpecs)
	}

	// Run the reclaimed session to completion; its EOF drains the channel
	// gracefully, so every spectator ends with the Bye, not an error.
	for i := 0; i < nFrames; i++ {
		steps <- struct{}{}
		if _, err := pub2.RecvFrame(); err != nil {
			t.Fatalf("reclaimed publisher frame %d: %v", i, err)
		}
	}
	if _, err := pub2.RecvFrame(); err != io.EOF {
		t.Fatalf("reclaimed publisher end = %v, want EOF", err)
	}
	wg.Wait()

	for i, st := range specs {
		if st.err != io.EOF {
			t.Errorf("spectator %d disconnected uncleanly: %v", i, st.err)
		}
		if len(st.frames) <= st.preDrop {
			t.Errorf("spectator %d saw no frames after the reclaim", i)
		}
		sawRestart := false
		for _, pkt := range st.frames {
			if want := chaosPayload(int(pkt.Index)); string(pkt.Payload) != string(want) {
				t.Errorf("spectator %d frame %d payload %v, want %v (not byte-identical)", i, pkt.Index, pkt.Payload, want)
			}
		}
		for _, pkt := range st.frames[st.preDrop:] {
			if pkt.Index == 0 && pkt.Keyenc {
				sawRestart = true
			}
		}
		if !sawRestart {
			t.Errorf("spectator %d never saw the reclaimed publisher's opening intra", i)
		}
	}
	if n := reg.Snapshot().Counter("stream_relay_subscribers_evicted_total"); n != 0 {
		t.Errorf("%d spectators evicted during the drop/reclaim, want 0", n)
	}
}

// TestBlackholedSessionReaped: a faultnet blackhole swallows a
// publisher's traffic mid-session (its heartbeats stop arriving); the
// server's idle reaper removes the session within a few missed ping
// intervals and the reap is visible on /metrics.
func TestBlackholedSessionReaped(t *testing.T) {
	const pingEvery = 30 * time.Millisecond
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:      Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:     reg,
		IdleTimeout: 3 * pingEvery, // reap after 3 missed heartbeats
		NewSource: func(Hello) (FrameSource, error) {
			return &pacedSource{n: 10000, pace: 5 * time.Millisecond}, nil
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(contextWithTimeout(t))
		<-done
	}()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := faultnet.Wrap(raw, faultnet.Script{
		Events: []faultnet.Event{{After: 150 * time.Millisecond, Action: faultnet.Blackhole}},
	})
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "bh", RoIWindow: 8, Scale: 2, Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // heartbeats until the blackhole swallows the socket
		defer wg.Done()
		tick := time.NewTicker(pingEvery)
		defer tick.Stop()
		for range tick.C {
			if err := c.SendPing(); err != nil {
				return
			}
		}
	}()
	go func() { // drain frames so the server streams freely pre-blackhole
		defer wg.Done()
		for {
			if _, err := c.RecvFrame(); err != nil {
				return
			}
		}
	}()

	waitFor(t, "blackholed session reaped", func() bool {
		return reg.Snapshot().Counter("stream_sessions_reaped_total") >= 1
	})
	conn.Close() // unblocks the blackholed ping/recv goroutines
	wg.Wait()
}

// contextWithTimeout is a tiny helper for shutdown deadlines in tests.
func contextWithTimeout(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}
