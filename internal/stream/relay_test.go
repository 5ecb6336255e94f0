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

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

// gatedSource serves nFrames frames with an intra every gop frames. Frame 0
// returns immediately; frame 1 blocks until release is closed, so a test
// can attach subscribers while the publisher's cached keyframe is the only
// frame out.
type gatedSource struct {
	nFrames int
	gop     int
	pace    time.Duration
	release chan struct{}
}

func (g *gatedSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= g.nFrames {
		return nil, false, frame.Rect{}, io.EOF
	}
	if i == 1 {
		<-g.release
	}
	if g.pace > 0 && i > 0 {
		// Frame-rate pacing: an unpaced burst would overflow every
		// subscriber queue before any writer goroutine gets scheduled,
		// evicting readers that are merely unlucky, not slow.
		time.Sleep(g.pace)
	}
	// Distinct payloads so relayed bytes are checkable per frame.
	return []byte{byte(i), byte(i >> 8), 0xab}, i%g.gop == 0, frame.Rect{W: 8, H: 8}, nil
}

// publishClient dials addr and opens a publisher session on channel ch,
// returning the connected client. The caller drains frames.
func publishClient(t *testing.T, addr, ch string) (*Client, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "pub", RoIWindow: 8, Scale: 2, Version: ProtocolVersion, Channel: ch}); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return c, conn
}

// spectateClient dials addr and attaches to channel ch as a spectator.
func spectateClient(t *testing.T, addr, ch string) (*Client, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	if _, err := c.Subscribe(Subscribe{Channel: ch, Device: "spec"}); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return c, conn
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRelayFanout: one publisher, three spectators attached before the
// stream body flows. Every spectator must receive the identical encoded
// frames — same indices, payload bytes, keyframe flags and flight IDs as
// the publisher's copies — without any re-encode.
func TestRelayFanout(t *testing.T) {
	const nFrames = 12
	src := &gatedSource{nFrames: nFrames, gop: 4, release: make(chan struct{})}
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:      reg,
		FlightFrames: 32,
		NewSource:    func(Hello) (FrameSource, error) { return src, nil },
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	pub, pubConn := publishClient(t, addr, "arena")
	defer pubConn.Close()

	type recv struct {
		pkts []FramePacket
		err  error
	}
	const nSpecs = 3
	results := make([]recv, nSpecs)
	var wg sync.WaitGroup
	for s := 0; s < nSpecs; s++ {
		c, conn := spectateClient(t, addr, "arena")
		defer conn.Close()
		wg.Add(1)
		go func(s int, c *Client) {
			defer wg.Done()
			for {
				pkt, err := c.RecvFrame()
				if err == io.EOF {
					return
				}
				if err != nil {
					results[s].err = err
					return
				}
				results[s].pkts = append(results[s].pkts, pkt)
			}
		}(s, c)
	}
	waitFor(t, "spectators attached", func() bool { return srv.SubscriberCount() == nSpecs })
	close(src.release)

	var pubPkts []FramePacket
	for {
		pkt, err := pub.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pubPkts = append(pubPkts, pkt)
	}
	wg.Wait()
	if len(pubPkts) != nFrames {
		t.Fatalf("publisher got %d frames, want %d", len(pubPkts), nFrames)
	}
	for s, r := range results {
		if r.err != nil {
			t.Fatalf("spectator %d: %v", s, r.err)
		}
		if len(r.pkts) != nFrames {
			t.Fatalf("spectator %d got %d frames, want %d", s, len(r.pkts), nFrames)
		}
		for i, pkt := range r.pkts {
			want := pubPkts[i]
			if pkt.Index != want.Index || pkt.Keyenc != want.Keyenc ||
				pkt.FlightID != want.FlightID || string(pkt.Payload) != string(want.Payload) {
				t.Fatalf("spectator %d frame %d = %+v, want publisher's %+v", s, i, pkt, want)
			}
		}
	}

	s := reg.Snapshot()
	if got := s.Counter("stream_subscribers_accepted_total"); got != nSpecs {
		t.Errorf("subscribers_accepted_total = %d, want %d", got, nSpecs)
	}
	// Every spectator got every frame exactly once (checked above), each
	// either from the keyframe cache at attach (a late join) or live from
	// the fan-out. Frame 0 is not gated, so whether a given spectator
	// attached before or after it reached the cache is a race the test
	// does not control: the split is free, the sum is not.
	late, fanout := s.Counter("stream_relay_late_joins_total"), s.Counter("stream_relay_frames_fanout_total")
	if late > nSpecs || late+fanout != nSpecs*nFrames {
		t.Errorf("late_joins_total = %d, fanout_total = %d: want at most %d late joins and a sum of %d",
			late, fanout, nSpecs, nSpecs*nFrames)
	}
	if got := s.Counter("stream_relay_subscribers_evicted_total"); got != 0 {
		t.Errorf("evicted_total = %d, want 0", got)
	}
}

// TestRelayLateJoinKeyframe: a spectator joining mid-GOP must immediately
// receive the cached intra frame — not wait for the next GOP boundary —
// and then pick up the live tail.
func TestRelayLateJoinKeyframe(t *testing.T) {
	const nFrames = 8
	src := &gatedSource{nFrames: nFrames, gop: nFrames, release: make(chan struct{})}
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:    Accept{Width: 32, Height: 32, GOPSize: nFrames, QStep: 6},
		Metrics:   reg,
		NewSource: func(Hello) (FrameSource, error) { return src, nil },
	}
	addr, done := startMulti(t, srv)
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	pub, pubConn := publishClient(t, addr, "arena")
	defer pubConn.Close()
	// Drain frame 0 (the GOP's only intra), then hold the stream gated: any
	// frame a late joiner sees now can only come from the keyframe cache.
	if pkt, err := pub.RecvFrame(); err != nil || !pkt.Keyenc {
		t.Fatalf("publisher frame 0 = %+v, %v", pkt, err)
	}

	spec, specConn := spectateClient(t, addr, "arena")
	defer specConn.Close()
	first, err := spec.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Keyenc || first.Index != 0 {
		t.Fatalf("late joiner's first frame = %+v, want the cached intra (index 0)", first)
	}

	close(src.release)
	got := []FramePacket{first}
	for {
		pkt, err := spec.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pkt)
	}
	for {
		if _, err := pub.RecvFrame(); err != nil {
			break
		}
	}
	// Cached intra plus the whole live tail (frames 1..7): no GOP wait, no
	// gap in the delta chain after the intra.
	if len(got) != nFrames {
		t.Fatalf("late joiner got %d frames, want %d", len(got), nFrames)
	}
	for i, pkt := range got {
		if int(pkt.Index) != i {
			t.Fatalf("late joiner frame %d has index %d, want %d", i, pkt.Index, i)
		}
	}
	if got := reg.Snapshot().Counter("stream_relay_late_joins_total"); got != 1 {
		t.Errorf("late_joins_total = %d, want 1", got)
	}
}

// TestRelaySlowReaderEviction drives the two-rung ladder deterministically
// at the relay level: a subscriber that consumes nothing is first dropped
// to the next keyframe, then — when its queue overflows again with zero
// reader progress — disconnected, while a healthy subscriber on the same
// channel receives every decodable frame. (The socket-level variant, where
// a stalled TCP reader backs up the writer, runs in the gssr-server
// fan-out e2e with payloads large enough to fill kernel buffers.)
func TestRelaySlowReaderEviction(t *testing.T) {
	const (
		nFrames = 64
		gop     = 4
		queue   = 4
	)
	reg := telemetry.NewRegistry()
	relay := NewRelay(reg, 8, queue)
	ch, err := relay.Create("arena", Accept{Width: 32, Height: 32, GOPSize: gop, QStep: 6})
	if err != nil {
		t.Fatal(err)
	}

	healthy, err := ch.Subscribe("healthy")
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := ch.Subscribe("stalled")
	if err != nil {
		t.Fatal(err)
	}

	// The healthy reader drains its queue like the subscriber writer does:
	// receive, mark consumed.
	healthyGot := make(chan int, 1)
	go func() {
		n := 0
		for range healthy.Frames() {
			healthy.Consumed()
			n++
		}
		healthyGot <- n
	}()

	published := 0
	for i := 0; i < nFrames; i++ {
		ch.Publish(FramePacket{Index: uint32(i), Keyenc: i%gop == 0, Payload: []byte{byte(i)}})
		published++
		if i%gop == gop-1 {
			// GOP-boundary breather so the healthy drainer keeps up; the
			// stalled subscriber's queue state is unaffected by time.
			time.Sleep(time.Millisecond)
		}
	}
	if !stalled.Evicted() {
		t.Fatal("stalled subscriber not evicted after sustained zero progress")
	}
	if healthy.Evicted() {
		t.Fatal("healthy subscriber evicted")
	}
	if got := ch.Subscribers(); got != 1 {
		t.Fatalf("%d subscribers left, want 1 (the healthy one)", got)
	}
	ch.close(false)
	if got := <-healthyGot; got != nFrames {
		t.Fatalf("healthy subscriber got %d frames, want %d", got, nFrames)
	}
	// The eviction path is visible on /metrics: rung 1 then rung 2.
	s := reg.Snapshot()
	if got := s.Counter("stream_relay_subscribers_evicted_total"); got != 1 {
		t.Errorf("evicted_total = %d, want 1 (the stalled reader)", got)
	}
	if got := s.Counter("stream_relay_drop_to_key_total"); got < 1 {
		t.Errorf("drop_to_key_total = %d, want >= 1 (rung 1 precedes eviction)", got)
	}
	if got := s.Counter("stream_relay_dropped_frames_total"); got < 1 {
		t.Errorf("dropped_frames_total = %d, want >= 1", got)
	}
	// A send on the closed queue would have panicked above; reaching here
	// means Publish after eviction skipped the dead subscriber safely.
}

// TestRelayRejects covers the subscriber-side protocol rejects: unknown
// channel, subscriber cap, and a second publisher claiming a taken channel.
func TestRelayRejects(t *testing.T) {
	release := make(chan struct{})
	srv := &MultiServer{
		Accept:         Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		MaxSubscribers: 1,
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i == 0 {
					return []byte{0}, true, frame.Rect{}, nil
				}
				<-release
				return nil, false, frame.Rect{}, io.EOF
			}), nil
		},
	}
	addr, done := startMulti(t, srv)
	defer func() {
		close(release) // unwedge the held-open publisher source first
		srv.Shutdown(context.Background())
		<-done
	}()

	// No publisher yet: unknown channel.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = NewClient(conn).Subscribe(Subscribe{Channel: "nobody", Device: "s"})
	var rej *RejectedError
	if !errors.As(err, &rej) || rej.Code != RejectUnknownChannel {
		t.Fatalf("subscribe to unknown channel = %v, want unknown-channel reject", err)
	}

	_, pubConn := publishClient(t, addr, "arena")
	defer pubConn.Close()
	waitFor(t, "channel registered", func() bool { return srv.relay.Lookup("arena") != nil })

	// Second publisher on the same name is turned away.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	_, err = NewClient(conn2).Handshake(Hello{Device: "pub2", RoIWindow: 8, Scale: 2, Version: ProtocolVersion, Channel: "arena"})
	if !errors.As(err, &rej) || rej.Code != RejectChannelTaken {
		t.Fatalf("second publisher = %v, want channel-taken reject", err)
	}

	// One subscriber fits, the second exceeds MaxSubscribers.
	_, specConn := spectateClient(t, addr, "arena")
	defer specConn.Close()
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	_, err = NewClient(conn3).Subscribe(Subscribe{Channel: "arena", Device: "s2"})
	if !errors.As(err, &rej) || rej.Code != RejectCapacity {
		t.Fatalf("over-cap subscribe = %v, want capacity reject", err)
	}
	if !strings.Contains(rej.Reason, "subscriber limit") {
		t.Errorf("reject reason = %q, want the subscriber limit named", rej.Reason)
	}
}

// TestMultiServerShutdownWithSubscribers: Shutdown with a publisher and
// spectators mid-stream must deliver a clean Bye to every spectator and
// drain all relay goroutines — no send on a closed queue, no leaked
// writers. Run under -race in CI.
func TestMultiServerShutdownWithSubscribers(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := telemetry.NewRegistry()
	srv := &MultiServer{
		Accept:  Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics: reg,
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				// An endless paced stream: shutdown arrives mid-flow.
				select {
				case <-release:
					return nil, false, frame.Rect{}, io.EOF
				case <-time.After(time.Millisecond):
				}
				return []byte{byte(i)}, i%4 == 0, frame.Rect{}, nil
			}), nil
		},
	}
	addr, done := startMulti(t, srv)

	_, pubConn := publishClient(t, addr, "arena")
	defer pubConn.Close()

	const nSpecs = 3
	cleanByes := make(chan error, nSpecs)
	for s := 0; s < nSpecs; s++ {
		c, conn := spectateClient(t, addr, "arena")
		defer conn.Close()
		go func(c *Client) {
			for {
				_, err := c.RecvFrame()
				if err != nil {
					// A clean protocol close surfaces as io.EOF (Bye);
					// anything else is an abrupt disconnect.
					cleanByes <- err
					return
				}
			}
		}(c)
	}
	waitFor(t, "spectators attached", func() bool { return srv.SubscriberCount() == nSpecs })
	waitFor(t, "fan-out flowing", func() bool {
		return reg.Snapshot().Counter("stream_relay_frames_fanout_total") > 2*nSpecs
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-done; !errors.Is(err, errServerClosed) {
		t.Errorf("Serve returned %v, want server-closed", err)
	}
	for s := 0; s < nSpecs; s++ {
		select {
		case err := <-cleanByes:
			if err != io.EOF {
				t.Errorf("spectator ended with %v, want io.EOF (clean Bye)", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("spectator never saw the stream end")
		}
	}
	if got := srv.SubscriberCount(); got != 0 {
		t.Errorf("%d subscribers left after shutdown", got)
	}
	if got := reg.Snapshot().Gauge("stream_subscribers_active"); got != 0 {
		t.Errorf("subscribers_active = %d after shutdown, want 0", got)
	}
}

// TestRelayChannelGaugeLifecycle: the per-channel subscriber gauge exists
// while the channel is live and is unregistered when it closes, so channel
// churn cannot grow /metrics without bound.
func TestRelayChannelGaugeLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	relay := NewRelay(reg, 4, 4)
	ch, err := relay.Create("lobby", Accept{Width: 8, Height: 8, GOPSize: 2, QStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ch.Subscribe("watcher")
	if err != nil {
		t.Fatal(err)
	}
	name := "stream_channel_subscribers_" + metricLabel("lobby")
	if got := reg.Snapshot().Gauge(name); got != 1 {
		t.Fatalf("%s = %d, want 1", name, got)
	}
	if got := reg.Snapshot().Gauge("stream_relay_channels_active"); got != 1 {
		t.Fatalf("channels_active = %d, want 1", got)
	}
	ch.close(false)
	if _, ok := <-sub.Frames(); ok {
		t.Error("subscriber queue still open after channel close")
	}
	if relay.Lookup("lobby") != nil {
		t.Error("closed channel still resolvable")
	}
	s := reg.Snapshot()
	if got := s.Gauge(name); got != 0 {
		t.Errorf("%s = %d after close, want unregistered (0)", name, got)
	}
	if got := s.Gauge("stream_relay_channels_active"); got != 0 {
		t.Errorf("channels_active = %d after close, want 0", got)
	}
	if got := s.Gauge("stream_subscribers_active"); got != 0 {
		t.Errorf("subscribers_active = %d after close, want 0", got)
	}
	// close is idempotent: a publisher's deferred close after Shutdown.
	ch.close(true)
}
