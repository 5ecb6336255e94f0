package stream

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// The slow-reader regression (found by the bench harness's 720p replay):
// the server finishes sending — everything fits the socket buffers — while
// the client has not read a frame yet. The client then speaks (a heartbeat
// and a Stats report, as gssr-client does on its own schedule). A server
// that had already closed its socket answers that with a RST, and a RST
// discards every frame the client had received but not read ("short body:
// unexpected EOF"). The finished session must instead half-close behind its
// Bye and keep reading until the client hangs up.

const (
	slowFrames    = 16
	slowFrameSize = 32 << 10
)

func slowReaderFrames() [][]byte {
	frames := make([][]byte, slowFrames)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i + 1)}, slowFrameSize)
	}
	return frames
}

// slowReader opens a session on addr, lets the server finish, talks, and
// only then reads: every frame must arrive intact, followed by the Bye.
func slowReader(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewClient(conn)
	if _, err := c.Handshake(Hello{Device: "slow", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // the whole stream and the Bye are now in flight
	if err := c.SendPing(); err != nil {
		t.Fatalf("ping after the server finished: %v", err)
	}
	if err := c.SendStats(StatsPacket{Seq: 1, WindowFrames: 1}); err != nil {
		t.Fatalf("stats after the server finished: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // a RST, if one is coming, has landed
	for i := 0; ; i++ {
		f, err := c.RecvFrame()
		if err == io.EOF {
			if i != slowFrames {
				t.Fatalf("stream ended after %d frames, want %d", i, slowFrames)
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v (the unread frames were destroyed)", i, err)
		}
		if len(f.Payload) != slowFrameSize || f.Payload[0] != byte(i+1) || f.Payload[slowFrameSize-1] != byte(i+1) {
			t.Fatalf("frame %d corrupt", i)
		}
	}
	if err := c.Bye(); err != nil {
		t.Fatalf("bye: %v", err)
	}
}

func TestServeWaitsForSlowReader(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		done <- Serve(conn, ServerOptions{
			Accept: Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6},
			Source: &sliceSource{frames: slowReaderFrames()},
		})
	}()
	slowReader(t, l.Addr().String())
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(byeDrainTimeout):
		t.Fatal("server still waiting after the client said bye")
	}
}

func TestMultiServerWaitsForSlowReader(t *testing.T) {
	srv := &MultiServer{
		Accept:    Accept{Width: 64, Height: 36, GOPSize: 4, QStep: 6},
		NewSource: func(Hello) (FrameSource, error) { return &sliceSource{frames: slowReaderFrames()}, nil },
	}
	addr, done := startMulti(t, srv)
	slowReader(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), byeDrainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
}

// TestServeDrainIsBounded: a client that neither reads on nor hangs up
// holds the session for byeDrainTimeout at most, and Serve's caller can cut
// even that short by closing the connection.
func TestServeDrainIsBounded(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	done := serveFrames(server)
	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "idle", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := c.RecvFrame(); err != nil {
			break
		}
	}
	select {
	case <-done:
		t.Fatal("server returned while the client was still connected and silent")
	case <-time.After(50 * time.Millisecond):
	}
	server.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("closing the connection did not end the drain")
	}
}
