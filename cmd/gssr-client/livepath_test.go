package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/stream"
)

// TestLivePathMatchesEngine: the live frame loop and the offline engine are
// the same code, so for the same game and settings they produce the same
// bytes. The engine runs ours on G3 at 1280×720 nominal with SimDiv 4 (its
// pixels are 320×180, its RoI 64 px), stride 1, GOP 12, q 6; its server
// stage's payloads are collected through Config.Tap and its presented frames
// kept. The live side is pipeline.NewSource at 320×180 with a 64-px window
// behind a real stream.Serve on loopback, received and presented by
// sessionState.showFrame. Every payload, RoI and presented frame must be
// byte-identical. The second half is the evidence that the comparison sees
// real pixels: a client handed a different SR engine from the engine's
// variant must fail it.
func TestLivePathMatchesEngine(t *testing.T) {
	if diff := liveVsEngine(t, sr.NewFast(sr.FastConfig{})); diff != "" {
		t.Fatal(diff)
	}
	if diff := liveVsEngine(t, sr.NewFast(sr.FastConfig{Sharpen: 1})); diff == "" {
		t.Fatal("a client with another SR engine presented the engine's frames")
	}
}

// tapped is what the engine's server stage published for one frame.
type tapped struct {
	payload []byte
	key     bool
	roi     frame.Rect
}

type frameTap []tapped

func (t *frameTap) PublishFrame(_ int, payload []byte, key bool, roi frame.Rect) {
	*t = append(*t, tapped{bytes.Clone(payload), key, roi})
}

// liveVsEngine runs both sides, the live client on clientEngine and the
// engine on sr.Fast's defaults, and describes the first difference ("" for
// none).
func liveVsEngine(t *testing.T, clientEngine sr.Engine) string {
	t.Helper()
	const nFrames, gop, q, scale = 24, 12, 6, 2
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	var tap frameTap
	gs, err := pipeline.NewGameStream(pipeline.Config{
		Game: g, LRWidth: 1280, LRHeight: 720, Scale: scale, SimDiv: 4, FrameStride: 1,
		GOPSize: gop, QStep: q, RoIWindow: 256, KeepFrames: true, Tap: &tap,
		Engine: sr.NewFast(sr.FastConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gs.Run(nFrames)
	if err != nil {
		t.Fatal(err)
	}
	w, h, win := gs.SimSize()
	if w != 320 || h != 180 || win != 64 || len(tap) != nFrames {
		t.Fatalf("engine ran %dx%d with a %d-px RoI and published %d frames", w, h, win, len(tap))
	}

	src, err := pipeline.NewSource(g, codec.Config{Width: w, Height: h, GOPSize: gop, QStep: q}, win, bufpool.New())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		served <- stream.Serve(conn, stream.ServerOptions{
			Accept: stream.Accept{Width: w, Height: h, GOPSize: gop, QStep: q},
			Source: src, MaxFrames: nFrames,
		})
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := stream.NewClient(conn)
	if _, err := c.Handshake(stream.Hello{Device: "differential", RoIWindow: win, Scale: scale}); err != nil {
		t.Fatal(err)
	}
	st := newSessionState(nil)
	st.engine = clientEngine
	diff := ""
	for i := 0; ; i++ {
		pkt, err := c.RecvFrame()
		if err == io.EOF {
			if i != nFrames {
				t.Fatalf("live stream ended after %d frames, want %d", i, nFrames)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if shown, err := st.showFrame(pkt, time.Now(), 0, stream.ClockSync{}, scale); err != nil || !shown {
			t.Fatalf("frame %d: shown=%v err=%v", i, shown, err)
		}
		want := tap[i]
		switch {
		case diff != "":
		case !bytes.Equal(pkt.Payload, want.payload) || pkt.Keyenc != want.key:
			diff = fmt.Sprintf("frame %d: live payload (%d B, key %v) differs from the engine's (%d B, key %v)", i, len(pkt.Payload), pkt.Keyenc, len(want.payload), want.key)
		case pkt.RoI != want.roi || res.Frames[i].RoI != want.roi:
			diff = fmt.Sprintf("frame %d: live RoI %v, engine %v", i, pkt.RoI, want.roi)
		case !st.lastUp.Equal(res.Frames[i].Upscaled):
			diff = fmt.Sprintf("frame %d: the live client presented other pixels than the engine", i)
		}
	}
	_ = c.Bye()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	return diff
}
