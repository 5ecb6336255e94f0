package gamestreamsr_test

import (
	"context"
	"io"
	"net"
	"testing"

	gssr "gamestreamsr"
)

// gameFrameSource adapts a workload + detector + encoder to the streaming
// protocol — what a downstream server embeds.
type gameFrameSource struct {
	game *gssr.Workload
	rd   *gssr.Renderer
	det  *gssr.RoIDetector
	enc  *gssr.CodecEncoder
	w, h int
}

func (s *gameFrameSource) NextFrame(i int) ([]byte, bool, gssr.Rect, error) {
	out := s.game.Render(s.rd, i, s.w, s.h)
	rect, err := s.det.Detect(out.Depth)
	if err != nil {
		return nil, false, gssr.Rect{}, err
	}
	data, ftype, err := s.enc.Encode(out.Color)
	if err != nil {
		return nil, false, gssr.Rect{}, err
	}
	return data, ftype == gssr.ReferenceFrame, rect, nil
}

// The complete loop through the PUBLIC API only: server renders + detects +
// encodes and streams over real TCP; the client decodes, RoI-upscales with
// the SR engine, merges, and verifies quality against a locally rendered
// ground truth.
func TestEndToEndStreamingViaPublicAPI(t *testing.T) {
	const (
		w, h   = 160, 90
		frames = 6
		gop    = 4
		scale  = 2
	)
	game, err := gssr.GameByID("G3")
	if err != nil {
		t.Fatal(err)
	}

	srv := &gssr.StreamServer{
		Accept:    gssr.StreamAccept{Width: w, Height: h, GOPSize: gop, QStep: 6},
		MaxFrames: frames,
		NewSource: func(hello gssr.StreamHello) (gssr.FrameSource, error) {
			det, err := gssr.NewRoIDetector(gssr.RoIConfig{WindowW: hello.RoIWindow, WindowH: hello.RoIWindow})
			if err != nil {
				return nil, err
			}
			enc, err := gssr.NewCodecEncoder(gssr.CodecConfig{Width: w, Height: h, GOPSize: gop, QStep: 6})
			if err != nil {
				return nil, err
			}
			return &gameFrameSource{game: game, rd: &gssr.Renderer{}, det: det, enc: enc, w: w, h: h}, nil
		},
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-done
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	client := gssr.NewStreamClient(conn)
	cfg, err := client.Handshake(gssr.StreamHello{Device: "integration-test", RoIWindow: 36, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Width != w || cfg.GOPSize != gop {
		t.Fatalf("negotiated geometry %+v", cfg)
	}

	dec := gssr.NewCodecDecoder()
	engine := gssr.NewFastSR()
	rd := &gssr.Renderer{}
	received := 0
	for {
		pkt, err := client.RecvFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		df, err := dec.Decode(pkt.Payload)
		if err != nil {
			t.Fatalf("frame %d: %v", pkt.Index, err)
		}
		// Client-side RoI-assisted upscale.
		base, err := gssr.Resize(df.Image, w*scale, h*scale, gssr.Bilinear)
		if err != nil {
			t.Fatal(err)
		}
		roiRect := pkt.RoI.Clamp(w, h)
		patch := mustSub(df.Image, roiRect.X, roiRect.Y, roiRect.W, roiRect.H).Compact()
		hr, err := engine.Upscale(patch, scale)
		if err != nil {
			t.Fatal(err)
		}
		if err := gssr.MergeRoI(base, hr, roiRect, scale); err != nil {
			t.Fatal(err)
		}
		// Verify against a locally rendered ground truth.
		gt := game.Render(rd, int(pkt.Index), w*scale, h*scale)
		psnr, err := gssr.PSNR(gt.Color, base)
		if err != nil {
			t.Fatal(err)
		}
		if psnr < 25 {
			t.Errorf("frame %d: end-to-end PSNR %.1f dB too low", pkt.Index, psnr)
		}
		received++
	}
	if received != frames {
		t.Fatalf("received %d frames, want %d", received, frames)
	}
}
