package pipeline

import (
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/games"
)

// TestNewSourceWindowBounds: the RoI window a client announces arrives from
// the network, so NewSource refuses one outside [8, min(width, height)] with
// an error — the server's typed reject — and accepts both ends.
func TestNewSourceWindowBounds(t *testing.T) {
	g, err := games.ByID("G3")
	if err != nil {
		t.Fatal(err)
	}
	cc := codec.Config{Width: 160, Height: 90, GOPSize: 6, QStep: 6}
	for window, ok := range map[int]bool{7: false, 8: true, 90: true, 91: false} {
		src, err := NewSource(g, cc, window, bufpool.New())
		if ok != (err == nil) || ok != (src != nil) {
			t.Errorf("window %d: source %v, err %v; want accepted=%v", window, src != nil, err, ok)
			continue
		}
		if ok {
			if _, _, _, err := src.NextFrame(0); err != nil {
				t.Errorf("window %d: first frame: %v", window, err)
			}
		}
	}
}

// BenchmarkNextFrame360p is the server's whole per-frame body at the
// live_360p geometry — render, detect, encode — as a session runs it: pooled
// encoder, persistent render targets and payload buffer. Run with -cpu 1,2.
func BenchmarkNextFrame360p(b *testing.B) {
	g, err := games.ByID("G3")
	if err != nil {
		b.Fatal(err)
	}
	src, err := NewSource(g, codec.Config{Width: 640, Height: 360, GOPSize: 12, QStep: 6}, 64, bufpool.New())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, _, err := src.NextFrame(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := src.NextFrame(1 + i); err != nil {
			b.Fatal(err)
		}
	}
}
