package sr

import (
	"math"
	"math/rand"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/testkit"
)

// TestUpscaleIntoMatchesUpscale asserts the pooled destination-passing
// inference is bit-identical to the allocating path — with a DIRTY pool
// (pre-scribbled buffers) to prove no op depends on zeroed scratch.
func TestUpscaleIntoMatchesUpscale(t *testing.T) {
	net := NewInterpEDSR(Spec{Blocks: 2, Channels: 8})
	im := testkit.Noise(24, 16, 1)

	want, err := net.Upscale(im, 2)
	if err != nil {
		t.Fatal(err)
	}

	pool := bufpool.New()
	// Dirty the pool with garbage in the size classes the inference uses.
	junk := make([]*Tensor, 0, 8)
	for _, shape := range [][3]int{{3, 16, 24}, {8, 16, 24}, {3, 32, 48}, {8, 32, 48}, {32, 16, 24}} {
		tt := GetTensor(pool, shape[0], shape[1], shape[2])
		for i := range tt.Data {
			tt.Data[i] = -1e30
		}
		junk = append(junk, tt)
	}
	for _, tt := range junk {
		PutTensor(pool, tt)
	}

	for run := 0; run < 3; run++ {
		dst := pool.Image(im.W*2, im.H*2)
		if err := net.UpscaleInto(dst, im, 2, pool); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want) {
			t.Fatalf("run %d: UpscaleInto differs from Upscale", run)
		}
		pool.PutImage(dst)
	}
}

// TestPixelShuffleIntoMatches checks PixelShuffleInto against the index
// formula it implements — output (c, y·r+dy, x·r+dx) is input
// (c·r²+dy·r+dx, y, x) — writing over a dirty destination.
func TestPixelShuffleIntoMatches(t *testing.T) {
	const r = 2
	rng := rand.New(rand.NewSource(3))
	in := NewTensor(8, 5, 7)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	out := NewTensor(2, 10, 14)
	for i := range out.Data {
		out.Data[i] = float32(math.NaN())
	}
	PixelShuffleInto(out, in, r)
	for c := 0; c < out.C; c++ {
		for y := 0; y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				want := in.at(c*r*r+y%r*r+x%r, y/r, x/r)
				if got := out.at(c, y, x); got != want {
					t.Fatalf("element (%d,%d,%d) = %v, want %v", c, y, x, got, want)
				}
			}
		}
	}
}

// TestImageTensorRoundTripInto checks FromImageInto on a strided sub-image
// source against the same pixels packed, and ToImageInto over a dirty
// destination against the source.
func TestImageTensorRoundTripInto(t *testing.T) {
	parent := testkit.Noise(20, 12, 5)
	view := testkit.MustSub(parent, 3, 2, 10, 8)
	wantT := NewTensor(3, 8, 10)
	FromImageInto(wantT, view.Compact())
	gotT := NewTensor(3, 8, 10)
	FromImageInto(gotT, view)
	for i := range wantT.Data {
		if gotT.Data[i] != wantT.Data[i] {
			t.Fatalf("FromImageInto element %d = %v, want %v", i, gotT.Data[i], wantT.Data[i])
		}
	}
	gotI := testkit.Noise(10, 8, 6)
	ToImageInto(gotI, gotT)
	if !gotI.Equal(view) {
		t.Fatal("ToImageInto does not give back the source pixels")
	}
}

// TestSRTilePathSteadyStateAllocs is the SR-tile alloc regression gate: once
// the pool is warm, a full EDSR tile inference — toy spec, and the paper's
// 16×64 on an 81×81 RoI — runs in single-digit heap allocations. A layer
// costs none (convRun and the worker scratch are recycled); what is left is
// the scheduler's.
func TestSRTilePathSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		side int
	}{{Spec{Blocks: 2, Channels: 8}, 16}, {Spec{}, 81}} {
		net := NewInterpEDSR(tc.spec)
		im := testkit.Noise(tc.side, tc.side, 2)
		pool := bufpool.New()
		dst := frame.NewImagePacked(2*tc.side, 2*tc.side)
		// Warm the pool and the parallel layer.
		if err := net.UpscaleInto(dst, im, 2, pool); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := net.UpscaleInto(dst, im, 2, pool); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s on %dx%d, pooled: %.1f allocs/run", net.Name(), tc.side, tc.side, allocs)
		if allocs > 8 {
			t.Errorf("%s: pooled SR tile path allocates %.1f objects/run, gate 8", net.Name(), allocs)
		}
	}
}

// TestFastUpscaleIntoMatches checks the fast kernel's pooled path, again
// against a dirtied pool.
func TestFastUpscaleIntoMatches(t *testing.T) {
	f := NewFast(FastConfig{})
	im := testkit.Noise(30, 20, 9)
	want, err := f.Upscale(im, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool := bufpool.New()
	b := pool.Bytes(30 * 20 * 3)
	for i := range b {
		b[i] = 0xEE
	}
	pool.PutBytes(b)
	dst := pool.Image(60, 40)
	if err := f.UpscaleInto(dst, im, 2, pool); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("Fast.UpscaleInto differs from Fast.Upscale")
	}
	var bil BilinearEngine
	want, err = bil.Upscale(im, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bil.UpscaleInto(dst, im, 2, pool); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("BilinearEngine.UpscaleInto differs from Upscale")
	}
	pool.PutImage(dst)
}

func benchEDSRInto(b *testing.B, w, h int) {
	net := NewInterpEDSR(Spec{})
	im := testkit.Noise(w, h, 4)
	pool := bufpool.New()
	dst := frame.NewImagePacked(2*w, 2*h)
	if err := net.UpscaleInto(dst, im, 2, pool); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.UpscaleInto(dst, im, 2, pool); err != nil {
			b.Fatal(err)
		}
	}
}

// The paper's network on the benchmark's RoI (run with -cpu 1,2), and on a
// single pixel: what one call costs before any pixel work.
func BenchmarkEDSRInto81(b *testing.B)  { benchEDSRInto(b, 81, 81) }
func BenchmarkEDSRInto1x1(b *testing.B) { benchEDSRInto(b, 1, 1) }
