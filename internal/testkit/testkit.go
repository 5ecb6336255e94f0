// Package testkit holds the helpers the tests of several packages share,
// each once. Only _test.go files may import it (TestEveryDeclarationLinked
// fails when a non-test file does), and it imports only frame and
// telemetry, so that the tests of every other package can use it; the
// in-package tests of those two keep their own copies.
package testkit

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

// MustSub is SubImage for a rectangle inside im.
func MustSub(im *frame.Image, x, y, w, h int) *frame.Image {
	s, err := im.SubImage(x, y, w, h)
	if err != nil {
		panic(err)
	}
	return s
}

// At returns the RGB triple at (x, y).
func At(im *frame.Image, x, y int) (r, g, b uint8) {
	i := y*im.Stride + x
	return im.R[i], im.G[i], im.B[i]
}

// Fill sets every pixel of im to one colour.
func Fill(im *frame.Image, r, g, b uint8) {
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			im.Set(x, y, r, g, b)
		}
	}
}

// Noise returns a w×h image of uniformly random samples drawn from seed.
func Noise(w, h int, seed int64) *frame.Image {
	im := frame.NewImage(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range im.R {
		im.R[i] = uint8(rng.Intn(256))
		im.G[i] = uint8(rng.Intn(256))
		im.B[i] = uint8(rng.Intn(256))
	}
	return im
}

// Luma returns im's Rec.601 luma plane.
func Luma(im *frame.Image) []float64 {
	out := make([]float64, im.W*im.H)
	im.LumaRowsInto(out, 0, im.H)
	return out
}

// PSNR is the luma PSNR of b against a in dB, computed serially; a and b
// must have one geometry.
func PSNR(a, b *frame.Image) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("testkit: PSNR of %dx%d against %dx%d", b.W, b.H, a.W, a.H))
	}
	la, lb := Luma(a), Luma(b)
	var sum float64
	for i := range la {
		d := la[i] - lb[i]
		sum += d * d
	}
	mse := sum / float64(len(la))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

// AbsInt returns |v|.
func AbsInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// AtProcs runs f as two subtests, at GOMAXPROCS 1 and 2.
func AtProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// CounterOf returns the named counter's value in s (0 when absent).
func CounterOf(s telemetry.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// GaugeOf returns the named gauge's value in s (0 when absent).
func GaugeOf(s telemetry.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
