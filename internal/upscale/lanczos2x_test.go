package upscale

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
)

// TestLanczos2xPhasesAreTheBank: every unclipped (six-tap) set of the ×2
// Lanczos-3 bank holds, bit for bit, the weights of the set the kernel
// takes as its phase — outputs 6 and 7 — for every source length up to 400
// and the frame geometries, so running the interior on those two phases is
// running the bank.
func TestLanczos2xPhasesAreTheBank(t *testing.T) {
	ns := []int{640, 1280, 1440, 2560}
	for n := 1; n <= 400; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		bank := buildWeights(n, 2*n, Lanczos3)
		for d, ts := range bank {
			if len(ts.weights) != 6 {
				// Clipped sets are the three outputs nearest each edge.
				if d >= 6 && d < 2*n-6 {
					t.Fatalf("n=%d: output %d has %d taps", n, d, len(ts.weights))
				}
				continue
			}
			if want := d/2 - 3 + d%2; ts.first != want {
				t.Fatalf("n=%d: output %d starts at %d, want %d", n, d, ts.first, want)
			}
			phase := buildWeights(16, 32, Lanczos3)[6+d%2].weights
			for i, w := range ts.weights {
				if math.Float64bits(w) != math.Float64bits(phase[i]) {
					t.Fatalf("n=%d: output %d tap %d weight %v, phase %v", n, d, i, w, phase[i])
				}
			}
		}
	}
}

// TestLanczos2xMatchesGenericResampler is the differential test of the ×2
// Lanczos-3 path: every size 1..24 × 1..24 (sources without an interior,
// one row, one column, every interior width from one pair up), heights
// whose last band holds two rows and heights that end on a band, the RoI
// and 180p geometries, on noise, packed and as strided views (one whose
// right and bottom edges are its parent's), into dirty destinations, at
// GOMAXPROCS 1 and 2.
func TestLanczos2xMatchesGenericResampler(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			pool := bufpool.New()
			parent := noiseImage(30, 30, 12)
			for h := 1; h <= 24; h++ {
				for w := 1; w <= 24; w++ {
					check2xMatchesGeneric(t, Lanczos3, noiseImage(w, h, int64(w*64+h)), pool)
					check2xMatchesGeneric(t, Lanczos3, mustSub(parent, 3, 5, w, h), nil)
					check2xMatchesGeneric(t, Lanczos3, mustSub(parent, 30-w, 30-h, w, h), pool)
				}
			}
			for _, sz := range [][2]int{{9, lanczosBand/2 + 1}, {40, lanczosBand + 1}, {13, lanczosBand}, {64, 64}, {320, 180}} {
				check2xMatchesGeneric(t, Lanczos3, noiseImage(sz[0], sz[1], 4), pool)
			}
			if !testing.Short() {
				check2xMatchesGeneric(t, Lanczos3, noiseImage(300, 300, 5), pool)
			}
		})
	}
}

// TestLanczos2xStridedDestination: the destination may be a view too, and
// pixels outside it stay put.
func TestLanczos2xStridedDestination(t *testing.T) {
	src := noiseImage(13, 9, 6)
	canvas := dirtyImage(40, 30)
	view := mustSub(canvas, 7, 4, 26, 18)
	if err := ResizeInto(view, src, Lanczos3, nil); err != nil {
		t.Fatal(err)
	}
	want := frame.NewImagePacked(26, 18)
	resizeGeneric(want, src, Lanczos3, nil)
	if !view.Equal(want) {
		t.Fatal("strided destination differs from the generic resampler")
	}
	outside := canvas.Clone()
	mustSub(outside, 7, 4, 26, 18).CopyFrom(dirtyImage(26, 18))
	if !outside.Equal(dirtyImage(40, 30)) {
		t.Fatal("pixels outside the view were written")
	}
}

// FuzzLanczos2x: over arbitrary pixels, sizes 1..64 × 1..64 and a source
// that is a strided view at an arbitrary offset into its parent (its right
// edge the parent's when the offset byte is odd), the ×2 Lanczos-3 path
// writes exactly what the generic resampler writes, into a dirty
// destination.
func FuzzLanczos2x(f *testing.F) {
	f.Add([]byte{0, 255, 1, 254, 128, 127}, uint8(17), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{255}, uint8(63), uint8(63), uint8(15), uint8(9))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(1), uint8(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint8(6), uint8(32), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, w, h, ox, oy uint8) {
		src := fuzzView(data, w, h, ox, oy)
		check2xMatchesGeneric(t, Lanczos3, src, nil)
	})
}

// fuzzView builds the fuzzers' source: a (w%64+1)×(h%64+1) view at
// (ox%16, oy%16) into a parent filled from data, one column wider than the
// view when ox is even and flush with the view's right edge when it is odd.
func fuzzView(data []byte, w, h, ox, oy uint8) *frame.Image {
	sw, sh := int(w)%64+1, int(h)%64+1
	x0, y0 := int(ox)%16, int(oy)%16
	parent := frame.NewImage(sw+x0+1-int(ox)%2, sh+y0)
	if len(data) > 0 {
		for i := range parent.R {
			parent.R[i] = data[(3*i)%len(data)]
			parent.G[i] = data[(3*i+1)%len(data)]
			parent.B[i] = data[(3*i+2)%len(data)]
		}
	}
	return mustSub(parent, x0, y0, sw, sh)
}

// BenchmarkLanczos2x64 is the ×2 Lanczos-3 resample of the client's 64×64
// RoI alone, pooled, into a kept destination.
func BenchmarkLanczos2x64(b *testing.B) {
	src := noiseImage(64, 64, 3)
	dst := frame.NewImagePacked(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ResizeInto(dst, src, Lanczos3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// macSamples are the float rows the MAC test feeds both forms: bytes (what
// the kernel sees), and values whose sums land on the clamp's edges and on
// the rounding's halves, signed zeros, negatives and the very large.
func macSamples(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), 255, 254.5, 0.5, 0.49999999999999994, -0.5, -3, 300, 1e300, -1e300, 127.5}
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(3) {
		case 0:
			s[i] = float64(rng.Intn(256))
		case 1:
			s[i] = special[rng.Intn(len(special))]
		default:
			s[i] = rng.Float64()*600 - 150
		}
	}
	return s
}

// TestLanczos2xMACsGuardBands holds both forms of the six-tap passes — the
// entry points (vector bulk where the GOARCH has one) and the Go loops on
// their own — to a scalar definition, bit for bit, and to their bounds,
// which the race detector cannot do for the assembly: every length 0..40 at
// every misalignment 0..7 of the destination, carved between sentinels that
// must survive. The phases are the real bank's and random weights of both
// signs.
func TestLanczos2xMACsGuardBands(t *testing.T) {
	const guard, maxN = 16, 40
	rng := rand.New(rand.NewSource(52))
	bank := buildWeights(16, 32, Lanczos3)
	var real [12]float64
	for j := range 6 {
		real[2*j], real[2*j+1] = bank[6].weights[j], bank[7].weights[j]
	}
	var random [12]float64
	for j := range random {
		random[j] = rng.Float64()*2 - 0.5
	}
	sum6 := func(w func(j int) float64, x func(j int) float64) float64 {
		v := float64(w(0) * x(0))
		for j := 1; j < 6; j++ {
			v += float64(w(j) * x(j))
		}
		return v
	}
	forms := []struct {
		name   string
		across func(dst, s []float64, pw *[12]float64)
		down   func(out []uint8, r0, r1, r2, r3, r4, r5 []float64, wt *[6]float64)
	}{
		{"kernel", across6, down6},
		{"portable", across6Go, func(out []uint8, r0, r1, r2, r3, r4, r5 []float64, wt *[6]float64) {
			down6Go(out, r0, r1, r2, r3, r4, r5, wt, 0)
		}},
	}
	fbuf := make([]float64, 2*guard+8+2*maxN)
	bbuf := make([]uint8, 2*guard+8+maxN)
	for _, f := range forms {
		for _, pw := range []*[12]float64{&real, &random} {
			wt := (*[6]float64)(pw[0:6])
			for n := 0; n <= maxN; n++ {
				for off := 0; off < 8; off++ {
					// across: n pairs from n+6 samples.
					s := macSamples(rng, n+6)
					for i := range fbuf {
						fbuf[i] = -7
					}
					f.across(fbuf[guard+off:guard+off+2*n], s, pw)
					for i, v := range fbuf {
						j := i - guard - off
						var want float64
						switch {
						case j < 0 || j >= 2*n:
							want = -7
						case j%2 == 0:
							want = float64(clampByte(sum6(func(q int) float64 { return pw[2*q] }, func(q int) float64 { return s[j/2+q] })))
						default:
							want = float64(clampByte(sum6(func(q int) float64 { return pw[2*q+1] }, func(q int) float64 { return s[j/2+1+q] })))
						}
						if math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%s across, n=%d off=%d: word %d = %v, want %v", f.name, n, off, j, v, want)
						}
					}
					// down: n outputs from six rows.
					var rows [6][]float64
					for q := range rows {
						rows[q] = macSamples(rng, n)
					}
					for i := range bbuf {
						bbuf[i] = 0xC5
					}
					f.down(bbuf[guard+off:guard+off+n], rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], wt)
					for i, v := range bbuf {
						x := i - guard - off
						want := uint8(0xC5)
						if x >= 0 && x < n {
							want = clampByte(sum6(func(q int) float64 { return wt[q] }, func(q int) float64 { return rows[q][x] }))
						}
						if v != want {
							t.Fatalf("%s down, n=%d off=%d: byte %d = %d, want %d", f.name, n, off, x, v, want)
						}
					}
				}
			}
		}
	}
}
