package roi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
)

// depthSamples returns n depth samples for the kernels' tests: runs of one
// value and of close values (the vector bodies' runs), every special value
// (NaN, ±Inf, ±0, subnormals, 1, values beyond [0, 1]) and samples on the
// half-bin edges and one float32 step either side.
func depthSamples(rng *rand.Rand, n int) []float32 {
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		1, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0x1p-54, 0x1p-60, 1.5, -0.25,
	}
	z := make([]float32, n)
	for i := 0; i < n; {
		run := 1 + rng.Intn(12)
		var v float32
		switch rng.Intn(4) {
		case 0:
			v = special[rng.Intn(len(special))]
		case 1:
			e := float32(1 - float64(rng.Intn(scale+1))/scale)
			v = []float32{e, math.Nextafter32(e, 2), math.Nextafter32(e, -1)}[rng.Intn(3)]
		default:
			v = rng.Float32()
		}
		for ; run > 0 && i < n; run-- {
			z[i] = v
			if rng.Intn(3) == 0 {
				z[i] = math.Nextafter32(v, float32(rng.Intn(3)-1))
			}
			i++
		}
	}
	return z
}

// TestDetectKernelsGuardBands holds each vector loop — the entry points,
// vector bulk where the GOARCH has one — to its Go twin, and to its
// bounds, which the race detector cannot do for the assembly: every length
// 0..40 at every misalignment 0..7 of the samples and of the outputs, the
// outputs carved between sentinels that must survive.
func TestDetectKernelsGuardBands(t *testing.T) {
	const guard, maxN = 16, 40
	rng := rand.New(rand.NewSource(53))
	for n := 0; n <= maxN; n++ {
		for off := 0; off < 8; off++ {
			t.Run(fmt.Sprintf("n%d/off%d", n, off), func(t *testing.T) {
				checkScanKernel(t, rng, n, off, guard)
				checkWeighKernel(t, rng, n, off, guard)
				checkSumKernel(t, rng, n, off, guard)
			})
		}
	}
}

const sentinel = -7.25

func carve(buf []float64, guard, off, n int) []float64 {
	for i := range buf {
		buf[i] = sentinel
	}
	return buf[guard+off : guard+off+n : guard+off+n]
}

func checkGuards(t *testing.T, what string, buf []float64, guard, off, n int) {
	t.Helper()
	for i, v := range buf {
		if (i < guard+off || i >= guard+off+n) && v != sentinel {
			t.Fatalf("%s: word %d outside the output = %v", what, i-guard-off, v)
		}
	}
}

func checkScanKernel(t *testing.T, rng *rand.Rand, n, off, guard int) {
	zbuf := make([]float32, n+8)
	z := zbuf[off : off+n]
	copy(z, depthSamples(rng, n))
	type result struct {
		n           []uint32
		least, most []float64
		nbuf        []uint32
		lbuf, mbuf  []float64
	}
	run := func(f func(z []float32, n []uint32, least, most []float64)) result {
		r := result{nbuf: make([]uint32, 2*guard+slots), lbuf: make([]float64, 2*guard+slots), mbuf: make([]float64, 2*guard+slots)}
		for i := range r.nbuf {
			r.nbuf[i] = 0xC5C5
		}
		r.n = r.nbuf[guard : guard+slots]
		r.least, r.most = carve(r.lbuf, guard, 0, slots), carve(r.mbuf, guard, 0, slots)
		for i := range r.n {
			r.n[i] = uint32(i)
			r.least[i], r.most[i] = math.Inf(1), math.Inf(-1)
		}
		f(z, r.n, r.least, r.most)
		return r
	}
	got := run(scanRow)
	want := run(scanGo)
	for i := range got.nbuf {
		if inside := i >= guard && i < guard+slots; !inside && got.nbuf[i] != 0xC5C5 || got.nbuf[i] != want.nbuf[i] {
			t.Fatalf("scan: count word %d = %d, want %d (samples %v)", i-guard, got.nbuf[i], want.nbuf[i], z)
		}
	}
	checkGuards(t, "scan least", got.lbuf, guard, 0, slots)
	checkGuards(t, "scan most", got.mbuf, guard, 0, slots)
	for i := 1; i < slots; i++ {
		if got.least[i] != want.least[i] || got.most[i] != want.most[i] {
			t.Fatalf("scan: slot %d extremes [%v, %v], want [%v, %v] (samples %v)", i, got.least[i], got.most[i], want.least[i], want.most[i], z)
		}
	}
}

func checkWeighKernel(t *testing.T, rng *rand.Rand, n, off, guard int) {
	layers := []int{1, 3, 4, 9, 65}[rng.Intn(5)]
	zbuf := make([]float32, n+8)
	z := zbuf[off : off+n]
	copy(z, depthSamples(rng, n))
	// The frame's constants, as detect derives them: a threshold on the
	// half-bin grid and the extremes of the foreground nearness it leaves.
	k := weighConsts{thr: float64(2+rng.Intn(scale-1)) / scale, layers: float64(layers), top: float64(layers - 1)}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, zz := range z {
		if v := 1 - float64(min(max(zz, 0), 1)); v >= k.thr && v > 0 {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	k.lo, k.span = lo, hi-lo
	if !(k.span > 0) {
		k.lo, k.span = 0.25, 0.5 // no foreground spread in these samples: any span
	}
	bands := make([]float32, 2*(layers+1))
	zBands(bands, k.layerOf, -1)
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = rng.Float64() * 0.5
	}
	for _, rev := range []bool{false, true} {
		type result struct {
			cbuf, sbuf []float64
			lbuf       []int16
		}
		run := func(f func(cells []float64, layer []int16, sums []float64)) result {
			r := result{cbuf: make([]float64, 2*guard+8+n), sbuf: make([]float64, 2*guard+layers), lbuf: make([]int16, 2*guard+8+n)}
			cells := carve(r.cbuf, guard, off, n)
			sums := carve(r.sbuf, guard, 0, layers)
			for i := range sums {
				sums[i] = float64(i) * 0.125
			}
			for i := range r.lbuf {
				r.lbuf[i] = 0x3C3C
			}
			f(cells, r.lbuf[guard+off:guard+off+n], sums)
			return r
		}
		got := run(func(cells []float64, layer []int16, sums []float64) {
			weighRow(z, bias, rev, cells, layer, sums, &k, bands)
		})
		want := run(func(cells []float64, layer []int16, sums []float64) {
			weighGo(z, bias, rev, cells, layer, sums, &k)
		})
		checkGuards(t, "weigh cells", got.cbuf, guard, off, n)
		checkGuards(t, "weigh sums", got.sbuf, guard, 0, layers)
		for i := range got.cbuf {
			if math.Float64bits(got.cbuf[i]) != math.Float64bits(want.cbuf[i]) || got.lbuf[i] != want.lbuf[i] {
				t.Fatalf("weigh, rev %v, %d layers: pixel %d cell %v layer %d, want %v %d (samples %v, %+v)", rev, layers, i-guard-off, got.cbuf[i], got.lbuf[i], want.cbuf[i], want.lbuf[i], z, k)
			}
		}
		for i := range got.sbuf {
			if math.Float64bits(got.sbuf[i]) != math.Float64bits(want.sbuf[i]) {
				t.Fatalf("weigh, rev %v: sum %d = %v, want %v", rev, i-guard, got.sbuf[i], want.sbuf[i])
			}
		}
	}
}

func checkSumKernel(t *testing.T, rng *rand.Rand, n, off, guard int) {
	above := make([]float64, n)
	cells := make([]float64, 2*n)
	layer := make([]int16, 2*n+8)
	for i := range above {
		above[i] = rng.Float64() * 100
	}
	for i := range cells {
		cells[i] = rng.Float64()
		if rng.Intn(8) == 0 {
			cells[i] = 0
		}
	}
	l := layer[off : off+2*n]
	for i := range l {
		l[i] = int16(rng.Intn(4) - 1)
	}
	sel := int16(rng.Intn(3))
	run := func(f func(r0, r1 []float64)) (b0, b1 []float64) {
		b0, b1 = make([]float64, 2*guard+8+n), make([]float64, 2*guard+8+n)
		r0, r1 := carve(b0, guard, off, n), carve(b1, guard, off, n)
		copy(r0, cells[:n])
		copy(r1, cells[n:])
		f(r0, r1)
		return b0, b1
	}
	g0, g1 := run(func(r0, r1 []float64) { sumRows(above, r0, r1, l[:n], l[n:], sel) })
	w0, w1 := run(func(r0, r1 []float64) { sumGo(above, r0, l[:n], sel); sumGo(r0, r1, l[n:], sel) })
	checkGuards(t, "sum row 0", g0, guard, off, n)
	checkGuards(t, "sum row 1", g1, guard, off, n)
	for i := range g0 {
		if math.Float64bits(g0[i]) != math.Float64bits(w0[i]) || math.Float64bits(g1[i]) != math.Float64bits(w1[i]) {
			t.Fatalf("sum: column %d = %v, %v, want %v, %v", i-guard-off, g0[i], g1[i], w0[i], w1[i])
		}
	}
}

// TestDetectMatchesReferenceEveryGame: every game's frame 30 at the three
// bench geometries, under the live client's window and the paper's (where
// it fits), at GOMAXPROCS 1 and 2.
func TestDetectMatchesReferenceEveryGame(t *testing.T) {
	rd := &render.Renderer{}
	var out render.Output
	type frameAt struct {
		name  string
		depth *frame.DepthMap
	}
	var frames []frameAt
	for _, g := range [][2]int{{320, 180}, {640, 360}, {1280, 720}} {
		for _, wl := range games.All() {
			wl.RenderInto(&out, rd, 30, g[0], g[1])
			d := *out.Depth
			d.Z = append([]float32(nil), d.Z...)
			frames = append(frames, frameAt{fmt.Sprintf("%s at %dx%d", wl.ID, g[0], g[1]), &d})
		}
	}
	atProcs(t, func(t *testing.T) {
		for _, win := range []int{64, 300} {
			det, _ := New(Config{WindowW: win, WindowH: win})
			for _, f := range frames {
				if f.depth.H >= win {
					sameRect(t, det, f.depth, fmt.Sprintf("%s window %d", f.name, win))
				}
			}
		}
	})
}

// TestDetectPortableMatchesReference runs the detector with its vector
// bodies switched off — the Go loops every other GOARCH runs, through the
// same wrappers — against the reference on the crafted maps and rendered
// frames, and the tracker on them.
func TestDetectPortableMatchesReference(t *testing.T) {
	defer func(bulk bool) { haveDetectBulk = bulk }(haveDetectBulk)
	haveDetectBulk = false
	maps := craftedMaps()
	rd := &render.Renderer{}
	for _, id := range []string{"G1", "G3", "G6"} {
		wl, _ := games.ByID(id)
		maps[id] = wl.Render(rd, 30, 320, 180).Depth
	}
	for _, cfg := range []Config{{WindowW: 16, WindowH: 16}, {WindowW: 24, WindowH: 20, CoarseStride: 7, FineStride: 3}} {
		det, _ := New(cfg)
		for name, d := range maps {
			sameRect(t, det, d, fmt.Sprintf("%s under %+v", name, cfg))
			prev := frame.Rect{X: (d.W - cfg.WindowW) / 3, Y: (d.H - cfg.WindowH) / 2, W: cfg.WindowW, H: cfg.WindowH}
			got, _ := det.DetectTracked(d, prev, TrackConfig{MaxStep: 3})
			if want, _ := det.detectTrackedReference(d, prev, TrackConfig{MaxStep: 3}); got != want {
				t.Fatalf("%s under %+v: DetectTracked = %v, reference form %v", name, cfg, got, want)
			}
		}
	}
}

// FuzzDetect holds Detect to the reference pipeline on arbitrary depth
// planes: the samples are the input's float32 words, the geometry (up to
// 64×64), window and strides come from its first five bytes.
func FuzzDetect(f *testing.F) {
	plane := func(w, h int, z func(i int) float32) []byte {
		b := []byte{byte(w), byte(h), 3, 5, 2}
		for i := 0; i < w*h; i++ {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(z(i)))
		}
		return b
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, 0x1p-130, 1, 0, 0.5, 1 - 1.0/128, 1 - 3.0/128, math.Nextafter32(1-1.0/128, 1), 1.25, -0.5}
	f.Add(plane(24, 20, func(i int) float32 { return specials[i%len(specials)] }))
	f.Add(plane(30, 17, func(i int) float32 { return specials[(i/7)%len(specials)] }))
	f.Add(plane(16, 16, func(int) float32 { return 0.4 }))
	f.Add(plane(16, 16, func(int) float32 { return 1 }))
	f.Add(plane(33, 21, func(i int) float32 { return []float32{0.2, 0.85}[(i/5+i/33/4)%2] }))
	f.Add(plane(40, 30, func(i int) float32 {
		// Samples on the half-bin edges of 64 bins and one step either side.
		e := float32(1 - float64(i%129)/128)
		return []float32{e, math.Nextafter32(e, 2), math.Nextafter32(e, -1)}[i%3]
	}))
	f.Add(plane(48, 40, func(i int) float32 {
		x, y := i%48, i/48
		if (x-30)*(x-30)+(y-18)*(y-18) < 60 {
			return 0.15
		}
		return 0.9 - float32(y)/400
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 5 {
			return
		}
		w, h := 1+int(b[0])%64, 1+int(b[1])%64
		z := b[5:]
		n := len(z) / 4
		if n == 0 {
			return
		}
		d := frame.NewDepthMap(w, h) // the words repeat if there are fewer than samples
		for i := range d.Z {
			d.Z[i] = math.Float32frombits(binary.LittleEndian.Uint32(z[4*(i%n):]))
		}
		cfg := Config{
			WindowW: 1 + int(b[2])%w, WindowH: 1 + int(b[3])%h,
			CoarseStride: int(b[4] & 15), FineStride: int(b[4] >> 4 & 3), Boundary: int(b[4]>>6) * 8,
		}
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRect(t, det, d, fmt.Sprintf("%dx%d under %+v", w, h, cfg))
		sameRect(t, det, d, "again, on the kept planes")
	})
}
