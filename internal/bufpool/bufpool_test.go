package bufpool

import (
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

// at returns the RGB triple at (x, y).
func at(im *frame.Image, x, y int) (r, g, b uint8) {
	i := y*im.Stride + x
	return im.R[i], im.G[i], im.B[i]
}

// fill sets every pixel of im to one colour.
func fill(im *frame.Image, r, g, b uint8) {
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			im.Set(x, y, r, g, b)
		}
	}
}

// mustSub is SubImage for a rectangle inside im.
func mustSub(im *frame.Image, x, y, w, h int) *frame.Image {
	s, err := im.SubImage(x, y, w, h)
	if err != nil {
		panic(err)
	}
	return s
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, -1},
		{-4, -1},
		{1, minClassBits},
		{64, minClassBits},
		{65, 7},
		{128, 7},
		{129, 8},
		{1 << 20, 20},
		{1 << 26, maxClassBits},
		{1<<26 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSliceRoundTrip(t *testing.T) {
	p := New()
	b := p.Bytes(1000)
	if len(b) != 1000 {
		t.Fatalf("Bytes(1000) length %d", len(b))
	}
	if cap(b) != 1024 {
		t.Fatalf("Bytes(1000) capacity %d, want class size 1024", cap(b))
	}
	b[0], b[999] = 1, 2
	p.PutBytes(b)
	// A checkout of any length in the same class must reuse the buffer.
	b2 := p.Bytes(700)
	if len(b2) != 700 || cap(b2) != 1024 {
		t.Fatalf("recycled checkout len=%d cap=%d", len(b2), cap(b2))
	}
	if &b2[0] != &b[0] {
		t.Error("Bytes after PutBytes did not reuse the pooled buffer")
	}
}

func TestNilPoolIsFunctional(t *testing.T) {
	var p *Pool
	if got := p.Bytes(100); len(got) != 100 {
		t.Fatalf("nil pool Bytes(100) length %d", len(got))
	}
	p.PutBytes(make([]uint8, 8)) // must not panic
	if got := p.Float32s(9); len(got) != 9 {
		t.Fatalf("nil pool Float32s(9) length %d", len(got))
	}
	p.PutFloat32s(nil)
	im := p.Image(7, 5)
	if im.W != 7 || im.H != 5 {
		t.Fatalf("nil pool Image geometry %dx%d", im.W, im.H)
	}
	p.PutImage(im)
}

func TestUnpooledSizes(t *testing.T) {
	p := New()
	huge := p.Float64s(1<<26 + 1)
	if len(huge) != 1<<26+1 {
		t.Fatalf("oversized checkout length %d", len(huge))
	}
	p.PutFloat64s(huge) // discarded, must not panic
	tiny := p.Bytes(3)
	if len(tiny) != 3 {
		t.Fatalf("tiny checkout length %d", len(tiny))
	}
	if cap(tiny) != 1<<minClassBits {
		t.Fatalf("tiny checkout capacity %d, want %d", cap(tiny), 1<<minClassBits)
	}
}

func TestPerClassCap(t *testing.T) {
	p := New()
	bufs := make([][]uint8, maxPerClass+5)
	for i := range bufs {
		bufs[i] = make([]uint8, 256)
	}
	for _, b := range bufs {
		p.PutBytes(b)
	}
	if got := len(p.bytes.free[8]); got != maxPerClass {
		t.Errorf("free list holds %d buffers, cap is %d", got, maxPerClass)
	}
}

func TestPutRejectsOddCapacity(t *testing.T) {
	p := New()
	odd := make([]uint8, 100) // capacity 100 is not a class size
	p.PutBytes(odd)
	for c, fl := range p.bytes.free {
		if len(fl) != 0 {
			t.Errorf("odd-capacity buffer landed in class %d", c)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	p := New()
	im := p.Image(16, 8)
	if im.W != 16 || im.H != 8 || im.Stride != 16 {
		t.Fatalf("bad geometry %dx%d stride %d", im.W, im.H, im.Stride)
	}
	if len(im.R) != 128 || len(im.G) != 128 || len(im.B) != 128 {
		t.Fatalf("bad plane lengths %d/%d/%d", len(im.R), len(im.G), len(im.B))
	}
	// Planes must be thirds of a single packed backing array.
	if &im.G[0] != &im.R[:cap(im.R)][128] || &im.B[0] != &im.R[:cap(im.R)][256] {
		t.Fatal("planes are not packed into one backing array")
	}
	fill(im, 1, 2, 3)
	p.PutImage(im)
	if im.R != nil || im.W != 0 {
		t.Fatal("PutImage did not clear the returned header")
	}
	im2 := p.Image(16, 8)
	fill(im2, 0, 0, 0) // pooled images come back dirty; overwrite before use
	if r, g, b := at(im2, 3, 3); r != 0 || g != 0 || b != 0 {
		t.Fatalf("overwritten recycled image reads %d,%d,%d", r, g, b)
	}
}

func TestPutImageRejectsViews(t *testing.T) {
	p := New()
	parent := p.Image(16, 16)
	view := mustSub(parent, 2, 2, 8, 8)
	p.PutImage(view) // strided view: must be rejected, not pooled
	if view.R == nil {
		t.Fatal("rejected view was cleared")
	}
	triple := frame.NewImage(8, 8)
	p.PutImage(triple) // three separate allocations: must be rejected
	if triple.R == nil {
		t.Fatal("rejected triple-allocation image was cleared")
	}
}

func TestInstrumentCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New().Instrument(reg, "test")
	b := p.Bytes(512) // miss
	p.PutBytes(b)     // return
	b = p.Bytes(512)  // hit
	snap := reg.Snapshot()
	want := map[string]int64{
		"test_bufpool_hits_total":    1,
		"test_bufpool_misses_total":  1,
		"test_bufpool_returns_total": 1,
	}
	got := map[string]int64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Value
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d, want %d", name, got[name], w)
		}
	}
	var inFlight int64 = -1
	for _, g := range snap.Gauges {
		if g.Name == "test_bufpool_bytes_in_flight" {
			inFlight = g.Value
		}
	}
	if inFlight != 512 {
		t.Errorf("bytes_in_flight = %d, want 512 (one checked-out buffer)", inFlight)
	}
	p.PutBytes(b)
}

func TestPoisonOnReturn(t *testing.T) {
	if !poisonEnabled {
		t.Skip("poison disabled; run with -race or -tags bufpool_debug")
	}
	p := New()
	b := p.Bytes(64)
	for i := range b {
		b[i] = 7
	}
	p.PutBytes(b)
	for i, v := range b[:cap(b)] {
		if v != 0xA5 {
			t.Fatalf("byte %d = %#x after Put, want poison 0xA5", i, v)
		}
	}
	f := p.Float64s(64)
	for i := range f {
		f[i] = 1
	}
	p.PutFloat64s(f)
	if f[0] == f[0] { // NaN != NaN
		t.Fatal("float64 buffer not NaN-poisoned after Put")
	}
}

func TestConcurrentCheckout(t *testing.T) {
	p := New().Instrument(telemetry.NewRegistry(), "race")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				b := p.Bytes(4096)
				b[0] = 1
				f := p.Float32s(1024)
				f[0] = 2
				im := p.Image(32, 32)
				im.R[0] = 3
				p.PutImage(im)
				p.PutFloat32s(f)
				p.PutBytes(b)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestCheckoutAllocs(t *testing.T) {
	p := New()
	// Prime the pool.
	p.PutBytes(p.Bytes(4096))
	p.PutFloat32s(p.Float32s(4096))
	im := p.Image(64, 64)
	p.PutImage(im)
	allocs := testing.AllocsPerRun(100, func() {
		b := p.Bytes(4096)
		f := p.Float32s(4096)
		im := p.Image(64, 64)
		p.PutImage(im)
		p.PutFloat32s(f)
		p.PutBytes(b)
	})
	if allocs > 0 {
		t.Errorf("steady-state checkout/return allocates %.1f objects, want 0", allocs)
	}
}
