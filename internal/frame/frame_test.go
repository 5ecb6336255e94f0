package frame

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// at returns the RGB triple at (x, y).
func at(im *Image, x, y int) (r, g, b uint8) {
	i := y*im.Stride + x
	return im.R[i], im.G[i], im.B[i]
}

// mustSub is SubImage for a rectangle inside im.
func mustSub(im *Image, x, y, w, h int) *Image {
	s, err := im.SubImage(x, y, w, h)
	if err != nil {
		panic(err)
	}
	return s
}

func TestNewImageZeroed(t *testing.T) {
	im := NewImage(7, 3)
	if im.W != 7 || im.H != 3 || im.Stride != 7 {
		t.Fatalf("unexpected geometry: %dx%d stride %d", im.W, im.H, im.Stride)
	}
	for i := range im.R {
		if im.R[i] != 0 || im.G[i] != 0 || im.B[i] != 0 {
			t.Fatalf("pixel %d not zeroed", i)
		}
	}
}

func TestImageSetAtRoundTrip(t *testing.T) {
	im := NewImage(5, 4)
	im.Set(3, 2, 10, 20, 30)
	r, g, b := at(im, 3, 2)
	if r != 10 || g != 20 || b != 30 {
		t.Fatalf("got (%d,%d,%d), want (10,20,30)", r, g, b)
	}
}

func TestSubImageAliasesParent(t *testing.T) {
	im := NewImage(10, 10)
	sub := mustSub(im, 2, 3, 4, 5)
	if sub.W != 4 || sub.H != 5 {
		t.Fatalf("sub size %dx%d", sub.W, sub.H)
	}
	sub.Set(0, 0, 99, 98, 97)
	r, g, b := at(im, 2, 3)
	if r != 99 || g != 98 || b != 97 {
		t.Fatalf("parent did not observe write: (%d,%d,%d)", r, g, b)
	}
	im.Set(5, 7, 7, 8, 9)
	r, g, b = at(sub, 3, 4)
	if r != 7 || g != 8 || b != 9 {
		t.Fatalf("sub did not observe parent write: (%d,%d,%d)", r, g, b)
	}
}

func TestSubImageBounds(t *testing.T) {
	im := NewImage(8, 8)
	cases := []Rect{
		{X: -1, Y: 0, W: 2, H: 2},
		{X: 0, Y: -1, W: 2, H: 2},
		{X: 7, Y: 0, W: 2, H: 2},
		{X: 0, Y: 7, W: 2, H: 2},
		{X: 0, Y: 0, W: 9, H: 1},
		{X: 0, Y: 0, W: 1, H: -1},
	}
	for _, c := range cases {
		if _, err := im.SubImage(c.X, c.Y, c.W, c.H); err == nil {
			t.Errorf("SubImage(%v) should fail", c)
		}
	}
	if _, err := im.SubImage(0, 0, 8, 8); err != nil {
		t.Errorf("full-frame sub-image should succeed: %v", err)
	}
	if _, err := im.SubImage(4, 4, 0, 0); err != nil {
		t.Errorf("empty sub-image should succeed: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(1, 1, 5, 6, 7)
	cl := im.Clone()
	cl.Set(1, 1, 50, 60, 70)
	r, _, _ := at(im, 1, 1)
	if r != 5 {
		t.Fatal("clone shares storage with original")
	}
	if !im.Equal(im.Clone()) {
		t.Fatal("clone not equal to original")
	}
}

func TestCopyFromRespectsStride(t *testing.T) {
	parent := NewImage(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			parent.Set(x, y, uint8(x), uint8(y), uint8(x+y))
		}
	}
	sub := mustSub(parent, 2, 2, 5, 5) // non-compact stride
	dst := NewImage(5, 5)
	dst.CopyFrom(sub)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			r, g, b := at(dst, x, y)
			wr, wg, wb := at(parent, x+2, y+2)
			if r != wr || g != wg || b != wb {
				t.Fatalf("pixel (%d,%d) = (%d,%d,%d), want (%d,%d,%d)", x, y, r, g, b, wr, wg, wb)
			}
		}
	}
}

func TestCompact(t *testing.T) {
	im := NewImage(6, 6)
	if im.Compact() != im {
		t.Error("compact image should be returned as-is")
	}
	sub := mustSub(im, 1, 1, 3, 3)
	c := sub.Compact()
	if c == sub {
		t.Error("strided sub-image should be copied")
	}
	if c.Stride != c.W {
		t.Errorf("compacted stride %d != width %d", c.Stride, c.W)
	}
}

func TestLuma(t *testing.T) {
	im := NewImage(1, 1)
	luma := func() float64 {
		l := []float64{-1}
		im.LumaRowsInto(l, 0, 1)
		return l[0]
	}
	im.Set(0, 0, 255, 255, 255)
	if w := luma(); w < 254.9 || w > 255.1 {
		t.Errorf("white luma = %f, want 255", w)
	}
	im.Set(0, 0, 0, 255, 0)
	if g := luma(); g < 149 || g > 151 {
		t.Errorf("green luma = %f, want ≈149.7", g)
	}
}

// TestLumaRowsIntoMatchesPerPixel converts a strided view in uneven row
// ranges, as a row-parallel caller does, and requires every element to equal
// the per-pixel formula bit for bit.
func TestLumaRowsIntoMatchesPerPixel(t *testing.T) {
	parent := NewImage(23, 11)
	for i := range parent.R {
		parent.R[i], parent.G[i], parent.B[i] = uint8(i*37), uint8(i*91+5), uint8(i*13+200)
	}
	view := mustSub(parent, 3, 2, 17, 8)
	out := make([]float64, view.W*view.H)
	for i := range out {
		out[i] = -1
	}
	for _, r := range [][2]int{{5, 8}, {0, 1}, {1, 5}} {
		view.LumaRowsInto(out, r[0], r[1])
	}
	for y := 0; y < view.H; y++ {
		for x := 0; x < view.W; x++ {
			p := y*view.Stride + x
			want := 0.299*float64(view.R[p]) + 0.587*float64(view.G[p]) + 0.114*float64(view.B[p])
			if got := out[y*view.W+x]; got != want {
				t.Fatalf("luma (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("short buffer should panic")
		}
	}()
	view.LumaRowsInto(out[1:], 0, 1)
}

func TestDepthMapBasics(t *testing.T) {
	d := NewDepthMap(4, 3)
	if d.W != 4 || d.H != 3 || d.Stride != 4 || len(d.Z) != 12 {
		t.Fatalf("geometry %dx%d stride %d, %d samples", d.W, d.H, d.Stride, len(d.Z))
	}
	for i, z := range d.Z {
		if z != 0 {
			t.Fatalf("sample %d = %v, want 0 (near)", i, z)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	NewDepthMap(-1, 3)
}

func TestNearnessInvertsAndClamps(t *testing.T) {
	d := NewDepthMap(3, 1)
	copy(d.Z, []float32{0, 1, 1.5}) // nearest, farthest, out of range (must clamp)
	n := d.Nearness()
	if n[0] != 1 || n[1] != 0 || n[2] != 0 {
		t.Fatalf("nearness = %v, want [1 0 0]", n)
	}
}

func TestRectClamp(t *testing.T) {
	cases := []struct {
		in, want Rect
	}{
		{Rect{X: -5, Y: -5, W: 10, H: 10}, Rect{X: 0, Y: 0, W: 10, H: 10}},
		{Rect{X: 95, Y: 95, W: 10, H: 10}, Rect{X: 90, Y: 90, W: 10, H: 10}},
		{Rect{X: 0, Y: 0, W: 200, H: 10}, Rect{X: 0, Y: 0, W: 100, H: 10}},
		{Rect{X: 50, Y: 50, W: 10, H: 10}, Rect{X: 50, Y: 50, W: 10, H: 10}},
	}
	for _, c := range cases {
		if got := c.in.Clamp(100, 100); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRectClampProperty(t *testing.T) {
	f := func(x, y int16, w, h uint8) bool {
		r := Rect{X: int(x), Y: int(y), W: int(w), H: int(h)}.Clamp(640, 360)
		return r.In(640, 360)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{X: 10, Y: 20, W: 30, H: 40}
	if r.Empty() || !(Rect{}).Empty() {
		t.Error("empty rect handling")
	}
	if !r.In(40, 60) || r.In(39, 60) || r.In(40, 59) || (Rect{X: -1, W: 1, H: 1}).In(40, 60) {
		t.Error("In disagrees with the frame bounds")
	}
	// Far edges that wrap when added must not pass for inside.
	for _, big := range []Rect{
		{X: 1 << 62, W: 1 << 62, H: 1},
		{Y: 1 << 62, W: 1, H: 1 << 62},
		{X: math.MaxInt, W: 1, H: 1},
	} {
		if big.In(40, 60) {
			t.Errorf("%v reported inside a 40x60 frame", big)
		}
	}
	s := r.Scale(2)
	if s != (Rect{X: 20, Y: 40, W: 60, H: 80}) {
		t.Errorf("scale = %v", s)
	}
	if r.String() != "30x40+10+20" {
		t.Errorf("string = %q", r.String())
	}
}

func TestCenterDistance2(t *testing.T) {
	// Centered rect has zero distance to frame center.
	r := Rect{X: 45, Y: 45, W: 10, H: 10}
	if d := r.CenterDistance2(50, 50); d != 0 {
		t.Errorf("centered distance = %d", d)
	}
	near := Rect{X: 46, Y: 45, W: 10, H: 10}
	if r.CenterDistance2(50, 50) >= near.CenterDistance2(50, 50) {
		t.Error("offset rect should be farther")
	}
}

func TestPPMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := NewImage(33, 17)
	for i := range im.R {
		im.R[i] = uint8(rng.Intn(256))
		im.G[i] = uint8(rng.Intn(256))
		im.B[i] = uint8(rng.Intn(256))
	}
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !im.Equal(back) {
		t.Fatal("PPM round-trip mismatch")
	}
}

func TestReadPPMRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"P5\n2 2\n255\n....",
		"P6\n0 5\n255\n",
		"P6\n2 2\n65535\n",
		"P6\n2 2\n255\nab", // truncated pixel data
	}
	for _, c := range cases {
		if _, err := ReadPPM(bytes.NewBufferString(c)); err == nil {
			t.Errorf("ReadPPM(%q) should fail", c)
		}
	}
}

func TestReadPPMSkipsComments(t *testing.T) {
	data := "P6\n# a comment\n1 1\n255\nabc"
	im, err := ReadPPM(bytes.NewBufferString(data))
	if err != nil {
		t.Fatal(err)
	}
	if r, g, b := at(im, 0, 0); r != 'a' || g != 'b' || b != 'c' {
		t.Fatalf("pixel = (%d,%d,%d)", r, g, b)
	}
}

func TestDepthPGM(t *testing.T) {
	d := NewDepthMap(4, 2)
	for i := range d.Z {
		d.Z[i] = 0.5
	}
	var buf bytes.Buffer
	if err := d.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty PGM output")
	}
	if got := buf.String()[:2]; got != "P5" {
		t.Fatalf("magic = %q", got)
	}
}

func TestWriteGrayPGMNormalises(t *testing.T) {
	var buf bytes.Buffer
	plane := []float64{-3, 0, 7, 1}
	if err := WriteGrayPGM(&buf, plane, 2, 2); err != nil {
		t.Fatal(err)
	}
	px := buf.Bytes()[buf.Len()-4:]
	if px[0] != 0 || px[2] != 255 {
		t.Fatalf("normalisation wrong: %v", px)
	}
	if err := WriteGrayPGM(&buf, plane, 3, 2); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestWriteGrayPGMConstantPlane(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGrayPGM(&buf, []float64{5, 5, 5, 5}, 2, 2); err != nil {
		t.Fatal(err)
	}
	px := buf.Bytes()[buf.Len()-4:]
	for _, p := range px {
		if p != 0 {
			t.Fatalf("constant plane should map to 0, got %v", px)
		}
	}
}
