package codec

import (
	"bytes"
	"testing"
)

// sadPlanes is a pair of W-wide frames of H rows, each inside a buffer with
// g poisoned guard rows above and below. Every byte outside a block is
// poison — 0 in cur, 255 in ref — while a block's own bytes lie in [1, 127]
// in cur and [128, 254] in ref, so each pixel pair read contributes at
// least 1: a read that strays one byte, one row or one 16-byte slice off the
// footprint, or one that skips a pixel, changes the sum.
type sadPlanes struct {
	W, H     int
	cur, ref []uint8
}

func newSADPlanes(W, H, g int) *sadPlanes {
	cur, ref := make([]uint8, (H+2*g)*W), bytes.Repeat([]byte{255}, (H+2*g)*W)
	return &sadPlanes{W: W, H: H, cur: cur[g*W : (g+H)*W], ref: ref[g*W : (g+H)*W]}
}

// check fills the block at (x, y) of size w×h and the reference rows it is
// scored against (rows clamped to the frame, as sad reads them), requires
// sadInside to equal sad on them, and restores the poison.
func (p *sadPlanes) check(t *testing.T, x, y, w, h, dx, dy int) {
	t.Helper()
	for j := 0; j < h; j++ {
		c := p.cur[(y+j)*p.W+x:][:w]
		r := p.ref[clampInt(y+j+dy, 0, p.H-1)*p.W+x+dx:][:w]
		for i := range c {
			c[i] = uint8(1 + (7*i+13*j+x)%127)
			r[i] = uint8(128 + (11*i+5*j+dy&15)%127)
		}
	}
	want := sad(p.cur, p.ref, p.W, p.H, x, y, w, h, dx, dy)
	if got := sadInside(p.cur, p.ref, p.W, p.H, x, y, w, h, dx, dy); got != want {
		t.Fatalf("%dx%d block at (%d, %d), vector (%d, %d) in a %dx%d frame: sadInside %d, sad %d", w, h, x, y, dx, dy, p.W, p.H, got, want)
	}
	for j := 0; j < h; j++ {
		clear(p.cur[(y+j)*p.W+x:][:w])
		r := p.ref[clampInt(y+j+dy, 0, p.H-1)*p.W+x+dx:][:w]
		for i := range r {
			r[i] = 255
		}
	}
}

// TestSADInsideGuardBands holds sadInside — the vector body where the GOARCH
// has one, its scalar tail, and the clamped-row runs — to sad over every
// block width 1–48 (every tail length 0–15 beside 0–3 vector slices) and
// height 1–16. Inside the frame it runs every source and reference column
// misalignment 0–15 against each other; for vectors whose rows leave the
// frame above or below (stride-0 runs of the first or last row) it runs
// every row displacement out to two rows past the frame at four
// misalignments each side.
func TestSADInsideGuardBands(t *testing.T) {
	const W, g = 96, 2
	for h := 1; h <= 16; h++ {
		p := newSADPlanes(W, h+4, g)
		const y = 2
		for w := 1; w <= 48; w++ {
			for ca := 0; ca < 16; ca++ {
				for ra := 0; ra < 16; ra++ {
					// Rows inside the frame: dy ∈ [−2, 2] keeps them there.
					p.check(t, 16+ca, y, w, h, ra-ca, (ca+ra)%5-2)
				}
			}
			for _, ca := range []int{0, 1, 7, 15} {
				for _, ra := range []int{0, 3, 8, 15} {
					for dy := -(y + h + 2); dy <= p.H-y+2; dy++ {
						if y+dy < 0 || y+dy+h > p.H {
							p.check(t, 16+ca, y, w, h, ra-ca, dy)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSADInside16 is one motion candidate's score as the search runs
// it: a 16×16 block of a 720p G3 green plane against the previous frame,
// cycling over every block and the nine vectors around (0, 0) that keep it
// inside the frame.
func BenchmarkSADInside16(b *testing.B) {
	const W, H = 1280, 720
	frames := gameFrames(b, "G3", 0, 2, W, H)
	cur, ref := frames[1].G, frames[0].G
	type cand struct{ x, y, dx, dy int }
	var cands []cand
	for y := 16; y+32 <= H; y += 16 {
		for x := 16; x+32 <= W; x += 16 {
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					cands = append(cands, cand{x, y, dx, dy})
				}
			}
		}
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		c := cands[i%len(cands)]
		sum += sadInside(cur, ref, W, H, c.x, c.y, 16, 16, c.dx, c.dy)
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
