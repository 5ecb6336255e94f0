package games

import (
	"sort"
	"testing"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/render"
)

// luma returns im's Rec.601 luma plane.
func luma(im *frame.Image) []float64 {
	out := make([]float64, im.W*im.H)
	im.LumaRowsInto(out, 0, im.H)
	return out
}

func TestAllReturnsTableI(t *testing.T) {
	ws := All()
	if len(ws) != 10 {
		t.Fatalf("got %d workloads, want 10", len(ws))
	}
	wantGenres := map[string]string{
		"G1":  "First Person Shooter",
		"G2":  "Third Person Shooter",
		"G3":  "Role playing",
		"G4":  "Action",
		"G5":  "Adventure",
		"G6":  "Action-adventure",
		"G7":  "Survival",
		"G8":  "Stealth",
		"G9":  "Simulation",
		"G10": "Racing",
	}
	for i, w := range ws {
		wantID := "G" + itoa(i+1)
		if w.ID != wantID {
			t.Errorf("workload %d has ID %s, want %s", i, w.ID, wantID)
		}
		if g := wantGenres[w.ID]; w.Genre != g {
			t.Errorf("%s genre = %q, want %q", w.ID, w.Genre, g)
		}
		if w.Name == "" {
			t.Errorf("%s has empty name", w.ID)
		}
	}
}

func itoa(n int) string {
	if n == 10 {
		return "10"
	}
	return string(rune('0' + n))
}

func TestByID(t *testing.T) {
	w, err := ByID("G3")
	if err != nil || w.Name != "Witcher 3" {
		t.Fatalf("ByID(G3) = %v, %v", w, err)
	}
	if _, err := ByID("G11"); err == nil {
		t.Fatal("ByID(G11) should fail")
	}
}

func TestEveryGameRenders(t *testing.T) {
	rd := &render.Renderer{}
	for _, w := range All() {
		out := w.Render(rd, 0, 96, 54)
		if out.Color.W != 96 || out.Depth.H != 54 {
			t.Fatalf("%s: bad output size", w.ID)
		}
		// The scene must contain visible foreground: at least some pixels
		// nearer than 30%% depth, and some background beyond 60%%.
		near, far := 0, 0
		for _, z := range out.Depth.Z {
			if z < 0.3 {
				near++
			}
			if z > 0.6 {
				far++
			}
		}
		if near == 0 {
			t.Errorf("%s: no foreground pixels", w.ID)
		}
		if far == 0 {
			t.Errorf("%s: no background pixels", w.ID)
		}
	}
}

func TestFramesAreDeterministicAndAnimated(t *testing.T) {
	rd := &render.Renderer{}
	w, _ := ByID("G1")
	a := w.Render(rd, 5, 80, 45)
	b := w.Render(rd, 5, 80, 45)
	if !a.Color.Equal(b.Color) {
		t.Fatal("same frame differs between renders")
	}
	c := w.Render(rd, 35, 80, 45)
	if a.Color.Equal(c.Color) {
		t.Fatal("distant frames should differ (scene is animated)")
	}
}

func TestNegativeFrameClamped(t *testing.T) {
	w, _ := ByID("G2")
	scA, camA := w.Frame(-5)
	scB, camB := w.Frame(0)
	if len(scA.Objects) != len(scB.Objects) || camA != camB {
		t.Fatal("negative frame index should clamp to 0")
	}
}

func TestTemporalCoherence(t *testing.T) {
	// Consecutive frames must be similar enough for motion compensation to
	// pay off: mean absolute luma difference well below a scene change.
	rd := &render.Renderer{}
	for _, id := range []string{"G3", "G10"} {
		w, _ := ByID(id)
		a := luma(w.Render(rd, 10, 160, 90).Color)
		b := luma(w.Render(rd, 11, 160, 90).Color)
		diff := 0.0
		for i := range a {
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		diff /= float64(len(a))
		if diff > 20 {
			t.Errorf("%s: consecutive frames differ by %.1f luma levels on average", id, diff)
		}
		if diff == 0 {
			t.Errorf("%s: consecutive frames identical — no motion", id)
		}
	}
}

func TestString(t *testing.T) {
	w, _ := ByID("G9")
	if s := w.String(); s != "G9 (Farming Simulator 22, Simulation)" {
		t.Errorf("String() = %q", s)
	}
}

func TestMotionMagnitudeOrdering(t *testing.T) {
	// Genre sanity: the racing workload (camera at 16 units/s) must move
	// far more pixels per frame than the stealth workload (1.2 units/s).
	rd := &render.Renderer{}
	meanAbsDiff := func(id string) float64 {
		w, _ := ByID(id)
		a := luma(w.Render(rd, 40, 160, 90).Color)
		b := luma(w.Render(rd, 48, 160, 90).Color)
		sum := 0.0
		for i := range a {
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum / float64(len(a))
	}
	racing := meanAbsDiff("G10")
	stealth := meanAbsDiff("G8")
	if racing <= stealth {
		t.Errorf("racing motion %.2f should exceed stealth %.2f", racing, stealth)
	}
	t.Logf("8-frame luma change: racing %.2f, stealth %.2f", racing, stealth)
}

func TestEveryGameHasCenterBiasedForeground(t *testing.T) {
	// The design premise: every workload keeps its important object near
	// the horizontal screen center. Only the x-centroid is asserted: the
	// nearest pixels are legitimately dominated by the ground plane at the
	// frame bottom — exactly the paper's challenge ② that the detector's
	// Gaussian weighting exists to discount.
	rd := &render.Renderer{}
	for _, w := range All() {
		out := w.Render(rd, 30, 160, 90)
		type px struct {
			x, y int
			z    float32
		}
		var all []px
		for y := 0; y < 90; y++ {
			for x := 0; x < 160; x++ {
				all = append(all, px{x, y, out.Depth.Z[y*out.Depth.Stride+x]})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].z < all[j].z })
		n := len(all) / 10
		var cx, cy float64
		for _, p := range all[:n] {
			cx += float64(p.x)
			cy += float64(p.y)
		}
		cx /= float64(n)
		cy /= float64(n)
		if cx < 40 || cx > 120 {
			t.Errorf("%s: near-pixel x-centroid %.0f (y %.0f) outside the central band", w.ID, cx, cy)
		}
	}
}
