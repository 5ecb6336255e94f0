package render_test

import (
	"fmt"
	"strings"
	"testing"

	"gamestreamsr/internal/games"
	"gamestreamsr/internal/render"
)

// The noise cache pays off on one input property: consecutive pixels of a
// surface sample the same lattice cell of an octave. The band limit makes
// every live octave's cell at least two pixels wide, so the property holds
// by construction inside a surface and breaks at cell borders and where the
// row crosses from one textured object to another. This measures the share
// of octave samples the cache serves, per octave, on the frames the bench
// workloads render (G3 at the stream and ground-truth geometries) and on
// G10, whose barriers and gantry put the most silhouettes in a row; run with
// -v to print it (DESIGN.md §26 records it).
func TestNoiseCacheShare(t *testing.T) {
	frames := []int{0, 480, 960, 1440, 1920, 2400}
	if testing.Short() {
		frames = frames[:1]
	}
	for _, c := range []struct {
		game string
		w, h int
		// floor is the share of all samples the cache must serve: well
		// below what it does, so that it trips only when the property goes.
		floor float64
	}{
		{"G3", 320, 180, 0.5},
		{"G3", 640, 360, 0.5},
		{"G10", 640, 360, 0.5},
	} {
		t.Run(fmt.Sprintf("%s_%dx%d", c.game, c.w, c.h), func(t *testing.T) {
			t.Parallel()
			g, err := games.ByID(c.game)
			if err != nil {
				t.Fatal(err)
			}
			var served, samples [render.NoiseSlots]int
			for _, i := range frames {
				sc, cam := g.Frame(i)
				s, n := render.NoiseCacheShare(sc, cam, c.w, c.h)
				for o := range s {
					served[o] += s[o]
					samples[o] += n[o]
				}
			}
			var line strings.Builder
			allServed, all := 0, 0
			for o, n := range samples {
				if n == 0 {
					continue
				}
				allServed, all = allServed+served[o], all+n
				fmt.Fprintf(&line, " octave %d %.1f%% of %d;", o, 100*float64(served[o])/float64(n), n)
			}
			share := float64(allServed) / float64(all)
			t.Logf("%d frames: served %.1f%% of %d samples;%s", len(frames), 100*share, all, line.String())
			if share < c.floor {
				t.Errorf("the noise cache serves %.1f%% of octave samples, want at least %.0f%%", 100*share, 100*c.floor)
			}
		})
	}
}
