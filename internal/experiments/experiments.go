// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the motivation figures) from the library's own
// primitives. Each experiment writes the same rows/series the paper reports
// to an io.Writer; `cmd/gssr` exposes them on the command line and the
// repo-root benchmarks time them.
//
// Absolute numbers come from the calibrated device model and from real
// pixel processing at simulation scale (see pipeline.Config.SimDiv);
// EXPERIMENTS.md records paper-vs-measured for each id.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/upscale"
)

// Options tunes experiment scale. The zero value gives fast,
// test-suite-friendly runs; the CLI can raise fidelity.
type Options struct {
	// SimDiv is the pixel-simulation divisor (default 8; 4 is slower and
	// closer to nominal resolution).
	SimDiv int
	// GOPSize is the simulated keyframe interval (default 12; the paper
	// uses 60 — energy figures extrapolate via Result.GOPEnergy).
	GOPSize int
	// Frames per pipeline run (default GOPSize).
	Frames int
	// GameIDs restricts per-game experiments (default all ten).
	GameIDs []string
	// OutDir, when non-empty, receives PGM image dumps from fig8.
	OutDir string
	// Metrics, when non-nil, receives engine telemetry from every pipeline
	// run an experiment performs (see internal/telemetry). Nil is a no-op.
	Metrics *telemetry.Registry
	// Flight, when non-nil, attaches the per-frame flight recorder to every
	// pipeline run an experiment performs (see internal/frametrace): stage
	// spans, deadline/SLO accounting and a dumpable postmortem window. The
	// runs share the recorder, so its Report spans the whole experiment.
	// Nil is a no-op.
	Flight *frametrace.Recorder
}

func (o Options) withDefaults() Options {
	if o.SimDiv <= 0 {
		o.SimDiv = 8
	}
	if o.GOPSize <= 0 {
		o.GOPSize = 12
	}
	if o.Frames <= 0 {
		o.Frames = o.GOPSize
	}
	if len(o.GameIDs) == 0 {
		for _, g := range games.All() {
			o.GameIDs = append(o.GameIDs, g.ID)
		}
	}
	return o
}

// Runner is an experiment entry point.
type Runner func(w io.Writer, opt Options) error

// registry maps experiment ids to runners, in presentation order.
var registry = []struct {
	ID, Title string
	Run       Runner
}{
	{"tab1", "Table I: game workloads", TableI},
	{"fig2", "Fig 2: SOTA SR execution timeline across 3 GOPs", Fig2},
	{"fig3a", "Fig 3a: SR latency & quality vs upscale factor", Fig3a},
	{"fig3b", "Fig 3b: SR latency vs input resolution", Fig3b},
	{"fig7", "Fig 7: desired RoI window sizes", Fig7},
	{"fig8", "Fig 8: depth-map pre-processing stages", Fig8},
	{"fig10a", "Fig 10a: upscaling speedup over SOTA", Fig10a},
	{"fig10b", "Fig 10b: MTP latency improvement (reference frames)", Fig10b},
	{"fig10c", "Fig 10c: MTP latency breakdown (G3, Pixel 7 Pro)", Fig10c},
	{"fig11", "Fig 11: overall energy savings vs SOTA", Fig11},
	{"fig12", "Fig 12: energy consumption breakdown", Fig12},
	{"fig13", "Fig 13: transient PSNR across GOPs (G3)", Fig13},
	{"fig14a", "Fig 14a: PSNR gain vs SOTA", Fig14a},
	{"fig14b", "Fig 14b: LPIPS improvement vs SOTA", Fig14b},
	{"fig15", "Fig 15: RoI-guided SR-integrated decoder (future work)", Fig15},
	{"misc", "§IV-B2 server-side observations", Misc},
	{"extgop", "Extension: keyframe-interval sensitivity (§II-B)", ExtGOP},
	{"extadapt", "Extension: adaptive RoI window under throttling", ExtAdapt},
	{"extgantt", "Extension: upscale-engine occupancy timeline (ours)", ExtGantt},
}

// IDs returns the experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Title returns the human-readable name of an experiment.
func Title(id string) (string, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Title, nil
		}
	}
	return "", fmt.Errorf("experiments: unknown id %q", id)
}

// Run executes one experiment by id.
func Run(id string, w io.Writer, opt Options) error {
	for _, e := range registry {
		if e.ID == id {
			if _, err := fmt.Fprintf(w, "== %s ==\n", e.Title); err != nil {
				return err
			}
			return e.Run(w, opt)
		}
	}
	return fmt.Errorf("experiments: unknown id %q (want one of %v)", id, IDs())
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, opt Options) error {
	for _, e := range registry {
		if err := Run(e.ID, w, opt); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// --- shared helpers ----------------------------------------------------------

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPair runs ours and NEMO on one stream.
func runPair(opt Options, gameID string, dev *device.Profile) (ours, base *pipeline.Result, err error) {
	g, err := games.ByID(gameID)
	if err != nil {
		return nil, nil, err
	}
	res, err := pipeline.Run(pipeline.Config{
		Game:    g,
		Device:  dev,
		SimDiv:  opt.SimDiv,
		GOPSize: opt.GOPSize,
		Metrics: opt.Metrics,
		Flight:  opt.Flight,
	}, opt.Frames, pipeline.Ours(), nemo.New())
	if err != nil {
		return nil, nil, err
	}
	return res[0], res[1], nil
}

// TableI prints the game workload table.
func TableI(w io.Writer, _ Options) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "ID\tGame\tGenre")
	for _, g := range games.All() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", g.ID, g.Name, g.Genre)
	}
	return tw.Flush()
}

// Fig2 reproduces the motivation timeline: the SOTA's per-frame SR
// execution across three consecutive GOPs, showing reference-frame latency
// peaks far above the 16.66 ms budget.
func Fig2(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	dev := device.TabS8()
	lrPx := 1280 * 720
	hrPx := 2560 * 1440
	gop := 6 // compressed GOP for a readable plot; peaks per GOP as in the paper
	fmt.Fprintf(w, "SOTA upscaling latency per frame, 720p→1440p, %s, 3 GOPs of %d:\n", dev.Name, gop)
	tw := newTab(w)
	fmt.Fprintln(tw, "frame\ttype\tlatency(ms)\tdeadline(16.66ms)")
	var total time.Duration
	for i := 0; i < 3*gop; i++ {
		var lat time.Duration
		ft := "non-ref"
		if i%gop == 0 {
			lat = dev.SRLatency(lrPx)
			ft = "reference"
		} else {
			lat = dev.CPUUpscaleLatency(hrPx)
		}
		verdict := "OK"
		if lat > device.RealTimeDeadline {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%s\n", i, ft, ms(lat), verdict)
		total += lat
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "mean output rate: %.1f FPS (real-time requires 60)\n",
		float64(3*gop)/total.Seconds())
	return nil
}

// Fig3a sweeps the upscale factor at a fixed 1440p target: latency from the
// device model, quality from real downsample→upscale reconstruction.
func Fig3a(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	dev := device.TabS8()
	g, err := games.ByID("G3")
	if err != nil {
		return err
	}
	// Ground truth at simulated 1440p.
	cfg := pipeline.Config{Game: g, SimDiv: opt.SimDiv}.WithDefaults()
	hrW := cfg.LRWidth / opt.SimDiv * 2
	hrH := cfg.LRHeight / opt.SimDiv * 2
	sc, cam := g.Frame(30)
	gt := (&render.Renderer{}).Render(sc, cam, hrW, hrH)

	cases := []struct {
		label  string
		factor float64
	}{
		{"1080p x1.33", 4.0 / 3}, {"960p x1.5", 1.5}, {"720p x2", 2},
		{"480p x3", 3}, {"360p x4", 4}, {"240p x6", 6},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "input\tfactor\tlatency(ms)\tPSNR(dB)\treal-time")
	for _, c := range cases {
		inW := int(float64(hrW)/c.factor + 0.5)
		inH := int(float64(hrH)/c.factor + 0.5)
		lo, err := upscale.Resize(gt.Color, inW, inH, upscale.Bilinear)
		if err != nil {
			return err
		}
		up, err := upscale.Resize(lo, hrW, hrH, upscale.Lanczos3)
		if err != nil {
			return err
		}
		p, err := metrics.PSNR(gt.Color, up)
		if err != nil {
			return err
		}
		// Nominal input pixels for the latency model.
		nomPx := int(float64(1280*720) * 4 / (c.factor * c.factor))
		lat := dev.SRLatencyScaled(nomPx, c.factor)
		rt := "no"
		if lat <= device.RealTimeDeadline {
			rt = "yes"
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.1f\t%.2f\t%s\n", c.label, c.factor, ms(lat), p, rt)
	}
	return tw.Flush()
}

// Fig3b sweeps the input resolution at ×2: the latency knee that motivates
// RoI-sized inputs.
func Fig3b(w io.Writer, _ Options) error {
	dev := device.TabS8()
	cases := []struct {
		label string
		w, h  int
	}{
		{"240p", 320, 240}, {"300x300 (RoI)", 300, 300}, {"360p", 640, 360},
		{"480p", 854, 480}, {"540p", 960, 540}, {"720p", 1280, 720},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "input\tpixels\tlatency(ms)\treal-time")
	for _, c := range cases {
		lat := dev.SRLatency(c.w * c.h)
		rt := "no"
		if lat <= device.RealTimeDeadline {
			rt = "yes"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\n", c.label, c.w*c.h, ms(lat), rt)
	}
	return tw.Flush()
}

// Fig7 prints the §IV-B1 foveal minimum and capability maximum RoI windows.
func Fig7(w io.Writer, _ Options) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "device\tPPI\tmin RoI (foveal, LR px)\tmax RoI (16.66ms, LR px)")
	for _, p := range device.Profiles() {
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\n", p.Name, p.PPI,
			p.MinRoIWindow(2), p.MaxRoIWindow(device.RealTimeDeadline))
	}
	return tw.Flush()
}

// Fig8 runs the depth pre-processing stages on one frame of each requested
// game, reports the stage statistics and dumps PGM visualisations.
func Fig8(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	det, err := roi.New(roi.Config{WindowW: 36, WindowH: 36})
	if err != nil {
		return err
	}
	cfg := pipeline.Config{SimDiv: opt.SimDiv}.WithDefaults()
	simW := cfg.LRWidth / opt.SimDiv
	simH := cfg.LRHeight / opt.SimDiv
	tw := newTab(w)
	fmt.Fprintln(tw, "game\tthreshold\tselected layer\tlayer sums\tRoI")
	for _, id := range opt.GameIDs {
		g, err := games.ByID(id)
		if err != nil {
			return err
		}
		out := g.Render(&render.Renderer{}, 30, simW, simH)
		rect, dbg, err := det.DetectDebug(out.Depth)
		if err != nil {
			return err
		}
		sums := make([]string, len(dbg.LayerSums))
		for i, s := range dbg.LayerSums {
			sums[i] = fmt.Sprintf("%.0f", s)
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%v\t%v\n", id, dbg.Threshold, dbg.Selected, sums, rect)
		if opt.OutDir != "" {
			if err := dumpStages(opt.OutDir, id, out, dbg); err != nil {
				return err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if opt.OutDir != "" {
		fmt.Fprintf(w, "stage visualisations written to %s/fig8_<game>_<stage>.pgm\n", opt.OutDir)
	}
	return nil
}

// dumpStages writes the Fig. 8 intermediate planes as PGM images.
func dumpStages(dir, id string, out render.Output, dbg *roi.Debug) error {
	if err := out.Depth.SavePGM(filepath.Join(dir, fmt.Sprintf("fig8_%s_depth.pgm", id))); err != nil {
		return err
	}
	for _, st := range []struct {
		name  string
		plane []float64
	}{
		{"nearness", dbg.Nearness},
		{"foreground", dbg.Foreground},
		{"weighted", dbg.Weighted},
		{"selected", dbg.SearchMap},
	} {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("fig8_%s_%s.pgm", id, st.name)))
		if err != nil {
			return err
		}
		if err := frame.WriteGrayPGM(f, st.plane, dbg.W, dbg.H); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
