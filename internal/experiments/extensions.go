package experiments

import (
	"fmt"
	"io"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/pipeline"
)

// Extension experiments beyond the paper's figures: sensitivity studies on
// the design knobs DESIGN.md calls out. Registered under ext* ids.

// ExtGOP sweeps the keyframe interval: shorter GOPs (fast-paced games,
// §II-B) hit the SOTA with more reference-frame peaks, while our design is
// GOP-insensitive.
func ExtGOP(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := games.ByID("G3")
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "GOP\tours J/s\tSOTA J/s\tours mean upscale(ms)\tSOTA mean upscale(ms)\tSOTA PSNR floor(dB)")
	for _, gop := range []int{6, 12, 30, 60} {
		// Simulate one (shortened) GOP; extrapolate energy/latency to the
		// nominal interval.
		simFrames := opt.Frames
		if simFrames > gop {
			simFrames = gop
		}
		cfg := pipeline.Config{Game: g, SimDiv: opt.SimDiv, GOPSize: gop, Metrics: opt.Metrics, Flight: opt.Flight}
		gs, err := pipeline.NewGameStream(cfg)
		if err != nil {
			return err
		}
		ours, err := gs.Run(simFrames)
		if err != nil {
			return err
		}
		nr, err := nemo.New(cfg)
		if err != nil {
			return err
		}
		base, err := nr.Run(simFrames)
		if err != nil {
			return err
		}
		oursE, err := ours.GOPEnergyTotal(gop)
		if err != nil {
			return err
		}
		baseE, err := base.GOPEnergyTotal(gop)
		if err != nil {
			return err
		}
		// Per-second energy: a GOP of size g at 60 FPS lasts g/60 s.
		secs := float64(gop) / 60
		oursUp := meanUpscaleAll(ours, gop)
		baseUp := meanUpscaleAll(base, gop)
		floor := base.Frames[len(base.Frames)-1].PSNR
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			gop, oursE/secs, baseE/secs, ms(oursUp), ms(baseUp), floor)
	}
	return tw.Flush()
}

// meanUpscaleAll synthesises the mean upscale latency of a nominal GOP from
// the run's per-type means.
func meanUpscaleAll(r *pipeline.Result, gop int) time.Duration {
	ref, err := r.MeanUpscale(codec.Intra)
	if err != nil {
		return 0
	}
	non, err := r.MeanUpscale(codec.Inter)
	if err != nil {
		non = ref
	}
	return (ref + time.Duration(gop-1)*non) / time.Duration(gop)
}

// ExtAdapt demonstrates the adaptive RoI window controller under a thermal
// throttling episode: the NPU slows to 70% mid-session and later recovers;
// the controller keeps the upscale stage inside the deadline throughout.
func ExtAdapt(w io.Writer, _ Options) error {
	p := device.TabS8()
	ctl := device.NewWindowController(p.MinRoIWindow(2), p.MaxRoIWindow(device.RealTimeDeadline))
	tw := newTab(w)
	fmt.Fprintln(tw, "phase\tframe\twindow(px)\tupscale(ms)\tdeadline met")
	misses := 0
	logAt := map[int]bool{0: true, 10: true, 40: true, 70: true, 100: true, 130: true, 170: true}
	for i := 0; i < 180; i++ {
		throttle := 1.0
		phase := "nominal"
		if i >= 40 && i < 120 {
			throttle = 1 / 0.7
			phase = "throttled"
		}
		side := ctl.Side()
		lat := time.Duration(float64(p.SRLatency(side*side)) * throttle)
		met := lat <= device.RealTimeDeadline
		if !met {
			misses++
		}
		if logAt[i] {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%v\n", phase, i, side, ms(lat), met)
		}
		ctl.Observe(lat)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "deadline misses during 180 frames with a 30%% throttle episode: %d (static window would miss all 80 throttled frames)\n", misses)
	return nil
}

// ExtGantt renders the client-engine occupancy of one of our frames as an
// ASCII Gantt chart: NPU and GPU overlap (the parallel upscale of Fig. 9),
// the decoder precedes them, the display follows.
func ExtGantt(w io.Writer, _ Options) error {
	dev := device.TabS8()
	dec := dev.HWDecodeLatency(1280 * 720)
	sr := dev.SRLatency(300 * 300)
	gpu := dev.GPUBilinearLatency(2560*1440 - 600*600)
	t2 := dec + max(sr, gpu)
	t3 := t2 + dev.MergeLatency()
	end := t3 + dev.DisplayActive()
	d := &frametrace.Dump{Frames: []frametrace.DumpFrame{{Spans: []frametrace.Span{
		{Lane: "hwdec", Name: "decode", End: dec},
		{Lane: "npu", Name: "sr-roi", Start: dec, End: dec + sr},
		{Lane: "gpu", Name: "bilinear", Start: dec, End: dec + gpu},
		{Lane: "gpu", Name: "merge", Start: t2, End: t3},
		{Lane: "display", Name: "display", Start: t3, End: end},
	}}}}
	if err := d.Render(w, 72); err != nil {
		return err
	}
	fmt.Fprintf(w, "client total: %.2f ms (budget 16.66 ms per stage, pipelined)\n", ms(end))
	return nil
}
