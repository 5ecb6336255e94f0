package experiments

import (
	"fmt"
	"io"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/network"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/srdecoder"
	"gamestreamsr/internal/stats"
	"gamestreamsr/internal/upscale"
)

// Fig10a reports the upscaling-stage speedups and output frame rates of our
// design over the SOTA for reference frames, non-reference frames and whole
// GOPs, per device. The paper notes the speedup is game-independent; we run
// G3 and report the model-exact ratios.
func Fig10a(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	tw := newTab(w)
	fmt.Fprintln(tw, "device\tref speedup\tnon-ref speedup\tGOP speedup\tSOTA ref FPS\tours ref FPS")
	for _, dev := range device.Profiles() {
		ours, base, err := runPair(opt, "G3", dev)
		if err != nil {
			return err
		}
		oursRef, err := ours.MeanUpscale(codec.Intra)
		if err != nil {
			return err
		}
		baseRef, err := base.MeanUpscale(codec.Intra)
		if err != nil {
			return err
		}
		oursNon, err := ours.MeanUpscale(codec.Inter)
		if err != nil {
			return err
		}
		baseNon, err := base.MeanUpscale(codec.Inter)
		if err != nil {
			return err
		}
		// GOP speedup over the paper's 60-frame GOP composition.
		gop := func(ref, non float64) float64 { return ref + 59*non }
		gopSpeed := gop(ms(baseRef), ms(baseNon)) / gop(ms(oursRef), ms(oursNon))
		oursFPS, err := ours.UpscaleFPS(codec.Intra)
		if err != nil {
			return err
		}
		baseFPS, err := base.UpscaleFPS(codec.Intra)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1fx\t%.2fx\t%.2fx\t%.1f\t%.1f\n",
			dev.Name,
			float64(baseRef)/float64(oursRef),
			float64(baseNon)/float64(oursNon),
			gopSpeed, baseFPS, oursFPS)
	}
	return tw.Flush()
}

// Fig10b reports end-to-end MTP latency improvement for reference frames
// per device, plus the absolute MTP levels against the paper's 70 ms/100 ms
// thresholds.
func Fig10b(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	tw := newTab(w)
	fmt.Fprintln(tw, "device\tours ref MTP(ms)\tSOTA ref MTP(ms)\timprovement\tours non-ref MTP(ms)\tSOTA non-ref MTP(ms)")
	for _, dev := range device.Profiles() {
		ours, base, err := runPair(opt, "G3", dev)
		if err != nil {
			return err
		}
		or, err := ours.MeanMTP(codec.Intra)
		if err != nil {
			return err
		}
		br, err := base.MeanMTP(codec.Intra)
		if err != nil {
			return err
		}
		on, err := ours.MeanMTP(codec.Inter)
		if err != nil {
			return err
		}
		bn, err := base.MeanMTP(codec.Inter)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1fx\t%.1f\t%.1f\n",
			dev.Name, ms(or), ms(br), float64(br)/float64(or), ms(on), ms(bn))
	}
	return tw.Flush()
}

// Fig10c prints the stage-by-stage MTP breakdown for G3 on the Pixel 7 Pro,
// ours vs SOTA, reference frames.
func Fig10c(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	ours, base, err := runPair(opt, "G3", device.Pixel7Pro())
	if err != nil {
		return err
	}
	oursRef := ours.ByType(codec.Intra)
	baseRef := base.ByType(codec.Intra)
	if len(oursRef) == 0 || len(baseRef) == 0 {
		return fmt.Errorf("experiments: no reference frames in run")
	}
	o := oursRef[0].Stages
	b := baseRef[0].Stages
	tw := newTab(w)
	fmt.Fprintln(tw, "stage\tours(ms)\tSOTA(ms)")
	names := o.Names()
	ov := o.Values()
	bv := b.Values()
	for i := range names {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", names[i], ms(ov[i]), ms(bv[i]))
	}
	fmt.Fprintf(tw, "TOTAL (MTP)\t%.1f\t%.1f\n", ms(o.MTP()), ms(b.MTP()))
	return tw.Flush()
}

// Fig11 reports overall energy savings per game and device over a nominal
// 60-frame GOP.
func Fig11(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	tw := newTab(w)
	fmt.Fprintln(tw, "game\tdevice\tours(J/GOP)\tSOTA(J/GOP)\tsavings")
	for _, dev := range device.Profiles() {
		sum := 0.0
		for _, id := range opt.GameIDs {
			ours, base, err := runPair(opt, id, dev)
			if err != nil {
				return err
			}
			oe, err := ours.GOPEnergyTotal(60)
			if err != nil {
				return err
			}
			be, err := base.GOPEnergyTotal(60)
			if err != nil {
				return err
			}
			s := 1 - oe/be
			sum += s
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.1f%%\n", id, dev.Name, oe, be, s*100)
		}
		fmt.Fprintf(tw, "MEAN\t%s\t\t\t%.1f%%\n", dev.Name, sum/float64(len(opt.GameIDs))*100)
	}
	return tw.Flush()
}

// Fig12 prints the per-rail energy breakdown (shares of total) for G3 on
// the Pixel 7 Pro, ours vs SOTA, over a nominal 60-frame GOP.
func Fig12(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	ours, base, err := runPair(opt, "G3", device.Pixel7Pro())
	if err != nil {
		return err
	}
	oe, err := ours.GOPEnergy(60)
	if err != nil {
		return err
	}
	be, err := base.GOPEnergy(60)
	if err != nil {
		return err
	}
	shares := func(m map[device.Rail]float64) (total float64, upscale, decode, dispNet float64) {
		for _, j := range m {
			total += j
		}
		if total == 0 {
			return
		}
		upscale = (m[device.RailNPU] + m[device.RailGPU]) / total
		decode = (m[device.RailHWDecoder] + m[device.RailCPU]) / total
		dispNet = (m[device.RailDisplay] + m[device.RailNetwork]) / total
		return
	}
	// For the SOTA, CPU covers decode AND non-reference upscaling: split it
	// the way the paper's Fig. 12 does by attributing the SW decoder time
	// share to decode. We approximate using per-frame rails: NPU is upscale,
	// CPU is decode+upscale mixed — report the combined rails and note it.
	ot, ou, od, odn := shares(oe)
	bt, bu, bd, bdn := shares(be)
	tw := newTab(w)
	fmt.Fprintln(tw, "component\tours\tSOTA")
	fmt.Fprintf(tw, "upscaling (NPU+GPU)\t%.0f%%\t%.0f%%\n", ou*100, bu*100)
	fmt.Fprintf(tw, "decode (+SOTA CPU upscale)\t%.0f%%\t%.0f%%\n", od*100, bd*100)
	fmt.Fprintf(tw, "display+network\t%.0f%%\t%.0f%%\n", odn*100, bdn*100)
	fmt.Fprintf(tw, "total (J/GOP)\t%.2f\t%.2f\n", ot, bt)
	if err := tw.Flush(); err != nil {
		return err
	}
	// Decompose the SOTA's CPU rail into decode vs upscale using the
	// latency model so the paper's 46%-decode share is visible.
	dev := device.Pixel7Pro()
	lrPx := 1280 * 720
	hrPx := 2560 * 1440
	decJ := 60 * dev.SWDecodeLatency(lrPx).Seconds() * dev.Power[device.RailCPU]
	upJ := 59 * dev.CPUUpscaleLatency(hrPx).Seconds() * dev.CPUUpscaleWatts
	fmt.Fprintf(w, "SOTA CPU rail split: decode %.2f J (%.0f%% of total), MV/residual upscale %.2f J (%.0f%% of total)\n",
		decJ, decJ/bt*100, upJ, upJ/bt*100)
	fmt.Fprintf(w, "ours decode share: %.1f%% (paper: 6%%); SOTA decode share: %.1f%% (paper: 46%%)\n",
		oe[device.RailHWDecoder]/ot*100, decJ/bt*100)
	return nil
}

// Fig13 prints the per-frame PSNR series across three consecutive GOPs for
// G3: ours (flat, above 30 dB) vs SOTA (sawtooth decay).
func Fig13(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := games.ByID("G3")
	if err != nil {
		return err
	}
	cfg := pipeline.Config{Game: g, SimDiv: opt.SimDiv, GOPSize: opt.GOPSize, Metrics: opt.Metrics, Flight: opt.Flight}
	n := 3 * opt.GOPSize
	res, err := pipeline.Run(cfg, n, pipeline.Ours(), nemo.New())
	if err != nil {
		return err
	}
	ours, base := res[0], res[1]
	tw := newTab(w)
	fmt.Fprintln(tw, "frame\ttype\tours PSNR(dB)\tSOTA PSNR(dB)")
	for i := 0; i < n; i++ {
		fmt.Fprintf(tw, "%d\t%v\t%.2f\t%.2f\n",
			i, ours.Frames[i].Type, ours.Frames[i].PSNR, base.Frames[i].PSNR)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	op, _ := ours.MeanPSNR()
	bp, _ := base.MeanPSNR()
	fmt.Fprintf(w, "mean: ours %.2f dB, SOTA %.2f dB (gain %.2f dB)\n", op, bp, op-bp)
	// The sawtooth shows up as spread: one Summary per series answers
	// several quantile queries from a single sort.
	os, err := stats.NewSummary(psnrSeries(ours))
	if err != nil {
		return err
	}
	bs, err := stats.NewSummary(psnrSeries(base))
	if err != nil {
		return err
	}
	op5, _ := os.Percentile(5)
	bp5, _ := bs.Percentile(5)
	fmt.Fprintf(w, "spread: ours p5 %.2f dB (min %.2f), SOTA p5 %.2f dB (min %.2f)\n",
		op5, os.Min(), bp5, bs.Min())
	return nil
}

// psnrSeries collects a run's per-frame PSNR values.
func psnrSeries(r *pipeline.Result) []float64 {
	out := make([]float64, len(r.Frames))
	for i, f := range r.Frames {
		out[i] = f.PSNR
	}
	return out
}

// Fig14a reports the per-game mean PSNR gain over the SOTA.
func Fig14a(w io.Writer, opt Options) error {
	return qualityTable(w, opt, "PSNR gain (dB, higher is better)",
		func(ours, base *pipeline.Result) (float64, error) {
			op, err := ours.MeanPSNR()
			if err != nil {
				return 0, err
			}
			bp, err := base.MeanPSNR()
			if err != nil {
				return 0, err
			}
			return op - bp, nil
		})
}

// Fig14b reports the per-game LPIPS-proxy improvement (SOTA − ours; positive
// means we are perceptually closer to the ground truth).
func Fig14b(w io.Writer, opt Options) error {
	return qualityTable(w, opt, "LPIPS improvement (SOTA−ours, higher is better)",
		func(ours, base *pipeline.Result) (float64, error) {
			ol, err := ours.MeanLPIPS()
			if err != nil {
				return 0, err
			}
			bl, err := base.MeanLPIPS()
			if err != nil {
				return 0, err
			}
			return bl - ol, nil
		})
}

func qualityTable(w io.Writer, opt Options, metric string, f func(ours, base *pipeline.Result) (float64, error)) error {
	opt = opt.withDefaults()
	tw := newTab(w)
	fmt.Fprintf(tw, "game\t%s\n", metric)
	sum := 0.0
	for _, id := range opt.GameIDs {
		ours, base, err := runPair(opt, id, device.TabS8())
		if err != nil {
			return err
		}
		v, err := f(ours, base)
		if err != nil {
			return err
		}
		sum += v
		fmt.Fprintf(tw, "%s\t%+.3f\n", id, v)
	}
	fmt.Fprintf(tw, "MEAN\t%+.3f\n", sum/float64(len(opt.GameIDs)))
	return tw.Flush()
}

// Fig15 evaluates the future-work SR-integrated decoder: energy versus both
// software pipelines and the RoI-interpolation-kernel ablation.
func Fig15(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	g, err := games.ByID("G3")
	if err != nil {
		return err
	}
	cfg := pipeline.Config{Game: g, SimDiv: opt.SimDiv, GOPSize: opt.GOPSize, Metrics: opt.Metrics, Flight: opt.Flight}
	kernels := []upscale.Kind{upscale.Bilinear, upscale.Bicubic, upscale.Lanczos3}
	vs := []pipeline.Variant{pipeline.Ours(), nemo.New()}
	for _, k := range kernels {
		vs = append(vs, srdecoder.New(k))
	}
	res, err := pipeline.Run(cfg, opt.Frames, vs...)
	if err != nil {
		return err
	}
	ours, base := res[0], res[1]

	tw := newTab(w)
	fmt.Fprintln(tw, "pipeline\tRoI kernel\tenergy(J/GOP)\tsaving vs SOTA\tmean PSNR(dB)")
	be, err := base.GOPEnergyTotal(60)
	if err != nil {
		return err
	}
	bp, _ := base.MeanPSNR()
	fmt.Fprintf(tw, "SOTA (NEMO)\t-\t%.2f\t-\t%.2f\n", be, bp)
	oe, err := ours.GOPEnergyTotal(60)
	if err != nil {
		return err
	}
	op, _ := ours.MeanPSNR()
	fmt.Fprintf(tw, "GameStreamSR\t-\t%.2f\t%.1f%%\t%.2f\n", oe, (1-oe/be)*100, op)
	for i, k := range kernels {
		fe, err := res[2+i].GOPEnergyTotal(60)
		if err != nil {
			return err
		}
		fp, _ := res[2+i].MeanPSNR()
		fmt.Fprintf(tw, "SR-integrated decoder\t%v\t%.2f\t%.1f%%\t%.2f\n", k, fe, (1-fe/be)*100, fp)
	}
	return tw.Flush()
}

// Misc reports the §IV-B2 server-side observations: GPU utilisation at the
// two render resolutions, the bandwidth saving of streaming 720p+RoI, and
// the eye-tracking power our depth approach avoids.
func Misc(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	srv := device.DefaultServer()
	fmt.Fprintf(w, "server GPU utilisation: %.0f%% at 1440p -> %.0f%% at 720p\n",
		srv.Utilization(2560*1440)*100, srv.Utilization(1280*720)*100)
	lo := pipeline.BitrateMbps(1280 * 720)
	hi := pipeline.BitrateMbps(2560 * 1440)
	saving, err := network.BandwidthSavings(int(lo*1e6), int(hi*1e6))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stream bandwidth: %.1f Mbps (720p+RoI) vs %.1f Mbps (2K) -> %.0f%% saving\n",
		lo, hi, saving*100)
	p := device.Pixel7Pro()
	fmt.Fprintf(w, "camera eye-tracking power avoided: %.1f W (%s)\n",
		p.Power[device.RailCamera], p.Name)
	fmt.Fprintf(w, "RoI detection latency on a 720p depth map: %.2f ms (hidden in the %.1f ms render headroom)\n",
		ms(srv.RoIDetectLatency(1280*720)), ms(device.RealTimeDeadline-srv.RenderLatency(1280*720)))
	return nil
}
