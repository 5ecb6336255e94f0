// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each regenerating the artefact through the experiment runner
// (timing includes real rendering, coding, RoI detection and upscaling at
// simulation scale), plus ablation benches for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The figures' actual rows are printed by `gssr run <id>`; these benches
// exist so regenerating every artefact is part of the measured surface.
package gamestreamsr_test

import (
	"io"
	"testing"

	gssr "gamestreamsr"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/experiments"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/srdecoder"
	"gamestreamsr/internal/testkit"
	"gamestreamsr/internal/upscale"
)

// benchOpt keeps every figure bench at a few hundred milliseconds.
func benchOpt() experiments.Options {
	return experiments.Options{SimDiv: 8, GOPSize: 4, Frames: 4, GameIDs: []string{"G3"}}
}

func runExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one bench per paper artefact ---------------------------------------------

func BenchmarkTableIWorkloads(b *testing.B)        { runExperiment(b, "tab1", benchOpt()) }
func BenchmarkFig2Timeline(b *testing.B)           { runExperiment(b, "fig2", benchOpt()) }
func BenchmarkFig3aUpscaleFactors(b *testing.B)    { runExperiment(b, "fig3a", benchOpt()) }
func BenchmarkFig3bInputResolutions(b *testing.B)  { runExperiment(b, "fig3b", benchOpt()) }
func BenchmarkFig7RoIWindows(b *testing.B)         { runExperiment(b, "fig7", benchOpt()) }
func BenchmarkFig8DepthPreprocessing(b *testing.B) { runExperiment(b, "fig8", benchOpt()) }
func BenchmarkFig10aSpeedup(b *testing.B)          { runExperiment(b, "fig10a", benchOpt()) }
func BenchmarkFig10bMTP(b *testing.B)              { runExperiment(b, "fig10b", benchOpt()) }
func BenchmarkFig10cBreakdown(b *testing.B)        { runExperiment(b, "fig10c", benchOpt()) }
func BenchmarkFig11Energy(b *testing.B)            { runExperiment(b, "fig11", benchOpt()) }
func BenchmarkFig12EnergyBreakdown(b *testing.B)   { runExperiment(b, "fig12", benchOpt()) }
func BenchmarkFig13TransientPSNR(b *testing.B)     { runExperiment(b, "fig13", benchOpt()) }
func BenchmarkFig14aPSNR(b *testing.B)             { runExperiment(b, "fig14a", benchOpt()) }
func BenchmarkFig14bLPIPS(b *testing.B)            { runExperiment(b, "fig14b", benchOpt()) }
func BenchmarkFig15SRDecoder(b *testing.B)         { runExperiment(b, "fig15", benchOpt()) }
func BenchmarkMiscServerSide(b *testing.B)         { runExperiment(b, "misc", benchOpt()) }

// --- extension-study benches -----------------------------------------------------

func BenchmarkExtGOPSensitivity(b *testing.B) { runExperiment(b, "extgop", benchOpt()) }
func BenchmarkExtAdaptiveWindow(b *testing.B) { runExperiment(b, "extadapt", benchOpt()) }
func BenchmarkExtEngineTimeline(b *testing.B) { runExperiment(b, "extgantt", benchOpt()) }

// --- end-to-end pipeline benches ------------------------------------------------

func benchPipelineFrame(b *testing.B, v pipeline.Variant) {
	b.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{Game: g, SimDiv: 8, GOPSize: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(cfg, 4, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineGameStreamSR(b *testing.B) { benchPipelineFrame(b, pipeline.Ours()) }

func BenchmarkPipelineNEMO(b *testing.B) { benchPipelineFrame(b, nemo.New()) }

func BenchmarkPipelineSRDecoder(b *testing.B) { benchPipelineFrame(b, srdecoder.New(upscale.Bicubic)) }

// --- staged-engine throughput benches --------------------------------------------
//
// End-to-end Run throughput of the three frame-loop variants over a full
// two-GOP stream: the workload the staged pipeline engine overlaps across
// server/client/measure stages. Before/after numbers for the engine refactor
// are recorded in BENCH_pipeline.json.

func benchRun(b *testing.B, vs ...pipeline.Variant) {
	b.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(pipeline.Config{Game: g, SimDiv: 8, GOPSize: 4}, 8, vs...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGameStreamRun(b *testing.B) { benchRun(b, pipeline.Ours()) }

func BenchmarkNEMORun(b *testing.B) { benchRun(b, nemo.New()) }

func BenchmarkSRDecoderRun(b *testing.B) { benchRun(b, srdecoder.New(upscale.Bicubic)) }

// BenchmarkOnePassRun is the three variants above on one server pass and
// one ground truth: against their sum, what the shared stages save.
func BenchmarkOnePassRun(b *testing.B) {
	benchRun(b, pipeline.Ours(), nemo.New(), srdecoder.New(upscale.Bicubic))
}

// --- ablation benches (design choices in DESIGN.md §5) ---------------------------

// RoI window size sweep: the latency/quality knob of §IV-B1.
func BenchmarkAblationRoIWindow(b *testing.B) {
	g, _ := games.ByID("G3")
	out := g.Render(&render.Renderer{}, 30, 320, 180)
	for _, win := range []int{24, 48, 72, 96} {
		b.Run(itoa(win), func(b *testing.B) {
			det, err := roi.New(roi.Config{WindowW: win, WindowH: win})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(out.Depth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Coarse-stride sweep: Algorithm 1's coarse/fine split vs exhaustive search.
func BenchmarkAblationSearchStride(b *testing.B) {
	g, _ := games.ByID("G3")
	out := g.Render(&render.Renderer{}, 30, 320, 180)
	for _, stride := range []int{1, 8, 24, 36} {
		b.Run(itoa(stride), func(b *testing.B) {
			det, err := roi.New(roi.Config{WindowW: 72, WindowH: 72, CoarseStride: stride})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := det.Detect(out.Depth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Interpolation-kernel ablation for the §VI decoder residual path.
func BenchmarkAblationResidualKernel(b *testing.B) {
	g, _ := games.ByID("G3")
	for _, k := range []upscale.Kind{upscale.Bilinear, upscale.Bicubic, upscale.Lanczos3} {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.Run(pipeline.Config{Game: g, SimDiv: 8, GOPSize: 4}, 4, srdecoder.New(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Codec quantizer sweep: bitstream size vs fidelity knob.
func BenchmarkAblationCodecQuantizer(b *testing.B) {
	g, _ := games.ByID("G3")
	frames := make([]*gssr.Image, 2)
	rd := &render.Renderer{}
	for i := range frames {
		frames[i] = g.Render(rd, i*8, 320, 180).Color
	}
	for _, q := range []int{2, 6, 12} {
		b.Run(itoa(q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc, err := codec.NewEncoder(codec.Config{Width: 320, Height: 180, QStep: q})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range frames {
					if _, _, err := enc.Encode(f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// SR engine comparison on the RoI-sized patch.
func BenchmarkAblationSREngines(b *testing.B) {
	g, _ := games.ByID("G3")
	patch := testkit.MustSub(g.Render(&render.Renderer{}, 30, 320, 180).Color, 124, 72, 72, 72).Compact()
	engines := []sr.Engine{
		sr.BilinearEngine{},
		sr.NewFast(sr.FastConfig{}),
		sr.NewInterpEDSR(sr.Spec{Blocks: 4, Channels: 8}),
	}
	for _, e := range engines {
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Upscale(patch, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Device capability probe: the Fig. 6 step-❶ inversion.
func BenchmarkDeviceCapabilityProbe(b *testing.B) {
	p := device.TabS8()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.MaxRoIWindow(device.RealTimeDeadline) < 100 {
			b.Fatal("probe broke")
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
