package pipeline_test

// Overhead contract of the always-on diagnostics (DESIGN.md §16): an engine
// run with diagnostics armed — pprof session labels on every stage
// goroutine, and one triggered capture, whose one-second CPU profile window
// is the only profiling a -diag process does — must stay within ~2% of a
// bare run. The capture starts inside the timed region. BENCH_diag.json
// records the numbers; run with -benchtime 30x, so the window covers a
// known share of the timed runs.

import (
	"io"
	"testing"
	"time"

	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/pipeline"
)

func benchmarkEngineDiag(b *testing.B, session string, d *diag.Diag) {
	b.Helper()
	g, err := games.ByID("G3")
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{Game: g, SimDiv: 8, GOPSize: 4, Session: session}
	b.ReportAllocs()
	b.ResetTimer()
	if d != nil && !d.Trigger("bench") {
		b.Fatal("trigger suppressed")
	}
	for i := 0; i < b.N; i++ {
		gs, err := pipeline.NewGameStream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gs.Run(8); err != nil {
			b.Fatal(err)
		}
	}
	d.Close() // a window still open ends here, its bundle published
}

func BenchmarkEngineDiagOff(b *testing.B) { benchmarkEngineDiag(b, "", nil) }

func BenchmarkEngineDiagOn(b *testing.B) {
	benchmarkEngineDiag(b, "bench", diag.New(diag.Config{Cooldown: time.Hour, Log: logx.NewRing(io.Discard)}))
}
