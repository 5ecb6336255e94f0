// Command bench is the repository's standing benchmark (ISSUE 11): it drives
// the real gssr-server and gssr-client binaries and the public gamestreamsr
// API from outside, reports what a user of the system sees, and — in a
// separate traced pass — times every layer by calling its public functions.
// See README.md beside this file for the metrics and how they interact.
//
// It is a module of its own (go.mod beside this file, replacing gamestreamsr
// with the parent directory), run from the repository root with -C:
//
//	go run -C bench .                                  every workload, untraced then traced
//	go run -C bench . --workload live_180p --seed 3 --seconds 10 --trace 0
//	go run -C bench . -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	// A child role comes first so its own flags do not meet the harness's.
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		if err := runChild(os.Args[2], os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "run one workload and print one result line (default: all of them)")
	seed := flag.Int64("seed", 0, "workload seed: where in the game script the measured frames sit")
	seconds := flag.Int("seconds", 10, "size of the timed window, in seconds on the reference box")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	frames := flag.Int("frames", 0, "timed frames of one pass, in whole GOPs (overrides --seconds)")
	runs := flag.Int("runs", 1, "all-workloads mode: untraced runs per workload, on consecutive seeds")
	out := flag.String("out", "", "all-workloads mode: where to write the record (default bench/out/bench.json)")
	compare := flag.Bool("compare", false, "compare two records: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.json B.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// Children die with the context: on a signal as on any return.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, buildS, err := newHarness(ctx)
	if err != nil {
		fatal(err)
	}
	e := readEnv(*seed, buildS)
	size := func(wl workload) int {
		if *frames > 0 {
			return max(2, *frames/gopSize) * gopSize
		}
		return wl.timedFrames(*seconds)
	}

	if *name != "" {
		wl, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		rec, err := h.measure(ctx, e, wl, *seed, size(wl), *trace == 1)
		if err != nil {
			fatal(err)
		}
		rec.print(os.Stderr)
		if err := rec.resultLine(os.Stdout); err != nil {
			fatal(err)
		}
		if len(rec.Problems) > 0 {
			os.Exit(1)
		}
		return
	}

	// Every workload untraced, then a traced pass per workload.
	file := benchFile{Env: e}
	failed := false
	for _, traced := range []bool{false, true} {
		for _, wl := range workloads {
			n := *runs
			if traced {
				n = 1
			}
			for r := 0; r < n; r++ {
				rec, err := h.measure(ctx, e, wl, *seed+int64(r), size(wl), traced)
				if err != nil {
					fatal(err)
				}
				rec.print(os.Stdout)
				failed = failed || len(rec.Problems) > 0
				file.Records = append(file.Records, *rec)
			}
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(h.outDir, "bench.json")
	}
	if err := writeJSON(path, file); err != nil {
		fatal(err)
	}
	fmt.Printf("record written to %s\n", path)
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// newHarness builds the two binaries into bench/out/bin — the go tool decides
// what is stale, so a warm build costs well under a second — and returns the
// time that took. The working directory is bench/ (go run -C bench .), the
// repository its parent.
func newHarness(ctx context.Context) (*harness, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	const root = ".."
	if _, err := os.Stat(filepath.Join(root, "cmd", "gssr-server")); err != nil {
		return nil, 0, errors.New("run as `go run -C bench .` from the repository root: no ../cmd/gssr-server here")
	}
	outDir, err := filepath.Abs("out")
	if err != nil {
		return nil, 0, err
	}
	h := &harness{self: self, outDir: outDir, binDir: filepath.Join(outDir, "bin")}
	if err := os.MkdirAll(h.binDir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	build := exec.CommandContext(ctx, "go", "build", "-o", h.binDir+string(filepath.Separator), "./cmd/gssr-server", "./cmd/gssr-client")
	build.Dir = root
	if outb, err := build.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("building the binaries: %w\n%s", err, outb)
	}
	return h, time.Since(t0).Seconds(), nil
}
