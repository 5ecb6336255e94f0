package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// passStats is what a record keeps of one untraced pass: the per-pass value
// of every end-to-end metric and the noise guard's readings around it.
type passStats struct {
	Metrics    map[string]float64 `json:"metrics"`     // as measured, not speed-normalised
	CalibMs    []float64          `json:"calib_ms"`    // the calibration rounds interleaved with the pass
	Speed      float64            `json:"speed"`       // median round / calibRefMs after set-up: how much slower than the reference the box ran
	SetupSpeed float64            `json:"setup_speed"` // the same during set-up
	StealShare float64            `json:"steal_share"` // of the box's CPU time during the pass
	Disturbed  bool               `json:"disturbed"`
	Replaced   bool               `json:"replaced"` // disturbed, re-run, and left out of the medians
}

// record is one measured run of one workload, as written to
// bench/out/bench.json and printed for the reader.
type record struct {
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Traced      bool               `json:"traced"`
	Inputs      inputs             `json:"inputs"`
	TimedFrames int                `json:"timed_frames"`  // per pass
	Attempted   int                `json:"ops_attempted"` // frames requested, over every pass of the run
	Failed      int                `json:"ops_failed"`    // of those, not presented un-frozen
	RoIWindow   int                `json:"roi_window"`
	Passes      []passStats        `json:"passes,omitempty"`
	Disturbed   bool               `json:"disturbed"`     // a disturbed pass is among those the medians are over
	Raw         map[string]float64 `json:"raw,omitempty"` // end-to-end metrics as measured: the median of the passes before speed normalisation
	Metrics     map[string]float64 `json:"metrics"`
	Problems    []string           `json:"problems,omitempty"` // failed output checks: the run is not correct
	Warnings    []string           `json:"warnings,omitempty"`
}

// benchFile is what the all-workloads mode writes and -compare reads.
type benchFile struct {
	Env     env      `json:"env"`
	Records []record `json:"records"`
}

// measure runs wl once, untraced or traced; timed is the timed frames of one
// untraced pass.
func (h *harness) measure(ctx context.Context, e env, wl workload, seed int64, timed int, traced bool) (*record, error) {
	j, done, err := h.newJob(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	defer done()
	rec := &record{Workload: wl.Name, Why: wl.Why, Traced: traced, Inputs: j.in, TimedFrames: timed, Metrics: map[string]float64{}}
	if traced {
		rec.TimedFrames = timed * setupRepeats
		err = h.traced(ctx, e, j, rec)
	} else {
		err = h.untraced(ctx, j, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	return rec, nil
}

// account books a pass's frames and runs the output checks every pass gets.
func (rec *record) account(p *pass) {
	rec.Attempted += p.Requested
	rec.Failed += p.Requested - p.Presented
	rec.RoIWindow = p.RoIWindow
	if p.Presented != p.Requested {
		rec.problem("presented %d of %d frames un-frozen", p.Presented, p.Requested)
		return
	}
	if !(p.LastPSNR >= psnrFloor) {
		rec.problem("last frame scores %.2f dB against the ground truth, floor %.0f dB", p.LastPSNR, psnrFloor)
	}
}

func (rec *record) problem(format string, args ...any) {
	rec.Problems = append(rec.Problems, fmt.Sprintf(format, args...))
}

// guardedPass makes one pass with calibration rounds interleaved, between
// two readings of the box's steal time.
func (h *harness) guardedPass(ctx context.Context, j *job, timed int) (*pass, passStats, error) {
	steal0, total0 := cpuJiffies()
	p, err := h.run(ctx, j, timed, startCalibrator())
	if err != nil {
		return nil, passStats{}, err
	}
	steal1, total1 := cpuJiffies()
	st := passStats{CalibMs: p.CalibMs}
	if total1 > total0 {
		st.StealShare = (steal1 - steal0) / (total1 - total0)
	}
	st.Disturbed = disturbed(st.CalibMs, st.StealShare)
	return p, st, nil
}

// untraced measures the end-to-end metrics over setupRepeats identical
// passes — each its own processes, set-up and timed window — and reports the
// median of the passes for every metric, so one bad stretch of a noisy box
// moves one pass and not the result. A pass the guard marks as disturbed is
// re-run, once per run; both are kept in the record.
func (h *harness) untraced(ctx context.Context, j *job, rec *record) error {
	wl, in := j.wl, j.in
	rerun := false
	var headHash string
	for kept := 0; kept < setupRepeats; {
		p, st, err := h.guardedPass(ctx, j, rec.TimedFrames)
		if err != nil {
			return err
		}
		rec.account(p)
		if len(rec.Problems) > 0 {
			return nil // the per-frame series below need every frame
		}
		frames := float64(p.Presented)
		st.Metrics = map[string]float64{
			"setup_s":               p.SetupS,
			"fps":                   gopWindowFPS(p.PresentUS, in.Warm, gopSize, p.EpochUS, p.Pauses),
			"client_latency_p50_ms": median(p.timedLatencyUS(in.Warm)) / 1e3,
			"cpu_ms_per_frame":      (p.Client.CPUMs + p.Server.CPUMs) / frames,
			"peak_rss_mb":           p.Client.RSSMB + p.Server.RSSMB,
			"bytes_per_frame":       p.Bytes / frames,
			"psnr_db":               p.LastPSNR,
		}
		var normalised bool
		if st.SetupSpeed, st.Speed, normalised = p.speeds(); !normalised {
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("pass %d: %d calibration rounds, fewer than %d: its time metrics are not speed-normalised", len(rec.Passes)+1, len(st.CalibMs), minCalibRounds))
		}
		if st.Disturbed && !rerun {
			st.Replaced, rerun = true, true
		} else {
			kept++
			rec.Disturbed = rec.Disturbed || st.Disturbed
		}
		rec.Passes = append(rec.Passes, st)
		headHash = p.HeadHash
	}
	if wl.Kind == kindEngine {
		// The determinism contract: the first GOP again at GOMAXPROCS 1
		// gives a byte-identical Result.
		p, err := h.runEngine(ctx, in, in.Warm, 1, nil)
		if err != nil {
			return fmt.Errorf("GOMAXPROCS 1 repeat: %w", err)
		}
		rec.account(p)
		if p.Hash != headHash {
			rec.problem("Result hash of the first GOP at GOMAXPROCS 1 (%.12s) differs from the default's (%.12s)", p.Hash, headHash)
		}
	}
	// Each metric is the median of the passes; a time metric is first brought
	// to the reference speed pass by pass, with the rounds taken while it was
	// measured, because the box's speed changes within a run.
	rec.Raw = map[string]float64{}
	for _, d := range endToEnd {
		var raw, norm []float64
		for _, st := range rec.Passes {
			if st.Replaced {
				continue
			}
			v := st.Metrics[d.Name]
			raw = append(raw, v)
			switch d.Scales {
			case scalesAsSetupTime:
				v /= st.SetupSpeed
			case scalesAsTime:
				v /= st.Speed
			case scalesAsRate:
				v *= st.Speed
			}
			norm = append(norm, v)
		}
		rec.Raw[d.Name] = median(raw)
		v := median(norm)
		rec.Metrics[d.Name] = v
		if !(v > 0) || math.IsInf(v, 0) {
			rec.problem("%s measured as %v", d.Name, v)
		}
	}
	return nil
}

// traced measures the per-layer metrics: one long pass of the real processes
// for the rows only they can give (frame age, latency tail, which side
// waits, each side's CPU), then the in-process composition for the rest.
func (h *harness) traced(ctx context.Context, e env, j *job, rec *record) error {
	wl, in := j.wl, j.in
	p, err := h.run(ctx, j, rec.TimedFrames, nil)
	if err != nil {
		return err
	}
	rec.account(p)
	if len(rec.Problems) > 0 {
		return nil
	}
	m := rec.Metrics
	frames := float64(p.Presented)
	m["pipeline.frame_wall_ms"] = 1e3 / gopWindowFPS(p.PresentUS, in.Warm, gopSize, 0, nil)
	if wl.Kind != kindEngine {
		lat, age := p.LatencyUS[in.Warm:], p.AgeUS[in.Warm:]
		m["stream.frame_age_p50_ms"] = median(age) / 1e3
		if v, ok := tailPct(age, 90); ok {
			m["stream.frame_age_p90_ms"] = v / 1e3
		}
		if v, ok := tailPct(lat, 90); ok {
			m["client.latency_p90_ms"] = v / 1e3
		}
		if v, ok := tailPct(lat, 95); ok {
			m["client.latency_p95_ms"] = v / 1e3
		}
		m["client.deadline_miss_ratio"] = float64(p.Missed) / frames
		m["client.recv_wait_p50_ms"] = median(p.RecvUS[in.Warm:]) / 1e3
		m["client.cpu_ms_per_frame"] = p.Client.CPUMs / frames
		m["server.cpu_ms_per_frame"] = p.Server.CPUMs / frames
	}

	var cycle *replayFrames
	if wl.Kind == kindReplay {
		if cycle, err = readReplay(j.cyclePath); err != nil {
			return err
		}
	}
	c, overhead, err := compose(wl, in, p.Requested, cycle)
	if err != nil {
		return err
	}
	c.layerMetrics(m)
	microLayers(m)
	m["trace.overhead_ratio"] = overhead
	m["pipeline.overlap_ratio"] = m["pipeline.serial_sum_ms"] / m["pipeline.frame_wall_ms"]

	// The composition ends on the real run's last frame: same pixels, or a
	// later client change has made the two paths differ (a warning — the
	// harness must not block such a change).
	matches := c.lastPSNR == p.LastPSNR
	if wl.Kind != kindEngine {
		matches = c.last.Equal(p.LastFrame)
	}
	if !matches {
		rec.Warnings = append(rec.Warnings, "trace_matches_live=false: the traced composition's last frame differs from the real run's")
	}
	return writeJSON(filepath.Join(h.outDir, "trace_"+wl.Name+".json"), c.tr.file(e, wl, in))
}

// defs is the metric set a record of this kind reports.
func (rec *record) defs() []metricDef {
	if rec.Traced {
		return perLayer
	}
	return endToEnd
}

// print lists every metric by name with its unit.
func (rec *record) print(w io.Writer) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d warm=%d start=%d timed_frames=%d roi_window=%d attempted=%d failed=%d disturbed=%v\n",
		rec.Workload, kind, rec.Inputs.Seed, rec.Inputs.Warm, rec.Inputs.Start, rec.TimedFrames, rec.RoIWindow,
		rec.Attempted, rec.Failed, rec.Disturbed)
	for i, st := range rec.Passes {
		fmt.Fprintf(w, "  pass %d: calib_ms=%.1f (%d rounds, reference %.1f) steal=%.1f%% disturbed=%v replaced=%v measured fps=%.2f cpu_ms_per_frame=%.2f\n",
			i+1, median(st.CalibMs), len(st.CalibMs), calibRefMs, 100*st.StealShare, st.Disturbed, st.Replaced, st.Metrics["fps"], st.Metrics["cpu_ms_per_frame"])
	}
	for _, d := range rec.defs() {
		fmt.Fprintf(w, "  %-32s %14.4f %s", d.Name, rec.Metrics[d.Name], d.Unit)
		if d.Scales != scalesNot {
			fmt.Fprintf(w, "  (at the reference speed; measured %.4f)", rec.Raw[d.Name])
		}
		fmt.Fprintln(w)
	}
	for _, s := range rec.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", s)
	}
	for _, s := range rec.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", s)
	}
}

// resultLine prints the one JSON object the benchmark contract asks for as
// the last line of standard output. A per-layer metric reads 0 on a workload
// that does not exercise its layer.
func (rec *record) resultLine(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rec.Problems) == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	for _, d := range rec.defs() {
		out.Metrics[d.Name] = value{rec.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
