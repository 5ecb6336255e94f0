package main

import "fmt"

// Stream parameters every workload shares (ISSUE 11): the README demo's
// codec settings, the paper's ×2 upscale on the Tab S8 profile, and the RoI
// window gssr-client announces today (it clamps its probe to 64 px at every
// geometry, so a PR that lifts the clamp must re-baseline).
const (
	gopSize      = 12
	qStep        = 6
	scale        = 2
	deviceName   = "s8"
	clientRoIWin = 64
	gameID       = "G3"
	replayCycle  = 2 * gopSize // payloads the replay server loops over
	budgetMs     = 1000.0 / 60 // the paper's 16.66 ms client frame budget
	setupRepeats = 3           // identical passes per untraced run; every metric is their median
	psnrFloor    = 20.0        // dB the last frame must score against the ground truth (35-40 today)
)

type kind int

const (
	kindLive   kind = iota // real gssr-server → real gssr-client
	kindReplay             // harness-hosted replay server → real gssr-client
	kindEngine             // in-process gamestreamsr.Session in a child
)

// workload is one row of the benchmark's workload table. Rate sizes the
// timed windows: it is the frame rate this workload ran at on the reference
// box (2 cores, go1.24), so a run times whole GOPs of Rate × --seconds frames
// and that lasts about --seconds there. Sizing by a fixed rate rather than
// by the clock keeps frame counts — and with them bytes_per_frame and the
// PSNR check — exact for a given seed.
type workload struct {
	Name      string
	Kind      kind
	W, H      int     // streamed geometry (engine: the nominal 720p, simulated at /4)
	Rate      float64 // nominal frames per second of --seconds
	TraceGOPs int     // timed GOPs of the traced composition
	Why       string
}

var workloads = []workload{
	{Name: "live_180p", Kind: kindLive, W: 320, H: 180, Rate: 40, TraceGOPs: 3,
		Why: "smallest geometry: per-frame fixed costs (wire, syscalls, parallel.For dispatch, allocs, flight bookkeeping) are their largest share, kernels their smallest"},
	{Name: "live_360p", Kind: kindLive, W: 640, H: 360, Rate: 13, TraceGOPs: 2,
		Why: "kernel- and garbage-dominated full chain, server-bound: where render/detect/encode and GC work must show"},
	{Name: "client_replay_720p", Kind: kindReplay, W: 1280, H: 720, Rate: 12, TraceGOPs: 1,
		Why: "the paper's geometry with the client as the only bottleneck: a pre-encoded cycle replayed from memory, so server-side changes predict no movement"},
	{Name: "engine_edsr", Kind: kindEngine, W: 1280, H: 720, Rate: 11, TraceGOPs: 1,
		Why: "the pooled Into kernels, three overlapped stages and the 16x64 EDSR on the RoI, no wire: splits from live_* when a change helps only one kernel form"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timedFrames sizes one pass's timed window in whole GOPs — the run's
// --seconds shared among its setupRepeats passes — and at least two, so the
// GOP-window fps has a median to take.
func (w workload) timedFrames(seconds int) int {
	gops := int(w.Rate*float64(seconds)/setupRepeats) / gopSize
	return max(gops, 2) * gopSize
}

// inputs are what a seed turns into. Game choice would be the natural seed,
// but the ten scripts differ by ±20% in render cost, which would drown every
// bound in between-seed spread; instead the seed picks where in G3's motion
// script the measured frames sit.
type inputs struct {
	Seed int64
	// Warm is the number of untimed frames before the timed window. The live
	// server always starts its script at frame 0, so on live workloads the
	// seed moves the window by lengthening the warm-up; elsewhere it is one
	// GOP.
	Warm int
	// Start is the script frame the stream begins at (replay, engine).
	Start int
}

func (w workload) inputs(seed int64) inputs {
	if seed < 0 {
		seed = -seed
	}
	in := inputs{Seed: seed, Warm: gopSize}
	switch w.Kind {
	case kindLive:
		in.Warm = gopSize * (1 + int(seed%3))
	case kindReplay:
		in.Start = replayCycle * int(seed%8)
	case kindEngine:
		// The engine samples the script every FrameStride (= SimDiv = 4)
		// frames, so this shifts the stream by three of its frames per step:
		// other GOP boundaries over largely the same content.
		in.Start = gopSize * int(seed%8)
	}
	return in
}

// metricDef is one named metric of BENCHMARK.json. Moves lists, for a layer
// metric, the "metric@workload" pairs it is expected to move (bench/README.md
// explains each); the schema test checks every target exists.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Scales scaling // end-to-end only: how the box's speed moves it
	Moves  []string
}

// scaling says how a metric follows the speed of the box, and so how it is
// brought to the reference speed (env.go).
type scaling int

const (
	scalesNot         scaling = iota // counts, sizes and quality
	scalesAsTime                     // a slower box makes it larger
	scalesAsRate                     // a slower box makes it smaller
	scalesAsSetupTime                // as a time, by the box's speed during set-up
)

// endToEnd is what a user of the system sees. Every workload reports every
// one. ISSUE 11's failed_ratio and the client/server CPU split are not here:
// see bench/README.md "Departures". The time and memory bounds are the
// contract's widest because ten runs on the reference box spread by up to
// 12% (quartile distance / median) on the 360p and 720p workloads; bytes and
// PSNR are exact for a seed and spread by under 0.5% across seeds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Scales: scalesAsSetupTime},
	{Name: "fps", Unit: "1/s", Better: "higher", Bound: 0.25, Scales: scalesAsRate},
	{Name: "client_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Scales: scalesAsTime},
	{Name: "cpu_ms_per_frame", Unit: "ms", Better: "lower", Bound: 0.25, Scales: scalesAsTime},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "bytes_per_frame", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "psnr_db", Unit: "dB", Better: "higher", Bound: 0.02},
}

var perLayer = []metricDef{
	{Name: "render.frame_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@live_180p", "fps@live_360p", "cpu_ms_per_frame@live_360p"}},
	{Name: "render.frame_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "render.gt_frame_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@engine_edsr"}},
	{Name: "roi.detect_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@live_360p", "cpu_ms_per_frame@live_360p"}},
	{Name: "roi.detect_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_360p"}},
	{Name: "roi.detect_alloc_kb", Unit: "KB", Better: "lower", Moves: []string{"peak_rss_mb@live_360p"}},
	{Name: "codec.encode_intra_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@live_360p"}},
	{Name: "codec.encode_inter_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@live_360p", "cpu_ms_per_frame@live_360p"}},
	{Name: "codec.encode_alloc_kb", Unit: "KB", Better: "lower", Moves: []string{"peak_rss_mb@live_360p"}},
	{Name: "codec.coded_bytes_intra", Unit: "B", Better: "lower", Moves: []string{"bytes_per_frame@live_180p", "bytes_per_frame@live_360p", "bytes_per_frame@client_replay_720p", "bytes_per_frame@engine_edsr"}},
	{Name: "codec.coded_bytes_inter", Unit: "B", Better: "lower", Moves: []string{"bytes_per_frame@live_180p", "bytes_per_frame@live_360p", "bytes_per_frame@client_replay_720p", "bytes_per_frame@engine_edsr"}},
	{Name: "codec.decode_intra_ms", Unit: "ms", Better: "lower", Moves: []string{"client_latency_p50_ms@client_replay_720p"}},
	{Name: "codec.decode_inter_ms", Unit: "ms", Better: "lower", Moves: []string{"client_latency_p50_ms@client_replay_720p", "fps@client_replay_720p", "cpu_ms_per_frame@client_replay_720p"}},
	{Name: "codec.decode_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@client_replay_720p"}},
	{Name: "codec.decode_alloc_kb", Unit: "KB", Better: "lower", Moves: []string{"peak_rss_mb@client_replay_720p"}},
	{Name: "stream.send_us", Unit: "us", Better: "lower", Moves: []string{"cpu_ms_per_frame@client_replay_720p", "cpu_ms_per_frame@live_180p"}},
	{Name: "stream.recv_us", Unit: "us", Better: "lower", Moves: []string{"client_latency_p50_ms@live_180p"}},
	{Name: "stream.wire_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "stream.overhead_bytes", Unit: "B", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "stream.handshake_ms", Unit: "ms", Better: "lower", Moves: []string{"setup_s@live_180p"}},
	{Name: "stream.frame_age_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.frame_age_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "upscale.bilinear_ms", Unit: "ms", Better: "lower", Moves: []string{"client_latency_p50_ms@client_replay_720p", "fps@client_replay_720p", "client_latency_p50_ms@live_360p"}},
	{Name: "upscale.bilinear_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "upscale.bilinear_alloc_kb", Unit: "KB", Better: "lower", Moves: []string{"peak_rss_mb@client_replay_720p"}},
	{Name: "upscale.bilinear_into_ms", Unit: "ms", Better: "lower", Moves: []string{"client_latency_p50_ms@engine_edsr"}},
	{Name: "upscale.bilinear_into_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@engine_edsr"}},
	{Name: "upscale.merge_us", Unit: "us", Better: "lower", Moves: []string{"client_latency_p50_ms@live_180p"}},
	{Name: "frame.crop_us", Unit: "us", Better: "lower", Moves: []string{"client_latency_p50_ms@live_180p"}},
	{Name: "sr.roi_ms", Unit: "ms", Better: "lower", Moves: []string{"client_latency_p50_ms@live_180p"}},
	{Name: "sr.roi_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "sr.roi_alloc_kb", Unit: "KB", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "sr.edsr_ms", Unit: "ms", Better: "lower", Moves: []string{"cpu_ms_per_frame@engine_edsr", "client_latency_p50_ms@engine_edsr"}},
	{Name: "sr.edsr_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@engine_edsr"}},
	{Name: "sr.edsr_alloc_kb", Unit: "KB", Better: "lower", Moves: []string{"peak_rss_mb@engine_edsr"}},
	{Name: "sr.edsr_macs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@engine_edsr"}},
	{Name: "metrics.psnr_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@engine_edsr"}},
	{Name: "metrics.ssim_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@engine_edsr"}},
	{Name: "metrics.lpips_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@engine_edsr"}},
	{Name: "pipeline.frame_wall_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@engine_edsr"}},
	{Name: "pipeline.serial_sum_ms", Unit: "ms", Better: "lower", Moves: []string{"cpu_ms_per_frame@engine_edsr"}},
	{Name: "pipeline.overlap_ratio", Unit: "ratio", Better: "higher", Moves: []string{"fps@engine_edsr"}},
	{Name: "parallel.for_us", Unit: "us", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p", "cpu_ms_per_frame@engine_edsr"}},
	{Name: "parallel.for_allocs", Unit: "count", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p", "cpu_ms_per_frame@engine_edsr"}},
	{Name: "bufpool.hit_ratio", Unit: "ratio", Better: "higher", Moves: []string{"peak_rss_mb@engine_edsr"}},
	{Name: "frametrace.span_ns", Unit: "ns", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "telemetry.observe_ns", Unit: "ns", Better: "lower", Moves: []string{"cpu_ms_per_frame@live_180p"}},
	{Name: "client.serial_ms", Unit: "ms", Better: "lower", Moves: []string{"client_latency_p50_ms@live_180p", "fps@client_replay_720p"}},
	{Name: "client.budget_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.cpu_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.deadline_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.recv_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.serial_ms", Unit: "ms", Better: "lower", Moves: []string{"fps@live_180p", "fps@live_360p"}},
	{Name: "server.cpu_ms_per_frame", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
