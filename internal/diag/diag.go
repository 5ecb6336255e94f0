// Package diag is the repo's third observability layer: resource
// attribution plus automatic postmortem capture. /metrics (telemetry)
// says *what* the process is doing in aggregate, /debug/flight
// (frametrace) says *when* each recent frame ran — diag answers *who*
// was burning CPU and freezes the evidence the moment an SLO incident
// starts, instead of requiring a human to attach a profiler after the
// fact.
//
// Three pieces:
//
//   - pprof goroutine labels (session/stage/sched_client)
//     threaded through the pipeline engine, the parallel scheduler and
//     the stream server, so any CPU or goroutine profile attributes its
//     samples (see Labels* helpers below and DESIGN.md §16).
//   - a continuous profile ring (Sampler): short CPU profiles plus
//     runtime-metrics snapshots captured in the background at a low duty
//     cycle.
//   - an SLO-triggered capture bundle (Diag): miss streaks, shed-ladder
//     escalations and session reaps call Trigger, which — behind
//     hysteresis — freezes the newest ring profile, a labeled goroutine
//     dump, the flight-recorder window, the recent log ring and a
//     /metrics snapshot into one JSON bundle, served at /debug/diag and
//     written to disk for `gssr diag` to render.
package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/telemetry"
)

// DefaultCooldown is the minimum spacing between captured bundles: one
// incident produces one bundle, not one per missed frame.
const DefaultCooldown = 30 * time.Second

// Config parameterises New.
type Config struct {
	// Metrics, when non-nil, supplies the /metrics snapshot embedded in
	// bundles, and receives the diag layer's own counters
	// (diag_bundles_total, diag_triggers_suppressed_total).
	Metrics *telemetry.Registry
	// Flight, when non-nil, supplies the flight-recorder dump embedded in
	// bundles (frametrace.Recorder or stream.MultiServer).
	Flight telemetry.FlightDumper
	// Log supplies the log ring embedded in bundles, and receives the
	// diag layer's own lines (default logx.Default()).
	Log *logx.Ring
	// Dir, when non-empty, receives one bundle-<seq>.json file per
	// capture.
	Dir string
	// Cooldown is the minimum spacing between bundles (default
	// DefaultCooldown; negative disables the cooldown — test use only).
	Cooldown time.Duration
}

// keepBundles bounds the in-memory bundle ring served over HTTP.
const keepBundles = 4

// Bundle is one frozen capture. Large payloads ([]byte) serialise as
// base64 in JSON; FlightTrace and Metrics are embedded JSON documents.
type Bundle struct {
	Seq      int64             `json:"seq"`
	Time     time.Time         `json:"time"`
	Reason   string            `json:"reason"`
	Detail   map[string]string `json:"detail,omitempty"`
	Build    BuildInfo         `json:"build"`
	CPUStart time.Time         `json:"cpu_profile_start,omitempty"`
	CPUEnd   time.Time         `json:"cpu_profile_end,omitempty"`
	// CPUProfile is the newest continuous-ring window (gzipped pprof
	// protobuf, what `go tool pprof` reads); empty when the ring had no
	// capture yet.
	CPUProfile []byte `json:"cpu_profile,omitempty"`
	// Goroutines is the debug=1 goroutine profile, which carries the
	// pprof labels of every goroutine.
	Goroutines  string            `json:"goroutines,omitempty"`
	FlightTrace json.RawMessage   `json:"flight_trace,omitempty"`
	Logs        []logx.Entry      `json:"logs,omitempty"`
	Metrics     json.RawMessage   `json:"metrics,omitempty"`
	Runtime     []RuntimeSnapshot `json:"runtime,omitempty"`
}

// BuildInfo identifies the binary that produced a bundle.
type BuildInfo struct {
	Version    string `json:"version"`
	Revision   string `json:"revision,omitempty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// Build reads the running binary's build identity.
func Build() BuildInfo {
	b := BuildInfo{
		Version:    "(devel)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			b.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				b.Revision = s.Value[:12]
			}
		}
	}
	return b
}

// Diag is the SLO watchdog and bundle store. All methods are nil-safe
// no-ops, so servers wire a *Diag unconditionally and enable it by flag.
type Diag struct {
	cfg     Config
	sampler *Sampler

	capturing atomic.Bool
	seq       atomic.Int64

	mu      sync.Mutex
	last    time.Time // end of the previous capture, for the cooldown
	bundles []*Bundle // newest last, bounded to keepBundles

	bundlesTotal    *telemetry.Counter
	triggersTotal   *telemetry.Counter
	suppressedTotal *telemetry.Counter
}

// New builds a Diag; Start arms the continuous sampler.
func New(cfg Config) *Diag {
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Log == nil {
		cfg.Log = logx.Default()
	}
	d := &Diag{cfg: cfg, sampler: NewSampler(SamplerConfig{})}
	d.bundlesTotal = cfg.Metrics.Counter("diag_bundles_total")
	d.triggersTotal = cfg.Metrics.Counter("diag_triggers_total")
	d.suppressedTotal = cfg.Metrics.Counter("diag_triggers_suppressed_total")
	return d
}

// Start arms the continuous profile ring.
func (d *Diag) Start() {
	if d == nil {
		return
	}
	d.sampler.Start()
}

// Close stops the sampler. Captured bundles stay readable.
func (d *Diag) Close() {
	if d == nil {
		return
	}
	d.sampler.Stop()
}

// Trigger reports an SLO incident. Behind hysteresis — at most one
// capture per cooldown, one in flight at a time — it freezes a bundle
// and returns true; suppressed triggers return false. detail pairs
// (alternating key/value, both stringable) annotate the bundle.
//
// Capture is synchronous but bounded: ring reads, a goroutine dump, a
// flight dump and a metrics snapshot — milliseconds, paid at most once
// per cooldown on a path that is already missing deadlines.
func (d *Diag) Trigger(reason string, detail ...any) bool {
	if d == nil {
		return false
	}
	d.triggersTotal.Inc()
	now := time.Now()
	d.mu.Lock()
	cool := d.cfg.Cooldown > 0 && !d.last.IsZero() && now.Sub(d.last) < d.cfg.Cooldown
	d.mu.Unlock()
	if cool || !d.capturing.CompareAndSwap(false, true) {
		d.suppressedTotal.Inc()
		return false
	}
	defer d.capturing.Store(false)

	b := &Bundle{
		Seq:    d.seq.Add(1),
		Time:   now,
		Reason: reason,
		Build:  Build(),
	}
	if len(detail) > 0 {
		b.Detail = make(map[string]string, len(detail)/2)
		for i := 0; i+1 < len(detail); i += 2 {
			b.Detail[fmt.Sprint(detail[i])] = fmt.Sprint(detail[i+1])
		}
	}
	if p, ok := d.sampler.LatestProfile(); ok {
		b.CPUProfile, b.CPUStart, b.CPUEnd = p.Data, p.Start, p.End
	}
	var gbuf bytes.Buffer
	if pr := pprof.Lookup("goroutine"); pr != nil {
		_ = pr.WriteTo(&gbuf, 1) // debug=1 carries goroutine labels
	}
	b.Goroutines = gbuf.String()
	if d.cfg.Flight != nil {
		var fbuf bytes.Buffer
		if err := d.cfg.Flight.WriteFlight(&fbuf); err == nil {
			b.FlightTrace = json.RawMessage(fbuf.Bytes())
		}
	}
	b.Logs = d.cfg.Log.Recent(256)
	if d.cfg.Metrics != nil {
		var mbuf bytes.Buffer
		if err := d.cfg.Metrics.Snapshot().WriteJSON(&mbuf); err == nil {
			b.Metrics = json.RawMessage(mbuf.Bytes())
		}
	}
	b.Runtime = d.sampler.Snapshots()

	d.mu.Lock()
	d.last = time.Now()
	d.bundles = append(d.bundles, b)
	if len(d.bundles) > keepBundles {
		copy(d.bundles, d.bundles[len(d.bundles)-keepBundles:])
		d.bundles = d.bundles[:keepBundles]
	}
	d.mu.Unlock()
	d.bundlesTotal.Inc()

	if d.cfg.Dir != "" {
		if err := writeBundleFile(d.cfg.Dir, b); err != nil {
			slog.New(d.cfg.Log).Error("diag: bundle write failed", "err", err)
		}
	}
	slog.New(d.cfg.Log).Warn("diag: captured bundle", "seq", b.Seq, "reason", reason)
	return true
}

// writeBundleFile persists b as Dir/bundle-<seq>.json (atomic rename).
func writeBundleFile(dir string, b *Bundle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("bundle-%06d.json", b.Seq))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = b.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// WriteJSON serialises the bundle.
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(b)
}

// ParseBundle decodes a bundle produced by WriteJSON.
func ParseBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("diag: parse bundle: %w", err)
	}
	return &b, nil
}

// Latest returns the newest bundle, or nil.
func (d *Diag) Latest() *Bundle {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.bundles) == 0 {
		return nil
	}
	return d.bundles[len(d.bundles)-1]
}

// Handler serves bundles:
//
//	GET /debug/diag            newest bundle as JSON (404 when none)
//	GET /debug/diag?trigger=1  force a capture (cooldown still applies
//	                           unless force=1), then serve it
func (d *Diag) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d == nil {
			http.Error(w, "diagnostics disabled (run with -diag)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("trigger") != "" {
			if r.URL.Query().Get("force") != "" {
				d.mu.Lock()
				d.last = time.Time{}
				d.mu.Unlock()
			}
			d.Trigger("manual", "remote", r.RemoteAddr)
		}
		b := d.Latest()
		if b == nil {
			http.Error(w, "no bundle captured yet (trigger with ?trigger=1)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = b.WriteJSON(w)
	})
}
