// Package diag is the repo's third observability layer: resource
// attribution plus automatic postmortem capture. /metrics (telemetry)
// says *what* the process is doing in aggregate, /debug/flight
// (frametrace) says *when* each recent frame ran — diag answers *who*
// was burning CPU, and profiles the incident the moment it starts,
// instead of requiring a human to attach a profiler after the fact.
//
// Two pieces:
//
//   - pprof goroutine labels (session/stage/sched_client), set where the
//     work starts — the pipeline engine's stage goroutines, the parallel
//     scheduler's workers and the stream server's session goroutines — so
//     any CPU or goroutine profile attributes its samples (DESIGN.md §16).
//   - an SLO-triggered capture bundle (Diag): miss streaks, shed-ladder
//     escalations, admission rejects and session reaps call Trigger, which —
//     behind hysteresis — freezes a labeled goroutine dump, the
//     flight-recorder window, the recent log ring, a /metrics snapshot and
//     a runtime snapshot, profiles the CPU for the second after the
//     trigger, and publishes the whole as one JSON bundle, served at
//     /debug/diag and written to disk for `gssr diag` to render.
package diag

import (
	"bytes"
	"context"
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
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// DefaultCooldown is the minimum spacing between captured bundles: one
// incident produces one bundle, not one per missed frame.
const DefaultCooldown = 30 * time.Second

// profileWindow is the length of a bundle's CPU profile: the second after
// its trigger. The triggers fire on sustained conditions, so that second
// is inside the incident.
const profileWindow = time.Second

// profileDetail is the Detail key that says why a bundle carries no CPU
// profile: the process has one CPU profiler, and something else — a
// /debug/pprof/profile request, a test — held it.
const profileDetail = "cpu_profile"

// Config parameterises New.
type Config struct {
	// Metrics, when non-nil, supplies the /metrics snapshot embedded in
	// bundles, and receives the diag layer's own counters
	// (diag_bundles_total, diag_triggers_suppressed_total).
	Metrics *telemetry.Registry
	// Flight, when non-nil, supplies the flight-recorder windows embedded
	// in bundles (frametrace.Recorder or stream.MultiServer).
	Flight interface{ Flights() []frametrace.NamedDump }
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
	// CPUProfile is the profile of the window after the trigger (gzipped
	// pprof protobuf, what `go tool pprof` reads); empty when the profiler
	// was busy (Detail[profileDetail] says why).
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
	cfg Config
	seq atomic.Int64

	mu       sync.Mutex
	last     time.Time     // end of the previous capture, for the cooldown
	bundles  []*Bundle     // newest last, bounded to keepBundles
	inflight chan struct{} // closed once the capture in flight is published; nil when none is
	closed   bool
	stop     chan struct{} // closed by Close: cuts a profile window short

	bundlesTotal    *telemetry.Counter
	triggersTotal   *telemetry.Counter
	suppressedTotal *telemetry.Counter
}

// New builds a Diag.
func New(cfg Config) *Diag {
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Log == nil {
		cfg.Log = logx.Default()
	}
	d := &Diag{cfg: cfg, stop: make(chan struct{})}
	d.bundlesTotal = cfg.Metrics.Counter("diag_bundles_total")
	d.triggersTotal = cfg.Metrics.Counter("diag_triggers_total")
	d.suppressedTotal = cfg.Metrics.Counter("diag_triggers_suppressed_total")
	return d
}

// Close cuts the profile window of a capture in flight short and returns
// once that capture's bundle is published. Later triggers are suppressed;
// captured bundles stay readable.
func (d *Diag) Close() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.stop)
	}
	done := d.inflight
	d.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Trigger reports an SLO incident. Behind hysteresis — at most one
// capture per cooldown, one in flight at a time — it starts a capture and
// returns true; suppressed triggers return false. detail pairs
// (alternating key/value, both stringable) annotate the bundle.
//
// The caller (a session's frame loop, as a rule) only copies the flight
// windows; the capture runs on a goroutine of its own. That goroutine
// takes the other instant parts at once, profiles the CPU for
// profileWindow, and publishes the bundle whole when the window ends: in
// Latest, at /debug/diag and in Dir.
func (d *Diag) Trigger(reason string, detail ...any) bool {
	_, ok := d.capture(reason, detail)
	return ok
}

// capture is Trigger's guard. When it starts a capture, it returns a
// channel that is closed once the bundle is published.
func (d *Diag) capture(reason string, detail []any) (<-chan struct{}, bool) {
	if d == nil {
		return nil, false
	}
	d.triggersTotal.Inc()
	now := time.Now()
	d.mu.Lock()
	cool := d.cfg.Cooldown > 0 && !d.last.IsZero() && now.Sub(d.last) < d.cfg.Cooldown
	if d.closed || cool || d.inflight != nil {
		d.mu.Unlock()
		d.suppressedTotal.Inc()
		return nil, false
	}
	done := make(chan struct{})
	d.inflight = done
	d.mu.Unlock()
	// The flight windows are copied here, on the caller: the sessions go
	// on recording over them, and the triggering frames are their newest.
	// Encoding them is left to the capture goroutine.
	var flights []frametrace.NamedDump
	if d.cfg.Flight != nil {
		flights = d.cfg.Flight.Flights()
	}
	b := &Bundle{Seq: d.seq.Add(1), Time: now, Reason: reason}
	go d.run(b, detail, flights, done)
	return done, true
}

// run fills b — the instant parts, then the profile window — publishes it
// and closes done.
func (d *Diag) run(b *Bundle, detail []any, flights []frametrace.NamedDump, done chan struct{}) {
	// A goroutine inherits its creator's labels, a session's for a trigger
	// from its frame loop; the capture's own CPU is not that session's.
	pprof.SetGoroutineLabels(context.Background())
	if d.cfg.Flight != nil {
		var fbuf bytes.Buffer
		if err := frametrace.WriteChromeTraces(&fbuf, flights); err == nil {
			b.FlightTrace = json.RawMessage(fbuf.Bytes())
		}
	}
	b.Build = Build()
	if len(detail) > 0 {
		b.Detail = make(map[string]string, len(detail)/2)
		for i := 0; i+1 < len(detail); i += 2 {
			b.Detail[fmt.Sprint(detail[i])] = fmt.Sprint(detail[i+1])
		}
	}
	var gbuf bytes.Buffer
	if pr := pprof.Lookup("goroutine"); pr != nil {
		_ = pr.WriteTo(&gbuf, 1) // debug=1 carries goroutine labels
	}
	b.Goroutines = gbuf.String()
	b.Logs = d.cfg.Log.Recent(256)
	if d.cfg.Metrics != nil {
		var mbuf bytes.Buffer
		if err := d.cfg.Metrics.Snapshot().WriteJSON(&mbuf); err == nil {
			b.Metrics = json.RawMessage(mbuf.Bytes())
		}
	}
	b.Runtime = []RuntimeSnapshot{readRuntime()}

	var prof bytes.Buffer
	start := time.Now()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		if b.Detail == nil {
			b.Detail = make(map[string]string, 1)
		}
		b.Detail[profileDetail] = err.Error()
	} else {
		t := time.NewTimer(profileWindow)
		select {
		case <-t.C:
		case <-d.stop:
			t.Stop()
		}
		pprof.StopCPUProfile()
		b.CPUStart, b.CPUEnd, b.CPUProfile = start, time.Now(), prof.Bytes()
	}
	b.Runtime = append(b.Runtime, readRuntime())

	if d.cfg.Dir != "" {
		if err := writeBundleFile(d.cfg.Dir, b); err != nil {
			slog.New(d.cfg.Log).Error("diag: bundle write failed", "err", err)
		}
	}
	d.mu.Lock()
	d.last = time.Now()
	d.bundles = append(d.bundles, b)
	if len(d.bundles) > keepBundles {
		copy(d.bundles, d.bundles[len(d.bundles)-keepBundles:])
		d.bundles = d.bundles[:keepBundles]
	}
	d.inflight = nil
	d.mu.Unlock()
	d.bundlesTotal.Inc()
	slog.New(d.cfg.Log).Warn("diag: captured bundle", "seq", b.Seq, "reason", b.Reason)
	close(done)
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
//	GET /debug/diag?trigger=1  start a capture (cooldown still applies
//	                           unless force=1), wait for its profile
//	                           window, then serve the newest bundle
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
			if done, ok := d.capture("manual", []any{"remote", r.RemoteAddr}); ok {
				select {
				case <-done:
				case <-r.Context().Done():
					return
				}
			}
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
