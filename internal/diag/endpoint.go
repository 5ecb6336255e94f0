package diag

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"

	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// ServeMetrics starts a process's telemetry endpoint on addr and serves it
// for the life of the process: /metrics (with the build-info gauges of
// RegisterBuildInfo), /metrics.json and /debug/pprof/ always, /debug/flight
// when flight is non-nil, and /debug/diag when d is. A nil
// *frametrace.Recorder counts as no flight dumper, although in the
// interface it is not nil. The `telemetry up` log line lists exactly the
// paths that serve.
func ServeMetrics(addr string, reg *telemetry.Registry, flight telemetry.FlightDumper, d *Diag) error {
	ml, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	if rec, ok := flight.(*frametrace.Recorder); ok && rec == nil {
		flight = nil
	}
	RegisterBuildInfo(reg)
	mux := telemetry.Handler(reg, flight)
	endpoints := []string{"/metrics.json"}
	if flight != nil {
		endpoints = append(endpoints, "/debug/flight")
	}
	endpoints = append(endpoints, "/debug/pprof/")
	if d != nil {
		mux.Handle("/debug/diag", d.Handler())
		endpoints = append(endpoints, "/debug/diag")
	}
	slog.Info("telemetry up", "url", fmt.Sprintf("http://%s/metrics", ml.Addr()),
		"endpoints", strings.Join(endpoints, " "))
	go func() {
		if err := http.Serve(ml, mux); err != nil {
			slog.Warn("telemetry server stopped", "err", err)
		}
	}()
	return nil
}
