package diag

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// TestServeMetricsLogsWhatItMounts: the `telemetry up` line lists exactly
// the paths that serve. Without a Diag, /debug/diag is a 404 and not in the
// list; a nil *frametrace.Recorder is no flight dumper, so /debug/flight is
// not listed either; the build-info gauges are on /metrics.
func TestServeMetricsLogsWhatItMounts(t *testing.T) {
	var logged uint64 // the ring is the process's: look only at what this call adds
	if old := logx.Default().Recent(1); len(old) > 0 {
		logged = old[0].Seq
	}
	var rec *frametrace.Recorder
	if err := ServeMetrics("127.0.0.1:0", telemetry.NewRegistry(), rec, nil); err != nil {
		t.Fatal(err)
	}
	var line string
	for _, e := range logx.Default().Recent(0) {
		if e.Seq > logged && strings.Contains(e.Line, "telemetry up") {
			line = e.Line
		}
	}
	m := regexp.MustCompile(`\burl=http://(\S+)/metrics endpoints="([^"]*)"`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no `telemetry up` line with url= and endpoints=: %q", line)
	}
	if m[2] != "/metrics.json /debug/pprof/" {
		t.Errorf("logged endpoints %q, want %q", m[2], "/metrics.json /debug/pprof/")
	}
	get := func(path string) (int, string) {
		c := http.Client{Timeout: 5 * time.Second}
		resp, err := c.Get("http://" + m[1] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	for _, path := range []string{"/debug/diag", "/debug/flight"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "gssr_build_info 1") || !strings.Contains(body, "gssr_build_num_cpu") {
		t.Errorf("GET /metrics = %d without the build-info gauges:\n%s", code, body)
	}
}
