package stream

import (
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/testkit"
)

// remoteSuffix matches the sanitised loopback address statsSink appends to
// its per-session gauge names.
var remoteSuffix = regexp.MustCompile(`_127_0_0_1_[0-9]+$`)

// TestMetricNamesGolden pins every name a MultiServer registers with all of
// its consumers of the session recorder wired — admission, the shed
// ladder, the diag watchdog, the per-session client gauges — while two
// sessions are live and each has sent one Stats report. Dashboards and
// bench/ read these names; a change that renames or drops one fails here.
// The list is testdata/metric_names.txt, one "kind name" a line, with the
// per-remote suffix written as <remote>.
func TestMetricNamesGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	lg := logx.NewRing(io.Discard)
	hold := make(chan struct{})
	const heldAt = 3
	srv := &MultiServer{
		Accept:       Accept{Width: 32, Height: 32, GOPSize: 4, QStep: 6},
		Metrics:      reg,
		FlightFrames: 8,
		Shed:         &ShedPolicy{},
		Admission:    &AdmissionPolicy{},
		Log:          slog.New(lg),
		NewSource: func(Hello) (FrameSource, error) {
			return frameFunc(func(i int) ([]byte, bool, frame.Rect, error) {
				if i == heldAt {
					<-hold
					return nil, false, frame.Rect{}, io.EOF
				}
				return []byte{byte(i)}, i == 0, frame.Rect{W: 4, H: 4}, nil
			}), nil
		},
	}
	d := diag.New(diag.Config{Metrics: reg, Flight: srv, Log: lg, Dir: t.TempDir(), Cooldown: time.Hour})
	defer d.Close()
	srv.Diag = d
	addr, done := startMulti(t, srv)

	var clients []*Client
	for k := 0; k < 2; k++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c := NewClient(conn)
		if _, err := c.Handshake(Hello{Device: "names", RoIWindow: 8, Scale: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < heldAt; i++ {
			if _, err := c.RecvFrame(); err != nil {
				t.Fatalf("client %d frame %d: %v", k, i, err)
			}
		}
		if err := c.SendStats(StatsPacket{Seq: 1, WindowFrames: heldAt, AgeP50: time.Millisecond, AgeP99: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	waitFor(t, "both stats reports", func() bool {
		return testkit.CounterOf(reg.Snapshot(), "stream_client_stats_total") == 2
	})

	s := reg.Snapshot()
	var got []string
	add := func(kind, name string) {
		got = append(got, kind+" "+remoteSuffix.ReplaceAllString(name, "_<remote>"))
	}
	for _, c := range s.Counters {
		add("counter", c.Name)
	}
	for _, g := range s.Gauges {
		add("gauge", g.Name)
	}
	for _, h := range s.Histograms {
		add("histogram", h.Name)
	}
	sort.Strings(got)

	close(hold)
	for _, c := range clients {
		if _, err := c.RecvFrame(); err != io.EOF {
			t.Errorf("held session: %v, want its Bye", err)
		}
		_ = c.Bye()
	}
	shutdownMulti(t, srv)
	<-done

	raw, err := os.ReadFile(filepath.Join("testdata", "metric_names.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("registry names moved; got:\n%s\n\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
