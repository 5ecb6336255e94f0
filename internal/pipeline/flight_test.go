package pipeline_test

// Flight-recorder extension of the engine contracts: attaching a recorder
// must not perturb results (the determinism contract), every frame must
// leave a complete record in the ring, and a deadline miss must be
// postmortem-able end to end — the /debug/flight payload parses back with
// the missing frame's full span tree and attributes.

import (
	"bytes"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/network"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/telemetry"
)

// detConfigFlight is detConfig with the flight recorder (and its SLO
// instruments) attached: the determinism contract must hold unchanged with
// recording on.
func detConfigFlight(t testing.TB) pipeline.Config {
	cfg := detConfig(t)
	cfg.Flight = frametrace.New(frametrace.Config{Metrics: telemetry.NewRegistry()})
	return cfg
}

// TestRunDeterministicWithFlight asserts recorded runs are byte-identical
// to unrecorded ones across GOMAXPROCS settings — the recorder observes the
// pipeline, never steers it.
func TestRunDeterministicWithFlight(t *testing.T) {
	plain := runners(t)
	recorded := runnersWith(t, detConfigFlight(t))
	for name := range plain {
		t.Run(name, func(t *testing.T) {
			base := runJSON(t, plain[name])
			withFlight := runJSON(t, recorded[name])
			if !bytes.Equal(base, withFlight) {
				t.Fatalf("%s: attaching the flight recorder changed the result JSON", name)
			}
			prev := runtime.GOMAXPROCS(1)
			serial := runJSON(t, recorded[name])
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(base, serial) {
				t.Fatalf("%s: flight-attached GOMAXPROCS=1 run disagrees", name)
			}
		})
	}
}

// TestEngineFlightRecords asserts the engine populates the ring: one record
// per frame with the full server/client/measure span tree, the encode
// attributes, frozen flags matching the result's drops, and deadline
// accounting for every delivered frame.
func TestEngineFlightRecords(t *testing.T) {
	cfg := detConfig(t)
	rec := frametrace.New(frametrace.Config{Metrics: telemetry.NewRegistry()})
	cfg.Flight = rec
	gs, err := pipeline.NewGameStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	res, err := gs.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Snapshot()
	if len(d.Frames) != n {
		t.Fatalf("ring holds %d frames, want %d", len(d.Frames), n)
	}
	frozen := 0
	for _, f := range d.Frames {
		if len(f.Spans) != 3 {
			t.Errorf("frame %d: %d spans, want server/client/measure", f.ID, len(f.Spans))
			continue
		}
		for i, lane := range []string{"server", "client", "measure"} {
			if f.Spans[i].Lane != lane {
				t.Errorf("frame %d span %d on lane %q, want %q", f.ID, i, f.Spans[i].Lane, lane)
			}
		}
		if f.CodedBytes <= 0 || f.RoI.W <= 0 || f.RoI.H <= 0 {
			t.Errorf("frame %d: encode attributes missing: %+v", f.ID, f)
		}
		if f.Frozen {
			frozen++
			if f.Latency != 0 {
				t.Errorf("frozen frame %d carries a latency", f.ID)
			}
		} else if f.Latency <= 0 {
			t.Errorf("delivered frame %d has no deadline accounting", f.ID)
		}
	}
	if frozen != res.DropCount() {
		t.Errorf("%d frozen records, result dropped %d", frozen, res.DropCount())
	}
	rep := rec.Report()
	if rep.Frames != n || rep.Delivered != int64(n-res.DropCount()) {
		t.Errorf("report frames/delivered = %d/%d, want %d/%d", rep.Frames, rep.Delivered, n, n-res.DropCount())
	}
}

// TestFlightDumpOnDeadlineMiss is the postmortem path end to end: force
// every frame over the deadline, fetch /debug/flight the way an operator
// would, and verify the payload parses back with the missing frame's full
// span tree, RoI and coded-bytes attributes.
func TestFlightDumpOnDeadlineMiss(t *testing.T) {
	cfg := detConfig(t)
	cfg.Net = network.Config{} // no loss: every frame is delivered and accounted
	rec := frametrace.New(frametrace.Config{
		Deadline: time.Microsecond, // no modelled frame can make this
	})
	cfg.Flight = rec
	gs, err := pipeline.NewGameStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	if _, err := gs.Run(n); err != nil {
		t.Fatal(err)
	}
	if misses := rec.Report().Misses; misses != n {
		t.Fatalf("%d frames missed the deadline, want %d", misses, n)
	}
	var missedIDs []uint64
	for _, f := range rec.Snapshot().Frames {
		if f.Missed {
			missedIDs = append(missedIDs, f.ID)
		}
	}
	if len(missedIDs) != n {
		t.Fatalf("the recorder flags %d frames missed, want %d", len(missedIDs), n)
	}

	srv := httptest.NewServer(telemetry.Handler(nil, rec))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/flight Content-Type = %q", ct)
	}
	dumps, err := frametrace.ParseChromeTrace(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("parsed %d processes, want 1", len(dumps))
	}
	found := 0
	for _, f := range dumps[0].Dump.Frames {
		if f.ID != missedIDs[0] {
			continue
		}
		found++
		if !f.Missed || f.Slack >= 0 {
			t.Errorf("missing frame %d not flagged: missed=%v slack=%v", f.ID, f.Missed, f.Slack)
		}
		if len(f.Spans) != 3 {
			t.Errorf("missing frame %d has %d spans, want the full server/client/measure tree", f.ID, len(f.Spans))
		}
		if f.RoI.W <= 0 || f.RoI.H <= 0 || f.CodedBytes <= 0 {
			t.Errorf("missing frame %d lost its RoI/bitstream attributes: %+v", f.ID, f)
		}
	}
	if found != 1 {
		t.Fatalf("missed frame %d appears %d times in the dump", missedIDs[0], found)
	}
}
