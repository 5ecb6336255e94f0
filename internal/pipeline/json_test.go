package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/codec"
)

func TestResultJSONRoundTrip(t *testing.T) {
	gs, err := NewGameStream(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := gs.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	// Beside the run's own stages, a sweep of nanosecond durations: some
	// (2.012561 ms, the first here) read back a nanosecond short unless the
	// reader rounds.
	for i := range 1000 {
		d := func(k int) time.Duration { return time.Duration(8*i+k) * 12347 }
		res.Frames = append(res.Frames, FrameResult{Index: 4 + i, Type: codec.Inter, Stages: Stages{
			Input: d(0), Render: d(1), RoIDetect: d(2), Encode: d(3),
			Transmit: d(4), Decode: d(5), Upscale: d(6), Display: d(7),
		}})
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back resultJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Pipeline != res.Pipeline || back.Device != res.Device.Name {
		t.Fatalf("metadata lost: %s / %s", back.Pipeline, back.Device)
	}
	if len(back.Frames) != len(res.Frames) {
		t.Fatalf("frame count %d vs %d", len(back.Frames), len(res.Frames))
	}
	for i := range res.Frames {
		a, b := res.Frames[i], back.Frames[i]
		if a.Type.String() != b.Type || a.RoI != b.RoI || a.Bytes != b.Bytes || a.CodedBytes != b.CodedBytes {
			t.Fatalf("frame %d metadata mismatch", i)
		}
		if a.PSNR != float64(b.PSNR) || a.SSIM != b.SSIM || a.LPIPS != b.LPIPS {
			t.Fatalf("frame %d quality mismatch", i)
		}
		// A float millisecond carries every nanosecond of a stage: rounding
		// it back gives the duration exactly.
		names := a.Stages.Names()
		for k, v := range a.Stages.Values() {
			if got := time.Duration(math.Round(b.Stages[names[k]] * float64(time.Millisecond))); got != v {
				t.Fatalf("frame %d stage %s: %v vs %v", i, names[k], got, v)
			}
		}
		if len(a.Energy) != len(b.Energy) {
			t.Fatalf("frame %d: %d rails vs %d", i, len(b.Energy), len(a.Energy))
		}
		for rail, j := range a.Energy {
			if b.Energy[rail.String()] != j {
				t.Fatalf("frame %d rail %v: %v vs %v", i, rail, b.Energy[rail.String()], j)
			}
		}
	}
}

// TestResultJSONInfinitePSNR archives a frame identical to its ground truth
// (PSNR +Inf) beside a finite one: the infinity is written as the string
// "+Inf", the finite value as the same number encoding/json writes for a
// plain float64.
func TestResultJSONInfinitePSNR(t *testing.T) {
	const finite = 31.415926535897932
	res := &Result{Pipeline: "x", Frames: []FrameResult{
		{Index: 0, Type: codec.Intra, PSNR: math.Inf(1), SSIM: 1},
		{Index: 1, Type: codec.Inter, PSNR: finite, SSIM: 0.9, LPIPS: 0.1},
	}}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	plain, _ := json.Marshal(float64(finite))
	for _, want := range []string{`"psnr_db": "+Inf"`, `"psnr_db": ` + string(plain) + ","} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("archive lacks %s:\n%s", want, buf.String())
		}
	}
}

func TestJSONContainsReadableFields(t *testing.T) {
	gs, _ := NewGameStream(testConfig(t))
	res, err := gs.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"pipeline": "gamestreamsr"`, `"psnr_db"`, `"stages_ms"`, `"upscale"`, `"npu"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}
