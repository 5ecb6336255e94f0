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
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Pipeline != res.Pipeline || back.Device == nil || back.Device.Name != res.Device.Name {
		t.Fatalf("metadata lost: %s / %v", back.Pipeline, back.Device)
	}
	if len(back.Frames) != len(res.Frames) {
		t.Fatalf("frame count %d vs %d", len(back.Frames), len(res.Frames))
	}
	for i := range res.Frames {
		a, b := res.Frames[i], back.Frames[i]
		if a.Type != b.Type || a.RoI != b.RoI || a.Bytes != b.Bytes || a.CodedBytes != b.CodedBytes {
			t.Fatalf("frame %d metadata mismatch", i)
		}
		if math.Abs(a.PSNR-b.PSNR) > 1e-9 || math.Abs(a.SSIM-b.SSIM) > 1e-9 {
			t.Fatalf("frame %d quality mismatch", i)
		}
		// Durations round-trip exactly: a float millisecond carries every
		// nanosecond of a stage, and reading rounds it back.
		if a.Stages != b.Stages {
			t.Fatalf("frame %d stages: %+v vs %+v", i, a.Stages, b.Stages)
		}
		if math.Abs(a.EnergyTotal()-b.EnergyTotal()) > 1e-9 {
			t.Fatalf("frame %d energy mismatch", i)
		}
	}
	// Derived metrics still work on the loaded result.
	if _, err := back.MeanMTP(0); err != nil {
		t.Error(err)
	}
	if _, err := back.GOPEnergyTotal(60); err != nil {
		t.Error(err)
	}
}

// TestResultJSONInfinitePSNR archives a frame identical to its ground truth
// (PSNR +Inf) beside a finite one: both round-trip, the infinity as the
// string "+Inf", the finite value as the same number encoding/json writes
// for a plain float64.
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
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Frames) != 2 || !math.IsInf(back.Frames[0].PSNR, 1) || back.Frames[1].PSNR != finite {
		t.Fatalf("round trip gave %+v", back.Frames)
	}
	for _, bad := range []string{`"NaN"`, `"12"`, `"inf dB"`} {
		in := `{"pipeline":"x","device":"","frames":[{"index":0,"type":"intra","stages_ms":{},"roi":{},"psnr_db":` + bad + `,"ssim":0,"lpips":0,"bytes":0,"coded_bytes":0,"energy_j":{}}]}`
		if _, err := ReadResultJSON(strings.NewReader(in)); err == nil {
			t.Errorf("psnr_db %s should not decode", bad)
		}
	}
}

func TestReadResultJSONErrors(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"pipeline":"x","device":"","frames":[{"index":0,"type":"weird","stages_ms":{},"roi":{},"psnr_db":0,"ssim":0,"lpips":0,"bytes":0,"coded_bytes":0,"energy_j":{}}]}`,
		`{"pipeline":"x","device":"","frames":[{"index":0,"type":"intra","stages_ms":{},"roi":{},"psnr_db":0,"ssim":0,"lpips":0,"bytes":0,"coded_bytes":0,"energy_j":{"warp":1}}]}`,
		`{"pipeline":"x","unknown_field":1,"frames":[]}`,
	}
	for i, c := range cases {
		if _, err := ReadResultJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
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
