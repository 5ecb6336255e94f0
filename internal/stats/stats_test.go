package stats

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%.0f = %f, want %f (%v)", c.p, got, c.want, err)
		}
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("negative percentile should fail")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("empty percentile should fail")
	}
	if got, _ := Percentile([]float64{7}, 50); got != 7 {
		t.Error("single-sample percentile")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("percentile sorted the caller's slice")
	}
}

func TestSummaryMatchesPackageFunctions(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 8}
	s, err := NewSummary(xs)
	if err != nil {
		t.Fatal(err)
	}
	if xs[0] != 4 {
		t.Error("NewSummary sorted the caller's slice")
	}
	if s.Min() != 1 {
		t.Errorf("min = %f, want 1", s.Min())
	}
	for _, p := range []float64{0, 12.5, 25, 50, 75, 99, 100} {
		want, _ := Percentile(xs, p)
		got, err := s.Percentile(p)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("p%.1f = %f, want %f (%v)", p, got, want, err)
		}
	}
	if _, err := s.Percentile(101); err == nil {
		t.Error("out-of-range percentile should fail")
	}
}

func TestSummaryEmpty(t *testing.T) {
	if _, err := NewSummary(nil); err != ErrEmpty {
		t.Errorf("empty summary err = %v", err)
	}
}

func TestBucketPercentile(t *testing.T) {
	// 10 samples uniformly in (0,10]: bounds 2,4,6,8,+Inf with 2 each.
	bounds := []float64{2, 4, 6, 8, math.Inf(1)}
	counts := []int64{2, 2, 2, 2, 2}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {0, 0.5}, {100, 10}, {90, 9},
	} {
		got, err := BucketPercentile(bounds, counts, 0.5, 10, c.p)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%.0f = %f, want %f (%v)", c.p, got, c.want, err)
		}
	}
	if _, err := BucketPercentile(bounds, counts[:4], 0, 1, 50); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := BucketPercentile(bounds, []int64{0, 0, 0, 0, 0}, 0, 1, 50); err != ErrEmpty {
		t.Error("empty histogram should fail")
	}
	if _, err := BucketPercentile(bounds, counts, 0, 1, 101); err == nil {
		t.Error("out-of-range percentile should fail")
	}
}

func TestBucketPercentileSingleBucket(t *testing.T) {
	got, err := BucketPercentile([]float64{math.Inf(1)}, []int64{4}, 3, 7, 50)
	if err != nil || got < 3 || got > 7 {
		t.Errorf("single-bucket p50 = %f, %v", got, err)
	}
}
