// Package stats provides the small numeric summaries the experiment
// harness and the client report: percentiles and minima.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between order statistics.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p), nil
}

// Summary is a sample summarised once: it copies and sorts the input a
// single time, then serves its minimum and any number of Percentiles
// without re-copying or re-sorting — use it instead of repeated Percentile
// calls on the same sample.
type Summary struct {
	sorted []float64
}

// NewSummary builds a summary of xs. The input is copied; later mutation
// of xs does not affect the summary.
func NewSummary(xs []float64) (*Summary, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := &Summary{sorted: append([]float64(nil), xs...)}
	sort.Float64s(s.sorted)
	return s, nil
}

// Min returns the smallest sample.
func (s *Summary) Min() float64 { return s.sorted[0] }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) with the same
// linear interpolation between order statistics as the package-level
// Percentile, but without its per-call copy and sort.
func (s *Summary) Percentile(p float64) (float64, error) {
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	return sortedPercentile(s.sorted, p), nil
}

// sortedPercentile interpolates the p-th percentile of an ascending,
// non-empty sample.
func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// BucketPercentile estimates the p-th percentile (0 ≤ p ≤ 100) of a
// fixed-bucket histogram: bounds are ascending bucket upper bounds (the
// last may be +Inf for an overflow bucket), counts the per-bucket sample
// counts, and min/max the observed extremes. The estimate interpolates
// linearly within the bucket containing the target rank and is clamped to
// [min, max], so the first bucket starts at min and an overflow bucket
// ends at max.
func BucketPercentile(bounds []float64, counts []int64, min, max, p float64) (float64, error) {
	if len(bounds) != len(counts) {
		return 0, errors.New("stats: bounds and counts length mismatch")
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	var total int64
	for _, c := range counts {
		if c < 0 {
			return 0, errors.New("stats: negative bucket count")
		}
		total += c
	}
	if total == 0 {
		return 0, ErrEmpty
	}
	target := p / 100 * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= target {
			lo := min
			if i > 0 {
				lo = bounds[i-1]
			}
			if lo < min {
				lo = min
			}
			hi := bounds[i]
			if math.IsInf(hi, 1) || hi > max {
				hi = max
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(hi-lo), nil
		}
		cum += c
	}
	return max, nil
}
