package main

import (
	"sort"
	"time"

	"gamestreamsr/internal/stats"
)

// pct is the p-th percentile of xs (linear interpolation); 0 for an empty
// sample, which callers rule out where 0 would be a lie.
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }

// ms is a duration in milliseconds, with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailPct reports the p-th percentile only when at least ten samples lie
// beyond it (choosing-metrics §1); otherwise ok is false and the caller
// reports the metric as absent.
func tailPct(xs []float64, p float64) (v float64, ok bool) {
	if float64(len(xs))*(100-p)/100 < 10 {
		return 0, false
	}
	return pct(xs, p), true
}

// gopWindowFPS is the median, over whole GOP windows of the timed frames, of
// frames-per-window / window duration. presentUS[i] is frame i's present
// time in µs; the timed window starts at presentUS[warm-1] (the instant the
// last warm-up frame was shown). A second of outside disturbance moves one
// window, not the median. The calibration pauses (Unix µs; epochUS is the
// Unix time presentUS counts from) are taken out of every window.
func gopWindowFPS(presentUS []float64, warm, gop int, epochUS int64, pauses []pauseSpan) float64 {
	var rates []float64
	for lo := warm; lo+gop <= len(presentUS); lo += gop {
		from, to := presentUS[lo-1], presentUS[lo+gop-1]
		dt := to - from - pausedUS(pauses, float64(epochUS)+from, float64(epochUS)+to)
		if dt > 0 {
			rates = append(rates, float64(gop)*1e6/dt)
		}
	}
	return median(rates)
}

// span is one traced interval. Parent is the ID of the span that caused it
// (0 for a frame root); spans of one frame share Frame.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Frame   int     `json:"frame"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// selfTimes returns, per span ID, its duration minus the part of its
// interval that its direct children cover (overlapping children are merged
// first, so two parallel children are not subtracted twice).
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartUS < cs[j].StartUS })
		covered, hi := 0.0, s.StartUS
		for _, c := range cs {
			lo, end := max(c.StartUS, hi), min(c.EndUS, s.EndUS)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
