package logx

import (
	"sync"
	"time"
)

// Limiter is a per-key token bucket for repetitive log lines (slow sends,
// shed escalations): one wedged session repeating the same complaint
// hundreds of times per second would otherwise wash every other line out
// of the bounded ring that diag bundles capture. Keys are free-form —
// the stream layer uses "kind:session" so each session gets its own
// bucket and one noisy session cannot silence another's first report.
//
// A nil *Limiter allows everything, so call sites can thread an optional
// limiter without branching.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens     float64
	last       time.Time
	suppressed uint64
}

// maxBuckets bounds the key map: a new key past it evicts the buckets idle
// for over a minute, or the least recently used one when none is. Keys
// carry a session's address, so reconnect churn brings a new key per port.
const maxBuckets = 1024

// NewLimiter builds a limiter allowing ~perSec lines per key sustained,
// with bursts up to burst. perSec <= 0 defaults to 1; burst < 1 clamps
// to 1.
func NewLimiter(perSec float64, burst int) *Limiter {
	if perSec <= 0 {
		perSec = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{rate: perSec, burst: float64(burst), buckets: make(map[string]*bucket)}
}

// Allow reports whether a line for key may be logged now. When it is
// allowed after a suppressed run, suppressed returns how many sibling
// lines were dropped since the last allowed one — append it as a
// "suppressed=N" field so the gap is visible in the record.
func (l *Limiter) Allow(key string) (ok bool, suppressed uint64) {
	if l == nil {
		return true, 0
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		b.suppressed++
		return false, 0
	}
	b.tokens--
	suppressed = b.suppressed
	b.suppressed = 0
	return true, suppressed
}

// evictLocked makes room for one bucket: it drops every bucket idle for
// over a minute, or the least recently used one when none is. Caller
// holds l.mu.
func (l *Limiter) evictLocked(now time.Time) {
	var lru string
	var lruAt time.Time
	for k, b := range l.buckets {
		if now.Sub(b.last) > time.Minute {
			delete(l.buckets, k)
		} else if lruAt.IsZero() || b.last.Before(lruAt) {
			lru, lruAt = k, b.last
		}
	}
	if len(l.buckets) >= maxBuckets {
		delete(l.buckets, lru)
	}
}
