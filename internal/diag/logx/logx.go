// Package logx holds what the repo's logging needs beyond log/slog: the
// bounded ring of recent lines that diag bundles freeze (Ring, a
// slog.Handler) and a per-key limiter for repetitive lines (Limiter).
//
// Code logs through log/slog with flat key/value fields (session, frame,
// flight, …), so lines correlate with the flight recorder and /metrics
// without regex archaeology. Each binary installs slog.New(Default()) as
// slog's default at the start of main: every line goes to stderr through
// a slog.TextHandler AND into the ring, and the diag capture bundle takes
// the last few hundred lines of context with every postmortem.
package logx

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// Entry is one captured log line as stored in the ring and serialised
// into diag bundles.
type Entry struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Level string    `json:"level"`
	Line  string    `json:"line"` // the message and its fields, without time or level
}

// ringLines is how many of the newest lines a Ring keeps.
const ringLines = 512

// Ring is a slog.Handler that passes each record to a slog.TextHandler and
// keeps the newest ringLines lines. All methods are safe for concurrent
// use; the handlers WithAttrs and WithGroup derive share the ring.
type Ring struct {
	*ring
	out  slog.Handler // the writer's handler
	line slog.Handler // renders the ring's lines into ring.buf
}

type ring struct {
	mu      sync.Mutex
	entries [ringLines]Entry
	next    uint64 // total lines ever ringed; entries[next%ringLines] is the oldest
	buf     bytes.Buffer
}

// NewRing returns a handler writing to w. It writes and keeps the records
// at Info and above.
func NewRing(w io.Writer) *Ring {
	r := &ring{}
	return &Ring{
		ring: r,
		out:  slog.NewTextHandler(w, nil),
		line: slog.NewTextHandler(&r.buf, nil),
	}
}

var defaultRing = NewRing(os.Stderr)

// Default returns the process-wide ring, writing to stderr.
func Default() *Ring { return defaultRing }

// Enabled reports whether records at level l are written and kept.
func (h *Ring) Enabled(ctx context.Context, l slog.Level) bool { return h.out.Enabled(ctx, l) }

// Handle writes r and stores its line: the message, then the fields as
// the TextHandler renders them.
func (h *Ring) Handle(ctx context.Context, r slog.Record) error {
	err := h.out.Handle(ctx, r)
	// With no time and an empty message, the line handler writes
	// `level=L msg="" <fields>`; the fields follow that fixed prefix.
	bare := r
	bare.Time, bare.Message = time.Time{}, ""
	skip := len("level=") + len(r.Level.String()) + len(` msg=""`)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buf.Reset()
	_ = h.line.Handle(ctx, bare)
	fields := bytes.TrimSuffix(h.buf.Bytes()[skip:], []byte("\n"))
	h.next++
	h.entries[(h.next-1)%ringLines] = Entry{
		Seq: h.next, Time: r.Time, Level: r.Level.String(), Line: r.Message + string(fields),
	}
	return err
}

// WithAttrs returns a handler whose records carry as, sharing h's ring.
func (h *Ring) WithAttrs(as []slog.Attr) slog.Handler {
	return &Ring{ring: h.ring, out: h.out.WithAttrs(as), line: h.line.WithAttrs(as)}
}

// WithGroup returns a handler that qualifies later keys with name,
// sharing h's ring.
func (h *Ring) WithGroup(name string) slog.Handler {
	return &Ring{ring: h.ring, out: h.out.WithGroup(name), line: h.line.WithGroup(name)}
}

// Recent returns up to max of the newest ring entries, oldest first.
// max <= 0 returns the whole ring. The result is a copy.
func (h *Ring) Recent(max int) []Entry {
	h.mu.Lock()
	defer h.mu.Unlock()
	have := min(h.next, ringLines)
	if max > 0 {
		have = min(have, uint64(max))
	}
	out := make([]Entry, have)
	for i := range out {
		out[i] = h.entries[(h.next-have+uint64(i))%ringLines]
	}
	return out
}
