// Package faultnet is a deterministic, scriptable transport-fault
// injector: a net.Conn / net.Listener wrapper that adds latency and
// jitter, caps bandwidth, splits writes, stalls, resets mid-stream and
// blackholes — the last-mile misbehaviour a production game stream has to
// survive (DESIGN.md §15). It exists so the fault-tolerance layer
// (heartbeats, reaping, reconnect with resume) can be exercised from plain
// `go test` with repeatable faults, and from the `-fault` flag on
// gssr-server and `gssr sim` for interactive chaos experiments.
//
// Faults are driven by a Script: steady-state shaping (latency, jitter,
// bandwidth, partial writes) plus a list of one-shot events, each
// triggered when the connection's cumulative byte count crosses a
// threshold or when wall time elapses. Byte-triggered events make chaos
// tests deterministic — "reset after 48 KB" lands on the same frame
// every run — while the jitter stream is seeded, so a given (script,
// seed, connection index) always produces the same delays.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected is the base error every scripted failure wraps, so tests
// and callers can distinguish an injected fault from a real one.
var ErrInjected = errors.New("faultnet: injected fault")

// Action is what a scripted event does to the connection.
type Action int

// Actions.
const (
	// Reset closes the underlying connection abruptly: in-flight and all
	// subsequent operations fail — the mid-stream TCP reset.
	Reset Action = iota + 1
	// StallRead blocks the next Read for the event's duration.
	StallRead
	// StallWrite blocks the next Write for the event's duration.
	StallWrite
	// Blackhole silently swallows the connection from now on: reads and
	// writes block until the connection is closed locally — the dead peer
	// that keeps its socket open, which only read-side liveness catches.
	Blackhole
)

func (a Action) String() string {
	switch a {
	case Reset:
		return "reset"
	case StallRead:
		return "stall-read"
	case StallWrite:
		return "stall-write"
	case Blackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Event is one scripted fault. Exactly one trigger is set: AtBytes fires
// when the connection's cumulative bytes (read + written) reach the
// threshold; After fires once that much wall time has passed since the
// connection opened. Dur is the stall length for Stall* actions.
type Event struct {
	AtBytes int64
	After   time.Duration
	Action  Action
	Dur     time.Duration
}

// Script is a connection's fault plan: steady-state shaping plus one-shot
// events. The zero Script injects nothing.
type Script struct {
	// Seed keys the jitter stream; connections wrapped by a Listener get
	// Seed+i for the i-th accepted connection, so multi-connection runs
	// are still repeatable.
	Seed int64
	// Latency is added to every Read (one-way propagation delay).
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) random extra to each Read's
	// latency, drawn from the seeded stream.
	Jitter time.Duration
	// BandwidthBps caps write throughput (bytes/second); 0 = unlimited.
	BandwidthBps int64
	// MaxWrite splits every Write into chunks of at most this many bytes
	// (partial writes); 0 = unlimited.
	MaxWrite int
	// Events are the one-shot faults, applied in the order their triggers
	// fire.
	Events []Event
}

// Conn wraps a net.Conn with the script's faults. Safe for one concurrent
// reader plus one concurrent writer (the net.Conn contract).
type Conn struct {
	inner net.Conn

	mu      sync.Mutex
	script  Script
	rng     *rand.Rand
	start   time.Time
	total   int64 // cumulative bytes, both directions
	pending []Event
	reset   bool
	dark    bool // blackholed

	closed    chan struct{}
	closeOnce sync.Once
}

// Wrap applies script to an established connection.
func Wrap(conn net.Conn, script Script) *Conn {
	return &Conn{
		inner:   conn,
		script:  script,
		rng:     rand.New(rand.NewSource(script.Seed)),
		start:   time.Now(),
		pending: append([]Event(nil), script.Events...),
		closed:  make(chan struct{}),
	}
}

// sleep waits for d but returns early (false) if the connection is closed
// locally — a stalled chaos conn must not outlive its test.
func (c *Conn) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closed:
		return false
	}
}

// fire consumes every pending event whose trigger has been crossed and
// returns the stall the caller owes (dir selects which stalls apply).
// Called with c.mu held.
func (c *Conn) fireLocked(dir Action) (stall time.Duration, err error) {
	elapsed := time.Since(c.start)
	kept := c.pending[:0]
	for _, ev := range c.pending {
		hit := (ev.AtBytes > 0 && c.total >= ev.AtBytes) ||
			(ev.AtBytes == 0 && elapsed >= ev.After)
		if !hit {
			kept = append(kept, ev)
			continue
		}
		switch ev.Action {
		case Reset:
			c.reset = true
		case Blackhole:
			c.dark = true
		case StallRead, StallWrite:
			if ev.Action == dir {
				stall += ev.Dur
			} else {
				// Not this direction's stall: leave it armed for the
				// other side of the conn.
				kept = append(kept, ev)
			}
		}
	}
	c.pending = kept
	if c.reset {
		return stall, fmt.Errorf("%w: connection reset", ErrInjected)
	}
	return stall, nil
}

// preOp runs the shared fault logic before a read or write: consume
// triggered events, honor resets, stalls and blackholes, and compute the
// read-side latency+jitter delay. Returns an error if the operation must
// fail instead of proceeding.
func (c *Conn) preOp(dir Action) error {
	c.mu.Lock()
	stall, err := c.fireLocked(dir)
	dark := c.dark
	var delay time.Duration
	if err == nil && dir == StallRead {
		delay = c.script.Latency
		if c.script.Jitter > 0 {
			delay += time.Duration(c.rng.Int63n(int64(c.script.Jitter)))
		}
	}
	c.mu.Unlock()
	if err != nil {
		c.inner.Close()
		return err
	}
	if dark {
		// Swallowed: block until the conn is closed locally.
		<-c.closed
		return fmt.Errorf("%w: blackholed", ErrInjected)
	}
	if !c.sleep(stall + delay) {
		return net.ErrClosed
	}
	return nil
}

// Read applies latency, jitter, stalls, resets and blackholes, then reads
// from the wrapped connection.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.preOp(StallRead); err != nil {
		return 0, err
	}
	n, err := c.inner.Read(p)
	c.mu.Lock()
	c.total += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write applies partial-write splitting, bandwidth caps, stalls, resets
// and blackholes, then writes to the wrapped connection.
func (c *Conn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		if err := c.preOp(StallWrite); err != nil {
			return written, err
		}
		chunk := p[written:]
		c.mu.Lock()
		if c.script.MaxWrite > 0 && len(chunk) > c.script.MaxWrite {
			chunk = chunk[:c.script.MaxWrite]
		}
		bw := c.script.BandwidthBps
		c.mu.Unlock()
		if bw > 0 {
			// Pace the chunk at the capped rate before it hits the wire.
			if !c.sleep(time.Duration(int64(len(chunk)) * int64(time.Second) / bw)) {
				return written, net.ErrClosed
			}
		}
		n, err := c.inner.Write(chunk)
		written += n
		c.mu.Lock()
		c.total += int64(n)
		c.mu.Unlock()
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Close closes the wrapped connection and releases any blocked or stalled
// operations.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

// The rest of net.Conn delegates to the wrapped connection.

func (c *Conn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.inner.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Listener wraps a net.Listener so every accepted connection runs the
// script. The i-th accepted connection is seeded Script.Seed+i, keeping
// multi-connection chaos runs repeatable. By default only the first
// connection gets the script's one-shot events (a reset script should
// kill one session, not every reconnect attempt after it); set EventsAll
// to arm the events on every connection.
type Listener struct {
	net.Listener
	Script Script
	// EventsAll arms the script's one-shot events on every accepted
	// connection instead of only the first.
	EventsAll bool

	mu sync.Mutex
	n  int64
}

// WrapListener applies script to every connection l accepts.
func WrapListener(l net.Listener, script Script) *Listener {
	return &Listener{Listener: l, Script: script}
}

// Accept waits for the next connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.n
	l.n++
	l.mu.Unlock()
	s := l.Script
	s.Seed += i
	if i > 0 && !l.EventsAll {
		s.Events = nil
	}
	return Wrap(conn, s), nil
}
