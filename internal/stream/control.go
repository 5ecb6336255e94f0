package stream

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/telemetry"
)

// Liveness defaults (DESIGN.md §15).
const (
	// DefaultControlTimeout bounds small control-message writes (rejects,
	// byes, pongs): a peer that never reads must not wedge the goroutine.
	DefaultControlTimeout = time.Second
	// DefaultPingInterval is the client heartbeat cadence.
	DefaultPingInterval = 2 * time.Second
	// DefaultIdleTimeout is the server's read-liveness bound: three missed
	// ping intervals. A session silent for this long is reaped as dead —
	// slower peers stay on the shed/eviction ladders, which handle slow;
	// the reaper handles gone.
	DefaultIdleTimeout = 3 * DefaultPingInterval
	// DefaultParkGrace is how long a publisher-dropped channel stays parked
	// awaiting a resume-token reclaim before it closes for real.
	DefaultParkGrace = 10 * time.Second
)

// controlWrite performs one bounded control-message write (reject, bye,
// pong): it arms a write deadline when the transport has one, runs fn,
// clears the deadline, and counts + logs deadline-exceeded drops. It
// replaces the raw SetWriteDeadline(…time.Second) calls that used to be
// scattered across the server and silently discarded the error; timeout
// <= 0 picks DefaultControlTimeout.
func controlWrite(conn io.Writer, m *telemetry.Registry, lg *logx.Logger, timeout time.Duration, remote, what string, fn func() error) error {
	if timeout <= 0 {
		timeout = DefaultControlTimeout
	}
	d, ok := conn.(interface{ SetWriteDeadline(time.Time) error })
	if ok {
		d.SetWriteDeadline(time.Now().Add(timeout))
	}
	err := fn()
	if ok {
		d.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		m.Counter("stream_control_write_errors_total").Inc()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			m.Counter("stream_control_write_deadline_total").Inc()
			lg.Warn("stream: control write timed out (peer not reading)",
				"what", what, "session", remote, "timeout", timeout)
		}
	}
	return err
}

// newResumeToken mints the opaque token an Accept carries: long enough
// that a reclaim cannot be guessed, short enough for the wire's 255-byte
// token bound.
func newResumeToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a zero token
		// just disables resume for this session rather than crashing it.
		return ""
	}
	return hex.EncodeToString(b[:])
}
