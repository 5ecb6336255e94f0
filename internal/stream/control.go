package stream

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	"net"
	"os"
	"time"

	"gamestreamsr/internal/telemetry"
)

// Liveness defaults (DESIGN.md §15).
const (
	// DefaultControlTimeout bounds small control-message writes (rejects,
	// pongs): a peer that never reads must not wedge the goroutine.
	DefaultControlTimeout = time.Second
	// DefaultPingInterval is the client heartbeat cadence.
	DefaultPingInterval = 2 * time.Second
	// DefaultIdleTimeout is the server's read-liveness bound: three missed
	// ping intervals. A session silent for this long is reaped as dead —
	// slower peers stay on the shed ladder, which handles slow; the reaper
	// handles gone.
	DefaultIdleTimeout = 3 * DefaultPingInterval
)

// controlWrite performs one bounded control-message write (reject,
// pong): it arms a write deadline, runs fn, clears the deadline, and
// counts + logs deadline-exceeded drops. It replaces the raw
// SetWriteDeadline(…time.Second) calls that used to be scattered across
// the server and silently discarded the error. The bound is
// DefaultControlTimeout.
func controlWrite(conn net.Conn, m *telemetry.Registry, lg *slog.Logger, remote, what string, fn func() error) error {
	conn.SetWriteDeadline(time.Now().Add(DefaultControlTimeout))
	err := fn()
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		m.Counter("stream_control_write_errors_total").Inc()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			m.Counter("stream_control_write_deadline_total").Inc()
			lg.Warn("stream: control write timed out (peer not reading)",
				"what", what, "session", remote, "timeout", DefaultControlTimeout)
		}
	}
	return err
}

// newResumeToken mints the opaque token an Accept carries: long enough
// that no other client can guess it and take over the session's identity,
// short enough for the wire's 255-byte token bound.
func newResumeToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a zero token
		// just disables resume for this session rather than crashing it.
		return ""
	}
	return hex.EncodeToString(b[:])
}
