// Package logx is the repo's structured, leveled, ring-buffered logger.
//
// Every line is a message plus flat key=value fields (session, frame,
// flight, …) so log output correlates with the flight recorder
// and /metrics without regex archaeology. Lines go to the writer (stderr
// by default) AND into a bounded in-memory ring; the diag capture bundle
// freezes the ring at trigger time, so the last few hundred lines of
// context travel with every postmortem.
//
// The API mirrors log/slog's alternating key/value convention but stays
// dependency-free and allocation-light: levels are a plain int, fields
// are rendered inline, and the ring stores pre-formatted lines. A nil
// *Logger falls through to the process-wide Default() logger, so library
// code can thread an optional logger without branching.
package logx

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities. The zero value is Info, so a
// zero-configured logger behaves like the stdlib log package with Debug
// lines suppressed.
type Level int32

const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the fixed-width level tag used in rendered lines.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "DEBUG"
	case l == LevelInfo:
		return "INFO"
	case l == LevelWarn:
		return "WARN"
	default:
		return "ERROR"
	}
}

// Entry is one captured log line as stored in the ring and serialised
// into diag bundles.
type Entry struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Level string    `json:"level"`
	Line  string    `json:"line"` // the message and its fields, without time or level
}

// Config parameterises New.
type Config struct {
	// Out receives rendered lines (default os.Stderr). Set io.Discard to
	// keep the ring without console output.
	Out io.Writer
	// Level is the minimum level written (default LevelInfo).
	Level Level
	// Ring is the line capacity of the in-memory ring (default 512;
	// negative disables the ring).
	Ring int
}

// Logger is a leveled structured logger with a bounded ring of recent
// lines. All methods are safe for concurrent use; a nil *Logger means
// Default().
type Logger struct {
	min atomic.Int32

	mu   sync.Mutex
	out  io.Writer
	ring []Entry // fixed capacity once allocated
	next uint64  // total lines ever ringed; ring[next%len] is the oldest
	buf  []byte  // render scratch, reused under mu
}

// New builds a Logger from cfg.
func New(cfg Config) *Logger {
	l := &Logger{out: cfg.Out}
	if l.out == nil {
		l.out = os.Stderr
	}
	n := cfg.Ring
	if n == 0 {
		n = 512
	}
	if n > 0 {
		l.ring = make([]Entry, n)
	}
	l.min.Store(int32(cfg.Level))
	return l
}

var (
	defaultOnce sync.Once
	defaultLog  *Logger
)

// Default returns the process-wide logger (stderr, Info, 512-line ring),
// creating it on first use.
func Default() *Logger {
	defaultOnce.Do(func() { defaultLog = New(Config{}) })
	return defaultLog
}

// norm resolves the nil-logger convention.
func (l *Logger) norm() *Logger {
	if l == nil {
		return Default()
	}
	return l
}

// SetLevel changes the minimum level written.
func (l *Logger) SetLevel(v Level) { l.norm().min.Store(int32(v)) }

// Enabled reports whether lines at level v are currently written.
func (l *Logger) Enabled(v Level) bool { return int32(v) >= l.norm().min.Load() }

// Log writes one line at level v: msg followed by alternating key/value
// pairs rendered as " key=value". An odd trailing key is rendered as
// " key=?". Values are formatted with %v; strings containing spaces are
// quoted so lines stay machine-splittable.
func (l *Logger) Log(v Level, msg string, kv ...any) {
	l = l.norm()
	if int32(v) < l.min.Load() {
		return
	}
	now := time.Now()
	l.mu.Lock()
	b := l.buf[:0]
	b = now.AppendFormat(b, "2006/01/02 15:04:05.000000")
	b = append(b, ' ')
	b = append(b, v.String()...)
	b = append(b, ' ')
	at := len(b) // ring entries carry Time and Level separately
	b = append(b, msg...)
	for i := 0; i < len(kv); i += 2 {
		b = append(b, ' ')
		b = append(b, fmt.Sprint(kv[i])...)
		b = append(b, '=')
		if i+1 >= len(kv) {
			b = append(b, '?')
			break
		}
		b = appendValue(b, kv[i+1])
	}
	line := string(b[at:])
	if len(l.ring) > 0 {
		slot := &l.ring[l.next%uint64(len(l.ring))]
		l.next++
		*slot = Entry{Seq: l.next, Time: now, Level: v.String(), Line: line}
	}
	b = append(b, '\n')
	_, _ = l.out.Write(b)
	l.buf = b[:0]
	l.mu.Unlock()
}

// appendValue renders one field value, quoting strings with spaces.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		if needsQuote(x) {
			return strconv.AppendQuote(b, x)
		}
		return append(b, x...)
	case error:
		return strconv.AppendQuote(b, x.Error())
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case time.Duration:
		return append(b, x.String()...)
	default:
		s := fmt.Sprint(v)
		if needsQuote(s) {
			return strconv.AppendQuote(b, s)
		}
		return append(b, s...)
	}
}

func needsQuote(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == ' ' || c == '"' || c == '=' || c < 0x20 {
			return true
		}
	}
	return false
}

// Debug, Info, Warn and Error are Log at the respective level.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }
func (l *Logger) Info(msg string, kv ...any)  { l.Log(LevelInfo, msg, kv...) }
func (l *Logger) Warn(msg string, kv ...any)  { l.Log(LevelWarn, msg, kv...) }
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

// Package-level shortcuts on Default().
func Debug(msg string, kv ...any) { Default().Log(LevelDebug, msg, kv...) }
func Info(msg string, kv ...any)  { Default().Log(LevelInfo, msg, kv...) }
func Warn(msg string, kv ...any)  { Default().Log(LevelWarn, msg, kv...) }
func Error(msg string, kv ...any) { Default().Log(LevelError, msg, kv...) }

// Recent returns up to max of the newest ring entries, oldest first.
// max <= 0 returns the whole ring. The result is a copy.
func (l *Logger) Recent(max int) []Entry {
	l = l.norm()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.ring)
	if n == 0 {
		return nil
	}
	have := int(l.next)
	if have > n {
		have = n
	}
	if max > 0 && have > max {
		have = max
	}
	out := make([]Entry, 0, have)
	for i := 0; i < have; i++ {
		idx := (l.next - uint64(have) + uint64(i)) % uint64(len(l.ring))
		out = append(out, l.ring[idx])
	}
	return out
}
