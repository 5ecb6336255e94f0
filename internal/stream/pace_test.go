package stream

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
)

// stampSource serves n instant frames, except that frame slow takes
// slowFor, and notes when each was asked for.
type stampSource struct {
	n, slow int
	slowFor time.Duration

	mu    sync.Mutex
	asked []time.Time
}

func (s *stampSource) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	if i >= s.n {
		return nil, false, frame.Rect{}, io.EOF
	}
	s.mu.Lock()
	s.asked = append(s.asked, time.Now())
	s.mu.Unlock()
	if i == s.slow {
		time.Sleep(s.slowFor)
	}
	return []byte{byte(i)}, i == 0, frame.Rect{W: 4, H: 4}, nil
}

// TestFrameInterval: a paced session asks its source for frames on a
// schedule of one an interval, a slow frame is not followed by a burst that
// catches the schedule up, and the wait is nobody's frame time — only the
// slow frame is over a deadline shorter than the interval.
func TestFrameInterval(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		n, slow  = 12, 4
		slowFor  = 4 * interval
	)
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	src := &stampSource{n: n, slow: slow, slowFor: slowFor}
	rec := frametrace.New(frametrace.Config{Frames: n, Deadline: interval / 2})
	done := serveFrames(server, ServerOptions{Source: src, FrameInterval: interval, Flight: rec})

	c := NewClient(client)
	if _, err := c.Handshake(Hello{Device: "pace", RoIWindow: 8, Scale: 2}); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := c.RecvFrame(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	c.Bye()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if len(src.asked) != n {
		t.Fatalf("source asked for %d frames, want %d", len(src.asked), n)
	}
	// Frame j may be asked for late (a timer that fires late, the slow frame
	// before it) and the one after it is then due the sooner, but from there
	// on the schedule holds: a pacer that caught up with a burst, or none,
	// would put three frames inside one interval.
	for j := 0; j < n; j++ {
		for i := j + 2; i < n; i++ {
			if gap, least := src.asked[i].Sub(src.asked[j]), time.Duration(i-j-1)*interval; gap < least {
				t.Errorf("frame %d asked for %v after frame %d, schedule says %v or more", i, gap, j, least)
			}
		}
	}
	over := 0
	for _, f := range rec.Snapshot().Frames {
		if f.Missed {
			over++
			if f.Index != slow {
				t.Errorf("frame %d is over the deadline: the pacer's wait was counted as its work", f.Index)
			}
		}
	}
	if over != 1 {
		t.Errorf("%d frames over the deadline, want the slow one only", over)
	}
}
