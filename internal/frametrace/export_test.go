package frametrace

// Cap returns the ring capacity in frames (0 on a nil recorder), for the
// tests in package frametrace_test.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}
