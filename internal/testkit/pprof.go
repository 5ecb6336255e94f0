package testkit

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TraceSample is one sample block of `go tool pprof -traces`: its labels,
// its CPU time in nanoseconds and its stack, leaf first.
type TraceSample struct {
	Labels map[string]string
	Nanos  int64
	Stack  []string
}

const tracesSeparator = "-----------+-------------------------------------------------------\n"

var (
	tracesTotal = regexp.MustCompile(`Total samples = (\d+)(?:ns)? `)
	tracesLabel = regexp.MustCompile(`^ *(\S+):  (.*)$`)
	tracesValue = regexp.MustCompile(`^ *(\d+)(?:ns)?   (\S.*)$`)
	tracesFrame = regexp.MustCompile(`^ +(\S.*)$`)
)

// PprofTraces reads profile's samples through the local toolchain's
// `go tool pprof -traces`, in nanoseconds, and returns the header's total
// with every sample block. Output it cannot parse fails the test, and so
// does a set of blocks whose values do not add up to the total: a change
// in the toolchain's format must show, not pass as an empty profile.
func PprofTraces(t *testing.T, profile []byte) (total int64, samples []TraceSample) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "cpu.pb.gz")
	if err := os.WriteFile(file, profile, 0o644); err != nil {
		t.Fatal(err)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", "-symbolize=none", "-unit=ns", file)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local") // never download a toolchain
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go tool pprof -traces: %v\n%s", err, stderr.Bytes())
	}
	head, body, ok := strings.Cut(string(out), tracesSeparator)
	m := tracesTotal.FindStringSubmatch(head)
	if !ok || m == nil {
		t.Fatalf("go tool pprof -traces: no separator or no Total samples header in:\n%s", out)
	}
	total, _ = strconv.ParseInt(m[1], 10, 64)
	blocks := strings.Split(body, tracesSeparator)
	if blocks[len(blocks)-1] != "" {
		t.Fatalf("go tool pprof -traces: output does not end on a separator:\n%s", blocks[len(blocks)-1])
	}
	var sum int64
	for _, blk := range blocks[:len(blocks)-1] {
		s := TraceSample{Labels: map[string]string{}}
		for _, line := range strings.Split(strings.TrimSuffix(blk, "\n"), "\n") {
			switch {
			case s.Stack == nil && tracesValue.MatchString(line):
				m := tracesValue.FindStringSubmatch(line)
				s.Nanos, _ = strconv.ParseInt(m[1], 10, 64)
				s.Stack = []string{m[2]}
			case s.Stack == nil && tracesLabel.MatchString(line):
				m := tracesLabel.FindStringSubmatch(line)
				s.Labels[m[1]] = m[2]
			case s.Stack != nil && tracesFrame.MatchString(line):
				s.Stack = append(s.Stack, tracesFrame.FindStringSubmatch(line)[1])
			default:
				t.Fatalf("go tool pprof -traces: unparseable line %q in sample block:\n%s", line, blk)
			}
		}
		if s.Stack == nil {
			t.Fatalf("go tool pprof -traces: sample block without a value line:\n%s", blk)
		}
		sum += s.Nanos
		samples = append(samples, s)
	}
	if sum != total {
		t.Fatalf("go tool pprof -traces: sample blocks add up to %dns, header says %dns", sum, total)
	}
	return total, samples
}
