package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gamestreamsr/internal/diag"
)

var burnSink atomic.Uint64

// labelledProfile profiles two burners, each under its own session label.
func labelledProfile(t *testing.T, sessions ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("session", sess), func(context.Context) {
				x := uint64(12345)
				for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
					for i := 0; i < 1<<14; i++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
				}
				burnSink.Add(x)
			})
		}()
	}
	wg.Wait()
	pprof.StopCPUProfile()
	return buf.Bytes()
}

// runDiag writes b to a temporary bundle.json, runs `gssr diag` on it and
// returns the bundle's path and what the command printed.
func runDiag(t *testing.T, b *diag.Bundle) (path, out string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "bundle.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	stdout, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = stdout
	err = cmdDiag([]string{path})
	os.Stdout = saved
	if err != nil {
		t.Fatalf("gssr diag: %v", err)
	}
	printed, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return path, string(printed)
}

func TestCmdDiagHandsProfileToPprof(t *testing.T) {
	profile := labelledProfile(t, "sess-a", "sess-b")
	start := time.Now()
	path, out := runDiag(t, &diag.Bundle{
		Seq: 1, Time: start, Reason: "miss_streak",
		CPUStart: start.Add(-time.Second), CPUEnd: start, CPUProfile: profile,
	})

	cpuFile := filepath.Join(filepath.Dir(path), "bundle.cpu.pb.gz")
	written, err := os.ReadFile(cpuFile)
	if err != nil {
		t.Fatalf("no sibling profile: %v", err)
	}
	if !bytes.Equal(written, profile) {
		t.Errorf("%s holds %d bytes, not the bundle's %d-byte profile", cpuFile, len(written), len(profile))
	}
	for _, want := range []string{"go tool pprof -tags " + cpuFile + "\n", "go tool pprof -top " + cpuFile + "\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-tags", cpuFile)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local") // never download a toolchain
	tags, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -tags: %v\n%s", err, tags)
	}
	for _, sess := range []string{"sess-a", "sess-b"} {
		if !bytes.Contains(tags, []byte(sess)) {
			t.Errorf("go tool pprof -tags does not list session %s:\n%s", sess, tags)
		}
	}
}

func TestCmdDiagWithoutProfile(t *testing.T) {
	path, out := runDiag(t, &diag.Bundle{Seq: 2, Time: time.Now(), Reason: "manual"})
	if !strings.Contains(out, "cpu profile: none\n") {
		t.Errorf("output lacks the no-profile line:\n%s", out)
	}
	if strings.Contains(out, "go tool pprof") {
		t.Errorf("output names a pprof command with no profile:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(path), "bundle.cpu.pb.gz")); !os.IsNotExist(err) {
		t.Errorf("a profile file was written for a bundle without one (stat: %v)", err)
	}
}
