package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// proc is one child process of a workload. Its stdout and stderr are read
// line by line as they arrive (the server's listen address is in one of
// them). Its CPU comes from wait4's rusage once it has ended, so it covers
// the child and nothing of the harness. Its peak RSS does not: a child
// started by vfork+exec inherits the parent's high-water mark in ru_maxrss,
// so a small child would report the harness's size. The peak is instead the
// child's own VmHWM, sampled from /proc while it lives.
type proc struct {
	name string
	cmd  *exec.Cmd

	hwmKB atomic.Int64 // highest VmHWM seen

	mu     sync.Mutex
	lines  []string
	notify chan struct{} // a line arrived or the output closed
	eof    chan struct{} // output fully read

	waitOnce sync.Once
	waitErr  error
}

// startProc starts bin with args. Cancelling ctx kills the child, which is
// how every exit path of a workload — error, timeout, signal — reaps it.
func startProc(ctx context.Context, name, bin string, args ...string) (*proc, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = pw, pw
	p := &proc{name: name, cmd: cmd, notify: make(chan struct{}, 1), eof: make(chan struct{})}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		defer close(p.eof)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
			select {
			case p.notify <- struct{}{}:
			default:
			}
		}
	}()
	go func() {
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-p.eof:
				return
			case <-t.C:
				p.sampleRSS()
			}
		}
	}()
	return p, nil
}

// rssSampleEvery bounds how much of its last growth a self-exiting child's
// peak can miss; one read of /proc/<pid>/status costs some 20 µs.
const rssSampleEvery = 10 * time.Millisecond

func (p *proc) sampleRSS() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return // already a zombie
	}
	f := strings.Fields(rest)
	if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil && kb > p.hwmKB.Load() {
		p.hwmKB.Store(kb)
	}
}

// find returns the first output line containing substr.
func (p *proc) find(substr string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.lines {
		if strings.Contains(l, substr) {
			return l, true
		}
	}
	return "", false
}

// await blocks until a line containing substr has been printed.
func (p *proc) await(ctx context.Context, substr string) (string, error) {
	for {
		if l, ok := p.find(substr); ok {
			return l, nil
		}
		select {
		case <-p.notify:
		case <-p.eof:
			if l, ok := p.find(substr); ok {
				return l, nil
			}
			return "", fmt.Errorf("%s ended before printing %q; last output:\n%s", p.name, substr, p.tail(8))
		case <-ctx.Done():
			return "", fmt.Errorf("%s: waiting for %q: %w", p.name, substr, ctx.Err())
		}
	}
}

func (p *proc) tail(n int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines[max(0, len(p.lines)-n):], "\n")
}

// wait reaps the child (idempotent) after its output has been drained.
func (p *proc) wait() error {
	p.waitOnce.Do(func() {
		<-p.eof
		p.waitErr = p.cmd.Wait()
	})
	return p.waitErr
}

// stop ends a child that does not end by itself (the servers): SIGTERM,
// then SIGKILL through the context if it lingers.
func (p *proc) stop() {
	p.sampleRSS()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	_ = p.wait()
}

// usage is what a reaped child used.
type usage struct {
	CPUMs float64 // user + system, from rusage
	RSSMB float64 // peak resident set, from VmHWM
}

func (p *proc) usage() usage {
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	return usage{CPUMs: tvMs(ru.Utime) + tvMs(ru.Stime), RSSMB: float64(p.hwmKB.Load()) / 1024}
}

func tvMs(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }

// selfCPUMs is the calling process's CPU so far — what the replay child
// subtracts so that building its cycle is not billed to the stream.
func selfCPUMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvMs(ru.Utime) + tvMs(ru.Stime)
}

// field extracts key=value from a logx key=value line.
func field(line, key string) (string, bool) {
	i := strings.Index(line, key+"=")
	if i < 0 {
		return "", false
	}
	v := line[i+len(key)+1:]
	if j := strings.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return strings.Trim(v, `"`), true
}
