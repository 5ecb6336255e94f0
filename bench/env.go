package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gamestreamsr/internal/diag"
)

// env is embedded in every JSON the harness writes, so a number is never
// separated from the box and build it was measured on.
type env struct {
	CPUModel string         `json:"cpu_model"`
	Kernel   string         `json:"kernel"`
	Build    diag.BuildInfo `json:"build"` // Go version, GOMAXPROCS, nproc, VCS revision
	Dirty    bool           `json:"vcs_dirty"`
	BuildS   float64        `json:"build_s"` // the one-off go build of the two binaries
	Seed     int64          `json:"seed"`
}

func readEnv(seed int64, buildS float64) env {
	e := env{CPUModel: "unknown", Kernel: "unknown", Build: diag.Build(), BuildS: buildS, Seed: seed}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" {
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

// The calibration kernel. This box's speed drifts by a quarter over minutes
// (neighbours on the host, presumably) with no steal time to show for it, and
// every kernel of the repository drifts with it, CPU time included. A fixed
// kernel timed between the workload's frames gives the box's speed while the
// workload ran, and the time metrics are reported at a reference speed
// (calibRefMs). An integer dependency chain is blind to the drift (it moved
// by 9% while the frame loop moved by 30%); independent multiply-adds plus a
// streaming pass, on both cores as the kernels run, moved with the frame loop
// one for one (r = 0.94 over 30 s windows).
const (
	calibThreads = 2                      // the reference box's cores
	calibWords   = 16 << 20               // 128 MiB streamed by the memory half
	calibRefMs   = 133.0                  // the kernel's median on the reference box
	calibEvery   = 600 * time.Millisecond // workload time between two calibration pauses

	// minCalibRounds is the least number of rounds a pass's normalisation
	// may rest on (a pass of the sized workloads sees six or more).
	minCalibRounds = 3
)

var (
	calibOnce sync.Once
	calibBuf  []uint64
	calibSink [calibThreads]float64 // keeps the results live so the compiler cannot drop the work
)

// calibInit touches the streamed buffer once so that no sample pays for its
// page faults. Only runs that calibrate pay for the buffer: the traced pass
// and -compare do not.
func calibInit() {
	calibBuf = make([]uint64, calibWords)
	for i := range calibBuf {
		calibBuf[i] = uint64(i)
	}
}

// calibRound times the kernel once and returns milliseconds.
func calibRound() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < calibThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var a [2048]float64 // L1-resident
			for i := range a {
				a[i] = float64(i) * 0.001
			}
			for r := 0; r < 60000; r++ {
				for i := 0; i < len(a); i += 4 {
					a[i] = a[i]*1.0000001 + 0.5
					a[i+1] = a[i+1]*1.0000001 + 0.5
					a[i+2] = a[i+2]*1.0000001 + 0.5
					a[i+3] = a[i+3]*1.0000001 + 0.5
				}
			}
			part := calibBuf[g*calibWords/calibThreads : (g+1)*calibWords/calibThreads]
			var s uint64
			for r := 0; r < 4; r++ {
				for i := range part {
					s += part[i]
					part[i] = s
				}
			}
			calibSink[g] = a[0] + float64(s)
		}(g)
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// pauseSpan is one interval, in Unix microseconds, during which the
// workload's processes were stopped for a calibration round.
type pauseSpan struct{ FromUS, ToUS int64 }

// calibrator interleaves the calibration kernel with a running workload:
// every calibEvery it stops the workload's processes (SIGSTOP), times one
// round while the box is otherwise idle, and lets them go on (SIGCONT). The
// harness subtracts the pauses from every interval it reports. A nil
// calibrator does nothing: the traced pass runs undisturbed.
type calibrator struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once

	mu      sync.Mutex
	procs   []*proc
	samples []float64
	pauses  []pauseSpan
}

func startCalibrator() *calibrator {
	calibOnce.Do(calibInit)
	c := &calibrator{quit: make(chan struct{}), done: make(chan struct{})}
	go c.loop()
	return c
}

// add puts one more process under the calibrator's pauses.
func (c *calibrator) add(p *proc) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.procs = append(c.procs, p)
	c.mu.Unlock()
}

func (c *calibrator) loop() {
	defer close(c.done)
	t := time.NewTimer(calibEvery)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
		}
		c.mu.Lock()
		procs := append([]*proc(nil), c.procs...)
		c.mu.Unlock()
		from := time.Now()
		for _, p := range procs {
			_ = p.cmd.Process.Signal(syscall.SIGSTOP) // fails only once the child has been reaped
		}
		v := calibRound()
		for _, p := range procs {
			_ = p.cmd.Process.Signal(syscall.SIGCONT)
		}
		to := time.Now()
		c.mu.Lock()
		c.samples = append(c.samples, v)
		c.pauses = append(c.pauses, pauseSpan{from.UnixMicro(), to.UnixMicro()})
		c.mu.Unlock()
		t.Reset(calibEvery)
	}
}

// finish ends the calibrator once its current round, if any, is over and
// every process runs again; it returns what it measured.
func (c *calibrator) finish() ([]float64, []pauseSpan) {
	if c == nil {
		return nil, nil
	}
	c.once.Do(func() { close(c.quit) })
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples, c.pauses
}

// pausedUS is how much of [fromUS, toUS] (Unix µs) the pauses cover.
func pausedUS(pauses []pauseSpan, fromUS, toUS float64) float64 {
	sum := 0.0
	for _, p := range pauses {
		lo, hi := max(float64(p.FromUS), fromUS), min(float64(p.ToUS), toUS)
		if hi > lo {
			sum += hi - lo
		}
	}
	return sum
}

// Tolerances of the noise guard: a pass is disturbed when the calibration
// rounds of its first and second half differ by more than calibTolerance, or
// when the hypervisor took more than stealTolerance of the box's CPU time
// away from the guest while it ran.
const (
	calibTolerance = 0.25
	stealTolerance = 0.15
)

func disturbed(samples []float64, stealShare float64) bool {
	if stealShare > stealTolerance {
		return true
	}
	if len(samples) < 4 {
		return false
	}
	a, b := median(samples[:len(samples)/2]), median(samples[len(samples)/2:])
	return (max(a, b)-min(a, b))/min(a, b) > calibTolerance
}

// cpuJiffies reads the box-wide steal and total CPU time from /proc/stat;
// zeros where there is no such file.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
