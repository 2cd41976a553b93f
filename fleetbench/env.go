package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far, all goroutines
// (agents included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is a snapshot of the Go runtime's cumulative counters.
type goStats struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
}

var goStatNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocs: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a goStats) add(b goStats) goStats {
	return goStats{a.allocs + b.allocs, a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// heapPeak samples the live heap every few milliseconds while running
// and keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// runContext is what a reader needs to refuse comparing results taken on
// different machines or builds.
type runContext struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run; a busy host slows every
	// wall-clock figure.
	StealFrac float64 `json:"steal_frac"`
}

func newRunContext(workload, revision string, seed uint64, seconds int, traced bool) runContext {
	return runContext{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Revision:   revision,
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
	}
}

// cpuStat is the machine-wide CPU time split of /proc/stat, in ticks.
type cpuStat struct{ steal, total uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var st cpuStat
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

func (s cpuStat) stealSince(t0 cpuStat) float64 {
	if s.total <= t0.total {
		return 0
	}
	return float64(s.steal-t0.steal) / float64(s.total-t0.total)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
