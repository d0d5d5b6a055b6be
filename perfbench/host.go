package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns this process's user plus system CPU time, all threads.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// clockTick is the unit of /proc/<pid>/stat CPU times: USER_HZ, which is
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns user plus system CPU time of another process, all
// threads, from fields 14 and 15 of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields resume after its closing parenthesis, at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("bad VmHWM in /proc/%d/status", pid)
				}
				return kb << 10, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// liveHeap returns the heap bytes still reachable after a full
// collection: the least of three readings 10 ms apart, so a health probe
// that happens to be compiling when one collection runs does not count its
// temporaries as memory the stack holds.
func liveHeap() uint64 {
	var least uint64
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if i == 0 || ms.HeapAlloc < least {
			least = ms.HeapAlloc
		}
	}
	return least
}

// runtimeSample reads the cumulative runtime counters a phase reports as
// deltas.
type runtimeSample struct {
	allocBytes float64 // heap bytes allocated since start
	gcCPU      float64 // CPU seconds spent in GC
	totalCPU   float64 // CPU seconds available to the Go runtime
	goroutines float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/goroutines:goroutines",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
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
	return runtimeSample{allocBytes: v(0), gcCPU: v(1), totalCPU: v(2), goroutines: v(3)}
}

// hostRef times a fixed pure-Go loop that calls no repository code, as a
// reference for how fast the host ran during a run: a reader compares it
// across runs to tell host drift from a program change. It returns the
// median of 15 timings of one pass, in microseconds.
func hostRef() float64 {
	buf := make([]uint64, 1024)
	times := make([]float64, 15)
	for k := range times {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for pass := 0; pass < 64; pass++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] += x
			}
		}
		sort.Slice(buf[:256], func(i, j int) bool { return buf[i] < buf[j] })
		times[k] = float64(time.Since(t0).Nanoseconds()) / 1e3
		refSink += buf[0]
	}
	return median(times)
}

// refSink keeps the compiler from discarding hostRef's loop.
var refSink uint64

// median returns the middle value (the mean of the two middle values for
// an even count); 0 on an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
