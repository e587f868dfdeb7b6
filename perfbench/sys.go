package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"infinicache/internal/gf256"
)

// memGuardShare is the share of MemTotal the process high-water mark
// (VmHWM) may reach before the run stops with a clear message instead
// of running the machine out of memory.
const memGuardShare = 0.75

// cpuTimes returns the process's user and system CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// procField reads one "Name:  value kB" field of a /proc file, in KiB
// (or the raw number for unitless fields).
func procField(path, name string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				v, _ := strconv.ParseInt(fields[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

func peakRSSKiB() int64 { return procField("/proc/self/status", "VmHWM") }
func rssKiB() int64     { return procField("/proc/self/status", "VmRSS") }

func memTotalKiB() int64 { return procField("/proc/meminfo", "MemTotal") }

// sampleRSS records VmRSS every 50 ms until the returned function is
// called; that function returns the mean of the samples in MiB.
func sampleRSS() func() float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		sum, n := float64(rssKiB()), 1
		for {
			select {
			case <-stop:
				done <- sum / float64(n) / 1024
				return
			case <-tick.C:
				sum += float64(rssKiB())
				n++
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// startMemGuard polls VmHWM and ends the process with exit code 3 once
// it passes memGuardShare of MemTotal. The poller stops when stop is
// closed.
func startMemGuard(stop <-chan struct{}) {
	total := memTotalKiB()
	if total <= 0 {
		return
	}
	limit := int64(float64(total) * memGuardShare)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if hwm := peakRSSKiB(); hwm > limit {
					fmt.Fprintf(os.Stderr, "perfbench: memory guard: peak RSS %d MiB passed %.0f%% of MemTotal (%d MiB); run stopped\n",
						hwm>>10, memGuardShare*100, total>>10)
					os.Exit(3)
				}
			}
		}
	}()
}

// metadata describes the build and the machine a run measured.
func metadata(seed int64) string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("seed=%d git=%s%s go=%s GOMAXPROCS=%d nproc=%d gf256=%s cpu=%q memtotal_MiB=%d",
		seed, rev, dirty, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gf256.Kernel(), cpu, memTotalKiB()>>10)
}
