//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childCommand prepares a child process that the kernel kills if the
// benchmark dies first, so no server or run outlives its parent.
func childCommand(path string, args ...string) *exec.Cmd {
	cmd := exec.Command(path, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// rusageCPU is user+system CPU time from a rusage record.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageMaxRSSMB is the peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func rusageMaxRSSMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

func selfRusage() *syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return &ru
}

// procCPU reads a live process's CPU time in nanoseconds: the sum over
// its threads of the first field of /proc/<pid>/task/<tid>/schedstat.
// (The tick-granular counters in /proc/<pid>/stat are too coarse for a
// few seconds of a lightly loaded server.)
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("procCPU: empty schedstat for %s/%s", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procCPU: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procHWM reads a live process's peak resident set size (VmHWM) in MiB
// from /proc/<pid>/status.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("procHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("procHWM: no VmHWM for pid %d", pid)
}
