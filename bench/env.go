package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// environment is recorded in every result file, so a number can be read
// next to the machine and toolchain that produced it.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit,omitempty"`
	Seed       int64   `json:"seed"`
	Windows    int     `json:"windows"`
	WindowSecs float64 `json:"window_seconds"`
}

func readEnvironment(seed int64, windows int, windowLen time.Duration) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     os.Getenv("BENCH_COMMIT"), // run.sh sets it when the checkout is a git repository
		Seed:       seed,
		Windows:    windows,
		WindowSecs: windowLen.Seconds(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate spins through a fixed amount of integer work (≈ 250 ms on
// the 2.1 GHz Xeon this was sized on) and returns how long it took. A
// run reports the fastest and slowest of its calibrations, so a run
// that shared the machine with something else is visible as such.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 120_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t0)
}
