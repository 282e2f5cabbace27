package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// host is the fingerprint printed with every run, so that a change of
// machine or of its load shows next to the numbers it produced.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Platform   string `json:"platform"`
	// CalibNsPerOp is the median ns per step of a fixed dependent
	// floating-point loop: a host that reads slower here runs every
	// workload slower for reasons outside the program.
	CalibNsPerOp float64 `json:"calib_ns_per_op"`
}

func fingerprint() host {
	return host{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPU:          cpuModel(),
		Go:           runtime.Version(),
		Platform:     runtime.GOOS + "/" + runtime.GOARCH,
		CalibNsPerOp: calibrate(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
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

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrate times a fixed chain of dependent multiply-adds, seven times,
// and returns the median ns per step.
func calibrate() float64 {
	const steps = 5_000_000
	reps := make([]float64, 7)
	for r := range reps {
		x := 1.0
		start := time.Now()
		for i := 0; i < steps; i++ {
			x = x*1.0000001 + 1e-9
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / steps
		calibSink += x
	}
	slices.Sort(reps)
	return reps[len(reps)/2]
}
