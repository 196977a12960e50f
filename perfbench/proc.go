package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's CPU time and
// cumulative heap allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

func (u usage) sub(v usage) usage { return usage{u.cpu - v.cpu, u.alloc - v.alloc} }

func (u usage) add(v usage) usage { return usage{u.cpu + v.cpu, u.alloc + v.alloc} }

// resetPeak returns freed heap to the OS and resets the kernel's resident
// high-water mark, so the next peakRSSMB reading covers only what follows.
func resetPeak() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset resident high-water mark: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the resident high-water mark, in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := bytes.CutPrefix([]byte(line), []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) == 2 && string(f[1]) == "kB" {
				kb, err := strconv.ParseFloat(string(f[0]), 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile is the linearly interpolated q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func sorted(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 { return quantile(sorted(vs), 0.5) }
