package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqm is the interquartile mean: the mean of the middle half of xs,
// sorted in place. A shared host can alternate between a fast and a
// slow state every few seconds, so per-operation times are bimodal.
// The median of a bimodal sample jumps from one mode to the other as
// the share of time spent in each shifts between runs; a mean moves in
// proportion, and dropping the outer quarters keeps a single stalled
// operation from moving it.
func iqm(xs []float64) float64 {
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// clockTick is the unit of utime and stime in /proc/<pid>/stat. Linux
// reports them in USER_HZ, which is 100 on every supported platform.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces: fields start after its ')'.
	rest := data[bytes.LastIndexByte(data, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fields[0] is stat field 3 (state): utime and stime are 14 and 15.
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// rssMB returns a process's resident set (VmRSS) in MiB.
func rssMB(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmRSS line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in %s", path)
}

// rssSampler reads a process's resident set every rssPeriod while a
// workload measures.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mb    []float64
	err   error
}

const rssPeriod = 50 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			mb, err := rssMB(pid)
			if err != nil {
				s.err = err
				return
			}
			s.mb = append(s.mb, mb)
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples taken so far.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.stopc)
	<-s.done
	return s.mb, s.err
}
