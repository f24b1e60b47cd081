package service

// GET /v1/pprof/cpu: an on-demand CPU profile of the daemon, in the
// format `go build -pgo` reads.

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"
)

// On-demand capture window limits, in seconds.
const (
	DefaultCaptureSeconds = 5.0
	MaxCaptureSeconds     = 120.0
)

// captureWindow parses ?seconds=: a finite positive float, clamped to
// MaxCaptureSeconds before it becomes a duration ("" selects the
// default).
func captureWindow(v string) (time.Duration, error) {
	secs := DefaultCaptureSeconds
	if v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 1) {
			return 0, fmt.Errorf("bad seconds %q", v)
		}
		secs = min(f, MaxCaptureSeconds)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// handlePprofCPU profiles the whole process for the requested window
// and returns the gzipped pprof bytes. It is mounted outside the
// TimeoutHandler and takes no admission slot. The runtime allows one
// CPU profile at a time, so a capture that finds one running gets 503
// at once.
func handlePprofCPU(w http.ResponseWriter, r *http.Request) {
	d, err := captureWindow(r.URL.Query().Get("seconds"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
	pprof.StopCPUProfile()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(buf.Bytes())
}
