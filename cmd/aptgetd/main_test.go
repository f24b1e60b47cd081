package main

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"aptget/internal/core"
	"aptget/internal/obs"
	"aptget/internal/service"
	"aptget/internal/workloads"
)

// syncBuffer lets the test read the daemon's stdout while run() is still
// writing it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on ([0-9.:\[\]]+)`)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL, a cancel func, and the channel its exit status arrives on.
func startDaemon(t *testing.T, stdout *syncBuffer, extraArgs ...string) (string, context.CancelFunc, chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	var stderr syncBuffer
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(ctx, args, stdout, &stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			return "http://" + m[1], cancel, done
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	t.Fatalf("daemon never announced its address\nstdout: %s\nstderr: %s",
		stdout.String(), stderr.String())
	return "", nil, nil
}

func TestBadFlagIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-pgo-dir", "x"}} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v exit = %d, want 2", args, code)
		}
	}
}

func TestUnlistenableAddressIsRuntimeError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-addr", "256.0.0.1:1"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("bad address exit = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "aptgetd:") {
		t.Fatalf("stderr = %q", stderr.String())
	}
}

// TestLifecycle: the daemon announces its real address, answers healthz,
// and exits 0 on context cancellation.
func TestLifecycle(t *testing.T) {
	var stdout syncBuffer
	base, cancel, done := startDaemon(t, &stdout)

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit = %d, want 0\nstdout: %s", code, stdout.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
	if !strings.Contains(stdout.String(), "shut down cleanly") {
		t.Fatalf("stdout missing shutdown line:\n%s", stdout.String())
	}
}

// TestReportAgreesWithMetrics: with -report, the written obs report's
// serve span carries exactly the counters of the daemon's last
// /v1/metrics reply, key for key — zero-valued ones included, and with
// aggregation on, whose counters the plan store does not own. Two
// ingests of one profile (a miss, then a hit) run the model exactly once.
func TestReportAgreesWithMetrics(t *testing.T) {
	e, ok := workloads.ByKey("IS")
	if !ok {
		t.Fatal("IS not in registry")
	}
	_, body, err := service.CollectProfile(e, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		// misses is plan_cache_misses after the two ingests: an analysis
		// an aggregation window runs is not a plan-store miss.
		misses int64
	}{
		{"plain", nil, 1},
		{"aggregate", []string{"-aggregate-window", "2"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer obs.Disable() // run() enables the registry for -report
			reportPath := filepath.Join(t.TempDir(), "report.json")
			var stdout syncBuffer
			base, cancel, done := startDaemon(t, &stdout,
				append([]string{"-report", reportPath}, tc.args...)...)

			for i, want := range []int{http.StatusCreated, http.StatusOK} {
				resp, err := http.Post(base+"/v1/profiles", "application/octet-stream",
					bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("ingest %d = %d, want %d", i+1, resp.StatusCode, want)
				}
			}

			resp, err := http.Get(base + "/v1/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var m service.MetricsResponse
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if m.Counters["plan_cache_hits"] != 1 || m.Counters["plan_cache_misses"] != tc.misses {
				t.Fatalf("metrics counters = %v, want 1 hit and %d misses", m.Counters, tc.misses)
			}

			cancel()
			select {
			case code := <-done:
				if code != 0 {
					t.Fatalf("daemon exit = %d\nstdout: %s", code, stdout.String())
				}
			case <-time.After(10 * time.Second):
				t.Fatal("daemon did not exit")
			}

			data, err := os.ReadFile(reportPath)
			if err != nil {
				t.Fatal(err)
			}
			var rep obs.Report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("report is not valid JSON: %v", err)
			}
			var serve map[string]int64
			analyses := 0
			for _, rec := range rep.Records {
				if rec.Scope == "aptgetd/service" && rec.Stage == obs.StageServe {
					serve = rec.Counters
				}
				if rec.Scope == "aptgetd/IS" && rec.Stage == obs.StageAnalysis {
					analyses++
				}
			}
			if !maps.Equal(serve, m.Counters) {
				t.Fatalf("report serve span counters differ from /v1/metrics:\nreport:  %v\nmetrics: %v",
					serve, m.Counters)
			}
			if analyses != 1 {
				t.Fatalf("report shows %d daemon analyses, want 1", analyses)
			}
		})
	}
}
