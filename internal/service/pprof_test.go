package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"testing"
	"time"
)

func getPprof(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestOnDemandCaptureOutlivesRequestTimeout: a capture longer than the
// service's per-request deadline must still complete, because
// /v1/pprof/cpu is mounted outside the TimeoutHandler. The body is a
// gzipped pprof profile.
func TestOnDemandCaptureOutlivesRequestTimeout(t *testing.T) {
	srv := New(Config{RequestTimeout: 50 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp, data := getPprof(t, ts, "/v1/pprof/cpu?seconds=0.3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture = %d (%s), want 200", resp.StatusCode, data)
	}
	if el := time.Since(start); el < 300*time.Millisecond {
		t.Fatalf("capture returned after %s, before the requested window elapsed", el)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Fatalf("capture is not gzipped pprof (%d bytes, prefix % x)", len(data), data[:min(len(data), 4)])
	}
}

// TestConcurrentCaptureIs503: the runtime runs one CPU profile at a
// time, so a capture while another is running is refused at once rather
// than queued behind it. The test holds the profiler itself, so the
// first capture is known to be running before the request is sent.
func TestConcurrentCaptureIs503(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, body := getPprof(t, ts, "/v1/pprof/cpu?seconds=5")
	pprof.StopCPUProfile()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("concurrent capture = %d (%s), want 503", resp.StatusCode, body)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("concurrent capture waited %s for the running one", el)
	}
	if resp, _ := getPprof(t, ts, "/v1/pprof/cpu?seconds=0.05"); resp.StatusCode != http.StatusOK {
		t.Fatalf("capture after the running one stopped = %d, want 200", resp.StatusCode)
	}
}

func TestOnDemandCaptureBadSeconds(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, v := range []string{"0", "-1", "zebra", "NaN", "Inf", "-Inf", "+Inf", "1e400"} {
		if resp, _ := getPprof(t, ts, "/v1/pprof/cpu?seconds="+v); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("seconds=%s = %d, want 400", v, resp.StatusCode)
		}
	}
}

// TestCaptureWindow checks the parsed window without running it: large
// finite values clamp to MaxCaptureSeconds instead of overflowing the
// duration conversion.
func TestCaptureWindow(t *testing.T) {
	capped := time.Duration(MaxCaptureSeconds * float64(time.Second))
	for _, c := range []struct {
		in   string
		want time.Duration
	}{
		{"", time.Duration(DefaultCaptureSeconds * float64(time.Second))},
		{"0.25", 250 * time.Millisecond},
		{"120", capped},
		{"121", capped},
		{"1e300", capped},
		{"1.7976931348623157e308", capped},
	} {
		got, err := captureWindow(c.in)
		if err != nil || got != c.want {
			t.Errorf("captureWindow(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"0", "-0", "-1", "NaN", "Inf", "-Inf", "zebra"} {
		if got, err := captureWindow(in); err == nil {
			t.Errorf("captureWindow(%q) = %v, want an error", in, got)
		}
	}
}

func TestMergedRouteIsGone(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	if resp, _ := getPprof(t, ts, "/v1/pprof/merged"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/pprof/merged = %d, want 404", resp.StatusCode)
	}
}
