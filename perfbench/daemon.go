package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aptget/internal/service"
	"aptget/internal/wire"
)

// buildDaemon compiles cmd/aptgetd from the checkout into the build
// directory and returns the binary's path.
func buildDaemon(e *env) (string, error) {
	bin := filepath.Join(e.out, "aptgetd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aptgetd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building aptgetd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running aptgetd process with its default flags; only
// the listen port is chosen by the kernel.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	http *http.Client
	done chan struct{} // closed once the process has been waited for
}

func startDaemon(bin string, conns int) (*daemon, error) {
	lw := &listenWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout, cmd.Stderr = lw, os.Stderr
	// If the benchmark itself is killed, the kernel ends the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting aptgetd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-lw.addr:
		d.base = "http://" + a
	case <-d.done:
		return nil, fmt.Errorf("aptgetd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("aptgetd did not start listening within 30s")
	}
	d.http = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
	return d, nil
}

// listenWatcher is the daemon's stdout: it passes the address of the
// "aptgetd: listening on HOST:PORT (...)" line to addr.
type listenWatcher struct {
	buf  []byte
	addr chan string
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		if rest, ok := strings.CutPrefix(string(w.buf[:i]), "aptgetd: listening on "); ok {
			w.addr <- strings.Fields(rest)[0]
		}
		w.buf = w.buf[i+1:]
	}
}

// stop shuts the daemon down gracefully and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	if d.http != nil {
		d.http.CloseIdleConnections()
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// ingest POSTs a profile body, then GETs the plans it was answered
// with. It returns the ingest reply and the plan bytes.
func (d *daemon) ingest(body []byte) (*service.IngestResponse, []byte, error) {
	resp, err := d.http.Post(d.base+"/v1/profiles", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	var ir service.IngestResponse
	err = json.NewDecoder(resp.Body).Decode(&ir)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, nil, fmt.Errorf("POST /v1/profiles: status %d", resp.StatusCode)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("POST /v1/profiles: %w", err)
	}
	plans, err := d.plans(wire.Fingerprint(ir.Fingerprint))
	return &ir, plans, err
}

func (d *daemon) plans(fp wire.Fingerprint) ([]byte, error) {
	resp, err := d.http.Get(d.base + "/v1/plans/" + string(fp))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET /v1/plans: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/plans: status %d", resp.StatusCode)
	}
	return data, nil
}

// counters reads the daemon's /v1/metrics counters.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := d.http.Get(d.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m service.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return m.Counters, nil
}
