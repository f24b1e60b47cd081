package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aptget/internal/core"
	"aptget/internal/planstore"
	"aptget/internal/service"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

type serveMode int

const (
	modeHit   serveMode = iota // re-POST the exact registry profiles
	modeDrift                  // POST never-seen relocations of them
)

// Offered load of the open-loop serve workloads: about a tenth of
// serve-hit's capacity and a fifteenth of serve-drift's on a quiet 2-CPU
// host, so that requests rarely queue and latency follows service time.
const (
	rate   = 20.0 // req/s
	warmup = 100 * time.Millisecond
	// driftPool relocations are sent in turn. The pool is longer than
	// the daemon's 512-entry plan cache, so a relocation has always been
	// evicted before it is sent again and every request is a stale match.
	driftPool = 640
)

// app is one registry application as the serve workloads send it.
type app struct {
	key   string
	body  []byte // canonical profile frame a client POSTs
	fp    wire.Fingerprint
	shape wire.ShapeHash
	plans []byte // core.ProfileAndPlan → wire.EncodePlanSet: what must be served
}

// item is one request input: an app's profile or a relocation of it.
type item struct {
	app  int
	body []byte
	fp   wire.Fingerprint
}

// collectApps profiles and plans every registry application in-process
// on e.conns goroutines, and sums what the simulated profile runs and
// the plans produced.
func collectApps(e *env) ([]app, *simTotals, error) {
	entries := workloads.Registry()
	apps := make([]app, len(entries))
	pls := make([]*planned, len(entries))
	errs := make([]error, len(entries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(entries); i = int(next.Add(1) - 1) {
				apps[i], pls[i], errs[i] = collectApp(e, int64(i), entries[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	sim := &simTotals{}
	for _, pl := range pls {
		sim.addRun(&pl.prof.Counters)
		sim.addPlanned(pl)
	}
	return apps, sim, nil
}

// collectApp profiles and plans one application. Its plan set is the
// reference every served plan set must equal byte for byte.
func collectApp(e *env, req int64, entry workloads.Entry) (app, *planned, error) {
	cfg := core.DefaultConfig()
	service.FillPipeline(&cfg)
	pl, err := profileAndPlan(e.rec, -1, req, entry.New(), cfg)
	if err != nil {
		return app{}, nil, err
	}
	wp := wire.ProfileOf(entry.Key, pl.prog, pl.prof)
	body := wire.EncodeProfile(wp)
	return app{
		key:   entry.Key,
		body:  body,
		fp:    wire.FingerprintBytes(body),
		shape: wp.ShapeHash(),
		plans: wire.EncodePlanSet(wire.PlanSetFromAnalysis(entry.Key, pl.plans, cfg.Analysis)),
	}, pl, nil
}

// hitItems is one request input per app: its exact profile.
func hitItems(apps []app) []item {
	items := make([]item, len(apps))
	for i, a := range apps {
		items[i] = item{app: i, body: a.body, fp: a.fp}
	}
	return items
}

// relocations draws n relocated profiles from the seed, cycling through
// the apps in a shuffled order: every PC of the profile (loads and both
// ends of each LBR entry) moves by a distinct offset, modelling the same
// binary loaded at another base. Each has a new fingerprint and its
// source's loop shape.
func relocations(seed int64, apps []app, n int) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	items := make([]item, n)
	for i := range items {
		a := rng.Intn(len(apps))
		// Every offset is distinct, so every body is, and every offset
		// has the same magnitude, so every PC keeps its encoded length.
		delta := 1<<32 | uint64(i)<<16 | uint64(rng.Intn(1<<16))
		p, err := wire.DecodeProfile(apps[a].body)
		if err != nil {
			return nil, err
		}
		for j := range p.Loads {
			p.Loads[j].PC += delta
		}
		for j := range p.Samples {
			for k := range p.Samples[j].Entries {
				p.Samples[j].Entries[k].From += delta
				p.Samples[j].Entries[k].To += delta
			}
		}
		p.Canonicalize()
		body := wire.EncodeProfile(p)
		items[i] = item{app: a, body: body, fp: wire.FingerprintBytes(body)}
	}
	return items, nil
}

// serveSetup is everything a serve workload does before it measures.
type serveSetup struct {
	bin   string
	apps  []app
	items []item
	sim   *simTotals
}

func setupServe(e *env, m serveMode) (*serveSetup, error) {
	bin, err := buildDaemon(e)
	if err != nil {
		return nil, err
	}
	apps, sim, err := collectApps(e)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{bin: bin, apps: apps, sim: sim, items: hitItems(apps)}
	if m == modeDrift {
		if s.items, err = relocations(e.seed, apps, driftPool); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// warm sends every app's profile once: each must be a true miss whose
// plans equal the in-process reference. On serve-drift it then sends
// every relocation once through q, so that the timed requests find the
// plan cache full and each one evicts.
func (s *serveSetup) warm(d *daemon, q *requester, conns int, res *result) error {
	for _, a := range s.apps {
		ir, plans, err := d.ingest(a.body)
		if err != nil {
			return fmt.Errorf("warming %s: %w", a.key, err)
		}
		res.check(ir.Outcome == "miss" && bytes.Equal(plans, a.plans),
			"warming %s: outcome %s, plans equal reference: %v", a.key, ir.Outcome, bytes.Equal(plans, a.plans))
	}
	if q.mode != modeDrift {
		return nil
	}
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(len(s.items)) {
				if _, ok := q.do(0); !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.Attempted += int64(len(s.items))
	res.Failed += failed.Load()
	return nil
}

// requester sends one serve-workload request and checks its outputs.
type requester struct {
	s      *serveSetup
	d      *daemon
	mode   serveMode
	rec    *recorder
	cursor atomic.Int64 // next relocation to send (drift)
	sent   atomic.Int64 // requests sent
	logged atomic.Int64 // failures already printed
}

// do sends input it, or on serve-drift the next relocation, and reports
// the app it belongs to.
func (q *requester) do(it int) (int, bool) {
	req := q.sent.Add(1)
	if q.mode == modeDrift {
		it = int(q.cursor.Add(1)-1) % len(q.s.items)
	}
	x := q.s.items[it]
	a := q.s.apps[x.app]
	id := q.rec.begin("loadgen.request", -1, req)
	ir, plans, err := q.d.ingest(x.body)
	q.rec.end(id)
	want, src := "hit", ""
	if q.mode == modeDrift {
		want, src = "stale_match", string(a.fp)
	}
	ok := err == nil && ir.Outcome == want && ir.Fingerprint == string(x.fp) &&
		ir.SourceFingerprint == src && bytes.Equal(plans, a.plans)
	if !ok && q.logged.Add(1) <= 5 {
		outcome := ""
		if ir != nil {
			outcome = ir.Outcome
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %s request %d: err=%v outcome=%q want %q\n",
			a.key, req, err, outcome, want)
	}
	return x.app, ok
}

// runPhase offers the open-loop rate for dur and folds the checks into
// res. It reports how late the generator was, since a late generator
// understates latency.
func (q *requester) runPhase(rng *rand.Rand, dur time.Duration, conns int, res *result) phase {
	ph := openLoop(conns, poisson(rng, rate, dur, len(q.s.items)), warmup, q.do)
	res.Attempted += int64(ph.sent)
	res.Failed += int64(ph.failed)
	lat := append([]float64(nil), ph.latMS...)
	fmt.Fprintf(os.Stderr, "perfbench: open loop: %d requests at %.0f req/s, latency p10/p25/p50/p90 %.3f/%.3f/%.3f/%.3f ms, "+
		"lateness p50/p99 %.3f/%.3f ms, max backlog %d\n",
		ph.sent, rate, quantile(lat, 0.1), quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.9),
		quantile(ph.latenessMS, 0.5), quantile(ph.latenessMS, 0.99), ph.backlogMax)
	return ph
}

func runServe(e *env, res *result, m serveMode) error {
	t0 := time.Now()
	s, err := setupServe(e, m)
	if err != nil {
		return err
	}
	d, err := startDaemon(s.bin, e.conns)
	if err != nil {
		return err
	}
	defer d.stop()
	q := &requester{s: s, d: d, mode: m}
	if err := s.warm(d, q, e.conns, res); err != nil {
		return err
	}
	setup := time.Since(t0)

	rng := rand.New(rand.NewSource(e.seed))
	if e.rec == nil {
		rss := sampleRSS(d.pid())
		cpu0, err := procCPU(d.pid())
		if err != nil {
			return err
		}
		ph := q.runPhase(rng, e.seconds, e.conns, res)
		cpu1, err := procCPU(d.pid())
		if err != nil {
			return err
		}
		samples, err := rss.stop()
		if err != nil {
			return err
		}
		res.set("setup_s", setup.Seconds(), "s")
		res.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(ph.sent), "ms")
		res.set("rss_mb", median(samples), "MB")
	} else {
		// Untraced and traced slices alternate, so that both see the
		// same mix of host noise and neither only the first moments.
		var untraced, traced phase
		for i := 0; i < 4; i++ {
			q.rec = nil
			if i%2 == 1 {
				q.rec = e.rec
			}
			ph := q.runPhase(rng, e.seconds/4, e.conns, res)
			if q.rec == nil {
				untraced.latMS, untraced.class = append(untraced.latMS, ph.latMS...), append(untraced.class, ph.class...)
			} else {
				traced.latMS, traced.class = append(traced.latMS, ph.latMS...), append(traced.class, ph.class...)
			}
		}
		wall := classMeanMS(untraced.latMS, untraced.class)
		res.set("op.wall_ms", wall, "ms")
		res.set("trace.overhead_pct", 100*(classMeanMS(traced.latMS, traced.class)/wall-1), "%")
	}

	c, err := d.counters()
	if err != nil {
		return err
	}
	want := map[string]int64{"plan_cache_misses": int64(len(s.apps)), "requests_rejected_backpressure": 0}
	sent := q.sent.Load()
	if m == modeHit {
		want["plan_cache_hits"], want["plan_cache_stale_matches"] = sent, 0
	} else {
		want["plan_cache_hits"], want["plan_cache_stale_matches"] = 0, sent
	}
	for k, v := range want {
		res.check(c[k] == v, "/v1/metrics %s = %d, want %d", k, c[k], v)
	}
	if e.rec == nil {
		return nil
	}
	setStoreCounters(res, c)
	wantOutcome := map[serveMode]string{modeHit: "hit", modeDrift: "stale_match"}[m]
	if _, err := inProcess(e, res, s.apps, s.items, wantOutcome); err != nil {
		return err
	}
	setLayers(res, e.rec, s.sim)
	return memProbe(e.rec, res)
}

// inProcess times the layers under the serve path without a socket, on
// the workload's own request inputs: the daemon's handler called
// directly, the wire codec, and the plan store. The handler's server is
// first given each app's reference plans, keyed by its fingerprint and
// shape, so every input must be served the plans of its app with the
// outcome want. It returns that server's counters.
func inProcess(e *env, res *result, apps []app, items []item, want string) (map[string]int64, error) {
	const n = 256
	rec := e.rec

	srv := service.New(service.Config{})
	defer srv.Close()
	h := srv.Handler()
	for _, a := range apps {
		rw := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPut, "/v1/plans/"+string(a.fp), bytes.NewReader(a.plans))
		r.Header.Set(planstore.HeaderShape, string(a.shape))
		h.ServeHTTP(rw, r)
		if rw.Code != http.StatusNoContent {
			return nil, fmt.Errorf("in-process PUT of %s plans: status %d: %s", a.key, rw.Code, rw.Body.Bytes())
		}
	}
	// send runs POST then GET through the handler.
	send := func(body []byte) (outcome string, plans []byte) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader(body)))
		var ir service.IngestResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &ir); err != nil {
			return "", nil
		}
		rw = httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/plans/"+ir.Fingerprint, nil))
		if rw.Code != http.StatusOK {
			return ir.Outcome, nil
		}
		return ir.Outcome, rw.Body.Bytes()
	}
	var decoded int
	var decodeTime time.Duration
	for i := 0; i < n; i++ {
		x := items[i%len(items)]
		a := apps[x.app]
		var outcome string
		var plans []byte
		rec.timed("service.handler", int64(i), func() { outcome, plans = send(x.body) })
		res.check(outcome == want && bytes.Equal(plans, a.plans), "in-process %s: outcome %s", a.key, outcome)

		var fp, dfp wire.Fingerprint
		var err error
		rec.timed("wire.hash", int64(i), func() { fp = wire.FingerprintBytes(x.body) })
		decodeTime += rec.timed("wire.decode", int64(i), func() { _, dfp, err = wire.DecodeProfileFrom(bytes.NewReader(x.body)) })
		decoded += len(x.body)
		res.check(err == nil && fp == x.fp && dfp == x.fp, "wire: %s fingerprint or decode differs: %v", a.key, err)

		var ps *wire.PlanSet
		var enc []byte
		rec.timed("wire.plan_decode", int64(i), func() { ps, err = wire.DecodePlanSet(a.plans) })
		if err == nil {
			rec.timed("wire.plan_encode", int64(i), func() { enc = wire.EncodePlanSet(ps) })
		}
		res.check(err == nil && bytes.Equal(enc, a.plans), "wire: %s plan set does not round-trip: %v", a.key, err)
	}
	res.set("wire.decode_mb_per_s", float64(decoded)/(1<<20)/decodeTime.Seconds(), "MB/s")

	// The plan store on its own, holding the apps' entries. Drift keys
	// alias into it until the LRU evicts, as in the daemon.
	st := planstore.New(0)
	for _, a := range apps {
		st.Put(planstore.Key{Profile: a.fp, Shape: a.shape}, planstore.Entry{Plans: a.plans, Source: a.fp})
	}
	errComputed := errors.New("plan store computed instead of serving")
	for i := 0; i < 8*driftPool; i++ {
		x := items[i%len(items)]
		a := apps[x.app]
		var plans []byte
		var r planstore.Result
		var err error
		rec.timed("planstore.get_or_compute", int64(i), func() {
			plans, r, err = st.GetOrCompute(planstore.Key{Profile: x.fp, Shape: a.shape},
				func() ([]byte, error) { return nil, errComputed })
		})
		res.check(err == nil && r.Outcome.String() == want && bytes.Equal(plans, a.plans),
			"planstore %s: outcome %s: %v", a.key, r.Outcome, err)
	}
	return srv.Counters(), nil
}
