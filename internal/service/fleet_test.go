package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"aptget/internal/planstore"
	"aptget/internal/wire"
)

// TestWarmHandoffAcrossShards: a shard that never saw a profile serves
// its plans from a sibling's cache instead of re-running the analysis.
func TestWarmHandoffAcrossShards(t *testing.T) {
	wp, body := mustCollect(t, "IS")
	fp := wire.FingerprintOf(wp)

	srvA := New(Config{})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	if status, ing := postProfile(t, tsA, body); status != http.StatusCreated || ing.Outcome != "miss" {
		t.Fatalf("seed ingest = %d %+v", status, ing)
	}
	_, want := getPlans(t, tsA, string(fp))

	srvB := New(Config{Peers: []string{tsA.URL}})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	// GET by fingerprint on the cold shard: warm handoff, byte-identical.
	status, got := getPlans(t, tsB, string(fp))
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("handoff GET = %d, %d bytes (want 200, %d bytes)", status, len(got), len(want))
	}
	if c := srvB.Counters(); c["plan_cache_handoffs"] != 1 {
		t.Fatalf("handoff counters = %v", c)
	}

	// Ingest on a third cold shard: the flight's handoff preempts the
	// analysis entirely.
	srvC := New(Config{Peers: []string{tsA.URL}})
	tsC := httptest.NewServer(srvC.Handler())
	defer tsC.Close()
	if status, ing := postProfile(t, tsC, body); status != http.StatusOK || ing.Outcome != "handoff" {
		t.Fatalf("cold-shard ingest = %d %+v, want 200 handoff", status, ing)
	}
	// The handed-off entry is now local: a repeat ingest is an exact hit.
	if _, ing := postProfile(t, tsC, body); ing.Outcome != "hit" {
		t.Fatalf("repeat ingest after handoff = %+v, want hit", ing)
	}
}

// TestInternalRequestsNeverRecurse: a sibling's lookup (X-Apt-Internal)
// is answered from the local cache only — a fleet of mutually-peered
// empty shards answers 404 instead of chasing handoffs in a cycle.
func TestInternalRequestsNeverRecurse(t *testing.T) {
	wp, _ := mustCollect(t, "IS")
	fp := wire.FingerprintOf(wp)

	srvA := New(Config{})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	// A's only peer is itself: an external GET that recursed would loop.
	srvA.store = planstore.NewWithPeers(4, []planstore.Peer{planstore.NewRemote(tsA.URL, time.Second)}, false)

	req, _ := http.NewRequest(http.MethodGet, tsA.URL+"/v1/plans/"+string(fp), nil)
	req.Header.Set(planstore.HeaderInternal, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("internal GET of missing plans = %d, want 404", resp.StatusCode)
	}

	// The external path also terminates: one handoff sweep (which asks A
	// itself, internally, and misses) and then 404.
	done := make(chan int, 1)
	go func() {
		st, _ := getPlans(t, tsA, string(fp))
		done <- st
	}()
	select {
	case st := <-done:
		if st != http.StatusNotFound {
			t.Fatalf("external GET = %d, want 404", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("external GET did not terminate — handoff recursion")
	}
}

// TestReplicationPushMirrorsAnalyses: with -replicate, a plan set one
// shard computes appears in its sibling's local cache without the
// sibling ever analyzing.
func TestReplicationPushMirrorsAnalyses(t *testing.T) {
	wp, body := mustCollect(t, "IS")
	fp := wire.FingerprintOf(wp)

	srvB := New(Config{})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	srvA := New(Config{Peers: []string{tsB.URL}, Replicate: true})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	if status, ing := postProfile(t, tsA, body); status != http.StatusCreated || ing.Outcome != "miss" {
		t.Fatalf("ingest = %d %+v", status, ing)
	}
	e, ok := srvB.store.GetLocal(fp)
	if !ok {
		t.Fatal("replica not present in sibling's local cache")
	}
	eA, _ := srvA.store.GetLocal(fp)
	if !bytes.Equal(e.Plans, eA.Plans) {
		t.Fatal("replica differs from the computed plans")
	}
	if c := srvA.Counters(); c["plan_cache_replication_pushes"] < 1 {
		t.Fatalf("push counter = %v", c)
	}
}

// TestPlanPutEndpoint: the replication surface validates bodies and
// stores locally only.
func TestPlanPutEndpoint(t *testing.T) {
	wp, body := mustCollect(t, "IS")
	fp := wire.FingerprintOf(wp)

	srvA := New(Config{})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()
	if status, _ := postProfile(t, tsA, body); status != http.StatusCreated {
		t.Fatalf("seed ingest status %d", status)
	}
	_, plans := getPlans(t, tsA, string(fp))

	srvB := New(Config{})
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	put := func(path string, body []byte, shape string) int {
		req, _ := http.NewRequest(http.MethodPut, tsB.URL+path, bytes.NewReader(body))
		req.Header.Set(planstore.HeaderInternal, "1")
		if shape != "" {
			req.Header.Set(planstore.HeaderShape, shape)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if st := put("/v1/plans/"+string(fp), plans, string(wp.ShapeHash())); st != http.StatusNoContent {
		t.Fatalf("valid PUT = %d, want 204", st)
	}
	if st, got := getPlans(t, tsB, string(fp)); st != http.StatusOK || !bytes.Equal(got, plans) {
		t.Fatalf("GET after PUT = %d", st)
	}
	// A same-shape ingest on B now stale-matches the pushed entry.
	drifted := wire.EncodeProfile(driftPCs(wp, 0x40))
	if _, ing := postProfile(t, tsB, drifted); ing.Outcome != "stale_match" {
		t.Fatalf("ingest after replica PUT = %+v, want stale_match", ing)
	}

	if st := put("/v1/plans/deadbeef", []byte("not a plan set"), ""); st != http.StatusUnprocessableEntity {
		t.Fatalf("garbage PUT = %d, want 422", st)
	}
}

// TestDeadPeerDegradesGracefully: a shard whose sibling is gone falls
// back to computing — no error surfaces to the client.
func TestDeadPeerDegradesGracefully(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	srv := New(Config{Peers: []string{deadURL}, PeerTimeout: 500 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, body := mustCollect(t, "IS")
	if status, ing := postProfile(t, ts, body); status != http.StatusCreated || ing.Outcome != "miss" {
		t.Fatalf("ingest with dead peer = %d %+v, want 201 miss", status, ing)
	}
}

// TestAggregatedBurstCollapsesToOneAnalysis: K concurrent same-shape
// profiles inside the window produce one batch, every response marked
// aggregated, and plans for an identical burst stay byte-identical to
// unaggregated serving.
func TestAggregatedBurstCollapsesToOneAnalysis(t *testing.T) {
	wp, body := mustCollect(t, "IS")
	fp := wire.FingerprintOf(wp)

	// Reference plans from an unaggregated server.
	plain := httptest.NewServer(New(Config{}).Handler())
	defer plain.Close()
	if status, _ := postProfile(t, plain, body); status != http.StatusCreated {
		t.Fatal("reference ingest failed")
	}
	_, want := getPlans(t, plain, string(fp))

	const k = 4
	srv := New(Config{AggregateWindow: k, AggregateWait: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	outcomes := make([]IngestResponse, k)
	statuses := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], outcomes[i] = postProfile(t, ts, body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < k; i++ {
		if statuses[i] != http.StatusCreated || outcomes[i].Outcome != "aggregated" || outcomes[i].Aggregated != k {
			t.Fatalf("burst member %d = %d %+v, want 201 aggregated/%d",
				i, statuses[i], outcomes[i], k)
		}
	}
	c := srv.Counters()
	if c["aggregate_batches"] != 1 || c["aggregate_saved_analyses"] != k-1 {
		t.Fatalf("aggregation counters = %v", c)
	}
	// Identical burst: merge dedups to the one distinct profile, so the
	// served plans are byte-identical to the unaggregated analysis.
	if _, got := getPlans(t, ts, string(fp)); !bytes.Equal(got, want) {
		t.Fatal("aggregated plans differ from unaggregated plans for an identical burst")
	}
	// After the window, a repeat ingest is a plain cache hit.
	if _, ing := postProfile(t, ts, body); ing.Outcome != "hit" {
		t.Fatalf("post-window ingest = %+v, want hit", ing)
	}
}

// TestAggregateDistinctProfilesMerge: distinct same-shape profiles in
// one window are merged — the batch reports the merged fingerprint as
// the plans' source.
func TestAggregateDistinctProfilesMerge(t *testing.T) {
	wp, _ := mustCollect(t, "IS")

	const k = 3
	bodies := make([][]byte, k)
	fps := make([]string, k)
	for i := 0; i < k; i++ {
		p := *wp
		p.Cycles += uint64(i) * 1000 // distinct content, identical shape
		bodies[i] = wire.EncodeProfile(&p)
		fps[i] = string(wire.FingerprintOf(&p))
	}

	srv := New(Config{AggregateWindow: k, AggregateWait: 5 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	outs := make([]IngestResponse, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i] = postProfile(t, ts, bodies[i])
		}(i)
	}
	wg.Wait()

	src := outs[0].SourceFingerprint
	if src == "" {
		t.Fatalf("merged batch must report a source fingerprint: %+v", outs[0])
	}
	for i, o := range outs {
		if o.Outcome != "aggregated" || o.SourceFingerprint != src {
			t.Fatalf("member %d = %+v, want aggregated from %s", i, o, src)
		}
		if o.SourceFingerprint == fps[i] {
			t.Fatalf("member %d source equals its own fingerprint — no merge happened", i)
		}
	}
	// Every participant's fingerprint serves the shared plans.
	ref := ""
	for _, fp := range fps {
		st, got := getPlans(t, ts, fp)
		if st != http.StatusOK {
			t.Fatalf("GET %s = %d", fp, st)
		}
		if ref == "" {
			ref = string(got)
		} else if ref != string(got) {
			t.Fatal("participants serve different plans")
		}
	}
	if c := srv.Counters(); c["aggregate_batches"] != 1 {
		t.Fatalf("batches = %v", c)
	}
}

// TestAggregateWaitServesLoneProfile: a single profile is not held for
// the full window — the wait bound fires and serves it as a plain miss.
func TestAggregateWaitServesLoneProfile(t *testing.T) {
	_, body := mustCollect(t, "IS")
	srv := New(Config{AggregateWindow: 64, AggregateWait: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, ing := postProfile(t, ts, body)
	if status != http.StatusCreated || ing.Outcome != "miss" || ing.Aggregated != 0 {
		t.Fatalf("lone ingest = %d %+v, want 201 miss", status, ing)
	}
	if c := srv.Counters(); c["aggregate_wait_fires"] != 1 {
		t.Fatalf("wait fires = %v", c)
	}
}
