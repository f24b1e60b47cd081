package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"aptget/internal/aggregate"
	"aptget/internal/core"
	"aptget/internal/planstore"
	"aptget/internal/wire"
	"aptget/internal/workloads"
)

var isOnce struct {
	sync.Once
	wp   *wire.Profile
	body []byte
	err  error
}

// isProfile collects the IS registry profile once per test binary; the
// ingest tests and benchmarks only read it.
func isProfile(tb testing.TB) (*wire.Profile, []byte) {
	tb.Helper()
	isOnce.Do(func() {
		e, _ := workloads.ByKey("IS")
		isOnce.wp, isOnce.body, isOnce.err = CollectProfile(e, core.DefaultConfig())
	})
	if isOnce.err != nil {
		tb.Fatal(isOnce.err)
	}
	return isOnce.wp, isOnce.body
}

// postRaw POSTs body and returns the status and the reply bytes as sent.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/profiles", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// putPlans stores plans on a server through the replication endpoint, as
// a sibling shard would.
func putPlans(tb testing.TB, h http.Handler, fp wire.Fingerprint, shape wire.ShapeHash, plans []byte) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPut, "/v1/plans/"+string(fp), bytes.NewReader(plans))
	req.Header.Set(planstore.HeaderInternal, "1")
	if shape != "" {
		req.Header.Set(planstore.HeaderShape, string(shape))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		tb.Fatalf("PUT plans = %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// referenceReply renders an ingest reply the way the handler built it
// before hits were served by hash: every field from the decoded profile,
// the plan count from decoding the served plan set.
func referenceReply(t *testing.T, status int, body, plans []byte, outcome string,
	src wire.Fingerprint, aggregated int) []byte {

	t.Helper()
	prof, err := wire.DecodeProfile(body)
	if err != nil {
		t.Fatal(err)
	}
	fp := wire.FingerprintBytes(body)
	resp := IngestResponse{
		App:          prof.App,
		Fingerprint:  string(fp),
		ShapeHash:    string(prof.ShapeHash()),
		Outcome:      outcome,
		StaleMatched: outcome == "stale_match",
		Aggregated:   aggregated,
	}
	if ps, err := wire.DecodePlanSet(plans); err == nil {
		resp.Plans = len(ps.Plans)
	}
	if src != fp {
		resp.SourceFingerprint = string(src)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, status, resp)
	return rec.Body.Bytes()
}

// TestIngestReplyBodies: for every outcome, and for the repeat of each
// profile that a hash-only hit now answers, the reply is byte-identical
// to the reference built from the decoded profile and plans.
func TestIngestReplyBodies(t *testing.T) {
	wp, body := isProfile(t)
	fp := wire.FingerprintBytes(body)
	drift := wire.EncodeProfile(driftPCs(wp, 4096))

	origin := New(Config{})
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()
	if st, _ := postRaw(t, originTS.URL, body); st != http.StatusCreated {
		t.Fatalf("origin ingest = %d", st)
	}
	_, plans := getPlans(t, originTS, string(fp))

	type step struct {
		body       []byte
		status     int
		outcome    string
		src        wire.Fingerprint
		aggregated int
	}
	// replica stores the origin's plans the way a sibling's push does.
	replica := func(t *testing.T, h http.Handler) { putPlans(t, h, fp, wp.ShapeHash(), plans) }
	cases := []struct {
		name  string
		cfg   Config
		setup func(t *testing.T, h http.Handler)
		steps []step
	}{
		{"miss", Config{}, nil, []step{
			{body, http.StatusCreated, "miss", fp, 0},
			{body, http.StatusOK, "hit", fp, 0},
		}},
		{"stale_match", Config{}, replica, []step{
			{drift, http.StatusOK, "stale_match", fp, 0},
			{drift, http.StatusOK, "hit", fp, 0},
		}},
		{"replica", Config{}, replica, []step{
			{body, http.StatusOK, "hit", fp, 0},
			{body, http.StatusOK, "hit", fp, 0},
		}},
		{"handoff", Config{Peers: []string{originTS.URL}}, nil, []step{
			{body, http.StatusOK, "handoff", fp, 0},
			{body, http.StatusOK, "hit", fp, 0},
		}},
		{"aggregating miss", Config{AggregateWindow: 64, AggregateWait: 20 * time.Millisecond}, nil, []step{
			{body, http.StatusCreated, "miss", fp, 0},
			{body, http.StatusOK, "hit", fp, 0},
		}},
		{"aggregating stale_match", Config{AggregateWindow: 64}, replica, []step{
			{drift, http.StatusOK, "stale_match", fp, 0},
			{drift, http.StatusOK, "hit", fp, 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(tc.cfg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			if tc.setup != nil {
				tc.setup(t, srv.Handler())
			}
			for i, st := range tc.steps {
				status, got := postRaw(t, ts.URL, st.body)
				_, served := getPlans(t, ts, string(wire.FingerprintBytes(st.body)))
				want := referenceReply(t, st.status, st.body, served, st.outcome, st.src, st.aggregated)
				if status != st.status || !bytes.Equal(got, want) {
					t.Fatalf("step %d = %d\n%s\nwant %d\n%s", i, status, got, st.status, want)
				}
			}
		})
	}

	t.Run("aggregated", func(t *testing.T) {
		var profs []*wire.Profile
		var bodies [][]byte
		for i := 1; i <= 2; i++ {
			p := *wp
			p.Cycles += uint64(i) * 1000 // distinct content, identical shape
			profs = append(profs, &p)
			bodies = append(bodies, wire.EncodeProfile(&p))
		}
		merged, err := aggregate.Merge(profs)
		if err != nil {
			t.Fatal(err)
		}
		src := wire.FingerprintOf(merged)

		srv := New(Config{AggregateWindow: 2, AggregateWait: 5 * time.Second})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		statuses := make([]int, 2)
		replies := make([][]byte, 2)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/profiles", "application/octet-stream",
					bytes.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				statuses[i] = resp.StatusCode
				replies[i], _ = io.ReadAll(resp.Body)
			}(i)
		}
		wg.Wait()
		for i, b := range bodies {
			_, served := getPlans(t, ts, string(wire.FingerprintBytes(b)))
			want := referenceReply(t, http.StatusCreated, b, served, "aggregated", src, 2)
			if statuses[i] != http.StatusCreated || !bytes.Equal(replies[i], want) {
				t.Fatalf("member %d = %d\n%s\nwant\n%s", i, statuses[i], replies[i], want)
			}
			status, got := postRaw(t, ts.URL, b)
			want = referenceReply(t, http.StatusOK, b, served, "hit", src, 0)
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("repeat of member %d = %d\n%s\nwant\n%s", i, status, got, want)
			}
		}
	})
}

// paddedTwin re-encodes body's app-name length (offset 6, after the
// 4-byte magic, the version and the kind) as a padded two-byte varint:
// the same logical profile in a non-canonical frame.
func paddedTwin(body []byte) []byte {
	twin := append([]byte(nil), body[:6]...)
	twin = append(twin, body[6]|0x80, 0)
	return append(twin, body[7:]...)
}

// TestHashOnlyHitTrustBoundary: only entries this daemon's own decoding
// ingest stored answer by fingerprint alone. Plans planted under a
// fingerprint by a replica PUT, or cached as a fingerprint-only handoff
// alias, do not vouch for the bytes behind that fingerprint.
func TestHashOnlyHitTrustBoundary(t *testing.T) {
	wp, body := isProfile(t)
	fp := wire.FingerprintBytes(body)
	plans := wire.EncodePlanSet(&wire.PlanSet{App: wp.App})

	t.Run("planted garbage fingerprint", func(t *testing.T) {
		srv := New(Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		garbage := []byte("garbage")
		putPlans(t, srv.Handler(), wire.FingerprintBytes(garbage), "", plans)
		if st, reply := postRaw(t, ts.URL, garbage); st != http.StatusBadRequest {
			t.Fatalf("garbage under a planted fingerprint = %d %s, want 400", st, reply)
		}
	})

	t.Run("non-canonical twin", func(t *testing.T) {
		srv := New(Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		putPlans(t, srv.Handler(), fp, wp.ShapeHash(), plans)
		if st, _ := postRaw(t, ts.URL, body); st != http.StatusOK {
			t.Fatalf("canonical ingest = %d, want 200", st)
		}
		twin := paddedTwin(body)
		if _, err := wire.DecodeProfile(twin); err == nil {
			t.Fatal("padded twin decodes; test is vacuous")
		}
		if st, _ := postRaw(t, ts.URL, twin); st != http.StatusBadRequest {
			t.Fatalf("never-seen non-canonical twin = %d, want 400", st)
		}
		putPlans(t, srv.Handler(), wire.FingerprintBytes(twin), wp.ShapeHash(), plans)
		if st, _ := postRaw(t, ts.URL, twin); st != http.StatusBadRequest {
			t.Fatalf("non-canonical twin under a planted fingerprint = %d, want 400", st)
		}
	})

	t.Run("handoff alias upgraded on ingest", func(t *testing.T) {
		origin := httptest.NewServer(New(Config{}).Handler())
		defer origin.Close()
		if st, _ := postRaw(t, origin.URL, body); st != http.StatusCreated {
			t.Fatalf("origin ingest = %d", st)
		}
		ts := httptest.NewServer(New(Config{Peers: []string{origin.URL}}).Handler())
		defer ts.Close()
		if st, _ := getPlans(t, ts, string(fp)); st != http.StatusOK {
			t.Fatalf("handoff GET = %d", st)
		}
		// The GET cached a fingerprint-only alias. Ingesting the profile
		// must decode it and give the entry its shape, so a drifted
		// build of the same loops then stale-matches.
		if st, ing := postProfile(t, ts, body); st != http.StatusOK || ing.Outcome != "handoff" {
			t.Fatalf("ingest over the alias = %d %+v, want 200 handoff", st, ing)
		}
		drift := wire.EncodeProfile(driftPCs(wp, 4096))
		if _, ing := postProfile(t, ts, drift); ing.Outcome != "stale_match" {
			t.Fatalf("drifted ingest after the upgrade = %+v, want stale_match", ing)
		}
	})
}

// hideLength hides a reader's length from net/http, so the client sends
// the body chunked (ContentLength -1).
type hideLength struct{ r io.Reader }

func (h hideLength) Read(p []byte) (int, error) { return h.r.Read(p) }

// TestIngestBodyLimits: an undeclared (chunked) body is still cut off at
// MaxBodyBytes, with the status the decoder's first failure implies, and
// a large declared length never sizes an allocation by itself.
func TestIngestBodyLimits(t *testing.T) {
	_, body := isProfile(t)
	ts := httptest.NewServer(New(Config{MaxBodyBytes: 1024}).Handler())
	defer ts.Close()

	post := func(b []byte) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/profiles", hideLength{bytes.NewReader(b)})
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = -1
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// A well-formed frame that runs past the limit.
	if st := post(body); st != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize profile = %d, want 413", st)
	}
	// A frame already malformed before the limit fails on its bytes.
	if st := post(bytes.Repeat([]byte("x"), 4096)); st != http.StatusBadRequest {
		t.Fatalf("chunked oversize garbage = %d, want 400", st)
	}

	// A 64 MiB declared length with a 10-byte body allocates about what
	// arrives, not the declared length.
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader([]byte("0123456789")))
	req.ContentLength = DefaultMaxBodyBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short body = %d, want 400", rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("10-byte body declared as %d bytes allocated %d bytes", DefaultMaxBodyBytes, got)
	}
}

// TestIngestHitAllocsPerRun locks the hash-only hit's allocations: the
// request, recorder, timeout wrapper and JSON reply, with no profile
// decode (48 on go1.24, against about 1600 when every hit decoded IS).
func TestIngestHitAllocsPerRun(t *testing.T) {
	wp, body := isProfile(t)
	h := New(Config{}).Handler()
	putPlans(t, h, wire.FingerprintBytes(body), wp.ShapeHash(), wire.EncodePlanSet(&wire.PlanSet{App: wp.App}))
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	post() // decodes and validates the replica's profile once
	if got := testing.AllocsPerRun(50, post); got > 64 {
		t.Errorf("hash-only hit: %.0f allocs/op, want <= 64", got)
	}
}

// TestRejectionAndReplicaCountersReachMetrics: counters the handlers
// bump must appear on /v1/metrics of a daemon without an obs report,
// where the serve span they are mirrored into does not exist.
func TestRejectionAndReplicaCountersReachMetrics(t *testing.T) {
	wp, body := isProfile(t)
	plans := wire.EncodePlanSet(&wire.PlanSet{App: wp.App})
	for _, c := range []struct {
		name     string
		method   string
		path     string
		body     io.Reader
		declared int64 // -1 sends the body chunked
		status   int
		counter  string
	}{
		{"oversize POST, declared length", http.MethodPost, "/v1/profiles",
			bytes.NewReader(body), int64(len(body)), http.StatusRequestEntityTooLarge, "requests_rejected_oversize"},
		{"oversize POST, chunked", http.MethodPost, "/v1/profiles",
			hideLength{bytes.NewReader(body)}, -1, http.StatusRequestEntityTooLarge, "requests_rejected_oversize"},
		{"replica PUT", http.MethodPut, "/v1/plans/" + string(wire.FingerprintBytes(body)),
			bytes.NewReader(plans), int64(len(plans)), http.StatusNoContent, "plan_cache_replica_puts"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(New(Config{MaxBodyBytes: 1024}).Handler())
			defer ts.Close()
			req, err := http.NewRequest(c.method, ts.URL+c.path, c.body)
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = c.declared
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.status)
			}
			if got := getMetrics(t, ts).Counters[c.counter]; got != 1 {
				t.Fatalf("/v1/metrics %s = %d, want 1", c.counter, got)
			}
		})
	}
}
