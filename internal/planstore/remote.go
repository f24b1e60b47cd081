package planstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"aptget/internal/wire"
)

// Fleet-internal HTTP headers. HeaderInternal marks a request as coming
// from a sibling shard (or a backend acting for one): the serving
// daemon answers from its local backend only, so warm handoffs cannot
// recurse around the fleet. HeaderShape and HeaderSource carry the key
// metadata plan bytes alone do not encode.
const (
	HeaderInternal = "X-Apt-Internal"
	HeaderShape    = "X-Apt-Shape"
	HeaderSource   = "X-Apt-Source"
)

// Remote is an HTTP-backed Backend: a client for another daemon's
// /v1/plans surface, so a diskless front can serve from a remote cache,
// and the Replicated backend can treat sibling shards as peers.
//
// LookupShape is unsupported (the HTTP surface is fingerprint-addressed)
// and always misses; stale-shape matching stays a local-policy concern.
type Remote struct {
	base   string
	client *http.Client

	gets, puts, errors atomic.Int64
}

// DefaultRemoteTimeout bounds one remote lookup or replication push.
const DefaultRemoteTimeout = 5 * time.Second

// NewRemote returns a backend over the daemon at base (host:port or
// http URL). timeout ≤0 selects DefaultRemoteTimeout.
func NewRemote(base string, timeout time.Duration) *Remote {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	return &Remote{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: timeout},
	}
}

// Base returns the remote's base URL.
func (r *Remote) Base() string { return r.base }

// Lookup fetches plans by fingerprint from the remote daemon. Bytes that
// are not a canonical plan set count as an error and a miss.
func (r *Remote) Lookup(fp wire.Fingerprint) (Entry, bool) {
	r.gets.Add(1)
	req, err := http.NewRequest(http.MethodGet, r.base+"/v1/plans/"+string(fp), nil)
	if err != nil {
		r.errors.Add(1)
		return Entry{}, false
	}
	req.Header.Set(HeaderInternal, "1")
	resp, err := r.client.Do(req)
	if err != nil {
		r.errors.Add(1)
		return Entry{}, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			r.errors.Add(1)
		}
		return Entry{}, false
	}
	plans, err := io.ReadAll(resp.Body)
	if err != nil {
		r.errors.Add(1)
		return Entry{}, false
	}
	// A peer's bytes are checked like a replication PUT body, which also
	// gives the plan count an ingest reply needs.
	ps, err := wire.DecodePlanSet(plans)
	if err != nil {
		r.errors.Add(1)
		return Entry{}, false
	}
	src := wire.Fingerprint(resp.Header.Get(HeaderSource))
	if src == "" {
		src = fp
	}
	return Entry{Plans: plans, Source: src, Count: len(ps.Plans)}, true
}

// LookupKey approximates exact-key lookup by fingerprint (the remote
// surface is fingerprint-addressed; fingerprints are content addresses,
// so the shape cannot disagree for canonical profiles).
func (r *Remote) LookupKey(key Key) (Entry, bool) { return r.Lookup(key.Profile) }

// LookupShape always misses: stale-shape matching is local policy.
func (r *Remote) LookupShape(wire.ShapeHash) (Entry, bool) { return Entry{}, false }

// Put pushes plans to the remote daemon's replication endpoint
// (PUT /v1/plans/{fp}). Best-effort: failures are counted, not raised.
func (r *Remote) Put(key Key, e Entry) {
	r.puts.Add(1)
	req, err := http.NewRequest(http.MethodPut,
		r.base+"/v1/plans/"+string(key.Profile), bytes.NewReader(e.Plans))
	if err != nil {
		r.errors.Add(1)
		return
	}
	req.Header.Set(HeaderInternal, "1")
	req.Header.Set("Content-Type", "application/octet-stream")
	if key.Shape != "" {
		req.Header.Set(HeaderShape, string(key.Shape))
	}
	if e.Source != "" {
		req.Header.Set(HeaderSource, string(e.Source))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.errors.Add(1)
	}
}

// Len asks the remote daemon's healthz for its cache size (0 when
// unreachable).
func (r *Remote) Len() int {
	resp, err := r.client.Get(r.base + "/v1/healthz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var h struct {
		CacheEntries int `json:"cache_entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0
	}
	return h.CacheEntries
}

// Counters exports the remote client's counters, qualified by base so a
// replicated store's peers stay distinguishable.
func (r *Remote) Counters() map[string]int64 {
	c := map[string]int64{
		"remote_plan_gets": r.gets.Load(),
		"remote_plan_puts": r.puts.Load(),
	}
	if n := r.errors.Load(); n > 0 {
		c["remote_plan_errors"] = n
	}
	return c
}

// String names the remote for logs.
func (r *Remote) String() string { return fmt.Sprintf("remote(%s)", r.base) }
