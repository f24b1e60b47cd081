package planstore

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"aptget/internal/wire"
)

// Fleet-internal HTTP headers. HeaderInternal marks a request as coming
// from a sibling shard: the serving daemon answers from its local cache
// only, so warm handoffs cannot recurse around the fleet. HeaderShape
// and HeaderSource carry the key metadata plan bytes alone do not
// encode.
const (
	HeaderInternal = "X-Apt-Internal"
	HeaderShape    = "X-Apt-Shape"
	HeaderSource   = "X-Apt-Source"
)

// Remote is the Peer for a sibling daemon: a client for its /v1/plans
// surface. Lookups are fingerprint-addressed; stale-shape matching stays
// local to each store.
type Remote struct {
	base   string
	client *http.Client

	gets, puts, errors atomic.Int64
}

// DefaultRemoteTimeout bounds one remote lookup or replication push.
const DefaultRemoteTimeout = 5 * time.Second

// NewRemote returns a client for the daemon at base (host:port or
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

// Counters exports the remote client's counters. A store sums them over
// all its peers, so /v1/metrics shows fleet-wide peer traffic, not one
// count per base URL.
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
