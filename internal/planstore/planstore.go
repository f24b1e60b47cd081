// Package planstore is aptgetd's content-addressed plan cache. One
// Store holds a bounded in-memory LRU (Local), the shard's sibling
// peers, and the policies that serve from them:
//
//   - single-flight deduplication: N concurrent requests for one
//     profile trigger exactly one analysis;
//   - stale-profile matching (after Ayupov et al.): an exact-fingerprint
//     miss is served from an entry whose loop structure matches, raw PCs
//     ignored, so plans survive binary drift without re-analysis;
//   - warm handoff: a local miss asks each peer for the plans by
//     fingerprint before computing, so a ring resize or shard restart
//     re-serves cached analyses instead of re-running them;
//   - push replication (optional): every plan set stored here, other
//     than one that came from a peer, is forwarded best-effort to the
//     peers, so any single shard can die without losing the fleet's
//     plans.
//
// The store is safe for concurrent use and never blocks readers on a
// running computation for a *different* key.
package planstore

import (
	"sync"
	"sync/atomic"

	"aptget/internal/wire"
)

// Key addresses one profile's plans.
type Key struct {
	Profile wire.Fingerprint
	Shape   wire.ShapeHash
}

// Entry is one stored plan set: the canonical wire plan-set bytes, the
// fingerprint of the profile they were computed from, and what an
// ingest reply echoes about them.
type Entry struct {
	Plans  []byte
	Source wire.Fingerprint
	// Count is the number of plans in Plans, so a reply never decodes
	// them.
	Count int
	// App and Shape describe the profile stored under the entry's
	// fingerprint, as this daemon's own decoding ingest found it. Only
	// that ingest sets them; replicas and handoffs arrive without them.
	App   string
	Shape wire.ShapeHash
}

// Validated reports whether this daemon decoded and validated the
// profile bytes behind the entry's fingerprint, so that a repeat of
// exactly those bytes can be served by their hash alone.
func (e Entry) Validated() bool { return e.App != "" }

// Peer is a sibling shard the store pulls warm handoffs from and
// pushes replicas to. *Remote implements it; tests fake it. A peer that
// also has a Counters method has its counters summed into the store's.
type Peer interface {
	Lookup(fp wire.Fingerprint) (Entry, bool)
	Put(key Key, e Entry)
}

// Outcome says how a request was served.
type Outcome int

// Serving outcomes.
const (
	// OutcomeMiss: no usable entry; this request ran the analysis.
	OutcomeMiss Outcome = iota
	// OutcomeHit: exact fingerprint hit (including requests that waited
	// on an in-flight computation of the same key).
	OutcomeHit
	// OutcomeStaleMatch: exact fingerprint missed, but an entry with the
	// same loop-structure hash was served without re-running analysis.
	OutcomeStaleMatch
	// OutcomeHandoff: exact fingerprint missed locally, but a sibling
	// shard had the plans and handed them off without re-analysis.
	OutcomeHandoff
	// OutcomeAggregated: the request joined an aggregation window and was
	// served from one analysis of the merged fleet profile.
	OutcomeAggregated
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeStaleMatch:
		return "stale_match"
	case OutcomeHandoff:
		return "handoff"
	case OutcomeAggregated:
		return "aggregated"
	}
	return "miss"
}

// Result describes how a GetOrCompute call was served.
type Result struct {
	Outcome Outcome
	// Source is the fingerprint of the profile the served plans were
	// computed from. Equal to the request's fingerprint except on stale
	// matches and handoffs, where it names the matched prior profile.
	Source wire.Fingerprint
}

// call is one in-flight computation other requests can wait on.
type call struct {
	done chan struct{}
	e    Entry
	err  error
}

// Store layers single-flight, stale-shape matching, warm handoff and
// push replication over a Local LRU.
type Store struct {
	mu       sync.Mutex // serializes the lookup→flight decision
	local    *Local
	peers    []Peer
	push     bool
	inflight map[Key]*call

	hits, staleMatches, misses, handoffs, handoffMisses, pushes atomic.Int64
}

// DefaultCapacity bounds the cache when New is given a non-positive
// capacity.
const DefaultCapacity = 512

// New returns a store holding at most capacity plan sets (≤0 selects
// DefaultCapacity), with no peers.
func New(capacity int) *Store { return NewWithPeers(capacity, nil, false) }

// NewWithPeers returns a store that serves local misses from peers
// before computing and, when push is set, forwards every Put to all of
// them (synchronously, best-effort).
func NewWithPeers(capacity int, peers []Peer, push bool) *Store {
	return &Store{
		local:    NewLocal(capacity),
		peers:    peers,
		push:     push,
		inflight: make(map[Key]*call),
	}
}

// Len returns the number of cached plan sets.
func (s *Store) Len() int { return s.local.Len() }

// Counters exports the store's counters, plus its peers' when it has
// any, under the names /v1/metrics serves.
func (s *Store) Counters() map[string]int64 {
	c := map[string]int64{
		"plan_cache_hits":          s.hits.Load(),
		"plan_cache_stale_matches": s.staleMatches.Load(),
		"plan_cache_misses":        s.misses.Load(),
		"plan_cache_evictions":     s.local.evictions.Load(),
	}
	if n := s.handoffs.Load(); n > 0 {
		c["plan_cache_handoffs"] = n
	}
	if len(s.peers) == 0 {
		return c
	}
	c["plan_cache_handoff_misses"] = s.handoffMisses.Load()
	if s.push {
		c["plan_cache_replication_pushes"] = s.pushes.Load()
	}
	for _, p := range s.peers {
		if pc, ok := p.(interface{ Counters() map[string]int64 }); ok {
			for k, v := range pc.Counters() {
				c[k] += v
			}
		}
	}
	return c
}

// handoff sweeps the peers for plans by fingerprint, first hit wins. It
// runs outside the store's locks: peer lookups may do network I/O.
func (s *Store) handoff(fp wire.Fingerprint) (Entry, bool) {
	for _, p := range s.peers {
		if e, ok := p.Lookup(fp); ok {
			s.handoffs.Add(1)
			return e, true
		}
	}
	s.handoffMisses.Add(1)
	return Entry{}, false
}

// Get looks up plans by exact profile fingerprint (the GET /v1/plans
// path). On a local miss it asks the peers — a router failing over to
// the next ring member still serves the plans the dead owner computed.
// Does not count hits or misses; ingestion owns that accounting.
func (s *Store) Get(fp wire.Fingerprint) (Entry, bool) {
	if e, ok := s.local.Lookup(fp); ok {
		return e, true
	}
	e, ok := s.handoff(fp)
	if !ok {
		return Entry{}, false
	}
	// Cache the handed-off plans under a fingerprint-only key; a later
	// ingest of the same profile upgrades the entry with its shape. Local
	// only — the plans just came from a peer.
	e = labelled(Key{Profile: fp}, "", e)
	s.PutLocal(Key{Profile: fp}, e)
	return e, true
}

// GetLocal is Get without the handoff — the serving path for
// fleet-internal requests (siblings asking for a warm handoff must not
// recurse into another round of handoffs).
func (s *Store) GetLocal(fp wire.Fingerprint) (Entry, bool) {
	return s.local.Lookup(fp)
}

// Hit serves a repeat of profile bytes this daemon's own ingest already
// decoded and validated, by fingerprint alone, and counts a hit. An
// entry that is not Validated — a replica, a handoff alias — does not
// qualify: nothing here has checked the bytes behind its fingerprint,
// so the caller must decode and go through Ingest or TryGet, which
// validate and upgrade it. A miss counts nothing.
func (s *Store) Hit(fp wire.Fingerprint) (Entry, bool) {
	e, ok := s.local.Lookup(fp)
	if !ok || !e.Validated() {
		return Entry{}, false
	}
	s.hits.Add(1)
	return e, true
}

// Put stores plans under key, counting nothing, and pushes them to
// every peer when push replication is on. Peer failures are the peer's
// to count.
func (s *Store) Put(key Key, e Entry) {
	s.local.Put(key, e)
	if !s.push {
		return
	}
	for _, p := range s.peers {
		s.pushes.Add(1)
		p.Put(key, e)
	}
}

// PutLocal stores under key without replicating — the path for plans
// that already came from a peer, so pushes cannot echo around the fleet.
func (s *Store) PutLocal(key Key, e Entry) { s.local.Put(key, e) }

// labelled is the entry an ingest of key stores and serves: e's plans,
// marked Validated for key's profile when app (the application the
// decoded profile named) is set, and carrying no ingest metadata
// otherwise — another profile's App and Shape never carry over.
func labelled(key Key, app string, e Entry) Entry {
	out := Entry{Plans: e.Plans, Source: e.Source, Count: e.Count}
	if app != "" {
		out.App, out.Shape = app, key.Shape
	}
	return out
}

// exactHit finishes an exact-key hit on e. When this ingest decoded the
// profile (app set) and e was not yet Validated — a replica — it marks
// the entry, so the next repeat of these bytes is a hash-only Hit.
func (s *Store) exactHit(key Key, app string, e Entry) (Entry, Result) {
	if app != "" && !e.Validated() {
		e = labelled(key, app, e)
		s.PutLocal(key, e)
	}
	return e, Result{Outcome: OutcomeHit, Source: e.Source}
}

// staleMatch serves src's plans for key and aliases them under key, so
// the follow-up GET (and repeat ingests of this exact profile) hit
// exactly. Called outside s.mu: Put may push to peers (network I/O), and
// a racing duplicate alias is idempotent.
func (s *Store) staleMatch(key Key, app string, src Entry) (Entry, Result) {
	alias := labelled(key, app, src)
	s.Put(key, alias)
	return alias, Result{Outcome: OutcomeStaleMatch, Source: src.Source}
}

// TryGet serves key from the cache or a same-shape stale entry without
// ever computing: the aggregation ingest path uses it to give cached
// profiles the normal hit/stale accounting before joining a window. app
// is the application the decoded profile named, as for Ingest.
func (s *Store) TryGet(key Key, app string) (Entry, Result, bool) {
	s.mu.Lock()
	if e, ok := s.local.LookupKey(key); ok {
		s.hits.Add(1)
		s.mu.Unlock()
		e, res := s.exactHit(key, app, e)
		return e, res, true
	}
	if e, ok := s.local.LookupShape(key.Shape); ok {
		s.staleMatches.Add(1)
		s.mu.Unlock()
		e, res := s.staleMatch(key, app, e)
		return e, res, true
	}
	s.mu.Unlock()
	return Entry{}, Result{}, false
}

// GetOrCompute is Ingest for a caller that holds only plan bytes and no
// decoded profile to vouch for: nothing it stores is Validated, and the
// stored entries carry no plan count.
func (s *Store) GetOrCompute(key Key, compute func() ([]byte, error)) ([]byte, Result, error) {
	e, res, err := s.Ingest(key, "", func() (Entry, error) {
		plans, err := compute()
		return Entry{Plans: plans}, err
	})
	return e.Plans, res, err
}

// Ingest serves key from the cache, from a same-shape stale entry, from
// an in-flight computation of the same key, from a peer's cache, or —
// exactly once per key — by running compute, whose Entry supplies the
// plans and their count. compute runs without the store lock held.
//
// app is the application named by the profile whose fingerprint is
// key.Profile, which the caller has decoded and validated. Every entry
// Ingest stores under key is marked Validated with it, so repeats of
// those bytes become hash-only Hits. An empty app marks nothing.
func (s *Store) Ingest(key Key, app string, compute func() (Entry, error)) (Entry, Result, error) {
	s.mu.Lock()

	// 1. Exact hit.
	if e, ok := s.local.LookupKey(key); ok {
		s.hits.Add(1)
		s.mu.Unlock()
		e, res := s.exactHit(key, app, e)
		return e, res, nil
	}

	// 2. Same key already being computed: wait for it rather than
	// serving stale — the exact answer is moments away.
	if c, ok := s.inflight[key]; ok {
		s.hits.Add(1)
		s.mu.Unlock()
		<-c.done
		if c.err != nil {
			return Entry{}, Result{}, c.err
		}
		return c.e, Result{Outcome: OutcomeHit, Source: c.e.Source}, nil
	}

	// 3. Stale match: an entry computed from a different profile of the
	// same loop structure. Serve its plans verbatim, no analysis.
	if e, ok := s.local.LookupShape(key.Shape); ok {
		s.staleMatches.Add(1)
		s.mu.Unlock()
		e, res := s.staleMatch(key, app, e)
		return e, res, nil
	}

	// 4. Local miss: this request owns the flight; concurrent requests
	// for the same key wait on it instead of duplicating the work.
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	// 4a. Warm handoff: ask sibling shards before computing. Runs inside
	// the flight, so a burst for one key costs at most one sibling sweep.
	outcome := OutcomeMiss
	if e, ok := s.handoff(key.Profile); ok {
		c.e = labelled(key, app, e)
		outcome = OutcomeHandoff
	}

	// 4b. True miss: run the analysis.
	if outcome == OutcomeMiss {
		s.misses.Add(1)
		var e Entry
		if e, c.err = compute(); c.err == nil {
			e.Source = key.Profile
			c.e = labelled(key, app, e)
		}
	}

	// Publish to the cache before dropping the flight, so a request
	// arriving between the two sees the cached entry rather than opening
	// a second flight. The Put stays outside s.mu — it may push to peers.
	// Handed-off plans store locally only: they just came from a peer.
	if c.err == nil {
		if outcome == OutcomeHandoff {
			s.PutLocal(key, c.e)
		} else {
			s.Put(key, c.e)
		}
	}
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)

	if c.err != nil {
		return Entry{}, Result{}, c.err
	}
	return c.e, Result{Outcome: outcome, Source: c.e.Source}, nil
}
