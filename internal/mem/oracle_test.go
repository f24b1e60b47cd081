package mem

// This file keeps a frozen, test-only reference hierarchy (one struct
// per way with a global LRU tick, a map-backed stride table that
// allocates its targets) and fuzzes the production Hierarchy against it
// access by access. Leave the reference as it is: it is what every
// optimisation of the production code is checked against.

import (
	"fmt"
	"math/rand"
	"testing"
)

// refHierarchy is the reference memory system: same Config, same
// Stats, same Result, reference data structures underneath.
type refHierarchy struct {
	Cfg   Config
	Stats Stats

	l1, l2, llc *refLevel
	mshr        []refMSHR

	dramNextFree uint64

	stride *refStride
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{
		Cfg:  cfg,
		l1:   newRefLevel(cfg.L1),
		l2:   newRefLevel(cfg.L2),
		llc:  newRefLevel(cfg.LLC),
		mshr: make([]refMSHR, 0, cfg.FillBuffers),
	}
	if cfg.StridePrefetcher {
		h.stride = newRefStride(cfg.StrideDegree)
	}
	return h
}

// refWay is one cache way within a set.
type refWay struct {
	line     int64
	valid    bool
	lru      uint64 // larger = more recently used
	prefetch bool   // installed by a prefetch (SW or HW)
	swPref   bool   // installed by a software prefetch specifically
	touched  bool   // referenced by a demand access since install
}

// refLevel is a single set-associative LRU cache level: each way carries
// its own LRU tick, and the victim is the way with the smallest tick.
type refLevel struct {
	sets    [][]refWay
	setMask int64
	lruTick uint64
}

func newRefLevel(lc LevelConfig) *refLevel {
	n := lc.Sets()
	// The set index is line&(n-1); a non-power-of-two count would alias
	// sets and silently shrink the cache.
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("mem: %v", lc.Validate()))
	}
	sets := make([][]refWay, n)
	backing := make([]refWay, n*lc.Ways)
	for i := range sets {
		sets[i] = backing[i*lc.Ways : (i+1)*lc.Ways]
	}
	return &refLevel{sets: sets, setMask: int64(n - 1)}
}

func (c *refLevel) set(line int64) []refWay { return c.sets[line&c.setMask] }

// lookup probes for a line; on hit it updates recency and the touched bit
// (when demand is true) and returns the way.
func (c *refLevel) lookup(line int64, demand bool) *refWay {
	s := c.sets[line&c.setMask]
	if len(s) == 1 {
		// Direct-mapped fast path: one candidate, no associative scan.
		w := &s[0]
		if !w.valid || w.line != line {
			return nil
		}
		c.lruTick++
		w.lru = c.lruTick
		if demand {
			w.touched = true
		}
		return w
	}
	for i := range s {
		w := &s[i]
		if w.valid && w.line == line {
			c.lruTick++
			w.lru = c.lruTick
			if demand {
				w.touched = true
			}
			return w
		}
	}
	return nil
}

// refEvicted describes a victim pushed out by install.
type refEvicted struct {
	line           int64
	valid          bool
	prefetchUnused bool // installed by prefetch, never demanded: "too early"
	swPrefUnused   bool
}

// install places a line, evicting the LRU way of its set if needed.
func (c *refLevel) install(line int64, byPrefetch, bySWPrefetch bool) refEvicted {
	s := c.set(line)
	victim := -1
	for i := range s {
		w := &s[i]
		if w.valid && w.line == line {
			// Already present: refresh only.
			c.lruTick++
			w.lru = c.lruTick
			return refEvicted{}
		}
		if !w.valid {
			victim = i
		}
	}
	if victim == -1 {
		best := uint64(1<<64 - 1)
		for i := range s {
			if s[i].lru < best {
				best = s[i].lru
				victim = i
			}
		}
	}
	w := &s[victim]
	ev := refEvicted{}
	if w.valid {
		ev = refEvicted{
			line:           w.line,
			valid:          true,
			prefetchUnused: w.prefetch && !w.touched,
			swPrefUnused:   w.swPref && !w.touched,
		}
	}
	c.lruTick++
	*w = refWay{line: line, valid: true, lru: c.lruTick, prefetch: byPrefetch, swPref: bySWPrefetch}
	return ev
}

// contains probes without updating recency (tests, invariant checks).
func (c *refLevel) contains(line int64) bool {
	s := c.set(line)
	for i := range s {
		w := &s[i]
		if w.valid && w.line == line {
			return true
		}
	}
	return false
}

// refMSHR is one in-flight fill (line fill buffer / miss status holding
// register).
type refMSHR struct {
	line  int64
	ready uint64 // cycle at which the fill completes
	sw    bool   // fill initiated by software prefetch
	hw    bool   // fill initiated by hardware prefetch
	toL1  bool   // install into L1 on completion (SW prefetch / demand); HW prefetch fills stop at L2
	used  bool
	dram  bool // fill sourced from DRAM (vs an L2→L1 promotion): a demand hit on it is an LLC miss
}

func (h *refHierarchy) drain(now uint64) {
	if len(h.mshr) == 0 {
		return
	}
	kept := h.mshr[:0]
	for _, e := range h.mshr {
		if e.ready <= now {
			h.installFill(e)
		} else {
			kept = append(kept, e)
		}
	}
	h.mshr = kept
}

func (h *refHierarchy) installFill(e refMSHR) {
	byPref := e.sw || e.hw
	if e.toL1 {
		ev := h.l1.install(e.line, byPref, e.sw)
		if ev.swPrefUnused {
			h.Stats.SWPrefetchUnusedEvicted++
		}
		h.l2.install(e.line, byPref, e.sw)
	} else {
		h.l2.install(e.line, byPref, e.sw)
	}
	h.llc.install(e.line, byPref, e.sw)
}

func (h *refHierarchy) findMSHR(line int64) *refMSHR {
	for i := range h.mshr {
		if h.mshr[i].line == line {
			return &h.mshr[i]
		}
	}
	return nil
}

// dramRequest schedules a DRAM access respecting the bandwidth gap and
// returns the completion cycle.
func (h *refHierarchy) dramRequest(now uint64) uint64 {
	start := now
	if h.dramNextFree > start {
		start = h.dramNextFree
	}
	h.dramNextFree = start + h.Cfg.DRAMGap
	return start + h.Cfg.DRAMLatency
}

// probeBeyondL1 determines which level beyond L1 holds the line, charging
// offcore counters, and returns (level, completion cycle of the fill).
// The line is *not* installed; the caller decides where it lands.
func (h *refHierarchy) probeBeyondL1(now uint64, line int64, kind Kind) (Level, uint64) {
	if h.l2.lookup(line, kind == KindLoad || kind == KindStore) != nil {
		return LevelL2, now + h.Cfg.L2.Latency
	}
	// L2 miss: offcore request.
	switch kind {
	case KindLoad, KindStore:
		h.Stats.OffcoreDemand++
	case KindSWPrefetch:
		h.Stats.OffcoreSWPrefetch++
	case KindHWPrefetch:
		h.Stats.OffcoreHWPrefetch++
	}
	if h.llc.lookup(line, kind == KindLoad || kind == KindStore) != nil {
		return LevelLLC, now + h.Cfg.LLC.Latency
	}
	return LevelDRAM, h.dramRequest(now)
}

// Access performs a memory request at the given cycle. pc is the address
// of the requesting instruction (used by the IP-stride prefetcher and by
// profiling). For prefetch kinds the returned latency is the fixed issue
// cost; the fill completes asynchronously.
func (h *refHierarchy) Access(now uint64, pc uint64, addr int64, kind Kind) Result {
	if len(h.mshr) != 0 {
		h.drain(now)
	}
	line := lineOf(addr)

	switch kind {
	case KindSWPrefetch, KindHWPrefetch:
		return h.prefetch(now, line, kind)
	}

	// Demand load or store.
	h.Stats.DemandAccesses++
	if kind == KindLoad && h.stride != nil {
		h.trainStride(now, pc, addr)
	}

	if h.l1.lookup(line, true) != nil {
		h.Stats.Hits[LevelL1]++
		h.Stats.StallCycles[LevelL1] += h.Cfg.L1.Latency
		return Result{Latency: h.Cfg.L1.Latency, Served: LevelL1}
	}

	if e := h.findMSHR(line); e != nil {
		// In flight: wait for the residual fill time.
		wait := e.ready - now
		res := Result{
			Latency: wait + h.Cfg.L1.Latency,
			Served:  LevelFB,
			FBHit:   true,
			FBHitSW: e.sw,
			LLCMiss: e.dram && !e.hw,
		}
		h.Stats.Hits[LevelFB]++
		h.Stats.FBHitAny++
		if e.sw {
			h.Stats.FBHitSWPrefetch++
		}
		h.Stats.StallCycles[LevelFB] += res.Latency
		e.used = true
		e.toL1 = true
		// The demand consumed the fill: complete it now.
		h.installFill(*e)
		h.removeMSHR(line)
		return res
	}

	served, done := h.probeBeyondL1(now, line, kind)
	lat := done - now
	h.Stats.Hits[served]++
	h.Stats.StallCycles[served] += lat
	// The core blocks on demand misses, so the fill is complete by the
	// time execution resumes: install immediately.
	h.installFill(refMSHR{line: line, toL1: true})

	if served == LevelDRAM && h.Cfg.NextLinePrefetcher {
		h.nextLine(now, line)
	}
	return Result{Latency: lat, Served: served, LLCMiss: served == LevelDRAM}
}

func (h *refHierarchy) removeMSHR(line int64) {
	for i := range h.mshr {
		if h.mshr[i].line == line {
			h.mshr = append(h.mshr[:i], h.mshr[i+1:]...)
			return
		}
	}
}

// prefetch handles SW and HW prefetch requests.
func (h *refHierarchy) prefetch(now uint64, line int64, kind Kind) Result {
	sw := kind == KindSWPrefetch
	if sw {
		h.Stats.SWPrefetchIssued++
	} else {
		h.Stats.HWPrefetchIssued++
	}

	if sw && h.l1.lookup(line, false) != nil {
		h.Stats.SWPrefetchCacheHit++
		return Result{Latency: 1, Served: LevelL1}
	}
	if !sw && h.l2.lookup(line, false) != nil {
		return Result{Latency: 0, Served: LevelL2}
	}
	if h.findMSHR(line) != nil {
		if sw {
			h.Stats.SWPrefetchMerged++
		}
		return Result{Latency: 1, Served: LevelFB}
	}
	if len(h.mshr) >= h.Cfg.FillBuffers {
		if sw {
			h.Stats.SWPrefetchDroppedFull++
		}
		return Result{Latency: 1, Served: LevelFB}
	}

	served, done := h.probeBeyondL1(now, line, kind)
	if served == LevelL2 && sw {
		// Promote to L1 asynchronously.
		h.mshr = append(h.mshr, refMSHR{line: line, ready: done, sw: true, toL1: true})
		return Result{Latency: 1, Served: served}
	}
	if served == LevelL2 {
		return Result{Latency: 0, Served: served}
	}
	h.mshr = append(h.mshr, refMSHR{
		line: line, ready: done,
		sw: sw, hw: !sw,
		toL1: sw, // SW prefetch targets L1 (prefetcht0); HW fills stop at L2
		dram: served == LevelDRAM,
	})
	return Result{Latency: 1, Served: served}
}

// trainStride updates the IP-stride predictor and issues HW prefetches.
func (h *refHierarchy) trainStride(now uint64, pc uint64, addr int64) {
	for _, target := range h.stride.observe(pc, addr) {
		h.prefetch(now, lineOf(target), KindHWPrefetch)
	}
}

// nextLine issues the L2 next-line prefetch.
func (h *refHierarchy) nextLine(now uint64, line int64) {
	h.prefetch(now, line+1, KindHWPrefetch)
}

// refStride is the IP-stride predictor: a map from load PC to its
// stride state, cleared whole when a new PC would exceed its capacity.
type refStride struct {
	degree  int
	entries map[uint64]*refStrideEntry
}

type refStrideEntry struct {
	lastAddr   int64
	stride     int64
	confidence int
}

const (
	refStrideConfidenceMax   = 4
	refStrideConfidenceFire  = 2
	refStrideTableMaxEntries = 256
)

func newRefStride(degree int) *refStride {
	if degree < 1 {
		degree = 1
	}
	return &refStride{degree: degree, entries: make(map[uint64]*refStrideEntry)}
}

// observe records a demand load and returns the addresses to prefetch.
func (p *refStride) observe(pc uint64, addr int64) []int64 {
	e := p.entries[pc]
	if e == nil {
		if len(p.entries) >= refStrideTableMaxEntries {
			// Cheap, deterministic eviction: clear the table. Real
			// hardware uses set-indexed tables; for our workloads (few
			// hot loads) this path is almost never taken.
			p.entries = make(map[uint64]*refStrideEntry)
		}
		p.entries[pc] = &refStrideEntry{lastAddr: addr}
		return nil
	}
	stride := addr - e.lastAddr
	e.lastAddr = addr
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.confidence < refStrideConfidenceMax {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
		return nil
	}
	if e.confidence < refStrideConfidenceFire {
		return nil
	}
	// Degree d covers the next d accesses of the stream: addr+stride
	// through addr+stride*d. Firing at stride*(k+1) would leave the very
	// next access (addr+stride) permanently uncovered.
	targets := make([]int64, 0, p.degree)
	for k := 1; k <= p.degree; k++ {
		t := addr + stride*int64(k)
		if t >= 0 {
			targets = append(targets, t)
		}
	}
	return targets
}

// oracleConfigs are the machine models the oracle fuzzer alternates
// between. All have both hardware prefetchers on, so the stride table
// and the next-line prefetcher are exercised; they differ in
// associativity (including a direct-mapped L1), stride degree and
// fill-buffer count.
func oracleConfigs() []Config {
	base := ConfigTiny()
	base.Name = "tiny-hwpf"
	base.StridePrefetcher, base.NextLinePrefetcher = true, true

	direct := base
	direct.Name = "tiny-direct"
	direct.L1 = LevelConfig{SizeBytes: 8 * LineSize, Ways: 1, Latency: 4}
	direct.LLC = LevelConfig{SizeBytes: 128 * LineSize, Ways: 16, Latency: 42}
	direct.StrideDegree = 1
	direct.FillBuffers = 2

	deep := base
	deep.Name = "tiny-deep"
	deep.StrideDegree = 4
	deep.FillBuffers = 10
	deep.DRAMGap = 0
	return []Config{base, direct, deep}
}

// FuzzHierOracle drives the production Hierarchy and the frozen
// refHierarchy with one seeded access stream and requires them to agree
// after every access: the Result, the whole Stats struct, fill-buffer
// occupancy, and whether L1, L2 and the LLC hold the accessed line. The
// stream mixes all four request kinds, negative addresses, bursty
// clocks, constant-stride streams that train the stride prefetcher, and
// more than 256 distinct load PCs, so the stride table's clear-on-full
// path is reached.
func FuzzHierOracle(f *testing.F) {
	f.Add(uint64(1), uint(3000))
	f.Add(uint64(0), uint(0))
	f.Add(uint64(42), uint(8000))
	f.Add(uint64(1234567), uint(5000))
	cfgs := oracleConfigs()
	f.Fuzz(func(t *testing.T, seed uint64, n uint) {
		r := rand.New(rand.NewSource(int64(seed)))
		cfg := cfgs[seed%uint64(len(cfgs))]
		h := New(cfg, 1<<16)
		ref := newRefHierarchy(cfg)
		// A few strided streams, each owned by one PC.
		type stream struct {
			pc   uint64
			addr int64
			step int64
		}
		streams := make([]stream, 4)
		for i := range streams {
			streams[i] = stream{
				pc:   uint64(0x1000 + 4*i),
				addr: int64(r.Intn(1 << 16)),
				step: int64(r.Intn(9)-4) * 8 * int64(1+r.Intn(16)),
			}
		}
		var now uint64
		for i := 0; i < int(n%8192); i++ {
			switch r.Intn(8) {
			case 0:
				now += uint64(r.Intn(2000)) // a burst gap: fills complete
			case 1:
				// Same cycle: back-to-back requests.
			default:
				now += uint64(r.Intn(40))
			}
			var pc uint64
			var addr int64
			if r.Intn(3) == 0 {
				s := &streams[r.Intn(len(streams))]
				s.addr += s.step
				pc, addr = s.pc, s.addr
			} else {
				// Cold PCs: 600 distinct values overflow the 256-entry
				// stride table many times over.
				pc = uint64(r.Intn(600)) * 4
				addr = int64(r.Uint64() % (1 << 18))
			}
			if r.Intn(10) == 0 {
				addr = -addr
			}
			kind := Kind(r.Intn(4))
			if r.Intn(3) != 0 {
				kind = KindLoad
			}
			got := h.Access(now, pc, addr, kind)
			want := ref.Access(now, pc, addr, kind)
			line := lineOf(addr)
			switch {
			case got != want:
				t.Fatalf("access %d (%s pc=%#x addr=%d now=%d): Result %+v, ref %+v",
					i, kind, pc, addr, now, got, want)
			case h.Stats != ref.Stats:
				t.Fatalf("access %d (%s pc=%#x addr=%d now=%d): Stats\n%+v\nref\n%+v",
					i, kind, pc, addr, now, h.Stats, ref.Stats)
			case h.InFlight() != len(ref.mshr):
				t.Fatalf("access %d: InFlight %d, ref %d", i, h.InFlight(), len(ref.mshr))
			case h.L1Contains(addr) != ref.l1.contains(line),
				h.L2Contains(addr) != ref.l2.contains(line),
				h.llc.contains(line) != ref.llc.contains(line):
				t.Fatalf("access %d (%s addr=%d): residency L1/L2/LLC %v/%v/%v, ref %v/%v/%v",
					i, kind, addr,
					h.L1Contains(addr), h.L2Contains(addr), h.llc.contains(line),
					ref.l1.contains(line), ref.l2.contains(line), ref.llc.contains(line))
			}
		}
	})
}
