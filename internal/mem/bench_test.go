package mem

import "testing"

// hotStream is the access mix of the hot-path benchmark and the
// allocation test: a pseudo-random load stream that misses all the way
// to DRAM (BenchmarkSubstrateCacheAccess's) interleaved with a
// constant-stride load stream that keeps the stride prefetcher firing,
// plus an occasional software prefetch.
type hotStream struct {
	h      *Hierarchy
	x      uint64
	stride int64
	now    uint64
	i      int
}

func newHotStream() *hotStream {
	s := &hotStream{h: New(ConfigScaled(), 1<<24), x: 1}
	// Train the stride entry so every later strided load fires.
	for k := 0; k < 8; k++ {
		s.next()
	}
	return s
}

// next issues one access of the mix.
func (s *hotStream) next() {
	s.now += 4
	s.i++
	switch {
	case s.i%2 == 0:
		s.stride = (s.stride + 64) % (1 << 22)
		s.h.Access(s.now, 2, 1<<23+s.stride, KindLoad)
	case s.i%16 == 1:
		s.x = s.x*6364136223846793005 + 1442695040888963407
		s.h.Access(s.now, 3, int64(s.x%(1<<23)), KindSWPrefetch)
	default:
		s.x = s.x*6364136223846793005 + 1442695040888963407
		s.h.Access(s.now, 1, int64(s.x%(1<<23)), KindLoad)
	}
}

// BenchmarkHotHierAccess measures one Hierarchy.Access of the hot mix on
// the default experiment machine. Tracked by the CI bench gate.
func BenchmarkHotHierAccess(b *testing.B) {
	s := newHotStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.next()
	}
}

// TestHierAccessAllocsPerRun locks the allocation-free hot path: demand
// loads, stride-prefetcher fires and software prefetches allocate
// nothing once the hierarchy is built.
func TestHierAccessAllocsPerRun(t *testing.T) {
	s := newHotStream()
	fired := s.h.Stats.HWPrefetchIssued
	if got := testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			s.next()
		}
	}); got != 0 {
		t.Errorf("Access: %.1f allocs per 64 accesses, want 0", got)
	}
	if s.h.Stats.HWPrefetchIssued == fired || s.h.Stats.SWPrefetchIssued == 0 {
		t.Fatalf("stream must fire the stride prefetcher and issue software prefetches: %+v", s.h.Stats)
	}
}
