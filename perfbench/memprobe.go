package main

import (
	"fmt"
	"time"

	"aptget/internal/mem"
)

// memProbe times direct Hierarchy.Access calls on four cyclic
// sequential load streams sized from the scaled machine: one that fits
// L1, one that overflows L1 but fits L2, one that overflows L2 but fits
// the LLC, and one four times the LLC. A cyclic stream longer than a
// set's ways misses every time under LRU, so each stream is served by
// the level it was sized for; the hierarchy's own Stats check that. The
// hardware prefetchers are off, so the probe times the level itself.
func memProbe(rec *recorder, res *result) error {
	cfg := mem.ConfigScaled()
	cfg.StridePrefetcher, cfg.NextLinePrefetcher = false, false
	streams := []struct {
		level mem.Level
		bytes int64
	}{
		{mem.LevelL1, cfg.L1.SizeBytes / 2},
		{mem.LevelL2, (cfg.L1.SizeBytes + cfg.L2.SizeBytes) / 2},
		{mem.LevelLLC, (cfg.L2.SizeBytes + cfg.LLC.SizeBytes) / 2},
		{mem.LevelDRAM, 4 * cfg.LLC.SizeBytes},
	}
	const (
		line     = 64
		accesses = 1 << 19
		repeats  = 5
	)
	for _, s := range streams {
		h := mem.New(cfg, s.bytes)
		lines := s.bytes / line
		var now uint64
		var next int64 // the stream continues across repeats
		access := func() {
			now += h.Access(now, 0x40, next*line, mem.KindLoad).Latency
			if next++; next == lines {
				next = 0
			}
		}
		for i := int64(0); i < lines; i++ { // warm: one full cycle
			access()
		}
		var times []time.Duration
		for r := 0; r < repeats; r++ {
			h.ResetStats()
			times = append(times, rec.timed("mem.access."+levelNames[s.level], int64(r), func() {
				for i := 0; i < accesses; i++ {
					access()
				}
			}))
			served := h.Stats.Hits[s.level]
			res.check(served == accesses, "mem probe: %s stream served %d of %d accesses at %s",
				s.level, served, accesses, s.level)
		}
		h.Release()
		res.set(fmt.Sprintf("mem.ns_per_access.%s", levelNames[s.level]),
			medianDur(times)*1e9/accesses, "ns")
	}
	return nil
}
