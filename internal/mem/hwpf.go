package mem

// stridePrefetcher is an IP-indexed stride predictor in the style of the
// L1/L2 streamers on commodity Intel cores. It detects constant-stride
// access streams per load PC and, once confident, prefetches a small
// number of lines ahead. Indirect accesses (A[B[i]]) produce effectively
// random strides and never train it — which is exactly why the paper's
// workloads need software prefetching.
type stridePrefetcher struct {
	degree int
	// table is open-addressed by PC with linear probing. It holds at
	// most strideTableMaxEntries PCs, so it is never more than half full
	// and a probe always ends at a hit or a free slot.
	table [strideTableSlots]strideEntry
	count int
	buf   []int64 // observe's result, reused: callers consume it before the next observe
}

type strideEntry struct {
	pc         uint64
	lastAddr   int64
	stride     int64
	confidence int32
	used       bool
}

const (
	strideConfidenceMax   = 4
	strideConfidenceFire  = 2
	strideTableBits       = 9
	strideTableSlots      = 1 << strideTableBits
	strideTableMaxEntries = strideTableSlots / 2
)

func newStridePrefetcher(degree int) *stridePrefetcher {
	if degree < 1 {
		degree = 1
	}
	return &stridePrefetcher{degree: degree, buf: make([]int64, 0, degree)}
}

// slot returns pc's entry, or the free slot where it belongs.
func (p *stridePrefetcher) slot(pc uint64) *strideEntry {
	i := (pc * 0x9e3779b97f4a7c15) >> (64 - strideTableBits)
	for {
		e := &p.table[i]
		if !e.used || e.pc == pc {
			return e
		}
		i = (i + 1) & (strideTableSlots - 1)
	}
}

// observe records a demand load and returns the addresses to prefetch.
// The returned slice is only valid until the next call.
func (p *stridePrefetcher) observe(pc uint64, addr int64) []int64 {
	e := p.slot(pc)
	if !e.used {
		if p.count >= strideTableMaxEntries {
			// Cheap, deterministic eviction: clear the table. Real
			// hardware uses set-indexed tables; for our workloads (few
			// hot loads) this path is almost never taken.
			p.table = [strideTableSlots]strideEntry{}
			p.count = 0
			e = p.slot(pc)
		}
		p.count++
		*e = strideEntry{pc: pc, used: true, lastAddr: addr}
		return nil
	}
	stride := addr - e.lastAddr
	e.lastAddr = addr
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.confidence < strideConfidenceMax {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
		return nil
	}
	if e.confidence < strideConfidenceFire {
		return nil
	}
	// Degree d covers the next d accesses of the stream: addr+stride
	// through addr+stride*d. Firing at stride*(k+1) would leave the very
	// next access (addr+stride) permanently uncovered.
	targets := p.buf[:0]
	for k := 1; k <= p.degree; k++ {
		t := addr + stride*int64(k)
		if t >= 0 {
			targets = append(targets, t)
		}
	}
	return targets
}
