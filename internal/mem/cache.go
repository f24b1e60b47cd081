package mem

import "fmt"

// A slot packs one cached line with its flags: line<<slotFlagBits | flags.
// Lines are addr>>lineShift, so the shift cannot overflow, and an
// arithmetic shift back recovers negative lines.
const (
	slotPrefetch uint64 = 1 << iota // installed by a prefetch (SW or HW)
	slotSWPref                      // installed by a software prefetch specifically
	slotTouched                     // referenced by a demand access since install

	slotFlagBits = 3
	slotFlags    = 1<<slotFlagBits - 1
)

func slotKey(line int64) uint64 { return uint64(line) << slotFlagBits }

// cache is a single set-associative LRU cache level. Set s owns
// slots[s*ways : (s+1)*ways]; its first n[s] slots are valid and kept in
// recency order, most recent first. A hit moves its slot to the front
// and an install into a full set evicts the last one, so lookup, install
// and victim choice are one scan of the set.
type cache struct {
	slots   []uint64
	n       []int32 // valid slots per set
	ways    int
	setMask int64
}

func newCache(lc LevelConfig) *cache {
	n := lc.Sets()
	// The set index is line&(n-1); a non-power-of-two count would alias
	// sets and silently shrink the cache. Config.Validate catches this at
	// Hierarchy construction; fail loudly for direct constructions too.
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("mem: %v", lc.Validate()))
	}
	return &cache{
		slots:   make([]uint64, n*lc.Ways),
		n:       make([]int32, n),
		ways:    lc.Ways,
		setMask: int64(n - 1),
	}
}

// set returns the valid slots of line's set and the set's index.
func (c *cache) set(line int64) ([]uint64, int64) {
	si := line & c.setMask
	base := int(si) * c.ways
	return c.slots[base : base+int(c.n[si])], si
}

// toFront moves s[i] to s[0], shifting s[:i] down one slot.
func toFront(s []uint64, i int) {
	v := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = v
}

// lookup probes for a line; on hit it moves the line to the front of its
// set, sets the touched bit when demand is true, and returns the slot.
func (c *cache) lookup(line int64, demand bool) *uint64 {
	s, _ := c.set(line)
	key := slotKey(line)
	for i, v := range s {
		if v&^slotFlags == key {
			if demand {
				s[i] = v | slotTouched
			}
			toFront(s, i)
			return &s[0]
		}
	}
	return nil
}

// evicted describes a victim pushed out by install.
type evicted struct {
	line           int64
	valid          bool
	prefetchUnused bool // installed by prefetch, never demanded: "too early"
	swPrefUnused   bool
}

// install places a line at the front of its set, evicting the least
// recently used line if the set is full.
func (c *cache) install(line int64, byPrefetch, bySWPrefetch bool) evicted {
	s, si := c.set(line)
	key := slotKey(line)
	for i, v := range s {
		if v&^slotFlags == key {
			// Already present: refresh only.
			toFront(s, i)
			return evicted{}
		}
	}
	ev := evicted{}
	if len(s) == c.ways {
		v := s[len(s)-1]
		untouched := v&slotTouched == 0
		ev = evicted{
			line:           int64(v) >> slotFlagBits,
			valid:          true,
			prefetchUnused: v&slotPrefetch != 0 && untouched,
			swPrefUnused:   v&slotSWPref != 0 && untouched,
		}
	} else {
		c.n[si]++
		s = s[:len(s)+1]
	}
	if byPrefetch {
		key |= slotPrefetch
	}
	if bySWPrefetch {
		key |= slotSWPref
	}
	copy(s[1:], s)
	s[0] = key
	return ev
}

// contains probes without updating recency (tests, invariant checks).
func (c *cache) contains(line int64) bool {
	s, _ := c.set(line)
	key := slotKey(line)
	for _, v := range s {
		if v&^slotFlags == key {
			return true
		}
	}
	return false
}

// countValid returns the number of valid lines (tests).
func (c *cache) countValid() int {
	n := 0
	for _, k := range c.n {
		n += int(k)
	}
	return n
}
