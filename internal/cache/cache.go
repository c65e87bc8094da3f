// Package cache models the paper's memory system: direct-mapped (optionally
// set-associative) instruction and data caches with 64-byte blocks. The data
// cache is write-through with no write allocate and non-blocking, with a
// 12-cycle miss penalty; these are the parameters of Section 5.1.
//
// The model is a tag store only — data contents live in the functional
// emulator — which is exactly what a timing simulator needs.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity. Default 64 KiB.
	SizeBytes int
	// BlockBytes is the line size. Default 64.
	BlockBytes int
	// Assoc is the set associativity. Default 1 (direct-mapped).
	Assoc int
	// MissPenalty is the extra cycles added on a miss. Default 12.
	MissPenalty int
}

// DefaultConfig returns the paper's 64K direct-mapped, 64-byte-block,
// 12-cycle-miss configuration.
func DefaultConfig() Config {
	return Config{SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 1, MissPenalty: 12}
}

func (c *Config) fill() {
	if c.SizeBytes == 0 {
		c.SizeBytes = 64 << 10
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 64
	}
	if c.Assoc == 0 {
		c.Assoc = 1
	}
	if c.MissPenalty == 0 {
		c.MissPenalty = 12
	}
}

// Validate reports whether the configuration (with zero fields defaulted)
// describes a realizable cache: positive sizes, power-of-two block size and
// set count, and associativity dividing the block count.
func (c Config) Validate() error {
	c.fill()
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.MissPenalty < 0 {
		return fmt.Errorf("cache: negative miss penalty %d", c.MissPenalty)
	}
	nBlocks := c.SizeBytes / c.BlockBytes
	if nBlocks <= 0 || c.SizeBytes%c.BlockBytes != 0 {
		return fmt.Errorf("cache: bad geometry %+v: size not a multiple of block size", c)
	}
	nSets := nBlocks / c.Assoc
	if nSets <= 0 || nBlocks%c.Assoc != 0 || nSets&(nSets-1) != 0 ||
		c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: non-power-of-two geometry %+v", c)
	}
	return nil
}

// Stats accumulates access counts.
type Stats struct {
	Accesses int64
	Misses   int64
	// SpecAccesses counts accesses made on behalf of speculative early
	// loads; they consume bandwidth but are not separately countable as
	// architectural accesses.
	SpecAccesses int64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type way struct {
	valid bool
	tag   int64
	lru   int64 // last-use stamp
}

// Cache is a tag-store cache model. Use New to construct one.
type Cache struct {
	cfg      Config
	ways     []way // flat set-major tag store: set s occupies [s*assoc, (s+1)*assoc)
	assoc    int
	setShift uint
	tagShift uint // setShift plus the set-index width
	setMask  int64
	stamp    int64
	stats    Stats
}

// New builds a cache from cfg, filling zero fields with defaults. A
// geometry that fails Validate is returned as an error: it indicates a
// misconfigured experiment, and experiments are user input.
func New(cfg Config) (*Cache, error) {
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nBlocks := cfg.SizeBytes / cfg.BlockBytes
	nSets := nBlocks / cfg.Assoc
	c := &Cache{cfg: cfg, assoc: cfg.Assoc, setMask: int64(nSets - 1)}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.setShift++
	}
	c.tagShift = c.setShift + popcount64(uint64(c.setMask))
	// One flat set-major array: a single allocation, adjacent sets adjacent
	// in memory, and the hot direct-mapped lookup is one index away.
	c.ways = make([]way, nSets*cfg.Assoc)
	return c, nil
}

// Config returns the cache's (default-filled) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// MissPenalty returns the configured extra latency of a miss.
func (c *Cache) MissPenalty() int { return c.cfg.MissPenalty }

// Probe reports whether addr currently hits, without updating any state.
func (c *Cache) Probe(addr int64) bool {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if w := &ways[i]; w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// set returns the ways of one set.
func (c *Cache) set(set int64) []way {
	base := int(set) * c.assoc
	return c.ways[base : base+c.assoc]
}

// CountHit records a demand access known to hit without probing the tag
// store. Callers must guarantee residency — it exists for replay fast
// paths that can prove the block is resident (e.g. a refetch of the same
// instruction block with no intervening access).
func (c *Cache) CountHit() { c.stats.Accesses++ }

// Access performs a demand access at addr: on a miss the block is filled
// (LRU replacement). It returns true on a hit.
func (c *Cache) Access(addr int64) bool {
	c.stats.Accesses++
	hit := c.touch(addr, true)
	if !hit {
		c.stats.Misses++
	}
	return hit
}

// AccessNoAllocate records an access that does not allocate on miss — the
// write-through, no-write-allocate store path.
func (c *Cache) AccessNoAllocate(addr int64) bool {
	c.stats.Accesses++
	hit := c.touch(addr, false)
	if !hit {
		c.stats.Misses++
	}
	return hit
}

// SpecAccess performs a speculative access on behalf of an early load. Like
// a demand access it fills on miss (the speculative load is a real load
// issued to the memory system), but it is tallied separately.
func (c *Cache) SpecAccess(addr int64) bool {
	c.stats.SpecAccesses++
	return c.touch(addr, true)
}

func (c *Cache) touch(addr int64, allocate bool) bool {
	if c.assoc == 1 {
		// Direct-mapped (the paper's geometry, and the hot path of every
		// replay): one way, no LRU bookkeeping, no use stamp.
		block := addr >> c.setShift
		w := &c.ways[block&c.setMask]
		tag := block >> (c.tagShift - c.setShift)
		if w.valid && w.tag == tag {
			return true
		}
		if allocate {
			*w = way{valid: true, tag: tag}
		}
		return false
	}
	c.stamp++
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if w := &ways[i]; w.valid && w.tag == tag {
			w.lru = c.stamp
			return true
		}
	}
	if allocate {
		victim := 0
		for i := range ways {
			w := &ways[i]
			if !w.valid {
				victim = i
				break
			}
			if w.lru < ways[victim].lru {
				victim = i
			}
		}
		ways[victim] = way{valid: true, tag: tag, lru: c.stamp}
	}
	return false
}

func (c *Cache) index(addr int64) (set, tag int64) {
	block := addr >> c.setShift
	return block & c.setMask, addr >> c.tagShift
}

func popcount64(v uint64) uint {
	var n uint
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}
