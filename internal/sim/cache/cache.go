// Package cache provides the set-associative cache timing/tag model used for
// the L1 data caches, constant caches and the shared L2 of the simulated GPU.
// Only tags are modeled: data values flow through the functional executor, so
// the cache answers hit/miss questions and tracks dirty state for write-back
// policies.
package cache

import (
	"fmt"
	"math/bits"
)

// WritePolicy selects the behaviour of stores.
type WritePolicy uint8

const (
	// WriteThrough sends every store to the next level and does not allocate
	// on store misses (the GPU L1 policy).
	WriteThrough WritePolicy = iota
	// WriteBack allocates on store misses and writes dirty lines back on
	// eviction (the GPU L2 policy).
	WriteBack
)

// Config sizes a cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Policy    WritePolicy
}

// Cache is a set-associative tag store with LRU replacement.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	// tags[set*assoc+way]; valid/dirty parallel arrays; lru holds ascending
	// use-order stamps.
	tags  []uint64
	valid []bool
	dirty []bool
	lru   []uint64
	tick  uint64

	// Stats.
	Reads, ReadMisses   uint64
	Writes, WriteMisses uint64
	Writebacks          uint64
}

// New builds a cache. Size must be a multiple of line*assoc and the derived
// set count a power of two.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", cfg.LineBytes)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines*cfg.LineBytes != cfg.SizeBytes {
		return nil, fmt.Errorf("cache: size %d not a multiple of line %d", cfg.SizeBytes, cfg.LineBytes)
	}
	sets := lines / cfg.Assoc
	if sets == 0 || sets*cfg.Assoc != lines {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d ways", lines, cfg.Assoc)
	}
	// Non-power-of-two set counts are allowed (real GPU L2s are built from
	// an odd number of partitions); indexing falls back to modulo.
	n := sets * cfg.Assoc
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		dirty:    make([]bool, n),
		lru:      make([]uint64, n),
	}, nil
}

// Result reports the outcome of one access.
type Result struct {
	Hit bool
	// Writeback is set when a dirty victim was evicted; VictimLine is its
	// line address (byte address of line start).
	Writeback  bool
	VictimLine uint64
	// Filled reports whether the access allocated a line (miss traffic to
	// the next level).
	Filled bool
}

// Access performs a read or write of the line containing addr.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	line := addr >> c.lineBits
	set := int(line % uint64(c.sets))
	base := set * c.cfg.Assoc

	// Probe.
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.lru[i] = c.tick
			if write {
				c.Writes++
				if c.cfg.Policy == WriteBack {
					c.dirty[i] = true
				}
			} else {
				c.Reads++
			}
			return Result{Hit: true}
		}
	}

	// Miss.
	if write {
		c.Writes++
		c.WriteMisses++
		if c.cfg.Policy == WriteThrough {
			// No-allocate: the store goes straight through.
			return Result{}
		}
	} else {
		c.Reads++
		c.ReadMisses++
	}

	// Allocate: pick invalid way or LRU victim.
	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	res := Result{Filled: true}
	if c.valid[victim] && c.dirty[victim] {
		res.Writeback = true
		res.VictimLine = c.tags[victim] << c.lineBits
		c.Writebacks++
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.dirty[victim] = write && c.cfg.Policy == WriteBack
	c.lru[victim] = c.tick
	return res
}

// HitRate returns the overall hit fraction, or 1 when unused.
func (c *Cache) HitRate() float64 {
	total := c.Reads + c.Writes
	if total == 0 {
		return 1
	}
	return 1 - float64(c.ReadMisses+c.WriteMisses)/float64(total)
}

// Flush invalidates everything, returning the number of dirty lines that a
// real cache would have written back (kernel-boundary behaviour).
func (c *Cache) Flush() int {
	n := 0
	for i := range c.valid {
		if c.valid[i] && c.dirty[i] {
			n++
		}
		c.valid[i] = false
		c.dirty[i] = false
	}
	return n
}
