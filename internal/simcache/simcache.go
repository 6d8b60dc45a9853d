// Package simcache is a process-wide, concurrency-safe, content-addressed
// cache in front of the cycle-level timing simulator. The paper's
// methodology is explicitly two-stage — a timing simulation produces
// activity counts, an analytic model turns them into watts — and most of
// the experiment suite re-runs the expensive first stage with inputs it has
// already simulated: DVFS evaluates the same kernel at six clock scales
// (the card applies clock scaling analytically, so the simulated cycle
// counts are identical), the process-node ablation varies only the power
// tier, and fig6/table4/table5/energyperop/staticextrap overlap on
// (GPU, kernel) pairs.
//
// The cache key hashes exactly the inputs that determine a timing result:
// the timing-relevant subset of the configuration (config.GPU.TimingKey —
// power/tech/clock-only parameters are excluded by construction), the
// kernel program, the launch geometry and parameters, and the full input
// memory images (global and constant). A hit replays the kernel's memory
// side effects from the stored final-image snapshot and returns a deep copy
// of the stored result; a miss simulates, then stores. Concurrent callers
// wanting the same key are single-flighted (runner.Flight): the key is
// simulated exactly once and the waiters replay.
//
// A launch on an image that carries its content digest
// (kernel.GlobalMem.SetDigest; every mutation drops it) is keyed in two
// levels: a chain memo, addressed by the launch with the digest in place
// of the words, holds the full key. Two kinds of image arrive digested.
// Chained launches — a multi-kernel benchmark's second and later kernels —
// run on the image the previous launch left behind, which is exactly a
// stored entry's final image, and Run records that image's MemHash on it.
// A benchmark suite instance's first launch runs on an image restored
// from its benchmark's template, which carries the template's digest
// (see package bench). The digest (kernel.GlobalMem.ContentDigest) is a
// SHA-256 of the high-water mark and every word, so the memo key
// determines the full key; keys are the same bytes either way, and the
// image is hashed in full only on a memo miss. Memo entries share the
// recency list, byte budget and Reset; they are never spilled to disk.
//
// An entry's final image is stored as a kernel.MemSnapshot, which drops
// the image's zero tail (the allocator's slack and never-written
// buffers) and restores it on replay; the byte budget counts the stored
// words. Keys and MemHash still cover every word of the full image.
//
// Determinism contract: a cold miss, a warm hit and a disk-spilled hit are
// each bit-identical to a plain sim.GPU.Run of the launch in every reported
// metric and in the final memory image (enforced by the sim package's
// determinism table). Every core.Simulator and hw.Card launch goes through
// the cache; code that wants the uncached simulator calls sim.GPU.Run.
//
// Memory is unbounded by default; SetByteBudget (or the
// GPUSIMPOW_SIM_CACHE_BUDGET_MB environment variable, for the process-wide
// cache) imposes an LRU bound keyed by final-image snapshot bytes, for
// long-lived multi-tenant sweep services. Eviction trades speed, never
// results: an evicted key simply re-simulates.
//
// SetDir (or GPUSIMPOW_SIM_CACHE_DIR) additionally spills entries to disk
// keyed by hex content key, so repeated processes — daemon restarts, CI
// runs, CLI invocations — share timing work; see disk.go.
//
// The cache also memoizes the virtual card's DAQ pass (Measure): for one
// card session and one priced sequence the sampled noise and the window
// averages are fully determined, so a repeated measurement in the same
// process is served from the stored averages. Measurement entries share
// the timing entries' recency list, byte budget and Reset; they are never
// spilled to disk.
package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"strconv"
	"sync"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/runner"
	"gpusimpow/internal/sim"
)

// Key is a content address: of one timing simulation (KeyFor), or of one
// virtual-card DAQ pass (Measure).
type Key [32]byte

// TimingResult is the serializable outcome of the pure timing stage: the
// simulator's activity counters and performance stats plus the content
// identity of the run. The launch's memory side effects have already been
// applied to the caller's memory image when a TimingResult is returned.
type TimingResult struct {
	// Kernel is the launched program's name.
	Kernel string
	// Key is the content address the result is cached under.
	Key Key
	// Perf carries the activity counters and performance stats. It is the
	// caller's private copy.
	Perf *sim.Result
	// MemHash is a hash of the final global-memory image, part of the
	// determinism contract: a cached replay and a fresh simulation of the
	// same key must agree on it.
	MemHash [32]byte
	// CacheHit reports whether the timing stage was served from the cache
	// (including single-flight waits on a concurrent simulation).
	CacheHit bool
}

// entry is one cached simulation: the master result copy and the final
// memory image to replay on hits, threaded on the cache's recency list.
type entry struct {
	key     Key
	perf    *sim.Result
	final   kernel.MemSnapshot
	memHash [32]byte

	// bytes is the entry's accounted size: the final-image snapshot bytes,
	// which dominate an entry's footprint (activity counters are O(cores)).
	bytes int64
	// avgs, on a measurement entry (see Measure), are the per-kernel window
	// averages of one DAQ pass; perf and final are then unset.
	avgs []float64
	// full, on a chain-memo entry (see keyFor), is the KeyFor key its
	// chain key stands for; perf, final and avgs are then unset.
	full Key
	kind entryKind
	// prev/next thread the recency list (prev is more recently used; the
	// list head is the MRU end, the tail the next eviction victim).
	prev, next *entry
}

// entryKind says which of the cache's maps an entry lives in.
type entryKind uint8

const (
	timingEntry entryKind = iota // entries
	measEntry                    // meas
	chainEntry                   // chain
)

// Cache is a content-addressed store of timing results. The package-level
// Run uses one process-wide instance; separate instances exist for tests.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	meas    map[Key]*entry // measurement entries (Measure)
	chain   map[Key]*entry // chain-memo entries (keyFor)
	flight  runner.Flight[Key, *entry]

	// Recency list and byte accounting for the LRU bound. budget <= 0 means
	// unbounded (the default); see SetByteBudget.
	mru, lru *entry
	bytes    int64
	budget   int64

	// dir is the on-disk spill directory ("" = disabled); see disk.go.
	dir string

	hits      uint64
	misses    uint64
	diskHits  uint64
	evictions uint64

	measHits, measMisses uint64
	chainKeys            uint64
}

// Stats is a point-in-time snapshot of cache effectiveness counters. It
// crosses the wire inside the service's /v1/healthz body, so every field
// carries an explicit json name (enforced by gpowlint's wirejson pass).
type Stats struct {
	// Entries is the number of distinct timing results stored.
	Entries int `json:"entries"`
	// Bytes is the accounted size of the stored final-image snapshots,
	// measurement window averages and chain-memo keys.
	Bytes int64 `json:"bytes"`
	// BudgetBytes is the configured byte budget (0 = unbounded).
	BudgetBytes int64 `json:"budgetBytes"`
	// Hits counts runs served from the store, the disk spill or a
	// single-flight wait.
	Hits uint64 `json:"hits"`
	// Misses counts runs that actually simulated.
	Misses uint64 `json:"misses"`
	// DiskHits counts runs served by loading a spilled entry from the
	// configured cache directory (a subset of Hits).
	DiskHits uint64 `json:"diskHits"`
	// Evictions counts entries dropped to honor the byte budget.
	Evictions uint64 `json:"evictions"`
	// MeasureHits counts virtual-card measurements served from stored
	// window averages.
	MeasureHits uint64 `json:"measureHits"`
	// MeasureMisses counts virtual-card measurements that ran the DAQ pass
	// and stored its averages.
	MeasureMisses uint64 `json:"measureMisses"`
	// ChainKeys counts launch keys served from the chain memo: launches on
	// an image the cache itself left behind, keyed without rehashing it.
	ChainKeys uint64 `json:"chainKeys"`
}

// String renders the counters as the CLIs' one-line -stats summary.
func (s Stats) String() string {
	budget := ""
	if s.BudgetBytes > 0 {
		budget = fmt.Sprintf(" of %.1f MiB budget", float64(s.BudgetBytes)/(1<<20))
	}
	return fmt.Sprintf("%d entries (%.1f MiB%s), %d hits (%d from disk), %d misses, %d evictions, %d chained keys; measurements %d hits, %d misses",
		s.Entries, float64(s.Bytes)/(1<<20), budget, s.Hits, s.DiskHits, s.Misses, s.Evictions, s.ChainKeys, s.MeasureHits, s.MeasureMisses)
}

// shared is the process-wide cache every Simulator and virtual Card runs
// through.
var shared Cache

// Default returns the process-wide cache (for stats and tests).
func Default() *Cache { return &shared }

// init applies the GPUSIMPOW_SIM_CACHE_BUDGET_MB environment variable to the
// process-wide cache: a positive integer bounds the cache's snapshot memory
// to that many mebibytes. Long-lived multi-tenant sweep services set it (or
// call SetByteBudget) so the cache cannot grow without bound.
func init() {
	if v := os.Getenv("GPUSIMPOW_SIM_CACHE_BUDGET_MB"); v != "" {
		if mb, err := strconv.ParseInt(v, 10, 64); err == nil && mb > 0 {
			shared.SetByteBudget(mb << 20)
		}
	}
	// GPUSIMPOW_SIM_CACHE_DIR spills entries to disk so repeated daemon
	// restarts and CI runs share timing work (see disk.go). A directory
	// that cannot be created just leaves the spill off.
	if v := os.Getenv("GPUSIMPOW_SIM_CACHE_DIR"); v != "" {
		_ = shared.SetDir(v)
	}
}

// SetByteBudget bounds the bytes of final-image snapshots the cache may
// retain; least-recently-used entries are evicted when the bound is
// exceeded. n <= 0 removes the bound. The bound applies immediately (an
// over-budget cache shrinks on the spot) and never evicts the entry being
// stored or touched, so a single entry larger than the budget still caches —
// the budget bounds retention, it does not refuse work. Eviction only
// affects performance, never results: an evicted key re-simulates, and the
// cached-vs-fresh determinism contract makes that bit-identical.
func (c *Cache) SetByteBudget(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = n
	c.evictOverBudgetLocked(nil)
}

// touchLocked moves e to the MRU end of the recency list (inserting it if it
// is not yet threaded). Callers hold c.mu.
func (c *Cache) touchLocked(e *entry) {
	if c.mru == e {
		return
	}
	c.unlinkLocked(e)
	e.next = c.mru
	if c.mru != nil {
		c.mru.prev = e
	}
	c.mru = e
	if c.lru == nil {
		c.lru = e
	}
}

// unlinkLocked removes e from the recency list if threaded.
func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.mru == e {
		c.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lru == e {
		c.lru = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictOverBudgetLocked drops LRU entries until the byte budget is honored,
// never evicting keep. Callers hold c.mu.
func (c *Cache) evictOverBudgetLocked(keep *entry) {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget && c.lru != nil && c.lru != keep {
		victim := c.lru
		c.unlinkLocked(victim)
		switch victim.kind {
		case timingEntry:
			delete(c.entries, victim.key)
		case measEntry:
			delete(c.meas, victim.key)
		case chainEntry:
			delete(c.chain, victim.key)
		}
		c.bytes -= victim.bytes
		c.evictions++
	}
}

// Run serves one kernel launch through the process-wide cache.
func Run(g *sim.GPU, l *kernel.Launch, global *kernel.GlobalMem, cmem *kernel.ConstMem) (*TimingResult, error) {
	return shared.Run(g, l, global, cmem)
}

// Run executes the pure timing stage for one launch: a fresh simulation on
// a key miss (stored for the future), a replay on a hit. Either way the
// caller's global memory image holds the kernel's final state afterwards,
// exactly as sim.GPU.Run would leave it, carrying the final image's digest
// (kernel.GlobalMem.SetDigest) for the next launch's key.
func (c *Cache) Run(g *sim.GPU, l *kernel.Launch, global *kernel.GlobalMem, cmem *kernel.ConstMem) (*TimingResult, error) {
	key := c.keyFor(g.Config(), l, global, cmem)

	// Fast path: already stored.
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.touchLocked(e)
		c.mu.Unlock()
		global.Restore(e.final)
		global.SetDigest(e.memHash)
		return &TimingResult{Kernel: l.Prog.Name, Key: key, Perf: e.perf.Clone(), MemHash: e.memHash, CacheHit: true}, nil
	}
	c.mu.Unlock()

	// Miss: single-flight the simulation. The leader runs on its own memory
	// image (the side effects land where they belong); waiters — and late
	// callers whose leader completed between the fast-path lookup above and
	// the flight — replay the stored final image onto theirs.
	simulated := false
	e, err, waited := c.flight.Do(key, func() (*entry, error) {
		// Double-check the store: a previous leader may have stored the
		// entry and left the flight after our fast-path lookup; becoming a
		// fresh leader then would re-simulate an already-cached key.
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits++
			c.touchLocked(e)
			c.mu.Unlock()
			return e, nil
		}
		c.mu.Unlock()
		// Disk spill: a previous process may have simulated this key.
		// Loading counts as a hit (no simulation ran) and populates the
		// memory store; the caller replays the final image exactly as on
		// a single-flight wait.
		if e := c.loadDisk(key); e != nil {
			c.mu.Lock()
			if c.entries == nil {
				c.entries = make(map[Key]*entry)
			}
			c.entries[key] = e
			c.bytes += e.bytes
			c.touchLocked(e)
			c.evictOverBudgetLocked(e)
			c.hits++
			c.diskHits++
			c.mu.Unlock()
			return e, nil
		}
		res, err := g.Run(l, global, cmem)
		if err != nil {
			return nil, err
		}
		simulated = true
		// res never escapes except through Clone below, so the cache can
		// keep it as the master copy directly.
		e := &entry{
			key:     key,
			perf:    res,
			final:   global.Snapshot(),
			memHash: global.ContentDigest(),
		}
		e.bytes = int64(len(e.final.Words)) * 4
		c.mu.Lock()
		if c.entries == nil {
			c.entries = make(map[Key]*entry)
		}
		c.entries[key] = e
		c.bytes += e.bytes
		c.touchLocked(e)
		c.evictOverBudgetLocked(e)
		c.misses++
		c.mu.Unlock()
		c.saveDisk(e)
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	if waited {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	if !simulated {
		// Served by someone else's simulation (flight wait or double-check
		// hit): this caller's image still holds the input state, so replay.
		global.Restore(e.final)
	}
	global.SetDigest(e.memHash)
	return &TimingResult{Kernel: l.Prog.Name, Key: key, Perf: e.perf.Clone(), MemHash: e.memHash, CacheHit: !simulated}, nil
}

// keyFor returns KeyFor's key for the launch. When the input image carries
// a digest — it is the final image of an entry this cache served or
// stored, or a benchmark instance's pristine input — the key comes from
// the chain memo, addressed by chainKeyFor; a
// memo miss computes the full key and stores it. The digest is the
// image's ContentDigest, a SHA-256 of its high-water mark and words, so a
// chain key determines the full key as surely as the words themselves
// would.
func (c *Cache) keyFor(cfg *config.GPU, l *kernel.Launch, global *kernel.GlobalMem, cmem *kernel.ConstMem) Key {
	d, ok := global.Digest()
	if !ok {
		return KeyFor(cfg, l, global, cmem)
	}
	ck := chainKeyFor(cfg, l, d, cmem)
	c.mu.Lock()
	if e, ok := c.chain[ck]; ok {
		c.chainKeys++
		c.touchLocked(e)
		c.mu.Unlock()
		return e.full
	}
	c.mu.Unlock()
	key := KeyFor(cfg, l, global, cmem)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.chain[ck]; !ok {
		if c.chain == nil {
			c.chain = make(map[Key]*entry)
		}
		e := &entry{key: ck, full: key, kind: chainEntry, bytes: int64(len(key))}
		c.chain[ck] = e
		c.bytes += e.bytes
		c.touchLocked(e)
		c.evictOverBudgetLocked(e)
	}
	return key
}

// Measure serves one virtual-card DAQ pass through the process-wide cache.
func Measure(key Key, pass func() ([]float64, error)) ([]float64, bool, error) {
	return shared.Measure(key, pass)
}

// Measure returns the window averages of the DAQ pass addressed by key:
// the stored ones on a hit, or pass's on a miss (stored for the future).
// The caller derives key from every number the pass reads, so a hit
// returns exactly what pass would; hit tells it to account for the pass
// it did not run. The returned slice is shared and must not be modified.
// Concurrent misses on one key both run pass; the first to finish stores.
func (c *Cache) Measure(key Key, pass func() ([]float64, error)) (avgs []float64, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.meas[key]; ok {
		c.measHits++
		c.touchLocked(e)
		c.mu.Unlock()
		return e.avgs, true, nil
	}
	c.mu.Unlock()
	avgs, err = pass()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.measMisses++
	if _, ok := c.meas[key]; !ok {
		if c.meas == nil {
			c.meas = make(map[Key]*entry)
		}
		e := &entry{key: key, avgs: avgs, kind: measEntry, bytes: int64(len(avgs)) * 8}
		c.meas[key] = e
		c.bytes += e.bytes
		c.touchLocked(e)
		c.evictOverBudgetLocked(e)
	}
	return avgs, false, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries: len(c.entries), Bytes: c.bytes, BudgetBytes: c.budget,
		Hits: c.hits, Misses: c.misses, DiskHits: c.diskHits,
		Evictions:   c.evictions,
		MeasureHits: c.measHits, MeasureMisses: c.measMisses,
		ChainKeys: c.chainKeys,
	}
}

// Reset drops every entry and zeroes the counters, keeping the configured
// byte budget (tests and long-running servers that want to release memory).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.meas, c.chain = nil, nil, nil
	c.mru, c.lru = nil, nil
	c.bytes = 0
	c.hits, c.misses, c.diskHits, c.evictions = 0, 0, 0, 0
	c.measHits, c.measMisses, c.chainKeys = 0, 0, 0
}

// KeyFor computes the content address of one (configuration, launch, memory)
// triple. Two calls with equal keys are guaranteed to simulate identically:
// the hash covers every timing-relevant configuration field, the full
// instruction stream, the launch geometry and parameters, and both input
// memory images word by word.
func KeyFor(cfg *config.GPU, l *kernel.Launch, global *kernel.GlobalMem, cmem *kernel.ConstMem) Key {
	kw := newKeyWriter()
	kw.launch(cfg, l)
	kw.i64(global.Size())
	kernel.WriteWords(kw.h, global.Words())
	kw.constMem(cmem)
	return kw.sum()
}

// chainKeyFor is the chain memo's key for a launch on an image whose
// content digest (kernel.GlobalMem.ContentDigest) is d: the
// launch prefix KeyFor writes, then d in place of the image, then the
// constant image. d determines the image part of KeyFor's input, so this
// key determines KeyFor's key.
func chainKeyFor(cfg *config.GPU, l *kernel.Launch, d [32]byte, cmem *kernel.ConstMem) Key {
	kw := newKeyWriter()
	kw.launch(cfg, l)
	kw.h.Write(d[:])
	kw.constMem(cmem)
	return kw.sum()
}

// keyWriter streams key material into a SHA-256 in a fixed little-endian
// encoding.
type keyWriter struct {
	h       hash.Hash
	scratch [16]byte
}

func newKeyWriter() *keyWriter { return &keyWriter{h: sha256.New()} }

func (kw *keyWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(kw.scratch[:8], v)
	kw.h.Write(kw.scratch[:8])
}

func (kw *keyWriter) i64(v int) { kw.u64(uint64(int64(v))) }

// launch writes everything of a key but the memory images: the
// timing-relevant configuration, the program, the geometry and the
// parameters.
func (kw *keyWriter) launch(cfg *config.GPU, l *kernel.Launch) {
	scratch := kw.scratch[:]
	ck := cfg.TimingKey()
	kw.h.Write(ck[:])

	// Program content (the name is presentation, not timing input).
	p := l.Prog
	kw.i64(p.NumRegs)
	kw.i64(p.SMemBytes)
	kw.i64(p.NumParams)
	kw.i64(len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		binary.LittleEndian.PutUint32(scratch[:4], uint32(in.Op)|uint32(in.Dst)<<16|uint32(in.NumSrc)<<24)
		flags := byte(0)
		if in.HasDst {
			flags |= 1
		}
		if in.PredNeg {
			flags |= 2
		}
		scratch[4] = flags
		scratch[5] = byte(in.Cmp)
		scratch[6] = byte(in.Space)
		scratch[7] = 0
		binary.LittleEndian.PutUint16(scratch[8:10], uint16(in.Pred))
		binary.LittleEndian.PutUint32(scratch[10:14], uint32(in.Offset))
		kw.h.Write(scratch[:14])
		for s := 0; s < 3; s++ {
			o := &in.Src[s]
			binary.LittleEndian.PutUint32(scratch[:4], uint32(o.Kind)|uint32(o.Reg)<<8|uint32(o.Special)<<16)
			binary.LittleEndian.PutUint32(scratch[4:8], o.Imm)
			kw.h.Write(scratch[:8])
		}
		kw.i64(in.Target)
		kw.i64(in.Reconv)
	}

	// Launch geometry and arguments.
	kw.i64(l.Grid.X)
	kw.i64(l.Grid.Y)
	kw.i64(l.Block.X)
	kw.i64(l.Block.Y)
	kw.i64(l.DynSMemBytes)
	kw.i64(len(l.Params))
	kernel.WriteWords(kw.h, l.Params)
}

// constMem writes the constant image (or its absence), which follows the
// global image in a key.
func (kw *keyWriter) constMem(cmem *kernel.ConstMem) {
	if cmem == nil {
		kw.i64(-1)
		return
	}
	kw.i64(cmem.Bytes())
	kernel.WriteWords(kw.h, cmem.Words())
}

func (kw *keyWriter) sum() Key {
	var k Key
	kw.h.Sum(k[:0])
	return k
}
