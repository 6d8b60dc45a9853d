package simcache

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"

	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim"
)

// Optional on-disk spill: when a directory is configured (SetDir or the
// GPUSIMPOW_SIM_CACHE_DIR environment variable), every simulated entry is
// also written to <dir>/<hex key>.gob, and an in-memory miss consults the
// directory before simulating. The directory thus shares timing work
// across processes — repeated daemon restarts, CI runs and CLI
// invocations replay instead of re-simulating.
//
// The spill trades only speed, never results: the determinism contract
// makes a disk replay bit-identical to a fresh simulation, so every disk
// error (corrupt file, version skew, permission problem) is silently
// treated as a miss. The memory byte budget does not govern the
// directory; evicted entries stay on disk and fault back in on demand.
// Writes are atomic (temp file + rename), so concurrent processes sharing
// a directory never observe partial entries.

// diskVersion guards the serialization format; bump it whenever the
// persisted shape (sim.Result, kernel.MemSnapshot) changes incompatibly.
// Entries with a different version are ignored — they re-simulate.
// Version 2: snapshots store words up to the last nonzero one, plus the
// image's full word length.
const diskVersion = 2

// generation names the subdirectory entries live under:
// v<diskVersion>-<build fingerprint>. The content key hashes the
// simulation *inputs*, not the simulator itself, so a directory shared
// across binary versions could otherwise serve timing results produced
// by an older simulator. Clean VCS-stamped builds are fingerprinted by
// their revision; everything else (go test binaries, dirty trees) falls
// back to hashing the executable itself, so any rebuild that changed
// the simulator starts a fresh generation. Only if both fail does the
// catch-all "dev" generation apply.
var generation = sync.OnceValue(func() string {
	return fmt.Sprintf("v%d-%s", diskVersion, Fingerprint())
})

// Fingerprint identifies the running build for on-disk generation dirs:
// the VCS revision for clean stamped builds, a hash of the executable for
// everything else (test binaries, dirty trees), "dev" as the catch-all.
// Shared with the service's durable job store, which has the same
// "state written by another simulator version must not be replayed
// blindly" problem this cache solved first.
var Fingerprint = sync.OnceValue(buildFingerprint)

func buildFingerprint() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if len(rev) >= 12 && !dirty {
			return rev[:12]
		}
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return hex.EncodeToString(h.Sum(nil))[:12]
			}
		}
	}
	return "dev"
}

// maxImageWords bounds a spilled image's word length: a GlobalMem indexes
// words by 32-bit byte address and grows by half again, so no image it
// holds reaches 2^31 words, and a corrupt Len beyond that is rejected
// before its zero tail is hashed.
const maxImageWords = 1 << 31

// diskEntry is the on-disk form of one cached timing result.
type diskEntry struct {
	Version int
	Perf    *sim.Result
	Final   kernel.MemSnapshot
	MemHash [32]byte
}

// SetDir configures the cache's spill directory (created if missing);
// an empty dir disables the spill. Applies to entries stored and looked
// up from now on — existing memory entries are not written back.
func (c *Cache) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("simcache: spill dir: %w", err)
		}
	}
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
	return nil
}

// spillDir returns the configured directory ("" when disabled).
func (c *Cache) spillDir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// diskPath is the entry file for a key, inside the build's generation.
func diskPath(dir string, key Key) string {
	return filepath.Join(dir, generation(), hex.EncodeToString(key[:])+".gob")
}

// loadDisk reads a spilled entry, returning nil on any failure (a disk
// problem is just a cache miss).
func (c *Cache) loadDisk(key Key) *entry {
	dir := c.spillDir()
	if dir == "" {
		return nil
	}
	f, err := os.Open(diskPath(dir, key))
	if err != nil {
		return nil
	}
	defer f.Close()
	var de diskEntry
	if err := gob.NewDecoder(f).Decode(&de); err != nil ||
		de.Version != diskVersion || de.Perf == nil {
		return nil
	}
	// The final image's digest keys the next launch on it (keyFor), so an
	// entry whose MemHash does not hash the full image it replays — its
	// stored words and the zero tail up to Len — is corrupt.
	if de.Final.Len < len(de.Final.Words) || int64(de.Final.Len) > maxImageWords ||
		de.Final.ContentDigest() != de.MemHash {
		return nil
	}
	e := &entry{key: key, perf: de.Perf, final: de.Final, memHash: de.MemHash}
	e.bytes = int64(len(e.final.Words)) * 4
	return e
}

// saveDisk spills an entry, atomically; failures are ignored (the memory
// entry still serves this process).
func (c *Cache) saveDisk(e *entry) {
	dir := c.spillDir()
	if dir == "" {
		return
	}
	gdir := filepath.Join(dir, generation())
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(gdir, "entry-*.tmp")
	if err != nil {
		return
	}
	de := diskEntry{Version: diskVersion, Perf: e.perf, Final: e.final, MemHash: e.memHash}
	if err := gob.NewEncoder(tmp).Encode(&de); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), diskPath(dir, e.key)); err != nil {
		os.Remove(tmp.Name())
	}
}
