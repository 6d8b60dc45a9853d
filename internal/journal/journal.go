// Package journal is the durable-state substrate shared by the sweep
// service's job store and the fleet router's routing table: an append-only
// NDJSON journal plus a compacted, atomically-replaced JSON snapshot,
// living in a caller-named generation directory so state written by one
// binary generation is never blindly replayed by an incompatible one.
//
// The package owns only the I/O discipline — what PR 6 proved out for the
// job store and internal/simcache/disk.go proved for the timing cache:
//
//   - Appends are single unfragmented writes, so a torn line can only be
//     the journal's tail (a crash mid-write), and nothing after it is lost.
//   - The snapshot is written to a temp file and renamed into place, then
//     the journal is truncated. A crash between the two leaves journal
//     entries that are already folded into the snapshot; callers make
//     replay idempotent.
//   - Corruption is never fatal: Replay hands every line to the caller,
//     who skips what fails to decode; a missing or corrupt snapshot reads
//     as empty state.
//   - No fsync, by design: the durability target is process death
//     (SIGKILL, panic, OOM), where the page cache survives — not power
//     loss.
//
// Entry shapes and fold/recovery semantics stay with the callers; this
// package never interprets a line.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Log is one journal + snapshot pair rooted at a generation directory.
type Log struct {
	mu      sync.Mutex
	dir     string
	journal *os.File
	// frozen drops all writes: set by Close, and by tests simulating the
	// instant of process death (a frozen log is a dead process's disk).
	frozen bool
}

// Open opens (creating if needed) the log under dir — conventionally
// <state-dir>/<generation>, where generation encodes a format version and
// a build fingerprint (see simcache.Fingerprint).
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: state dir: %w", err)
	}
	j, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Log{dir: dir, journal: j}, nil
}

// Dir returns the log's generation directory.
func (l *Log) Dir() string { return l.dir }

func (l *Log) snapshotPath() string { return filepath.Join(l.dir, "snapshot.json") }
func (l *Log) journalPath() string  { return filepath.Join(l.dir, "journal.ndjson") }

// Append marshals v and appends it as one journal line. All failures are
// swallowed — durability degrades, the caller does not; in-memory state
// still serves.
func (l *Log) Append(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.frozen && l.journal != nil {
		_, _ = l.journal.Write(append(b, '\n'))
	}
}

// Snapshot decodes the compacted snapshot into out, reporting whether a
// usable snapshot existed. A missing or undecodable snapshot is false,
// never an error — recovery starts empty and folds the journal.
func (l *Log) Snapshot(out any) bool {
	b, err := os.ReadFile(l.snapshotPath())
	if err != nil {
		return false
	}
	return json.Unmarshal(b, out) == nil
}

// Replay hands every non-empty journal line (including a torn tail, which
// the caller's decode rejects) to fn, in append order. It returns the
// number of lines visited; decoding and idempotent folding are the
// caller's job.
func (l *Log) Replay(fn func(line []byte)) int {
	f, err := os.Open(l.journalPath())
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			n++
			fn(line)
		}
		if err != nil {
			return n
		}
	}
}

// Compact atomically replaces the snapshot with snap and truncates the
// journal. Failures leave the previous snapshot + journal intact — the
// log keeps appending and the next compaction retries.
func (l *Log) Compact(snap any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return
	}
	b, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(l.dir, "snapshot-*.tmp")
	if err != nil {
		return
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), l.snapshotPath()); err != nil {
		os.Remove(tmp.Name())
		return
	}
	// Snapshot is durable; the journal's contents are now redundant.
	// (Crash before this truncate: replaying the stale entries over the
	// new snapshot is idempotent — the callers' contract.)
	if l.journal != nil {
		_ = l.journal.Truncate(0)
	}
}

// Freeze drops all future writes — the test stand-in for SIGKILL: what is
// on disk now is exactly the crash image a killed process leaves.
func (l *Log) Freeze() {
	l.mu.Lock()
	l.frozen = true
	l.mu.Unlock()
}

// Close freezes the log and closes the journal.
func (l *Log) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frozen = true
	if l.journal != nil {
		l.journal.Close()
		l.journal = nil
	}
}
