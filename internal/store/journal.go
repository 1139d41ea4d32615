package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The manifest is maintained as an append-only journal plus a periodic
// snapshot. Every index mutation (Put, tombstone, LRU touch) appends one
// JSON record to manifest.log with O_APPEND, so concurrent writers —
// goroutines of one process or entirely separate processes sharing the
// directory — interleave whole records instead of overwriting each
// other: the lost-update window of a whole-file rewrite is gone, and a
// Put costs O(1) I/O in the store size instead of O(entries).
//
// Compaction folds the log into manifest.json: on Open (a fresh handle
// starts from a clean snapshot) and whenever the live log grows past
// journalCompactBytes. The compactor is serialized across processes by a
// short-lived lease on manifest.lock; it rotates manifest.log to
// manifest.log.old (atomic rename — new appends land in a fresh log),
// folds snapshot ∪ rotated records into a new manifest.json, and removes
// the rotated file. A crash mid-compaction leaves manifest.log.old
// behind; the next compactor folds it first, so no acknowledged record
// is ever dropped.
//
// Appenders keep their log fd open across writes. After every append
// they verify the fd still backs the live path (a compactor may have
// rotated it underneath them) and re-append to the fresh log when it
// does not. Records are idempotent upserts keyed by digest, so the
// occasional duplicate this produces is harmless; what it buys is that
// an append racing a compaction is never lost — either the compactor
// read it from the rotated file, or the appender notices and replays it.
const (
	journalName     = "manifest.log"
	journalOldName  = "manifest.log.old"
	compactLockName = "manifest.lock"
)

// journalCompactBytes is the live-log size past which an append triggers
// compaction. A variable so tests can force frequent compaction.
var journalCompactBytes int64 = 1 << 20

// Journal operations. The journal is index-only: it describes blobs, it
// never carries result payloads, so SchemaVersion (a blob contract) is
// untouched by its existence.
const (
	opPut   = "put"   // upsert a manifest entry
	opDel   = "del"   // tombstone: the blob was deleted (heal or GC)
	opTouch = "touch" // advance an entry's LRU clock
)

// journalRecord is one line of manifest.log.
type journalRecord struct {
	Op           string         `json:"op"`
	Entry        *ManifestEntry `json:"entry,omitempty"`     // put
	Digest       string         `json:"digest,omitempty"`    // del, touch
	AccessUnixNs int64          `json:"access_ns,omitempty"` // touch
}

// applyRecordLocked folds one record into a manifest map. Records are
// idempotent: replaying a record twice converges to the same map.
func applyRecord(m map[string]ManifestEntry, rec journalRecord) {
	switch rec.Op {
	case opPut:
		if rec.Entry != nil && rec.Entry.Digest != "" {
			m[rec.Entry.Digest] = *rec.Entry
		}
	case opDel:
		delete(m, rec.Digest)
	case opTouch:
		if e, ok := m[rec.Digest]; ok && rec.AccessUnixNs > e.AccessUnixNs {
			e.AccessUnixNs = rec.AccessUnixNs
			m[rec.Digest] = e
		}
	}
}

// replayJournal folds every parseable record of one journal file into m,
// in file order, and reports how many bytes it read. A missing file is
// zero records; a torn final line (a crash mid-append) is skipped, as is
// any garbage line — the journal is an optimisation over rebuildManifest,
// never a source of fatal errors.
func replayJournal(path string, m map[string]ManifestEntry) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		applyRecord(m, rec)
	}
	return int64(len(data))
}

// appendJournalLocked appends one record to the live log, reopening and
// re-appending if a concurrent compactor rotated the log mid-flight.
func (s *Store) appendJournalLocked(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: journal record: %w", err)
	}
	data = append(data, '\n')
	path := filepath.Join(s.dir, journalName)
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if s.journal == nil {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: journal: %w", err)
			}
			s.journal = f
			s.journalBytes = 0
			if fi, err := f.Stat(); err == nil {
				s.journalBytes = fi.Size()
			}
		}
		if _, err := s.journal.Write(data); err != nil {
			lastErr = err
			s.journal.Close()
			s.journal = nil
			continue
		}
		if s.journalLiveLocked(path) {
			s.journalBytes += int64(len(data))
			return nil
		}
		// Rotated underneath us: the record may sit in a file the
		// compactor already consumed. Re-append to the fresh log —
		// records are idempotent, a duplicate is benign, a lost record
		// is not.
		s.journal.Close()
		s.journal = nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("log rotated on every attempt")
	}
	return fmt.Errorf("store: journal append: %w", lastErr)
}

// journalLiveLocked reports whether the open journal fd still backs the
// live manifest.log path.
func (s *Store) journalLiveLocked(path string) bool {
	pi, err := os.Stat(path)
	if err != nil {
		return false
	}
	fi, err := s.journal.Stat()
	if err != nil {
		return false
	}
	return os.SameFile(pi, fi)
}

// maybeCompactLocked compacts once the live log outgrows the threshold.
// Best-effort: a busy compaction lock or an I/O hiccup just leaves the
// log to the next opportunity.
func (s *Store) maybeCompactLocked() {
	if s.journalBytes >= journalCompactBytes {
		_ = s.compactLocked()
	}
}

// Compact folds the journal into the manifest.json snapshot. Callers
// rarely need it — Open and the size threshold compact automatically —
// but an explicit fold is useful before archiving or inspecting a store.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// One compactor at a time, across processes. Busy means a peer is
	// already folding the same records; skipping is correct, not lossy.
	lock, ok, err := tryAcquirePath(filepath.Join(s.dir, compactLockName), s.id, compactLockTTL)
	if err != nil || !ok {
		return err
	}
	defer lock.Release()

	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.journalBytes = 0

	// A crashed compactor's rotated log must reach manifest.json before
	// the live log is rotated over its name.
	if err := s.foldLocked(); err != nil {
		return err
	}
	err = os.Rename(filepath.Join(s.dir, journalName), filepath.Join(s.dir, journalOldName))
	if err != nil {
		if os.IsNotExist(err) {
			// No live log: every journaled record already sits in the
			// snapshot, including peers' records this handle never saw,
			// so adopt it rather than writing the in-memory index over
			// it. Only without a readable snapshot (e.g. after a rebuild)
			// does the in-memory index become the snapshot.
			if m, ok := s.readSnapshotMap(); ok {
				s.manifest = m
				return nil
			}
			return s.writeSnapshotLocked()
		}
		return fmt.Errorf("store: compact: %w", err)
	}
	return s.foldLocked()
}

// foldLocked merges manifest.json with the rotated log, replaces the
// in-memory index with the merged view, writes it as the new snapshot,
// and removes the rotated log. Crash-safe in that order: the snapshot is
// durable before the records it absorbed disappear.
func (s *Store) foldLocked() error {
	oldPath := filepath.Join(s.dir, journalOldName)
	if _, err := os.Stat(oldPath); os.IsNotExist(err) {
		return nil
	}
	merged, _ := s.readSnapshotMap()
	replayJournal(oldPath, merged)
	// Nothing of this handle's is lost by adopting the merged view:
	// every local mutation was journaled before it reached the map, so
	// it is in the rotated log or in an earlier snapshot.
	s.manifest = merged
	if err := s.writeSnapshotLocked(); err != nil {
		return err
	}
	if err := os.Remove(oldPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// readSnapshotMap loads manifest.json into a fresh map and reports
// whether it was readable; any failure — missing, unparseable, wrong
// schema — yields an empty map (the journal and, ultimately,
// rebuildManifest carry the truth).
func (s *Store) readSnapshotMap() (map[string]ManifestEntry, bool) {
	m := make(map[string]ManifestEntry)
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return m, false
	}
	var mf manifestFile
	if json.Unmarshal(data, &mf) != nil || mf.Schema != SchemaVersion {
		return m, false
	}
	for _, e := range mf.Entries {
		m[e.Digest] = e
	}
	return m, true
}

// writeSnapshotLocked writes the in-memory index as manifest.json, via
// the same atomic rename as blobs.
func (s *Store) writeSnapshotLocked() error {
	m := manifestFile{Schema: SchemaVersion}
	for _, e := range s.manifest {
		m.Entries = append(m.Entries, e)
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Digest < m.Entries[j].Digest })
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	return s.writeAtomic(manifestName, data)
}
