package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/obj"
)

// Entry is one persisted fragment artifact: the compiled object plus the
// function-granular cache metadata a warm engine needs to keep splicing
// against it. Degraded or quarantined objects are never persisted (the
// disk-tier mirror of "degraded objects never donate"), so every entry is a
// clean compile at its recorded level.
type Entry struct {
	// Key echoes the cache key the entry was stored under; a mismatch on
	// load means the content-addressed layout was tampered with or a rename
	// landed on the wrong name, and classifies as corruption.
	Key uint64
	// Object is the compiled fragment object.
	Object *obj.Object
	// Level is the optimization level the object was compiled at.
	Level int
	// FuncHashes are the per-function deep hashes (reference-closure folds)
	// the object's code was compiled from — fragMeta's persisted form.
	FuncHashes map[string]uint64
}

// Stats is a point-in-time snapshot of a store's counters, mirrored from
// the odin_persist_* metric families so tests and inspection tools need no
// telemetry registry.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Stores         uint64 `json:"stores"`
	CorruptEvicted uint64 `json:"corrupt_evicted"`
	Fallbacks      uint64 `json:"fallbacks"`
	BytesRead      uint64 `json:"bytes_read"`
	BytesWritten   uint64 `json:"bytes_written"`
	Entries        int    `json:"entries"`
	ReadOnly       bool   `json:"read_only"`
}

// Store is a disk-backed artifact cache over one directory:
//
//	<dir>/lock            writer flock
//	<dir>/MANIFEST        store identity blob (header only: schema + build ID)
//	<dir>/objects/<xx>/<key16>.obj   sharded content-addressed entries
//
// The objects directory is its own index: Open lists it once and keeps the
// set of keys it found; there is no metadata file to replay or repair.
// All methods are safe for concurrent use; Get and Put from concurrent
// compile-pool workers serialize only on the in-memory index, not on I/O.
type Store struct {
	dir     string
	buildID string
	hook    func(string) error
	metrics *Metrics

	// writer reports whether this store holds the exclusive writer lock.
	// Read-only stores serve Gets and silently refuse mutations.
	writer bool
	lockF  *os.File

	mu     sync.Mutex
	closed bool
	index  map[uint64]struct{} // live keys

	hits, misses, stores, corrupt, fallbacks atomic.Uint64
	bytesRead, bytesWritten                  atomic.Uint64
}

const entrySuffix = ".obj"

// entryName formats a key as its content-addressed file name.
func entryName(key uint64) string { return fmt.Sprintf("%016x%s", key, entrySuffix) }

func parseEntryName(name string) (uint64, bool) {
	hex, ok := strings.CutSuffix(name, entrySuffix)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	key, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return key, true
}

// entryPath returns the sharded path for a key (shard = top byte).
func (s *Store) entryPath(key uint64) string {
	return filepath.Join(s.dir, "objects", fmt.Sprintf("%02x", byte(key>>56)), entryName(key))
}

// Open opens (creating if needed) the artifact store in dir. The first
// opener to win the writer flock may publish and evict; later openers on
// the same directory — and Options.ReadOnly ones — degrade to read-only.
// Open fails only on hard I/O errors against the directory itself; a
// corrupt manifest is repaired (writer) or tolerated (reader), never fatal.
func Open(dir string, o Options) (*Store, error) {
	if err := fault(o.FaultHook, SiteOpen); err != nil {
		return nil, err
	}
	objDir := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		buildID: o.BuildID,
		hook:    o.FaultHook,
		metrics: NewMetrics(o.Telemetry),
	}
	if !o.ReadOnly {
		lockF, err := acquireWriterLock(filepath.Join(dir, "lock"))
		if err != nil {
			return nil, err
		}
		s.lockF = lockF
		s.writer = lockF != nil
	}

	// Identity check. Entries carry the same identity in every blob header;
	// the manifest lets a writer detect a whole-directory skew here and clear
	// the dead weight eagerly instead of evicting entry by entry. A writer
	// finding a skewed or corrupt manifest owns the directory now: clear the
	// incompatible entries and restamp. A reader can repair nothing — it
	// opens with an empty view (every Get misses) rather than failing, since
	// its engine must run regardless.
	manifestPath := filepath.Join(dir, "MANIFEST")
	ok, err := checkManifest(manifestPath, o.BuildID)
	if err != nil && s.writer {
		releaseWriterLock(s.lockF)
		return nil, err
	}
	if !ok {
		if !s.writer {
			s.index = map[uint64]struct{}{}
			s.metrics.Entries.Set(0)
			return s, nil
		}
		if err := s.clearAll(); err != nil {
			releaseWriterLock(s.lockF)
			return nil, err
		}
		if err := writeManifest(manifestPath, o.BuildID); err != nil {
			releaseWriterLock(s.lockF)
			return nil, err
		}
	}

	s.index = indexObjects(objDir, s.writer)
	if s.writer {
		// Stores from before the directory was the index kept a
		// publish/evict journal here; nothing reads it any more.
		os.Remove(filepath.Join(dir, "journal"))
	}
	s.metrics.Entries.Set(int64(len(s.index)))
	return s, nil
}

// indexObjects lists the sharded entry layout once and returns the keys it
// holds, by file name alone: integrity is verified per load, so a file that
// only looks like an entry costs one evicting miss. With sweep set (the
// writer) the same walk removes abandoned temp files — kill -9 between temp
// write and rename. A reader leaves them: they may be a live writer's
// in-flight publishes.
func indexObjects(dir string, sweep bool) map[uint64]struct{} {
	index := map[uint64]struct{}{}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return index
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		shDir := filepath.Join(dir, sh.Name())
		files, err := os.ReadDir(shDir)
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, tempPattern) {
				if sweep {
					os.Remove(filepath.Join(shDir, name))
				}
			} else if key, ok := parseEntryName(name); ok {
				index[key] = struct{}{}
			}
		}
	}
	return index
}

// checkManifest reports whether the manifest matches the current identity.
// The blob header carries the schema and build ID and readBlob checks both,
// so the payload is never read: the empty one writeManifest stamps and the
// gob-encoded copy of the header older stores wrote are equally valid.
// Missing, corrupt, or skewed manifests all report false; only hard I/O
// errors surface.
func checkManifest(path, buildID string) (bool, error) {
	_, n, err := readBlob(path, MagicSnapshot, buildID)
	if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSchemaSkew) {
		return false, nil
	}
	return n > 0, err
}

func writeManifest(path, buildID string) error {
	_, err := writeBlobAtomic(path, MagicSnapshot, buildID, nil)
	return err
}

// clearAll removes every entry — the writer's response to a whole-directory
// schema skew.
func (s *Store) clearAll() error {
	objDir := filepath.Join(s.dir, "objects")
	if err := os.RemoveAll(objDir); err != nil {
		return err
	}
	return os.MkdirAll(objDir, 0o755)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// ReadOnly reports whether the store degraded to read-only (writer lock
// held elsewhere, or Options.ReadOnly).
func (s *Store) ReadOnly() bool { return !s.writer }

// Len returns the number of live entries in the index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Stores:         s.stores.Load(),
		CorruptEvicted: s.corrupt.Load(),
		Fallbacks:      s.fallbacks.Load(),
		BytesRead:      s.bytesRead.Load(),
		BytesWritten:   s.bytesWritten.Load(),
		Entries:        s.Len(),
		ReadOnly:       s.ReadOnly(),
	}
}

// fallback counts one operation that degraded to the in-memory path.
func (s *Store) fallback() {
	s.fallbacks.Add(1)
	s.metrics.Fallbacks.Inc()
}

// Get loads the entry for key. A usable entry returns (*Entry, nil); every
// other outcome — absent, corrupt (evicted), skewed (evicted), injected
// fault, I/O error, closed store — returns (nil, err) with err describing
// the cause (nil for a plain miss). Callers compile cold on any nil Entry.
func (s *Store) Get(key uint64) (*Entry, error) {
	t0 := time.Now()
	defer func() { s.metrics.LoadDur.Observe(time.Since(t0)) }()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.fallback()
		return nil, ErrClosed
	}
	if err := fault(s.hook, SiteLoad); err != nil {
		s.fallback()
		return nil, err
	}
	path := s.entryPath(key)
	payload, n, err := readBlob(path, MagicEntry, s.buildID)
	s.bytesRead.Add(uint64(n))
	s.metrics.BytesRead.Add(uint64(n))
	if err != nil {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrSchemaSkew) {
			s.evict(key, path)
		} else {
			s.fallback()
		}
		s.miss()
		return nil, err
	}
	if payload == nil {
		s.miss()
		s.dropIndexed(key)
		return nil, nil
	}
	e, err := decodeEntry(payload)
	if err != nil {
		s.evict(key, path)
		s.miss()
		return nil, err
	}
	// The checksum proved the bytes are what the writer published; these
	// checks prove the writer published something sane for THIS key.
	if e.Key != key {
		s.evict(key, path)
		s.miss()
		return nil, fmt.Errorf("%w: entry key %016x under name %016x", ErrCorrupt, e.Key, key)
	}
	if err := e.Object.Validate(); err != nil {
		s.evict(key, path)
		s.miss()
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.hits.Add(1)
	s.metrics.Hits.Inc()
	return e, nil
}

func (s *Store) miss() {
	s.misses.Add(1)
	s.metrics.Misses.Inc()
}

// Put publishes an entry atomically. Failures — read-only store, closed
// store, injected fault, full disk — are counted fallbacks; the caller's
// in-memory cache is unaffected either way.
func (s *Store) Put(key uint64, e *Entry) error {
	t0 := time.Now()
	defer func() { s.metrics.StoreDur.Observe(time.Since(t0)) }()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.fallback()
		return ErrClosed
	}
	if !s.writer {
		s.mu.Unlock()
		s.fallback()
		return ErrReadOnly
	}
	if _, dup := s.index[key]; dup {
		// Content-addressed: an indexed key already holds these bytes.
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	if e.Object == nil {
		s.fallback()
		return fmt.Errorf("persist: refusing to store entry %016x without an object", key)
	}
	if err := fault(s.hook, SiteStore); err != nil {
		s.fallback()
		return err
	}
	e.Key = key
	payload := encodeEntry(e)
	path := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.fallback()
		return err
	}
	n, err := writeBlobAtomic(path, MagicEntry, s.buildID, payload)
	if err != nil {
		s.fallback()
		return err
	}
	s.bytesWritten.Add(uint64(n))
	s.metrics.BytesWritten.Add(uint64(n))
	s.stores.Add(1)
	s.metrics.Stores.Inc()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Lost the race with Close after the entry landed: the entry is
		// valid on disk and the next Open's directory walk indexes it.
		return nil
	}
	s.index[key] = struct{}{}
	s.metrics.Entries.Set(int64(len(s.index)))
	return nil
}

// evict removes a corrupt or skewed entry on detection. Read-only stores
// cannot unlink; they still count the detection and forget the key.
func (s *Store) evict(key uint64, path string) {
	s.corrupt.Add(1)
	s.metrics.CorruptEvicted.Inc()
	if ferr := fault(s.hook, SiteEvict); ferr != nil {
		s.fallback()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer && !s.closed {
		os.Remove(path)
	}
	delete(s.index, key)
	s.metrics.Entries.Set(int64(len(s.index)))
}

// dropIndexed forgets a key whose file vanished underneath the index (an
// external cleanup). A Put racing the caller's miss publishes the file
// before it indexes the key, so a key whose file exists again is kept.
func (s *Store) dropIndexed(key uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		return
	}
	if _, err := os.Stat(s.entryPath(key)); err == nil {
		return
	}
	delete(s.index, key)
	s.metrics.Entries.Set(int64(len(s.index)))
}

// Close releases the writer lock. It is idempotent and safe to call
// concurrently with in-flight Gets and Puts: operations that lose the race
// fail with ErrClosed and are counted fallbacks.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	releaseWriterLock(s.lockF)
	s.lockF = nil
	return nil
}
