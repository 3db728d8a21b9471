package workflow

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/llm"
	"repro/internal/token"
)

// DefaultCacheShards is the shard count used by NewCache(0) and NewCached.
// Sixteen shards keep lock contention negligible at the engine's default
// parallelism while costing nothing at low concurrency.
const DefaultCacheShards = 16

// cacheKey identifies a completion for caching and coalescing.
// Temperature-positive requests include the seed (distinct samples must
// stay distinct).
type cacheKey struct {
	model       string
	prompt      string
	temperature float64
	maxTokens   int
	seed        int64
}

// keyFor derives the cache/coalesce identity of a request against a model.
func keyFor(model string, req llm.Request) cacheKey {
	key := cacheKey{
		model:       model,
		prompt:      req.Prompt,
		temperature: req.Temperature,
		maxTokens:   req.MaxTokens,
	}
	if req.Temperature > 0 {
		key.seed = req.Seed
	}
	return key
}

// cacheShard is one lock domain of a Cache. hits is atomic so the hot
// path (a hit) completes entirely under the read lock. dirty records the
// keys inserted since the last log flush, so CacheLog.Flush appends only
// the delta (see cachelog.go); it costs one slice append per put and
// nothing at all on the read path. pending holds the memo entries whose
// upstream call is still in flight (see Cache.do); it is allocated on
// first use, so caches that never coalesce pay nothing for it.
type cacheShard struct {
	mu      sync.RWMutex
	entries map[cacheKey]llm.Response
	pending map[cacheKey]*flight
	dirty   []cacheKey
	hits    atomic.Int64
}

// Cache is a sharded, concurrency-safe response store. Keys are spread
// across shards by a hash of the prompt, so concurrent lookups under
// workflow.Map's parallelism contend per shard rather than on one global
// mutex. A Cache can back any number of CachedModel wrappers at once —
// the key includes the model name — which is how one cache spans every
// operator of a session (see ExecLayer).
type Cache struct {
	shards []cacheShard
	// coalesced counts asks answered by joining another caller's
	// in-flight upstream call (see Cache.do).
	coalesced atomic.Int64
}

// NewCache returns an empty cache with the given shard count; shards <= 0
// selects DefaultCacheShards.
func NewCache(shards int) *Cache {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	c := &Cache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]llm.Response)
	}
	return c
}

// shard picks the lock domain of a key. Only the prompt and model feed the
// hash: temperature/seed variants of one prompt are rare enough that
// spreading them further buys nothing.
func (c *Cache) shard(key cacheKey) *cacheShard {
	h := fnv.New64a()
	h.Write([]byte(key.model))
	h.Write([]byte{0})
	h.Write([]byte(key.prompt))
	return &c.shards[h.Sum64()%uint64(len(c.shards))]
}

// get returns the cached response for key, counting a hit.
func (c *Cache) get(key cacheKey) (llm.Response, bool) { return c.shard(key).get(key) }

func (s *cacheShard) get(key cacheKey) (llm.Response, bool) {
	s.mu.RLock()
	resp, ok := s.entries[key]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	}
	return resp, ok
}

// put stores a response under key, marking it dirty for the next log
// flush. Overwrites are marked too: last-write-wins replay makes a
// duplicate log record harmless, and flushing dedupes within one delta.
func (c *Cache) put(key cacheKey, resp llm.Response) {
	s := c.shard(key)
	s.mu.Lock()
	s.putLocked(key, resp)
	s.mu.Unlock()
}

func (s *cacheShard) putLocked(key cacheKey, resp llm.Response) {
	s.entries[key] = resp
	s.dirty = append(s.dirty, key)
}

// Put stores (or overwrites) the response served for prompt against the
// named model at default sampling parameters — the programmatic way to
// pre-seed a cache with known answers (migration from another store,
// canned responses in tests and benchmarks). The entry is marked dirty
// like any insert, so the next CacheLog flush persists it.
func (c *Cache) Put(model, prompt string, resp llm.Response) {
	c.put(cacheKey{model: model, prompt: prompt}, resp)
}

// loadEntry is put without dirty marking: entries arriving from persisted
// state (snapshot Load, log replay) are already durable and must not be
// re-appended by the next flush.
func (c *Cache) loadEntry(key cacheKey, resp llm.Response) {
	s := c.shard(key)
	s.mu.Lock()
	s.entries[key] = resp
	s.mu.Unlock()
}

// drainDirty collects and clears every shard's dirty delta, deduplicated
// by key (the current value wins), returning the entries to append.
func (c *Cache) drainDirty() map[cacheKey]llm.Response {
	delta := make(map[cacheKey]llm.Response)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, k := range s.dirty {
			delta[k] = s.entries[k]
		}
		s.dirty = nil
		s.mu.Unlock()
	}
	return delta
}

// markDirty re-flags keys as pending for the next flush — the undo path
// when a compaction drained the dirty set but then failed to replace the
// log file.
func (c *Cache) markDirty(keys map[cacheKey]llm.Response) {
	for k := range keys {
		s := c.shard(k)
		s.mu.Lock()
		s.dirty = append(s.dirty, k)
		s.mu.Unlock()
	}
}

// snapshot copies the full live contents, for compaction and Save.
func (c *Cache) snapshot() map[cacheKey]llm.Response {
	all := make(map[cacheKey]llm.Response)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, v := range s.entries {
			all[k] = v
		}
		s.mu.RUnlock()
	}
	return all
}

// Stats returns the total entry and hit counts across shards.
func (c *Cache) Stats() (size, hits int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		size += len(s.entries)
		s.mu.RUnlock()
		hits += int(s.hits.Load())
	}
	return size, hits
}

// cacheEntry is the JSON persistence form of one cached response.
type cacheEntry struct {
	Model       string  `json:"model"`
	Prompt      string  `json:"prompt"`
	Temperature float64 `json:"temperature,omitempty"`
	MaxTokens   int     `json:"max_tokens,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Text        string  `json:"text"`
}

// sortEntries orders persistence entries deterministically: the full
// cache key participates, so a cache shared by several models (or mixed
// sampling parameters) still serializes identically run after run. The
// snapshot Save, the log flush, and compaction all use this one order.
func sortEntries(entries []cacheEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Prompt != b.Prompt {
			return a.Prompt < b.Prompt
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Temperature != b.Temperature {
			return a.Temperature < b.Temperature
		}
		return a.MaxTokens < b.MaxTokens
	})
}

// entryList converts a contents map into the sorted persistence form.
func entryList(m map[cacheKey]llm.Response) []cacheEntry {
	entries := make([]cacheEntry, 0, len(m))
	for k, v := range m {
		entries = append(entries, cacheEntry{
			Model:       k.model,
			Prompt:      k.prompt,
			Temperature: k.temperature,
			MaxTokens:   k.maxTokens,
			Seed:        k.seed,
			Text:        v.Text,
		})
	}
	sortEntries(entries)
	return entries
}

// key returns the cache key of a persistence entry.
func (e cacheEntry) key() cacheKey {
	return cacheKey{
		model:       e.Model,
		prompt:      e.Prompt,
		temperature: e.Temperature,
		maxTokens:   e.MaxTokens,
		seed:        e.Seed,
	}
}

// Save writes the cache contents as a deterministic JSON snapshot, so long
// experiment sweeps can be resumed across process restarts without
// re-spending tokens. The snapshot is O(cache) per save; processes that
// save repeatedly should use a CacheLog instead (cachelog.go), whose flush
// is O(new entries).
func (c *Cache) Save(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(entryList(c.snapshot())); err != nil {
		return fmt.Errorf("workflow: save cache: %w", err)
	}
	return nil
}

// SnapshotError reports a corrupt or truncated cache snapshot handed to
// Load. Loading is all-or-nothing: no entries from the bad stream were
// merged, so the caller can keep running with whatever the cache already
// held. The actionable fix is to delete (or regenerate) the snapshot file;
// switching persistence to a CacheLog additionally makes partial writes
// recoverable instead of fatal (replay keeps the valid prefix).
type SnapshotError struct {
	// Reason describes what was wrong with the stream.
	Reason string
	// Err is the underlying decode error, when one exists.
	Err error
}

func (e *SnapshotError) Error() string {
	msg := "workflow: cache snapshot corrupt: " + e.Reason +
		" (no entries loaded; delete or regenerate the snapshot file," +
		" or persist via CacheLog for torn-write recovery)"
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// Load merges previously saved cache contents. Loaded entries carry zero
// usage, like any cache hit. Entries for other model names are kept too
// (the key includes the model), so one file can serve a registry.
//
// An empty stream loads nothing and returns nil (a fresh snapshot file is
// a valid empty cache). A malformed or truncated stream returns a
// *SnapshotError and merges nothing — loading is all-or-nothing, unlike
// CacheLog replay, which recovers the valid prefix of a torn log.
func (c *Cache) Load(r io.Reader) error {
	dec := json.NewDecoder(r)
	var entries []cacheEntry
	if err := dec.Decode(&entries); err != nil {
		if err == io.EOF {
			return nil // empty stream: a valid empty snapshot
		}
		return &SnapshotError{Reason: "malformed JSON", Err: err}
	}
	// A snapshot is exactly one array; trailing non-whitespace means the
	// file was corrupted (e.g. two interleaved writers) even though a
	// prefix parsed.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return &SnapshotError{Reason: "trailing data after snapshot array"}
	}
	for _, e := range entries {
		c.loadEntry(e.key(), llm.Response{Text: e.Text, Model: e.Model})
	}
	return nil
}

// CachedModel wraps a model with a response cache. Identical requests hit
// the cache and cost nothing — the standard production optimisation for
// temperature-0 workloads, and what makes re-running experiment sweeps
// cheap. Safe for concurrent use.
type CachedModel struct {
	inner llm.Model
	cache *Cache
}

// NewCached wraps m with a fresh private cache.
func NewCached(m llm.Model) *CachedModel {
	return NewCachedWith(m, NewCache(0))
}

// NewCachedWith wraps m against an existing (possibly shared) cache.
func NewCachedWith(m llm.Model, c *Cache) *CachedModel {
	return &CachedModel{inner: m, cache: c}
}

// Name implements llm.Model.
func (c *CachedModel) Name() string { return c.inner.Name() }

// Cache returns the backing store, for persistence and sharing.
func (c *CachedModel) Cache() *Cache { return c.cache }

// Complete implements llm.Model, serving repeats from cache. Cached
// responses are returned with zero usage, mirroring that no API call was
// made.
func (c *CachedModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	key := keyFor(c.inner.Name(), req)
	if resp, ok := c.cache.get(key); ok {
		resp.Usage = token.Usage{}
		return resp, nil
	}
	resp, err := c.inner.Complete(ctx, req)
	if err != nil {
		return resp, err
	}
	c.cache.put(key, resp)
	return resp, nil
}

// Stats returns cache size and hit count.
func (c *CachedModel) Stats() (size, hits int) { return c.cache.Stats() }

// Save writes the backing cache as JSON (see Cache.Save).
func (c *CachedModel) Save(w io.Writer) error { return c.cache.Save(w) }

// Load merges previously saved contents (see Cache.Load).
func (c *CachedModel) Load(r io.Reader) error { return c.cache.Load(r) }
