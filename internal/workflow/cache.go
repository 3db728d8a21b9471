package workflow

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/llm"
)

// DefaultCacheShards is the shard count used by NewCache(0).
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
// mutex. A Cache can back any number of wrapped models at once — the key
// includes the model name — which is how one cache spans every operator
// of a session (see ExecLayer). It is persisted only through a CacheLog
// (cachelog.go).
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

// loadEntry is put without dirty marking: entries arriving from log
// replay are already durable and must not be re-appended by the next
// flush.
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

// snapshot copies the full live contents, for compaction.
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

// cacheEntry is the decoded payload of one cache log record.
type cacheEntry struct {
	Model       string
	Prompt      string
	Temperature float64
	MaxTokens   int
	Seed        int64
	Text        string
}

// sortEntries orders log entries deterministically: the full
// cache key participates, so a cache shared by several models (or mixed
// sampling parameters) still serializes identically run after run. The
// log flush and compaction both use this one order.
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

// entryList converts a contents map into sorted log entries.
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

// key returns the cache key of a log entry.
func (e cacheEntry) key() cacheKey {
	return cacheKey{
		model:       e.Model,
		prompt:      e.Prompt,
		temperature: e.Temperature,
		maxTokens:   e.MaxTokens,
		seed:        e.Seed,
	}
}
