package workflow

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/llm"
)

// ExecStats is a point-in-time snapshot of an ExecLayer's effect.
type ExecStats struct {
	// CacheSize and CacheHits describe the shared response cache.
	CacheSize, CacheHits int
	// Coalesced counts requests answered by joining another caller's
	// in-flight upstream call.
	Coalesced int
	// Batches counts multi-task envelope calls issued upstream by
	// batchers observing this layer (failed envelopes included — they
	// were real upstream calls).
	Batches int
	// SoloRetries counts unit tasks re-issued individually after a failed
	// envelope call or a missing/garbled answer section.
	SoloRetries int
}

// BatchObserver receives batching outcomes from a BatchingModel so a
// shared layer can aggregate them across every per-session batcher.
type BatchObserver interface {
	// ObserveBatch records one envelope call issued upstream (packed unit
	// tasks inside it) and any unit tasks that fell back to a solo retry.
	ObserveBatch(envelopes, packed, soloRetries int)
}

// ServeObserver receives every unit ask that passes through an ExecLayer's
// Wrap, with the ask's own context — which a multi-tenant service has
// tagged per tenant (TagTenant) — and whether the layer served it free.
// "Free" means the response carried zero usage: a cache hit or a coalesced
// follower (and, when an engine batches below the layer, a batch co-rider
// whose envelope was billed to its leader). The layer's global Stats can
// only report aggregate hit counts; this per-ask callback is what lets a
// service split them by tenant exactly, even under concurrent jobs.
type ServeObserver interface {
	ObserveServe(ctx context.Context, free bool)
}

// ExecLayer is the shared high-throughput execution substrate: one
// sharded memo cache — answered responses plus the upstream calls still in
// flight — that spans every operator (and every engine) wrapped against
// it. An identical unit task is answered upstream exactly once per layer —
// first by coalescing while in flight, then by the cache forever after.
// An engine given no layer builds a private one per operator invocation
// (core's per-session default), so nothing is reused across operators but
// concurrent identical asks within one fan-out still coalesce.
//
// The layer also implements BatchObserver: engines that batch below it
// (core.WithBatching) report envelope and solo-retry counts here, so
// Stats unifies cache, coalescing, and batching effects in one snapshot.
//
// Construct one layer per logical session or service and pass it to every
// engine via core.WithExecutionLayer. Safe for concurrent use.
type ExecLayer struct {
	cache *Cache

	batches     atomic.Int64
	soloRetries atomic.Int64

	// serveObs holds the optional ServeObserver (serveObsBox), consulted
	// per ask by the wrapper Wrap returns.
	serveObs atomic.Value

	// leaderHook, when set (by tests), runs in a flight leader between
	// its upstream call's return and the answer's publication.
	leaderHook func()

	// stateMu guards the optional persistence attachment (OpenState).
	stateMu sync.Mutex
	log     *CacheLog
}

// serveObsBox gives atomic.Value one concrete type whatever the observer's
// dynamic type is.
type serveObsBox struct{ obs ServeObserver }

// NewExecLayer returns a layer with a DefaultCacheShards-way cache.
func NewExecLayer() *ExecLayer { return NewExecLayerShards(0) }

// NewExecLayerShards returns a layer whose cache has the given shard
// count; shards <= 0 selects DefaultCacheShards.
func NewExecLayerShards(shards int) *ExecLayer {
	return &ExecLayer{cache: NewCache(shards)}
}

// Wrap layers the shared memo cache over m: an ask is answered from the
// cache, or joins an identical call already in flight, or leads a new
// one — only flight leaders reach m (see Cache.do). When a ServeObserver
// is attached, every successful ask is additionally reported to it with
// the ask's context.
func (l *ExecLayer) Wrap(m llm.Model) llm.Model {
	return &memoModel{inner: m, layer: l}
}

// SetServeObserver attaches (or, with nil, detaches) the per-ask observer.
// Safe to call concurrently with in-flight requests; asks already past the
// observation point keep the observer they loaded.
func (l *ExecLayer) SetServeObserver(o ServeObserver) {
	l.serveObs.Store(serveObsBox{obs: o})
}

// ObserveBatch implements BatchObserver.
func (l *ExecLayer) ObserveBatch(envelopes, packed, soloRetries int) {
	l.batches.Add(int64(envelopes))
	l.soloRetries.Add(int64(soloRetries))
}

// Stats snapshots the layer's counters. It is safe to call concurrently
// with in-flight requests (and with other Stats calls): every counter is
// independently synchronized, so a snapshot taken mid-run is a consistent
// point-in-time lower bound, never a torn read.
func (l *ExecLayer) Stats() ExecStats {
	size, hits := l.cache.Stats()
	return ExecStats{
		CacheSize:   size,
		CacheHits:   hits,
		Coalesced:   int(l.cache.coalesced.Load()),
		Batches:     int(l.batches.Load()),
		SoloRetries: int(l.soloRetries.Load()),
	}
}

// CacheLogName is the file name of an ExecLayer's cache log inside a
// state directory (see OpenState and core.WithStateDir).
const CacheLogName = "cache.log"

// OpenState attaches an append-only cache log under dir (dir/cache.log,
// created if needed) and replays its contents into the layer's shared
// cache, so a new process starts warm: every previously answered unit
// task is re-served free. Returns the replay stats — Recovered set means
// a torn tail from a crashed predecessor was recovered (the valid prefix
// loaded). Call FlushState to persist new entries (O(delta)) and
// CompactState to reclaim superseded records. Calling OpenState on a
// layer that already has state is a no-op reporting zero stats.
func (l *ExecLayer) OpenState(dir string) (ReplayStats, error) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log != nil {
		return ReplayStats{}, nil
	}
	lg, err := OpenCacheLog(filepath.Join(dir, CacheLogName))
	if err != nil {
		return ReplayStats{}, err
	}
	stats, err := lg.Replay(l.cache)
	if err != nil {
		lg.Close()
		return stats, err
	}
	l.log = lg
	return stats, nil
}

// HasState reports whether a cache log is attached.
func (l *ExecLayer) HasState() bool {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	return l.log != nil
}

// compactMinRecords is the log size below which FlushState never
// auto-compacts: rewriting a small log saves nothing and churns the
// file under rapid flush cycles.
const compactMinRecords = 1024

// FlushState appends every cache entry inserted since the last flush to
// the attached log — O(delta), no rewrite of existing bytes — and syncs.
// Returns the number of records appended; without attached state it is a
// no-op. Safe to call concurrently with in-flight requests: entries
// inserted during the flush land in the next delta.
//
// FlushState also owns size-triggered compaction: when superseded
// records outnumber live entries (log records more than twice the cache
// size, past a small floor) the log is rewritten to live entries only,
// so a long-running service's log stays proportional to its cache
// without anyone scheduling maintenance.
func (l *ExecLayer) FlushState() (int, error) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log == nil {
		return 0, nil
	}
	n, err := l.log.Flush(l.cache)
	if err != nil {
		return n, err
	}
	live, _ := l.cache.Stats()
	if st := l.log.Stats(); st.Records >= compactMinRecords && st.Records > 2*live {
		if err := l.log.Compact(l.cache); err != nil {
			return n, fmt.Errorf("auto-compact after flush: %w", err)
		}
	}
	return n, nil
}

// CompactState rewrites the attached log to the cache's live entries
// only, atomically, dropping superseded records. No-op without state.
func (l *ExecLayer) CompactState() error {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log == nil {
		return nil
	}
	return l.log.Compact(l.cache)
}

// CloseState flushes pending entries and closes the log, detaching it.
// No-op without state.
func (l *ExecLayer) CloseState() error {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.log == nil {
		return nil
	}
	_, ferr := l.log.Flush(l.cache)
	cerr := l.log.Close()
	l.log = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}
