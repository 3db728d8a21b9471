package workflow

import (
	"context"
	"errors"

	"repro/internal/llm"
	"repro/internal/token"
)

// flight is a pending memo entry: one upstream call in progress that
// followers wait on.
type flight struct {
	done chan struct{}
	resp llm.Response
	err  error
	// waiters are the followers' parks in their batch windows (see
	// window). They are appended under the shard lock and released by
	// the leader before done closes.
	waiters []*park
}

// do answers key from the cache, from an identical call already in
// flight, or by running fn as the leader of a new flight (the
// singleflight pattern). A memo entry moves from pending to filled under
// its shard lock: the lookup and the leader's registration share one
// critical section, and so do the leader's store and the flight's
// removal. No caller can therefore fall between a finished flight and its
// cache entry and pay for a second upstream call; an identical unit task
// reaches upstream exactly once per process, barring errors.
//
// Hits and followers get the response with zero usage, since no upstream
// call was made on their behalf. Upstream errors are shared with every
// follower of the flight — they were promised that call's outcome —
// except the leader's own cancellation: a cache can be shared across
// sessions, and one session timing out must not poison identical requests
// from live ones, so such a follower retries (and typically becomes the
// new leader under its own context). A follower whose own context ends
// returns early with the context error.
func (c *Cache) do(ctx context.Context, key cacheKey, fn func() (llm.Response, error)) (llm.Response, error) {
	s := c.shard(key)
	if resp, ok := s.get(key); ok {
		resp.Usage = token.Usage{}
		return resp, nil
	}
	for {
		s.mu.Lock()
		if resp, ok := s.entries[key]; ok {
			s.mu.Unlock()
			s.hits.Add(1)
			resp.Usage = token.Usage{}
			return resp, nil
		}
		f := s.pending[key]
		if f == nil {
			if s.pending == nil {
				s.pending = make(map[cacheKey]*flight)
			}
			f = &flight{done: make(chan struct{})}
			s.pending[key] = f
			s.mu.Unlock()
			return s.lead(key, f, fn)
		}
		c.coalesced.Add(1)
		p := windowFrom(ctx).newPark()
		if p != nil {
			f.waiters = append(f.waiters, p)
		}
		s.mu.Unlock()

		p.hold()
		select {
		case <-f.done:
			if f.err == nil {
				resp := f.resp
				resp.Usage = token.Usage{}
				return resp, nil
			}
			if ctx.Err() != nil {
				return llm.Response{}, ctx.Err()
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue // the leader died, not the call; retry fresh
			}
			return llm.Response{}, f.err
		case <-ctx.Done():
			p.release()
			return llm.Response{}, ctx.Err()
		}
	}
}

// lead runs fn for the flight f it registered, publishes the answer and
// wakes the followers, releasing their parks first.
func (s *cacheShard) lead(key cacheKey, f *flight, fn func() (llm.Response, error)) (llm.Response, error) {
	f.resp, f.err = fn()
	s.mu.Lock()
	if f.err == nil {
		s.putLocked(key, f.resp)
	}
	delete(s.pending, key)
	waiters := f.waiters
	s.mu.Unlock()
	for _, p := range waiters {
		p.release()
	}
	close(f.done)
	if f.err != nil {
		return llm.Response{}, f.err
	}
	return f.resp, nil
}

// memoModel is the wrapper ExecLayer.Wrap returns: one memo step per ask
// over the layer's shared cache (Cache.do), plus the per-ask report to
// the layer's ServeObserver.
type memoModel struct {
	inner llm.Model
	layer *ExecLayer
}

// Name implements llm.Model.
func (m *memoModel) Name() string { return m.inner.Name() }

// Complete implements llm.Model. A successful ask is reported to the
// ServeObserver as free when its response carried zero usage: served
// without a fresh billed upstream call.
func (m *memoModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	resp, err := m.layer.cache.do(ctx, keyFor(m.inner.Name(), req), func() (llm.Response, error) {
		resp, err := m.inner.Complete(ctx, req)
		if h := m.layer.leaderHook; h != nil {
			h()
		}
		return resp, err
	})
	if err == nil {
		if box, ok := m.layer.serveObs.Load().(serveObsBox); ok && box.obs != nil {
			box.obs.ObserveServe(ctx, resp.Usage.IsZero())
		}
	}
	return resp, err
}
