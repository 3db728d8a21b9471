package workflow

import (
	"context"
	"sync"
)

// window is the batch window of one Map fan-out. Map attaches it to every
// task's context; the batcher queues unit tasks in it, and the cache's
// coalescer registers followers with it. A task is parked while it waits
// in the batcher or on another caller's in-flight call. Once every live
// task of the window is parked, nothing more can join the forming batch,
// so it flushes at once: the window aggregates exactly the work it knows
// about and never waits on work that might arrive.
//
// Live tasks are min(n - finished, par): the tasks running plus those Map
// is about to launch into freed slots. Counting the not-yet-started ones
// keeps a window from flushing a straggler alone while the next task is
// on its way.
type window struct {
	mu       sync.Mutex
	n, par   int
	finished int
	parked   int
	// pending holds the unit tasks queued since the last flush.
	pending []*batchItem
	// parent is the window of the task that called Map, when fan-outs
	// nest. While this window is quiet, that task counts as parked there
	// (inParent), so a follower in here waiting on a batch out there
	// cannot hold both windows open.
	parent   *window
	inParent bool
}

type windowKey struct{}

// windowFrom returns the batch window attached to ctx, or nil.
func windowFrom(ctx context.Context) *window {
	w, _ := ctx.Value(windowKey{}).(*window)
	return w
}

// openWindow returns ctx carrying a new window for a fan-out of n tasks,
// at most par at once.
func openWindow(ctx context.Context, n, par int) (context.Context, *window) {
	w := &window{n: n, par: par, parent: windowFrom(ctx)}
	return context.WithValue(ctx, windowKey{}, w), w
}

// settleLocked re-evaluates w after one of its counts moved and returns
// out with the batch to flush now appended, if any. It mirrors w's quiet
// state into the parent window, settling that one too. The caller holds
// w.mu and flushes the result after unlocking; locks are only ever taken
// from a window up to its parent.
func (w *window) settleLocked(out [][]*batchItem) [][]*batchItem {
	live := min(w.n-w.finished, w.par)
	quiet := live > 0 && w.parked >= live
	if quiet && len(w.pending) > 0 {
		out = append(out, w.pending)
		w.pending = nil
	}
	if w.parent != nil && quiet != w.inParent {
		w.inParent = quiet
		p := w.parent
		p.mu.Lock()
		if quiet {
			p.parked++
		} else {
			p.parked--
		}
		out = p.settleLocked(out)
		p.mu.Unlock()
	}
	return out
}

// finish records that one task of the fan-out returned.
func (w *window) finish() {
	w.mu.Lock()
	w.finished++
	out := w.settleLocked(nil)
	w.mu.Unlock()
	flushBatches(out)
}

// truncate records that Map stopped launching after the first n tasks.
func (w *window) truncate(n int) {
	w.mu.Lock()
	w.n = n
	out := w.settleLocked(nil)
	w.mu.Unlock()
	flushBatches(out)
}

// enqueue queues a unit task in the forming batch and parks its caller.
func (w *window) enqueue(it *batchItem) {
	w.mu.Lock()
	it.park = park{w: w, state: parkParked}
	w.parked++
	w.pending = append(w.pending, it)
	out := w.settleLocked(nil)
	w.mu.Unlock()
	flushBatches(out)
}

// abandon takes a cancelled caller's task out of the forming batch, if it
// is still there, and releases its park.
func (w *window) abandon(it *batchItem) {
	w.mu.Lock()
	for i, q := range w.pending {
		if q == it {
			w.pending = append(w.pending[:i], w.pending[i+1:]...)
			break
		}
	}
	out := it.park.releaseLocked(nil)
	w.mu.Unlock()
	flushBatches(out)
}

// parkState is where one waiter is in its park's life: registered, parked,
// then released for good. Release is final so that a release racing ahead
// of the hold (a flight that closes before its follower parks) wins.
type parkState uint8

const (
	parkIdle parkState = iota
	parkParked
	parkReleased
)

// park is one waiter's registration with a window. The party that answers
// the waiter releases its park before waking it; the waiter releases it
// itself only when it gives up. Releasing first matters: a woken waiter
// can finish its task and free a slot, and the task launched into that
// slot must not see the waiter's co-riders, also about to wake, as
// parked and flush alone.
type park struct {
	w     *window
	state parkState // guarded by w.mu
}

// newPark returns an idle park in w, or nil when there is no window.
func (w *window) newPark() *park {
	if w == nil {
		return nil
	}
	return &park{w: w}
}

// hold parks the waiter, unless it was released already.
func (p *park) hold() {
	if p == nil {
		return
	}
	p.w.mu.Lock()
	var out [][]*batchItem
	if p.state == parkIdle {
		p.state = parkParked
		p.w.parked++
		out = p.w.settleLocked(nil)
	}
	p.w.mu.Unlock()
	flushBatches(out)
}

// release unparks the waiter for good. Idempotent; nil-safe.
func (p *park) release() {
	if p == nil {
		return
	}
	p.w.mu.Lock()
	out := p.releaseLocked(nil)
	p.w.mu.Unlock()
	flushBatches(out)
}

func (p *park) releaseLocked(out [][]*batchItem) [][]*batchItem {
	was := p.state
	p.state = parkReleased
	if was != parkParked {
		return out
	}
	p.w.parked--
	return p.w.settleLocked(out)
}
