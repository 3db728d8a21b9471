package workflow

import (
	"context"
	"sort"
	"sync"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// BatchOptions configures a BatchingModel.
type BatchOptions struct {
	// MaxBatch is the most unit tasks packed into one envelope prompt
	// (default 8). Values <= 1 disable packing.
	MaxBatch int
	// Observer, when set, additionally receives every envelope and
	// solo-retry count — typically the shared ExecLayer, so per-session
	// batchers aggregate into one ExecStats snapshot.
	Observer BatchObserver
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxBatch == 0 {
		o.MaxBatch = 8
	}
	return o
}

// batchGroup is the compatibility key of a forming batch: only requests
// that agree on sampling parameters may share an envelope, because the
// envelope is issued as a single request carrying those parameters. The
// attribution stage tag participates too: the envelope call runs on one
// leader's context, so mixing stages would bill one stage for another's
// tasks. (Each operator invocation builds its own BatchingModel today, so
// batches never span stages anyway; the key makes that invariant
// structural rather than incidental. Requests with a MaxTokens cap never
// enter a group — see Complete.)
type batchGroup struct {
	temperature float64
	seed        int64
	stage       string
}

// batchResult is delivered to one waiting caller.
type batchResult struct {
	resp llm.Response
	err  error
}

// batchItem is one enqueued unit task.
type batchItem struct {
	b     *BatchingModel
	group batchGroup
	ctx   context.Context
	req   llm.Request
	ch    chan batchResult
	park  park
}

// BatchingModel packs the unit tasks of one workflow.Map fan-out into
// multi-task envelope prompts (prompt.TaskBatch) and splits the completion
// back into per-task responses, so K compatible unit tasks cost one
// upstream round-trip instead of K.
//
// Requests queue in the batch window Map attached to their context, per
// compatibility group (temperature, seed, stage). The window flushes as
// soon as every live task of the fan-out is parked — waiting here or on
// an identical call already in flight — because then nothing more can
// join. Each group's tasks are sorted by prompt and cut into envelopes of
// at most MaxBatch, so which tasks share an envelope, and in which order,
// depends only on the fan-out's distinct prompts, never on goroutine
// timing. A batch of one is issued verbatim, and so is a call whose
// context carries no window: it has no known company and never waits.
//
// Tasks whose answer section is missing or unsplittable are re-issued
// individually with their original prompt — the retry path — so a
// malformed batched completion degrades to per-task cost, never to a
// wrong or lost answer. A failed envelope call takes the same path: each
// waiter solo-retries under its own context with its original request
// (concurrently, bounded by soloRetryParallelism), so one co-batched
// caller's cancellation or a transient upstream fault never poisons the
// whole batch. At temperature 0 this makes batched results identical to
// unbatched ones whenever the upstream model answers each embedded task
// as it would standalone (the simulator guarantees this; see
// docs/EXECUTION.md).
//
// Split responses carry zero usage: the envelope call's real usage is
// observed by whatever accounting wraps the inner model (counting,
// budget, attribution), exactly once.
type BatchingModel struct {
	inner llm.Model
	opts  BatchOptions

	mu      sync.Mutex
	batches int // envelope calls issued upstream, failed ones included
	packed  int // unit tasks answered from inside an envelope
	retried int // unit tasks re-issued solo after a failed envelope or bad split
}

// soloRetryParallelism bounds the concurrent solo retries issued after a
// failed envelope call or a bad split, so a large batch degrades to a
// bounded fan-out rather than a serialized tail or an unbounded burst.
const soloRetryParallelism = 8

// NewBatching wraps m with batching under the given options.
func NewBatching(m llm.Model, opts BatchOptions) *BatchingModel {
	return &BatchingModel{inner: m, opts: opts.withDefaults()}
}

// Name implements llm.Model.
func (b *BatchingModel) Name() string { return b.inner.Name() }

// Stats returns how many envelopes were issued upstream (including ones
// that failed), how many unit tasks rode in a successful envelope, and
// how many fell back to a solo retry.
func (b *BatchingModel) Stats() (batches, packed, retried int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches, b.packed, b.retried
}

// Complete implements llm.Model. Besides windowless calls, two kinds of
// request are passed through verbatim rather than batched: prompts that
// cannot be embedded in an envelope losslessly (prompt.CanEmbed —
// unterminated, or containing a section-header-shaped line of their own),
// and requests with a MaxTokens cap — a pooled envelope cap cannot
// reproduce standalone per-call truncation, so a capped section could
// come back silently shortened instead of taking the retry path.
func (b *BatchingModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	w := windowFrom(ctx)
	if w == nil || b.opts.MaxBatch <= 1 || req.MaxTokens > 0 || !prompt.CanEmbed(req.Prompt) {
		return b.inner.Complete(ctx, req)
	}
	item := &batchItem{b: b, ctx: ctx, req: req, ch: make(chan batchResult, 1)}
	item.group = batchGroup{temperature: req.Temperature, stage: StageTag(ctx)}
	if req.Temperature > 0 {
		item.group.seed = req.Seed
	}
	w.enqueue(item)

	select {
	case r := <-item.ch:
		return r.resp, r.err
	case <-ctx.Done():
		// A flush already under way still delivers into the buffered
		// channel; nothing leaks. Its upstream call runs on the batch
		// leader's context.
		w.abandon(item)
		return llm.Response{}, ctx.Err()
	}
}

// flushBatches issues the batches a window detached: per batcher and
// compatibility group, tasks sorted by prompt, cut into envelopes of at
// most MaxBatch. All envelopes but the last run on their own goroutines,
// so a wide fan-out pays one round-trip, not one per envelope.
func flushBatches(batches [][]*batchItem) {
	type key struct {
		b *BatchingModel
		g batchGroup
	}
	var envelopes [][]*batchItem
	for _, items := range batches {
		groups := make(map[key][]*batchItem)
		var order []key
		for _, it := range items {
			k := key{it.b, it.group}
			if groups[k] == nil {
				order = append(order, k)
			}
			groups[k] = append(groups[k], it)
		}
		for _, k := range order {
			g := groups[k]
			sort.SliceStable(g, func(i, j int) bool { return g[i].req.Prompt < g[j].req.Prompt })
			for len(g) > 0 {
				n := min(len(g), k.b.opts.MaxBatch)
				envelopes = append(envelopes, g[:n])
				g = g[n:]
			}
		}
	}
	for i, env := range envelopes {
		if i == len(envelopes)-1 {
			env[0].b.flush(env)
		} else {
			go env[0].b.flush(env)
		}
	}
}

// observe forwards batching outcomes to the configured observer, if any.
func (b *BatchingModel) observe(envelopes, packed, soloRetries int) {
	if b.opts.Observer != nil {
		b.opts.Observer.ObserveBatch(envelopes, packed, soloRetries)
	}
}

// flush issues one envelope for the items (or a verbatim call for a batch
// of one), splits the completion, and delivers per-item results. The first
// item's context drives the upstream call — every item of a batch comes
// from one fan-out sharing a context. Once the call returns, every
// waiter's park is released before any waiter is woken (see park), and
// tasks sent to a solo retry count as running, not parked: a retry is an
// ordinary upstream call.
func (b *BatchingModel) flush(items []*batchItem) {
	if len(items) == 1 {
		it := items[0]
		resp, err := b.inner.Complete(it.ctx, it.req)
		it.park.release()
		it.ch <- batchResult{resp: resp, err: err}
		return
	}

	ctx := items[0].ctx
	prompts := make([]string, len(items))
	for i, it := range items {
		prompts[i] = it.req.Prompt
	}
	breq := llm.Request{
		Prompt:      prompt.TaskBatch(prompts),
		Temperature: items[0].req.Temperature,
		Seed:        items[0].req.Seed,
	}
	resp, err := b.inner.Complete(ctx, breq)
	for _, it := range items {
		it.park.release()
	}
	if err != nil {
		// A failed envelope is not a failed unit task: the error may be the
		// leader's cancellation or a transient upstream fault that has
		// nothing to do with most of the co-batched waiters. Solo-retry
		// every waiter with its own ctx and original request instead of
		// propagating the envelope error; the ExecLayer's coalescer already
		// defends against duplicated in-flight work one layer up. The envelope
		// still counts as issued — it was a real upstream call.
		b.mu.Lock()
		b.batches++
		b.mu.Unlock()
		b.observe(1, 0, 0)
		b.retrySolo(items)
		return
	}
	b.mu.Lock()
	b.batches++
	b.packed += len(items)
	b.mu.Unlock()
	b.observe(1, len(items), 0)

	answers, perr := prompt.ParseTaskBatch(resp.Text, len(items))
	var retry []*batchItem
	for i, it := range items {
		answer, ok := answers[i]
		if perr != nil || !ok {
			// Retry path: the model skipped or garbled this task's section;
			// re-issue it alone with its original prompt.
			retry = append(retry, it)
			continue
		}
		it.ch <- batchResult{resp: llm.Response{Text: answer, Model: resp.Model}}
	}
	b.retrySolo(retry)
}

// retrySolo re-issues each item's original request individually — at most
// soloRetryParallelism in flight at once — and delivers every waiter its
// own result (or its own error). Used after a failed envelope call and for
// tasks whose answer section was missing from a batched completion.
func (b *BatchingModel) retrySolo(items []*batchItem) {
	if len(items) == 0 {
		return
	}
	b.mu.Lock()
	b.retried += len(items)
	b.mu.Unlock()
	b.observe(0, 0, len(items))
	sem := make(chan struct{}, soloRetryParallelism)
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		sem <- struct{}{}
		go func(it *batchItem) {
			defer wg.Done()
			defer func() { <-sem }()
			solo, serr := b.inner.Complete(it.ctx, it.req)
			it.ch <- batchResult{resp: solo, err: serr}
		}(it)
	}
	wg.Wait()
}
