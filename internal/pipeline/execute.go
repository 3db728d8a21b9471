package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/resil"
	"repro/internal/token"
	"repro/internal/workflow"
)

// OnRecordError values: what a streaming per-record stage does when a
// chunk's records cannot be processed (after the resilience policy, if
// any, has already done its retrying). Barrier stages always fail fast —
// their output depends on the whole table, so dropping records would
// silently change the answer rather than narrow it.
const (
	// OnRecordFail aborts the run on the first record error (the default,
	// and the only pre-existing behaviour).
	OnRecordFail = "fail"
	// OnRecordSkip retries the failed chunk record by record and silently
	// drops the records that still fail, reporting only a count.
	OnRecordSkip = "skip"
	// OnRecordQuarantine is skip plus evidence: dropped records are
	// counted per stage with the first few per-record errors preserved in
	// the StageReport, so a degraded run says exactly what it left out.
	OnRecordQuarantine = "quarantine"
)

// ExecConfig parameterises one pipeline run.
type ExecConfig struct {
	// Model answers every unit task.
	Model llm.Model
	// Embedder overrides the k-NN embedder (default embed.Default()).
	Embedder embed.Embedder
	// Budget caps the whole pipeline; nil runs unlimited (with full
	// accounting either way).
	Budget *workflow.Budget
	// Exec is the shared execution layer (cache + coalescer). Nil builds a
	// fresh layer for the run; pass a persistent one to share across runs —
	// and to let OptimizeProbed's selectivity probes pre-warm the cache the
	// run then reads.
	Exec *workflow.ExecLayer
	// Registry is the shared embedding-index registry. Nil builds a fresh
	// one for the run, which already spans every stage.
	Registry *embed.Registry
	// Feed turns the run into a standing query: each slice received on
	// the channel is one wave of records that joins the stream behind the
	// static "source" table, in arrival order, while the pipeline is
	// already executing — per-record stages re-evaluate incrementally chunk
	// by chunk, and barrier stages simply see the longer stream. Each wave
	// is cut into chunks at the run's width, exactly like the static
	// source, so chunk boundaries depend only on the source and the wave
	// sequence. The run reads a wave after receiving it, so the caller
	// must not modify a sent wave. Run returns only after Feed is closed
	// and fully drained, so the caller must feed and close the channel
	// from another goroutine.
	// Temperature-0 results after full ingestion are byte-identical to a
	// batch run whose source table already contained the fed records
	// (pinned by TestStandingQueryMatchesBatch). Nil runs the static table
	// alone.
	Feed <-chan []dataset.Record
	// Attribution is the per-stage ledger the run records into; nil builds
	// a fresh one. Pass the same ledger (and Exec) to OptimizeProbed and
	// Run so probe spend appears in the run's report under
	// workflow.StageProbe and the report still sums to the budget total.
	// Use one Attribution per logical run — it accumulates.
	Attribution *workflow.Attribution
	// Batch packs up to this many unit tasks per envelope prompt (<= 1
	// disables batching). Only the tasks of one operator fan-out (one
	// chunk's worth of records under streaming) share envelopes, and they
	// flush the moment every live task of the fan-out waits on the model:
	// batching adds no timer delay, and which tasks share an envelope
	// depends only on the fan-out's prompts (see workflow.BatchingModel).
	// One flush sends up to Parallelism envelopes together.
	Batch int
	// Parallelism bounds the upstream calls each operator fan-out keeps
	// in flight (default core.DefaultParallelism, 8). A batched fan-out
	// counts envelopes, so it admits Parallelism × Batch unit tasks.
	Parallelism int
	// Chunk is the records per chunk, the unit that flows between stages
	// (see width). Larger chunks amortize per-invocation overhead; smaller
	// ones hand records downstream sooner. 0 takes the default width,
	// Parallelism × max(Batch, 1) — what one round trip of the fan-out
	// carries.
	Chunk int
	// Adaptive runs each run of adjacent commutable filter stages as one
	// segment whose internal order is revised at chunk boundaries, most
	// selective first, as the observed keep rates refine the optimizer's
	// estimates. The revisions are driven by counts and the boundaries by
	// the input, so an adaptive run is as deterministic as a fixed one, and
	// its temperature-0 results are identical.
	Adaptive bool
	// Resilience, when non-nil, wraps the model with a retry / backoff /
	// hedging / circuit-breaker policy for the run. The wrapper sits below
	// the budget, attribution, batcher, and cache, so callers above see
	// one logical call per ask (counted and cached once) however many
	// physical attempts the policy spent; the physical activity lands in
	// the Attribution's resilience counters and the Result. With no faults
	// firing the wrapper is a no-op and results are byte-identical.
	Resilience *resil.Policy
	// OnRecordError selects degraded-mode execution for streaming
	// per-record stages: OnRecordFail (default), OnRecordSkip, or
	// OnRecordQuarantine. A failing chunk is retried record by record and
	// the records that still fail are dropped (skip) or dropped-and-
	// reported (quarantine) instead of aborting the run. Context
	// cancellation, budget exhaustion, and an open circuit breaker always
	// abort — they poison every record, not one. Barrier stages and
	// adaptive filter segments fail fast regardless.
	OnRecordError string
}

// width is the run's chunk width: a positive Chunk, or else what one
// round trip carries, Parallelism × max(Batch, 1) (8 unbatched at the
// default parallelism, 64 at Batch 8). Every edge of the run cuts its
// chunks at this one width, so no consumer ever re-cuts, and every
// inter-stage channel holds one chunk.
func (cfg ExecConfig) width() int {
	if cfg.Chunk > 0 {
		return cfg.Chunk
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = core.DefaultParallelism
	}
	return par * max(cfg.Batch, 1)
}

// execRuntime binds one run's shared machinery: the budget, the
// attribution ledger, and the one engine every stage runs on.
// OptimizeProbed builds the same runtime from the same config so probes
// run through the very cache and ledger the run will use.
type execRuntime struct {
	budget *workflow.Budget
	attr   *workflow.Attribution
	resil  *resil.Model // non-nil when cfg.Resilience wrapped the model
	engine *core.Engine
}

// flushResil folds the run's resilience activity into the ledger and
// returns it. The wrapper is private to this runtime, so its lifetime
// counters are exactly this run's delta.
func (rt *execRuntime) flushResil() workflow.ResilienceStats {
	if rt.resil == nil {
		return workflow.ResilienceStats{}
	}
	s := rt.resil.Stats()
	delta := workflow.ResilienceStats{
		Retries:      s.Retries,
		Hedges:       s.Hedges,
		HedgeWins:    s.HedgeWins,
		BreakerOpens: s.BreakerOpens,
		RetryDenials: s.RetryDenials,
	}
	if !delta.Zero() {
		rt.attr.AddResilience(delta)
	}
	return delta
}

// engineOptions are the options every engine of a run shares: the
// budget and ledger, plus the parallelism and embedder overrides.
func engineOptions(budget *workflow.Budget, attr *workflow.Attribution, parallelism int, embedder embed.Embedder) []core.Option {
	opts := []core.Option{core.WithBudget(budget), core.WithAttribution(attr)}
	if parallelism > 0 {
		opts = append(opts, core.WithParallelism(parallelism))
	}
	if embedder != nil {
		opts = append(opts, core.WithEmbedder(embedder))
	}
	return opts
}

func (cfg ExecConfig) runtime() *execRuntime {
	budget := cfg.Budget
	if budget == nil {
		budget = workflow.Unlimited()
	}
	attr := cfg.Attribution
	if attr == nil {
		attr = workflow.NewAttribution()
	}
	rt := &execRuntime{budget: budget, attr: attr}
	model := cfg.Model
	if cfg.Resilience != nil {
		// Below everything: retries and hedges are invisible to the budget,
		// ledger, batcher, and cache above — one logical call per ask.
		rt.resil = resil.Wrap(model, *cfg.Resilience)
		model = rt.resil
	}
	layer := cfg.Exec
	if layer == nil {
		layer = workflow.NewExecLayer()
	}
	registry := cfg.Registry
	if registry == nil {
		registry = embed.NewRegistry()
	}
	opts := append(engineOptions(budget, attr, cfg.Parallelism, cfg.Embedder),
		core.WithExecutionLayer(layer), core.WithIndexRegistry(registry))
	if cfg.Batch > 1 {
		opts = append(opts, core.WithBatching(cfg.Batch))
	}
	rt.engine = core.New(model, opts...)
	return rt
}

// Env is the execution environment handed to each stage.
type Env struct {
	// Engine runs the stage's operator.
	Engine *core.Engine
	// Budget is the shared whole-pipeline budget.
	Budget *workflow.Budget
	// Tables holds the side tables visible to the stage: the static tables
	// passed to Run (plus "source"), overlaid with any dynamic side table
	// materialized from an earlier stage's stream.
	Tables map[string][]dataset.Record

	stats *stageStats
	run   *runState
	onErr string // resolved OnRecordError mode
}

// maxQuarantineErrors bounds the per-stage error samples kept for the
// StageReport; the count is always exact.
const maxQuarantineErrors = 3

// quarantineInfo is one stage's side-channel of dropped records.
type quarantineInfo struct {
	count int
	errs  []string
}

// runState collects scalar outputs, details, and the degraded-mode
// side-channels across stages.
type runState struct {
	mu      sync.Mutex
	scalars map[string]string
	details map[string]string
	skipped map[string]int
	quar    map[string]*quarantineInfo
}

func newRunState() *runState {
	return &runState{scalars: make(map[string]string), details: make(map[string]string),
		skipped: make(map[string]int), quar: make(map[string]*quarantineInfo)}
}

// skipEmpty reports a stage that saw no input records. A count over
// nothing still has an answer — 0 — and must report it regardless of
// where the optimizer placed the emptying filter.
func (s *runState) skipEmpty(st Stage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Kind() == KindCount {
		s.scalars[st.Name()] = "0"
		s.details[st.Name()] = "0 of 0 (empty input)"
	} else {
		s.details[st.Name()] = detailSkippedEmpty
	}
}

// dropRecord records one record dropped under skip or quarantine mode.
func (e *Env) dropRecord(stage string, r dataset.Record, err error) {
	e.run.mu.Lock()
	defer e.run.mu.Unlock()
	if e.onErr == OnRecordSkip {
		e.run.skipped[stage]++
		return
	}
	q := e.run.quar[stage]
	if q == nil {
		q = &quarantineInfo{}
		e.run.quar[stage] = q
	}
	q.count++
	if len(q.errs) < maxQuarantineErrors {
		q.errs = append(q.errs, fmt.Sprintf("record %s: %v", r.ID, err))
	}
}

func (e *Env) setScalar(stage, value string) {
	e.run.mu.Lock()
	defer e.run.mu.Unlock()
	e.run.scalars[stage] = value
}

func (e *Env) detail(stage, text string) {
	e.run.mu.Lock()
	defer e.run.mu.Unlock()
	e.run.details[stage] = text
}

// StageReport is the per-stage accounting of one run.
type StageReport struct {
	// Name and Kind identify the stage. A run whose spec was rewritten by
	// OptimizeProbed additionally reports one synthetic row named
	// workflow.StageProbe ("__probe", kind "probe") carrying the
	// optimizer's selectivity-probe spend.
	Name, Kind string
	// In and Out count the records entering and leaving the stage.
	In, Out int
	// Usage is the real upstream spend attributed to this stage; summed
	// across stages (including the probe row) it equals the pipeline
	// total (cache hits, coalesced followers, and batch co-riders are
	// free and attributed nowhere).
	Usage token.Usage
	// Cost prices Usage at the model's rate.
	Cost float64
	// Timing is the stage's observed streaming behaviour: service time
	// versus queue wait, chunks, and records, surfaced for inspection and
	// benchmarks.
	Timing workflow.StageTiming
	// Detail is the stage's operator-specific summary.
	Detail string
	// Skipped counts records dropped under OnRecordSkip.
	Skipped int
	// Quarantined counts records diverted under OnRecordQuarantine, with
	// the first few per-record errors preserved in QuarantineErrors.
	Quarantined      int
	QuarantineErrors []string
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Tables holds every stage's output table by stage name. Under
	// ExecConfig.Adaptive, a non-tail filter of a re-orderable segment
	// holds the records it evaluated under the orders used; the segment's
	// tail table, what every downstream consumer sees, is identical to a
	// non-adaptive run at temperature 0.
	Tables map[string][]dataset.Record
	// Scalars holds the scalar outputs of count/max stages by stage name.
	Scalars map[string]string
	// Stages reports per-stage accounting in pipeline order (preceded by
	// the synthetic probe row when the optimizer measured selectivities
	// against this run's Attribution).
	Stages []StageReport
	// Usage and Cost total the run (equal to the sum over Stages).
	Usage token.Usage
	Cost  float64
	// Skipped and Quarantined total the records dropped by degraded-mode
	// execution across stages (see ExecConfig.OnRecordError).
	Skipped     int
	Quarantined int
	// Resilience reports the run's physical retry/hedge/breaker activity
	// when ExecConfig.Resilience was set (zero otherwise). These count
	// events below the logical-call accounting: Usage is unaffected by
	// how many attempts a call took.
	Resilience workflow.ResilienceStats
}

// streamOut is one stage's output viewed both as a stream and as a
// table: the owning goroutine sends each chunk to every subscribed
// consumer channel while collecting the full table for the Result (and
// for dynamic side-table consumers, who need it whole). done closes when
// the stage finishes; err is set before done closes on failure.
type streamOut struct {
	table    []dataset.Record
	err      error
	consumed int
	width    int
	done     chan struct{}
	subs     []chan []dataset.Record
}

// send delivers recs to every subscriber as chunks of at most the run's
// width, honouring backpressure; it sends nothing for no records and
// reports false when the run's context is cancelled. Subscribers share
// each chunk and must not modify it.
func (o *streamOut) send(ctx context.Context, recs []dataset.Record) bool {
	for len(recs) > 0 {
		n := min(len(recs), o.width)
		for _, ch := range o.subs {
			select {
			case ch <- recs[:n:n]:
			case <-ctx.Done():
				return false
			}
		}
		recs = recs[n:]
	}
	return true
}

func (o *streamOut) closeSubs() {
	for _, ch := range o.subs {
		close(ch)
	}
}

// drain collects the whole input stream — the barrier path — and then
// surfaces the upstream error if the stream ended because its producer
// failed.
func drain(ctx context.Context, in <-chan []dataset.Record, up *streamOut) ([]dataset.Record, error) {
	var recs []dataset.Record
	for {
		chunk, ok, err := recvChunk(ctx, in)
		if err != nil {
			return nil, err
		}
		if !ok {
			<-up.done
			if up.err != nil {
				return nil, up.err
			}
			return recs, nil
		}
		recs = append(recs, chunk...)
	}
}

// recvChunk receives the next chunk; ok is false once the stream is
// exhausted. Every chunk boundary was cut by the producer, so a chunk is
// a function of the input, never of how far the producer has got.
//
// Cancellation is checked eagerly, not just inside the select: Go's select
// picks ready cases at random, so a flooding upstream could otherwise keep
// a cancelled stage receiving chunks. The entry poll makes cancellation win
// the next boundary whether the upstream is idle (the select's Done case
// fires) or flooding (the poll fires).
func recvChunk(ctx context.Context, in <-chan []dataset.Record) (chunk []dataset.Record, ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	select {
	case chunk, ok = <-in:
		return chunk, ok, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// Run executes the pipeline over the given tables (which must include
// "source") as a streaming dataflow: every stage runs in its own
// goroutine, chunks of records cut from the input at cfg.width() flow
// between stages over channels that hold one chunk each, and a
// per-record stage (filter, direct categorize, fixed-strategy impute,
// nested-loop join) processes each chunk while its upstream is still
// emitting — if its side table is an earlier stage's output, it buffers
// its main input in a spillable spool until that table lands. Barrier
// stages — sort, max, count, resolve, planner-driven impute — drain their
// input first. All stages stream their unit tasks through one shared
// engine: one execution layer, one embedding-index registry, one budget.
// Each stage's context is tagged with its name, so the returned report
// attributes the shared budget's spend stage by stage. At temperature 0
// the result is byte-identical to RunSequential's. With cfg.Feed set,
// the run is a standing query: waves arriving on the channel extend
// the source stream mid-run, and Run returns after the feed closes and
// drains.
func (p *Pipeline) Run(ctx context.Context, cfg ExecConfig, tables map[string][]dataset.Record) (*Result, error) {
	source, ok := tables["source"]
	if !ok {
		return nil, fmt.Errorf("pipeline: tables lack %q", "source")
	}
	switch cfg.OnRecordError {
	case "", OnRecordFail, OnRecordSkip, OnRecordQuarantine:
	default:
		return nil, fmt.Errorf("pipeline: unknown OnRecordError %q (want fail, skip, or quarantine)", cfg.OnRecordError)
	}
	rt := cfg.runtime()
	state := newRunState()

	width := cfg.width()
	outs := make(map[string]*streamOut, len(p.stages)+1)
	root := &streamOut{table: source, width: width, done: make(chan struct{})}
	close(root.done)
	outs["source"] = root
	for _, st := range p.stages {
		outs[st.Name()] = &streamOut{width: width, done: make(chan struct{})}
	}

	// Adaptive runs collapse runs of adjacent commutable filters into
	// segments the executor may re-order mid-run; segID marks every stage
	// driven by a segment goroutine instead of its own.
	var segments [][]int
	segID := make([]int, len(p.stages)) // 0 = no segment; k = member of segments[k-1]
	if cfg.Adaptive {
		segments = adaptiveSegments(p.specs)
		for k, seg := range segments {
			for _, j := range seg {
				segID[j] = k + 1
			}
		}
	}

	// Wire one channel per main-input edge, holding one chunk. Dynamic
	// side-table consumers are not subscribers: they read the producer's
	// collected table after its done closes. Stages inside a segment take
	// no edge of their own — the segment consumes the head's input and
	// emits on the tail's output, whose downstream subscriptions wire as
	// usual.
	inputs := make(map[string]chan []dataset.Record, len(p.stages))
	for i, st := range p.stages {
		if segID[i] > 0 {
			if j := indexOf(p.specs, p.specs[i].Input); j >= 0 && segID[j] == segID[i] {
				continue // intra-segment edge: records flow inside the goroutine
			}
		}
		ch := make(chan []dataset.Record, 1)
		inputs[st.Name()] = ch
		up := outs[st.Input()]
		up.subs = append(up.subs, ch)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup

	// Pre-buffer the first chunk of the static source before any stage
	// starts: the channels are empty and hold one chunk, so this cannot
	// block.
	pre := min(len(root.table), width)
	if pre > 0 {
		for _, ch := range root.subs {
			ch <- root.table[:pre:pre]
		}
	}

	// Feed the rest of the static source to its subscribers, then — for a
	// standing query — each ingested wave until the feed closes. Fed
	// records are not appended to root.table: the slice aliases the
	// caller's "source" table, and consumers see every record through the
	// stream either way.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer root.closeSubs()
		if !root.send(ctx, root.table[pre:]) || cfg.Feed == nil {
			return
		}
		for {
			select {
			case wave, ok := <-cfg.Feed:
				if !ok || !root.send(ctx, wave) {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	for _, seg := range segments {
		wg.Add(1)
		go func(seg []int) {
			defer wg.Done()
			p.runSegment(ctx, cancel, rt, state, outs, inputs[p.specs[seg[0]].Name], tables, seg)
		}(seg)
	}
	for i, st := range p.stages {
		if segID[i] > 0 {
			continue
		}
		wg.Add(1)
		go func(st Stage, spec StageSpec) {
			defer wg.Done()
			p.runStage(ctx, cancel, cfg, rt, state, outs, inputs[st.Name()], tables, st, spec)
		}(st, p.specs[i])
	}
	wg.Wait()
	// Fold resilience activity into the ledger even when the run failed:
	// the retries were spent either way and the ledger must say so.
	resilStats := rt.flushResil()

	// Surface the root cause: a failing stage cancels the run, so sibling
	// branches die with context errors that would otherwise mask the stage
	// error the caller actually needs.
	var cancelErr error
	for _, st := range p.stages {
		if err := outs[st.Name()].err; err != nil {
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			if cancelErr == nil {
				cancelErr = err
			}
		}
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	// An outer cancellation can end the source feeder (and with it every
	// stream) without any stage recording an error — e.g. a stage whose
	// in-flight chunk completed after the cancel sees only a closed
	// channel. Never report such a truncated run as success.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}

	res := p.report(rt.attr, state, outs)
	res.Resilience = resilStats
	return res, nil
}

// report assembles a finished run's Result from each stage's output
// table and consumed-record count, the run state, and the ledger.
func (p *Pipeline) report(attr *workflow.Attribution, state *runState, outs map[string]*streamOut) *Result {
	res := &Result{
		Tables:  make(map[string][]dataset.Record, len(p.stages)),
		Scalars: state.scalars,
	}
	if u := attr.Usage(workflow.StageProbe); !u.IsZero() {
		res.Stages = append(res.Stages, StageReport{
			Name:   workflow.StageProbe,
			Kind:   "probe",
			Usage:  u,
			Cost:   attr.Cost(workflow.StageProbe),
			Detail: "optimizer selectivity probes",
		})
	}
	for _, st := range p.stages {
		name, out := st.Name(), outs[st.Name()]
		res.Tables[name] = out.table
		report := StageReport{
			Name:    name,
			Kind:    st.Kind(),
			In:      out.consumed,
			Out:     len(out.table),
			Usage:   attr.Usage(name),
			Cost:    attr.Cost(name),
			Timing:  attr.Timing(name),
			Detail:  state.details[name],
			Skipped: state.skipped[name],
		}
		if q := state.quar[name]; q != nil {
			report.Quarantined = q.count
			report.QuarantineErrors = q.errs
		}
		res.Skipped += report.Skipped
		res.Quarantined += report.Quarantined
		res.Stages = append(res.Stages, report)
	}
	res.Usage, res.Cost = attr.Total()
	return res
}

// runStage drives one stage goroutine: resolve the side table, consume
// the input (streamed or drained), run the operator, and emit outputs.
func (p *Pipeline) runStage(ctx context.Context, cancel context.CancelFunc, cfg ExecConfig, rt *execRuntime,
	state *runState, outs map[string]*streamOut, in <-chan []dataset.Record, tables map[string][]dataset.Record,
	st Stage, spec StageSpec) {
	out := outs[st.Name()]
	defer close(out.done)
	defer out.closeSubs()
	up := outs[st.Input()]

	// fail records a propagated (or cancellation) error without re-wrap;
	// abort records this stage's own failure and cancels the run.
	fail := func(err error) { out.err = err }
	abort := func(err error) {
		out.err = fmt.Errorf("stage %q: %w", st.Name(), err)
		cancel()
	}

	env := &Env{Engine: rt.engine, Budget: rt.budget, Tables: tables,
		stats: &stageStats{stage: st.Name()}, run: state, onErr: cfg.OnRecordError}
	defer env.stats.flush(rt.attr)

	// A dynamic side input (Side naming an earlier stage) needs the side
	// table whole, and the stage must keep consuming its own input while
	// the side stage finishes — otherwise a shared ancestor could deadlock
	// on backpressure. A streamable stage buffers its main input in a
	// spillable spool while the side materializes, then streams the spool
	// plus the live tail, so downstream starts receiving as soon as the
	// side table lands. A barrier stage drains, awaits the side, and runs.
	dynamicSide := sideStage(p.specs, spec) >= 0

	if streamer, ok := st.(Streamer); ok && streamer.CanStream() {
		emit := func(chunk []dataset.Record) error {
			out.table = append(out.table, chunk...)
			if !out.send(ctx, chunk) {
				return ctx.Err()
			}
			return nil
		}
		var consumed int
		var err error
		if dynamicSide {
			consumed, err = p.runStreamWithSide(ctx, env, outs, in, tables, streamer, st, spec, emit)
		} else {
			consumed, err = streamer.RunStream(workflow.TagStage(ctx, st.Name()), env, in, emit)
		}
		out.consumed = consumed
		if err != nil {
			if dynamicSide && propagated(err, outs, spec) {
				fail(err)
			} else {
				abort(err)
			}
			return
		}
		// The stream may have ended because the producer failed; the
		// upstream error, not our partial output, is the truth then.
		<-up.done
		if up.err != nil {
			fail(up.err)
			return
		}
		if consumed == 0 {
			state.skipEmpty(st)
		}
		return
	}

	start := time.Now()
	recs, err := drain(ctx, in, up)
	if err != nil {
		fail(err)
		return
	}
	out.consumed = len(recs)
	if dynamicSide {
		side := outs[spec.Side]
		select {
		case <-side.done:
		case <-ctx.Done():
			fail(ctx.Err())
			return
		}
		if side.err != nil {
			fail(side.err)
			return
		}
		env.Tables = overlaySide(tables, spec.Side, side.table)
	}
	wait := time.Since(start)
	if len(recs) == 0 {
		state.skipEmpty(st)
		return
	}
	work := time.Now()
	table, err := st.Run(workflow.TagStage(ctx, st.Name()), env, recs)
	if err != nil {
		abort(err)
		return
	}
	out.table = table
	if !out.send(ctx, table) {
		return
	}
	env.stats.observe(wait, time.Since(work), len(recs))
}

// overlaySide copies the static-table map with one dynamic side table
// overlaid, so the shared map is never mutated.
func overlaySide(tables map[string][]dataset.Record, name string, side []dataset.Record) map[string][]dataset.Record {
	overlay := make(map[string][]dataset.Record, len(tables)+1)
	for k, v := range tables {
		overlay[k] = v
	}
	overlay[name] = side
	return overlay
}

// propagated reports whether err came from upstream (the side stage's
// failure or a cancellation) rather than this stage's own operator, so
// runStage records it without re-wrapping and without cancelling the run
// a second time.
func propagated(err error, outs map[string]*streamOut, spec StageSpec) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if side := outs[spec.Side]; side != nil {
		// side.err is published by close(side.done); reading it before
		// that close is a data race with the side stage's goroutine, and
		// an error raised while the side is still running (e.g. a spool
		// failure) cannot have come from it anyway.
		select {
		case <-side.done:
			if side.err != nil && errors.Is(err, side.err) {
				return true
			}
		default:
		}
	}
	return false
}

// sideSpoolMem overrides the overlap spool's in-memory record capacity;
// 0 takes the spool default. Tests shrink it to force the disk-spill
// path without thousand-record inputs.
var sideSpoolMem = 0

// runStreamWithSide is the side-input overlap path: spool the main input
// while the dynamic side stage materializes, then stream the spooled
// prefix followed by the live channel through the stage. The spool keeps
// the main path consuming (no backpressure deadlock through a shared
// ancestor) without the full drain the barrier path pays, so downstream
// receives records as soon as the side table is ready. The spool keeps
// each chunk's boundary, so where the spool/live split falls moves none.
func (p *Pipeline) runStreamWithSide(ctx context.Context, env *Env, outs map[string]*streamOut,
	in <-chan []dataset.Record, tables map[string][]dataset.Record, streamer Streamer, st Stage, spec StageSpec,
	emit func([]dataset.Record) error) (int, error) {
	side := outs[spec.Side]
	spool := newRecordSpool(sideSpoolMem)
	defer spool.Close()

	start := time.Now()
	inOpen := true
buffering:
	for {
		select {
		case chunk, ok := <-in:
			if !ok {
				inOpen = false
				break buffering
			}
			if err := spool.AppendChunk(chunk); err != nil {
				return spool.Len(), err
			}
		case <-side.done:
			break buffering
		case <-ctx.Done():
			return spool.Len(), ctx.Err()
		}
	}
	// The main input may have closed first; the side table is still the
	// gate for processing.
	select {
	case <-side.done:
	case <-ctx.Done():
		return spool.Len(), ctx.Err()
	}
	if side.err != nil {
		return spool.Len(), side.err
	}
	env.Tables = overlaySide(tables, spec.Side, side.table)
	// The spool-fill wait is time blocked on inputs, but not a processed
	// micro-batch — record it without inflating the chunk count.
	env.stats.addWait(time.Since(start))

	// Replay the spool, then pipe the live channel, on one merged stream
	// the stage consumes chunk by chunk. The feeder owns its reads of the
	// spool, so this function must not return — and the deferred
	// spool.Close must not run — until the feeder has exited: fcancel
	// unblocks it even when the run's context is still live (e.g.
	// RunStream failed mid-replay), and the second defer waits for it. No
	// goroutine can leak.
	merged := make(chan []dataset.Record, 1)
	feedErr := make(chan error, 1)
	feedDone := make(chan struct{})
	fctx, fcancel := context.WithCancel(ctx)
	defer func() {
		fcancel()
		<-feedDone
	}()
	go func() {
		defer close(feedDone)
		defer close(merged)
		forward := func(chunk []dataset.Record) bool {
			select {
			case merged <- chunk:
				return true
			case <-fctx.Done():
				return false
			}
		}
		for {
			chunk, ok, err := spool.PopChunk()
			if err != nil {
				feedErr <- err
				return
			}
			if !ok {
				break
			}
			if !forward(chunk) {
				return
			}
		}
		for inOpen {
			select {
			case chunk, ok := <-in:
				if !ok || !forward(chunk) {
					return
				}
			case <-fctx.Done():
				return
			}
		}
	}()

	consumed, err := streamer.RunStream(workflow.TagStage(ctx, st.Name()), env, merged, emit)
	if err == nil {
		select {
		case ferr := <-feedErr:
			err = ferr
		default:
		}
	}
	return consumed, err
}

// FormatResult renders a run report as a text table: one row per stage
// with record flow and attributed spend, then scalars and the total.
func FormatResult(res *Result) string {
	out := fmt.Sprintf("%-14s %-11s %6s %6s %8s %8s %10s  %s\n",
		"Stage", "Kind", "In", "Out", "Calls", "Tokens", "Cost", "Detail")
	for _, s := range res.Stages {
		detail := s.Detail
		if s.Skipped > 0 {
			detail += fmt.Sprintf(" [skipped %d]", s.Skipped)
		}
		if s.Quarantined > 0 {
			detail += fmt.Sprintf(" [quarantined %d: %s]", s.Quarantined, strings.Join(s.QuarantineErrors, "; "))
		}
		out += fmt.Sprintf("%-14s %-11s %6d %6d %8d %8d %9.4f$  %s\n",
			s.Name, s.Kind, s.In, s.Out, s.Usage.Calls, s.Usage.Total(), s.Cost, detail)
	}
	for _, name := range sortedKeys(res.Scalars) {
		out += fmt.Sprintf("scalar %-8s = %s\n", name, res.Scalars[name])
	}
	out += fmt.Sprintf("total: %d calls, %d tokens, $%.4f\n",
		res.Usage.Calls, res.Usage.Total(), res.Cost)
	if r := res.Resilience; !r.Zero() || res.Skipped > 0 || res.Quarantined > 0 {
		out += fmt.Sprintf("resilience: %d retries, %d hedges (%d won), %d breaker opens, %d skipped, %d quarantined\n",
			r.Retries, r.Hedges, r.HedgeWins, r.BreakerOpens, res.Skipped, res.Quarantined)
	}
	return out
}
