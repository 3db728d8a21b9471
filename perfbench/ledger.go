package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// ledgerWindow is how long one ledger measurement calls its wrapper;
// each is taken ledgerReps times and the median reported.
const (
	ledgerWindow = 60 * time.Millisecond
	ledgerReps   = 3
)

// perCall measures op in ns and heap allocations per call: it calls op
// with i = 0, 1, 2, ... until ledgerWindow has passed, ledgerReps times.
func perCall(op func(i int)) (ns, allocs float64) {
	var nss, als []float64
	var ms runtime.MemStats
	for rep := 0; rep < ledgerReps; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		n := 0
		var el time.Duration
		for el < ledgerWindow {
			for k := 0; k < 64; k++ {
				op(n)
				n++
			}
			el = time.Since(start)
		}
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(el.Nanoseconds())/float64(n))
		als = append(als, float64(ms.Mallocs-m0)/float64(n))
	}
	return median(nss), median(als)
}

// setLedger replays the unit prompts and answers on the tape through
// each public model wrapper alone and through the documented chain, over
// a model that answers from the tape at no cost. The chain, bottom-up,
// is the engine's: resilience and fault layers, then budget, counting,
// attribution and the execution layer's cache and coalescer. The batcher
// is measured on its own, per task of full 8-task envelopes, because a
// lone request through it waits out its linger.
func setLedger(r *result, tp *tape) {
	tp.mu.Lock()
	reqs := append([]llm.Request(nil), tp.order...)
	tp.mu.Unlock()
	if len(reqs) == 0 {
		return
	}
	// The recorded model answers the calls in the order the ledger makes
	// them, so it costs one atomic add rather than a lookup of the prompt.
	resps := make([]llm.Response, len(reqs))
	tp.mu.Lock()
	for i, q := range reqs {
		resps[i] = tp.answers[q.Prompt]
	}
	tp.mu.Unlock()
	var next atomic.Int64
	var rec llm.Model = llm.Func{ModelName: modelName, Fn: func(context.Context, llm.Request) (llm.Response, error) {
		return resps[(next.Add(1)-1)%int64(len(resps))], nil
	}}
	ctx := workflow.TagStage(context.Background(), "city")
	call := func(m llm.Model) func(int) {
		return func(i int) { _, _ = m.Complete(ctx, reqs[i%len(reqs)]) }
	}
	put := func(name string, op func(int)) {
		ns, al := perCall(op)
		r.set(name+"_ns", ns)
		r.set(name+"_allocs", al)
	}
	chain := func(layer *workflow.ExecLayer) llm.Model {
		var m llm.Model = llm.WithFaults(resil.Wrap(rec, resil.Policy{}), llm.FaultPlan{})
		m = llm.NewCounting(workflow.NewBudgeted(m, workflow.Unlimited()))
		return layer.Wrap(workflow.NewAttributing(m, workflow.NewAttribution()))
	}
	warm := func(m llm.Model) llm.Model {
		for i := range reqs {
			call(m)(i)
		}
		return m
	}
	// missing wraps a fresh layer around each pass over the prompts, so
	// every call misses the cache and leads its own flight.
	missing := func(wrap func(*workflow.ExecLayer) llm.Model) func(int) {
		var op func(int)
		return func(i int) {
			if i%len(reqs) == 0 {
				op = call(wrap(workflow.NewExecLayer()))
			}
			op(i)
		}
	}

	put("workflow.budget", call(workflow.NewBudgeted(rec, workflow.Unlimited())))
	put("llm.counting", call(llm.NewCounting(rec)))
	put("workflow.attribution", call(workflow.NewAttributing(rec, workflow.NewAttribution())))
	put("workflow.cache_hit", call(warm(workflow.NewExecLayer().Wrap(rec))))
	put("workflow.miss", missing(func(l *workflow.ExecLayer) llm.Model { return l.Wrap(rec) }))
	put("resil.passthrough", call(resil.Wrap(rec, resil.Policy{})))
	put("llm.faults_passthrough", call(llm.WithFaults(rec, llm.FaultPlan{})))
	put("workflow.stack_hit", call(warm(chain(workflow.NewExecLayer()))))
	put("workflow.stack_miss", missing(chain))

	// The batcher packs 8 concurrent unit tasks into one envelope, which
	// a canned reply with 8 sections answers.
	const width = 8
	var reply strings.Builder
	for k := 1; k <= width; k++ {
		fmt.Fprintf(&reply, "### Task %d\nyes\n", k)
	}
	canned := llm.Func{ModelName: modelName, Fn: func(_ context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: reply.String(), Model: modelName}, nil
	}}
	batcher := workflow.NewBatching(canned, workflow.BatchOptions{MaxBatch: width})
	var wg sync.WaitGroup
	ns, al := perCall(func(i int) {
		wg.Add(width)
		for k := 0; k < width; k++ {
			go func(req llm.Request) {
				defer wg.Done()
				_, _ = batcher.Complete(ctx, req)
			}(reqs[(i*width+k)%len(reqs)])
		}
		wg.Wait()
	})
	r.set("workflow.batch_ns_per_task", ns/width)
	r.set("workflow.batch_allocs_per_task", al/width)

	const fan = 64
	ns, _ = perCall(func(int) {
		_, _ = workflow.Map(ctx, fan, 8, func(_ context.Context, i int) (int, error) { return i, nil })
	})
	r.set("workflow.map_ns_per_task", ns/fan)
}

// setReplay times one job against a model that replays the tape, so the
// job costs executor, wrappers and embedding but no simulator time, and
// checks that the replayed tables equal the reference.
func setReplay(r *result, pl *pipeline.Pipeline, tp *tape, upstream llm.Model, in jobInput, ref reference, ec pipeline.ExecConfig) (*pipeline.Result, error) {
	replay := &replayModel{tape: tp, fallback: upstream}
	var times []float64
	var res *pipeline.Result
	for rep := 0; rep < replayReps; rep++ {
		cfg := ec
		cfg.Model, cfg.Exec, cfg.Registry = replay, workflow.NewExecLayer(), embed.NewRegistry()
		start := time.Now()
		var err error
		res, err = pl.Run(context.Background(), cfg, in.tables)
		if err != nil {
			return nil, fmt.Errorf("replay job: %w", err)
		}
		times = append(times, ms(time.Since(start)))
		if !reflect.DeepEqual(res.Tables, ref.tables) || !reflect.DeepEqual(res.Scalars, ref.scalars) {
			r.fail("replayed job's output differs from its reference run")
		}
	}
	if n := replay.misses.Load(); n > 0 {
		r.note("replay job: %d prompts missing from the tape went to the upstream", n)
	}
	r.set("pipeline.replay_job_ms", median(times))
	return res, nil
}

// replayReps is how many times the replay job runs.
const replayReps = 7

// setCompile times Compile of the optimized restaurant spec.
func setCompile(r *result) error {
	spec, _, err := pipeline.Optimize(restaurantSpec())
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	ns, _ := perCall(func(int) { _, _ = pipeline.Compile(spec) })
	r.set("pipeline.compile_us", ns/1e3)
	return nil
}

// setCacheLog persists one job's cache through a cache log and times
// replaying it into a fresh execution layer.
func setCacheLog(r *result, pl *pipeline.Pipeline, upstream llm.Model, in jobInput, dir string) error {
	state := filepath.Join(dir, "cachelog")
	layer := workflow.NewExecLayer()
	if _, err := layer.OpenState(state); err != nil {
		return fmt.Errorf("cache log: %w", err)
	}
	if _, err := pl.Run(context.Background(), pipeline.ExecConfig{Model: upstream, Exec: layer}, in.tables); err != nil {
		return fmt.Errorf("cache log job: %w", err)
	}
	if _, err := layer.FlushState(); err != nil {
		return fmt.Errorf("cache log flush: %w", err)
	}
	if err := layer.CloseState(); err != nil {
		return fmt.Errorf("cache log close: %w", err)
	}
	var times []float64
	var records int
	for rep := 0; rep < 5; rep++ {
		fresh := workflow.NewExecLayer()
		start := time.Now()
		st, err := fresh.OpenState(state)
		if err != nil {
			return fmt.Errorf("cache log replay: %w", err)
		}
		times = append(times, ms(time.Since(start)))
		records = st.Records
		if err := fresh.CloseState(); err != nil {
			return fmt.Errorf("cache log close: %w", err)
		}
	}
	r.set("workflow.cachelog_replay_ms", median(times))
	r.set("workflow.cachelog_records", float64(records))
	return nil
}
