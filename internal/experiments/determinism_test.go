package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
	"repro/internal/workflow"
)

// envelopeRecorder passes calls through and records every envelope
// prompt (prompt.TaskBatch) it sees.
type envelopeRecorder struct {
	inner llm.Model

	mu        sync.Mutex
	envelopes []string
}

func (r *envelopeRecorder) Name() string { return r.inner.Name() }

func (r *envelopeRecorder) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if strings.HasPrefix(req.Prompt, "Below are ") {
		r.mu.Lock()
		r.envelopes = append(r.envelopes, req.Prompt)
		r.mu.Unlock()
	}
	return r.inner.Complete(ctx, req)
}

// batchFingerprint is everything one run's batching decided.
type batchFingerprint struct {
	Envelopes              []string
	Batches, SoloRetries   int
	Calls, PromptTokens    int
	CompletionTokens, Hits int
}

// TestBatchCompositionDeterministic pins that which unit tasks share an
// envelope, and in which order, is a function of the input alone. Three
// batched plans over the BENCH workload — barrier stages only (its
// resolve, then a per-item count with its filter's predicate), the full
// streaming plan (resolve → filter → impute), and the same plan under
// Adaptive — each run 50 times at each of GOMAXPROCS 1, 2 and 4, issue
// identical envelope prompts, envelope and solo-retry counts, calls and
// tokens. Every chunk that reaches a streaming stage was cut from the
// input at the run's width, so its fan-outs are fixed by the input as
// well. (The sequential reference is not pinned here: it never batches.)
func TestBatchCompositionDeterministic(t *testing.T) {
	spec, tables := benchWorkload()
	resolve, filter := spec.Stages[0], spec.Stages[1]
	barrier := pipeline.Spec{Stages: []pipeline.StageSpec{resolve,
		{Name: "n", Kind: pipeline.KindCount, Input: resolve.Name, Field: filter.Field,
			Predicate: filter.Predicate, Strategy: "per-item"}}}
	cfg := pipeline.ExecConfig{Parallelism: 16, Batch: 8}
	adaptive := cfg
	adaptive.Adaptive = true
	run := func(p *pipeline.Pipeline, cfg pipeline.ExecConfig) batchFingerprint {
		rec := &envelopeRecorder{inner: sim.NewNamed("sim-gpt-3.5-turbo")}
		counting := llm.NewCounting(rec)
		cfg.Model, cfg.Exec = counting, workflow.NewExecLayer()
		if _, err := p.Run(context.Background(), cfg, tables); err != nil {
			t.Fatal(err)
		}
		sort.Strings(rec.envelopes)
		u, s := counting.Total(), cfg.Exec.Stats()
		return batchFingerprint{
			Envelopes: rec.envelopes, Batches: s.Batches, SoloRetries: s.SoloRetries,
			Calls: u.Calls, PromptTokens: u.PromptTokens, CompletionTokens: u.CompletionTokens,
			Hits: s.CacheHits + s.Coalesced,
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, plan := range []struct {
		name string
		spec pipeline.Spec
		cfg  pipeline.ExecConfig
	}{
		{"barrier", barrier, cfg},
		{"streaming", spec, cfg},
		{"adaptive", spec, adaptive},
	} {
		p, err := pipeline.Compile(plan.spec)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(2)
		want := run(p, plan.cfg)
		if want.Batches == 0 {
			t.Fatalf("%s: no envelopes issued; the pin would be vacuous", plan.name)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < 50; i++ {
				if got := run(p, plan.cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s plan, GOMAXPROCS %d, run %d: batching diverged\n got %s\nwant %s",
						plan.name, procs, i, summary(got), summary(want))
				}
			}
		}
	}
}

func summary(f batchFingerprint) string {
	return fmt.Sprintf("%d envelopes %d solo %d calls %d+%d tokens %d free; envelope sizes %v",
		f.Batches, f.SoloRetries, f.Calls, f.PromptTokens, f.CompletionTokens, f.Hits, envelopeSizes(f.Envelopes))
}

func envelopeSizes(envs []string) []int {
	var n []int
	for _, e := range envs {
		n = append(n, strings.Count(e, "\n### Task "))
	}
	return n
}
