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
// envelope, and in which order, is a function of the input alone: the
// BENCH optimized materialized configuration, run 50 times at each of
// GOMAXPROCS 1, 2 and 4, issues identical envelope prompts, envelope and
// solo-retry counts, calls and tokens. (Streaming runs are not pinned:
// their micro-batch boundaries follow how far the upstream stage has
// got, see pipeline's nextChunk.)
func TestBatchCompositionDeterministic(t *testing.T) {
	spec, tables := benchWorkload()
	optimized, _, err := pipeline.Optimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.Compile(optimized)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.ExecConfig{Parallelism: 16, Batch: 8, Materialized: true}
	run := func(cfg pipeline.ExecConfig) batchFingerprint {
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
	want := run(cfg)
	if want.Batches == 0 {
		t.Fatal("no envelopes issued; the pin would be vacuous")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 50; i++ {
			if got := run(cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS %d, run %d: batching diverged\n got %s\nwant %s",
					procs, i, summary(got), summary(want))
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
