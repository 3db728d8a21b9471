package pipeline

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/llm/sim"
)

// isEnvelope reports whether p is a prompt.TaskBatch envelope.
func isEnvelope(p string) bool { return strings.HasPrefix(p, "Below are ") }

// keepSpec is a one-filter pipeline over the flavor table.
func keepSpec(t *testing.T) *Pipeline {
	t.Helper()
	p, err := Compile(Spec{Stages: []StageSpec{{Name: "keep", Kind: KindFilter, Field: "name", Predicate: "it is a chocolatey flavor"}}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatchedFilterEnvelopesInFlight: Parallelism counts envelopes, so a
// batched filter over 15 records at Batch 8 sends both of its envelopes
// (8 and 7 tasks) in one round trip. The model holds each envelope until
// the other is in flight too; a fan-out that admits only 8 tasks at once
// issues them one after the other and trips the timeout.
func TestBatchedFilterEnvelopesInFlight(t *testing.T) {
	upstream := sim.NewNamed("sim-gpt-3.5-turbo")
	var inFlight atomic.Int32
	both := make(chan struct{})
	var once sync.Once
	model := llm.Func{ModelName: upstream.Name(), Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if isEnvelope(req.Prompt) {
			if inFlight.Add(1) == 2 {
				once.Do(func() { close(both) })
			}
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				once.Do(func() {
					t.Error("the filter's second envelope never joined the first: envelopes were serialized")
					close(both)
				})
			case <-ctx.Done():
				return llm.Response{}, ctx.Err()
			}
		}
		return upstream.Complete(ctx, req)
	}}
	if _, err := keepSpec(t).Run(context.Background(), ExecConfig{Model: model, Batch: 8}, flavorTables(15)); err != nil {
		t.Fatal(err)
	}
	if got := inFlight.Load(); got != 2 {
		t.Fatalf("envelopes = %d, want 2 (15 tasks at Batch 8)", got)
	}
}

// TestBatchedFilterOneChunkEnvelopes: the static source is pre-buffered
// before any stage starts, so a source that fits one default-width chunk
// reaches the filter as one chunk, and the filter issues exactly
// ceil(distinct prompts / 8) envelopes on every run — never a split
// chunk's extra envelope.
func TestBatchedFilterOneChunkEnvelopes(t *testing.T) {
	p := keepSpec(t)
	for i := 0; i < 100; i++ {
		n := []int{15, 20}[i%2]
		var envelopes atomic.Int32
		upstream := sim.NewNamed("sim-gpt-3.5-turbo")
		model := llm.Func{ModelName: upstream.Name(), Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if isEnvelope(req.Prompt) {
				envelopes.Add(1)
			}
			return upstream.Complete(ctx, req)
		}}
		if _, err := p.Run(context.Background(), ExecConfig{Model: model, Batch: 8}, flavorTables(n)); err != nil {
			t.Fatal(err)
		}
		if got, want := int(envelopes.Load()), (n+7)/8; got != want {
			t.Fatalf("run %d: %d records issued %d envelopes, want %d", i, n, got, want)
		}
	}
}

// TestChunkBoundariesDeterministic pins that every chunk boundary is a
// function of the input: a filter feeding a streaming categorize over the
// 20 flavors gives the same calls, tokens and envelope prompts on every
// run at GOMAXPROCS 1, 2 and 4 — at Parallelism 4 and Batch 8 (width 32,
// one source chunk) and at Parallelism 2 and Batch 4 (width 8, source
// chunks of 8, 8 and 4). A consumer that topped its chunks up with
// whatever its upstream had buffered would pack the categorize envelopes
// differently depending on how far the filter had got.
func TestChunkBoundariesDeterministic(t *testing.T) {
	p, err := Compile(Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Field: "name", Predicate: "it is a chocolatey flavor"},
		{Name: "cat", Kind: KindCategorize, Field: "name", Categories: []string{"fruity", "nutty", "sweet"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tables := flavorTables(40)
	type fingerprint struct {
		calls, tokens int
		envelopes     []string
	}
	run := func(cfg ExecConfig) fingerprint {
		var mu sync.Mutex
		var envelopes []string
		upstream := sim.NewNamed("sim-gpt-3.5-turbo")
		counting := llm.NewCounting(llm.Func{ModelName: upstream.Name(), Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if isEnvelope(req.Prompt) {
				mu.Lock()
				envelopes = append(envelopes, req.Prompt)
				mu.Unlock()
			}
			return upstream.Complete(ctx, req)
		}})
		cfg.Model = counting
		if _, err := p.Run(context.Background(), cfg, tables); err != nil {
			t.Fatal(err)
		}
		sort.Strings(envelopes)
		u := counting.Total()
		return fingerprint{calls: u.Calls, tokens: u.Total(), envelopes: envelopes}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []ExecConfig{{Parallelism: 4, Batch: 8}, {Parallelism: 2, Batch: 4}} {
		runtime.GOMAXPROCS(2)
		want := run(cfg)
		if len(want.envelopes) == 0 {
			t.Fatal("no envelopes issued; the pin would be vacuous")
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < 300; i++ {
				if got := run(cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("Parallelism %d Batch %d, GOMAXPROCS %d, run %d: %d calls / %d tokens / %d envelopes, want %d / %d / %d (or the envelope prompts differ)",
						cfg.Parallelism, cfg.Batch, procs, i, got.calls, got.tokens, len(got.envelopes), want.calls, want.tokens, len(want.envelopes))
				}
			}
		}
	}
}
