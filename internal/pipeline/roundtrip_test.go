package pipeline

import (
	"context"
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
