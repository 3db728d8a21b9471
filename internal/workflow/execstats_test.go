package workflow

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
)

// TestExecStatsDuringBatchedRun hammers ExecLayer.Stats while a batched
// workload is in flight: Stats is documented as safe under concurrent
// use, and every counter (cache, coalescer, batch observer) must be
// independently synchronized. Run with -race in CI.
func TestExecStatsDuringBatchedRun(t *testing.T) {
	var calls atomic.Int64
	layer := NewExecLayer()
	batcher := NewBatching(envelopeModel(&calls, nil), BatchOptions{MaxBatch: 4, Observer: layer})
	m := layer.Wrap(batcher)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for p := 0; p < 4; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := layer.Stats()
					if s.Batches < 0 || s.SoloRetries < 0 || s.CacheHits < 0 {
						t.Error("negative counter in mid-run stats snapshot")
						return
					}
				}
			}
		}()
	}

	_, err := Map(context.Background(), 64, 16, func(ctx context.Context, i int) (struct{}, error) {
		// Half the prompts repeat, so the cache-hit and coalescing
		// counters move too, not just the batch observer.
		prompt := fmt.Sprintf("task %d\nbody\n", i%32)
		_, err := m.Complete(ctx, llm.Request{Prompt: prompt})
		return struct{}{}, err
	})
	close(stop)
	pollers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	s := layer.Stats()
	if s.Batches == 0 {
		t.Fatalf("batched run reported no envelopes through the observer: %+v", s)
	}
	batches, packed, _ := batcher.Stats()
	if s.Batches != batches {
		t.Fatalf("layer batches %d != batcher batches %d", s.Batches, batches)
	}
	if packed == 0 {
		t.Fatalf("no unit tasks rode in an envelope: %+v", s)
	}
}
