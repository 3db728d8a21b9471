package workflow

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/llm"
	"repro/internal/token"
)

// echoModel answers every prompt with a deterministic transform and counts
// upstream calls.
func echoModel(name string, calls *atomic.Int64) llm.Model {
	return llm.Func{
		ModelName: name,
		Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			calls.Add(1)
			return llm.Response{
				Text:  "echo:" + req.Prompt,
				Model: name,
				Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1},
			}, nil
		},
	}
}

func TestCacheSpreadsAcrossShards(t *testing.T) {
	c := NewCache(8)
	for i := 0; i < 200; i++ {
		c.put(cacheKey{model: "m", prompt: fmt.Sprintf("p%d", i)}, llm.Response{Text: "x"})
	}
	populated := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		if len(c.shards[i].entries) > 0 {
			populated++
		}
		c.shards[i].mu.RUnlock()
	}
	if populated < 2 {
		t.Fatalf("200 keys landed in %d shard(s); hashing is not spreading", populated)
	}
	if size, _ := c.Stats(); size != 200 {
		t.Fatalf("size = %d, want 200", size)
	}
}

// TestCacheConcurrentAccess hammers one shared layer from many goroutines
// with overlapping keys: every prompt is answered upstream exactly once,
// and every other ask is a hit or a coalesced follower. Run under -race
// this is the concurrency-safety proof for the sharded memo.
func TestCacheConcurrentAccess(t *testing.T) {
	var calls atomic.Int64
	layer := NewExecLayer()
	const workers, prompts, asks = 16, 10, 50
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := layer.Wrap(echoModel("m", &calls))
			for i := 0; i < asks; i++ {
				p := fmt.Sprintf("prompt-%d", i%prompts)
				resp, err := m.Complete(ctx, llm.Request{Prompt: p})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if resp.Text != "echo:"+p {
					t.Errorf("worker %d: got %q", w, resp.Text)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := calls.Load(); n != prompts {
		t.Fatalf("upstream calls = %d, want %d (one per distinct prompt)", n, prompts)
	}
	st := layer.Stats()
	if st.CacheSize != prompts {
		t.Fatalf("cache size = %d, want %d", st.CacheSize, prompts)
	}
	if total := int64(workers * asks); int64(st.CacheHits+st.Coalesced)+calls.Load() != total {
		t.Fatalf("hits (%d) + coalesced (%d) + upstream (%d) != requests (%d)", st.CacheHits, st.Coalesced, calls.Load(), total)
	}
}

// TestSharedCacheSpansModels: one layer wrapping two models keeps their
// entries apart by model name and serves each model's repeats.
func TestSharedCacheSpansModels(t *testing.T) {
	var calls atomic.Int64
	layer := NewExecLayer()
	ctx := context.Background()
	a := layer.Wrap(echoModel("model-a", &calls))
	b := layer.Wrap(echoModel("model-b", &calls))
	if _, err := a.Complete(ctx, llm.Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	// Different model name: the shared store must keep the entries apart.
	if _, err := b.Complete(ctx, llm.Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct models must not share entries: calls = %d, want 2", calls.Load())
	}
	// Same model again: served from the shared cache.
	if _, err := a.Complete(ctx, llm.Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("repeat should hit shared cache: calls = %d, want 2", calls.Load())
	}
}
