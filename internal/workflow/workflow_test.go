package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/llm"
	"repro/internal/token"
)

func fixedModel(name, text string) llm.Func {
	return llm.Func{
		ModelName: name,
		Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			return llm.Response{
				Text:  text,
				Model: name,
				Usage: token.Usage{PromptTokens: token.Count(req.Prompt), CompletionTokens: token.Count(text), Calls: 1},
			}, nil
		},
	}
}

func TestBudgetCharging(t *testing.T) {
	b := NewBudget(0, 100, 0)
	if err := b.Charge("sim-gpt-3.5-turbo", token.Usage{PromptTokens: 50, CompletionTokens: 10, Calls: 1}); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := b.Charge("sim-gpt-3.5-turbo", token.Usage{PromptTokens: 50, CompletionTokens: 10, Calls: 1})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	u, dollars := b.Spent()
	if u.Total() != 120 || dollars <= 0 {
		t.Fatalf("spent = %+v, $%f", u, dollars)
	}
	b.Reset()
	u, dollars = b.Spent()
	if !u.IsZero() || dollars != 0 {
		t.Fatal("Reset should zero accounting")
	}
}

func TestBudgetAllows(t *testing.T) {
	b := NewBudget(0, 0, 2)
	est := token.Usage{Calls: 1}
	if !b.Allows("m", est) {
		t.Fatal("fresh budget should allow")
	}
	b.Charge("m", token.Usage{Calls: 2})
	if b.Allows("m", est) {
		t.Fatal("full budget should refuse")
	}
	// Unlimited budget always allows.
	if !Unlimited().Allows("m", token.Usage{PromptTokens: 1 << 30, Calls: 1 << 30}) {
		t.Fatal("unlimited budget should allow anything")
	}
}

func TestBudgetDollarCap(t *testing.T) {
	token.RegisterPrice("exp-model", token.Price{InputPer1K: 1000, OutputPer1K: 1000})
	b := NewBudget(0.5, 0, 0)
	if b.Allows("exp-model", token.Usage{PromptTokens: 1000}) {
		t.Fatal("a $1000 call should not fit a $0.50 budget")
	}
}

func TestBudgetedModel(t *testing.T) {
	b := NewBudget(0, 0, 2)
	m := NewBudgeted(fixedModel("m", "hello"), b)
	if m.Name() != "m" {
		t.Fatal("name")
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Complete(context.Background(), llm.Request{Prompt: "hi"}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	_, err := m.Complete(context.Background(), llm.Request{Prompt: "hi"})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("third call should be refused, got %v", err)
	}
	u, _ := b.Spent()
	if u.Calls != 2 {
		t.Fatalf("calls = %d, refused call must not be charged", u.Calls)
	}
}

// TestCachedModel: a repeat ask through the memo wrapper ExecLayer.Wrap
// returns is served from the cache, free.
func TestCachedModel(t *testing.T) {
	var calls atomic.Int64
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		return llm.Response{Text: "v", Usage: token.Usage{PromptTokens: 1, Calls: 1}}, nil
	}}
	layer := NewExecLayer()
	c := layer.Wrap(inner)
	r1, err := c.Complete(context.Background(), llm.Request{Prompt: "p"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Complete(context.Background(), llm.Request{Prompt: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("inner calls = %d, want 1", calls.Load())
	}
	if r1.Text != r2.Text {
		t.Fatal("cached text must match")
	}
	if !r2.Usage.IsZero() {
		t.Fatal("cache hits must report zero usage")
	}
	if st := layer.Stats(); st.CacheSize != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want size 1 hits 1", st)
	}
}

func TestCachedModelSeedSeparation(t *testing.T) {
	var calls atomic.Int64
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		return llm.Response{Text: fmt.Sprintf("v%d", req.Seed)}, nil
	}}
	c := NewExecLayer().Wrap(inner)
	// Temperature > 0: different seeds are distinct requests.
	c.Complete(context.Background(), llm.Request{Prompt: "p", Temperature: 1, Seed: 1})
	c.Complete(context.Background(), llm.Request{Prompt: "p", Temperature: 1, Seed: 2})
	if calls.Load() != 2 {
		t.Fatalf("distinct seeds at temp>0 should miss the cache: calls = %d", calls.Load())
	}
	// Temperature 0: the seed is irrelevant; both map to one entry.
	c.Complete(context.Background(), llm.Request{Prompt: "q", Seed: 1})
	c.Complete(context.Background(), llm.Request{Prompt: "q", Seed: 2})
	if calls.Load() != 3 {
		t.Fatalf("temp-0 seeds should share a cache entry: calls = %d", calls.Load())
	}
}

func TestCachedModelDoesNotCacheErrors(t *testing.T) {
	var calls atomic.Int64
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if calls.Add(1) == 1 {
			return llm.Response{}, fmt.Errorf("transient")
		}
		return llm.Response{Text: "ok"}, nil
	}}
	c := NewExecLayer().Wrap(inner)
	if _, err := c.Complete(context.Background(), llm.Request{Prompt: "p"}); err == nil {
		t.Fatal("first call should fail")
	}
	r, err := c.Complete(context.Background(), llm.Request{Prompt: "p"})
	if err != nil || r.Text != "ok" {
		t.Fatalf("second call should succeed: %v %v", r, err)
	}
}

func TestMapCollectsInOrder(t *testing.T) {
	out, err := Map(context.Background(), 10, 4, func(ctx context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Map(context.Background(), 10, 2, func(ctx context.Context, i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel, got %v", err)
	}
}

func TestMapRespectsParallelism(t *testing.T) {
	var cur, max atomic.Int64
	_, err := Map(context.Background(), 30, 3, func(ctx context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		defer cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max.Load() > 3 {
		t.Fatalf("max concurrency = %d, want <= 3", max.Load())
	}
}

func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 5, 2, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(context.Background(), 0, 4, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("zero tasks: %v %v", out, err)
	}
}

func TestBudgetChargeAccumulatesProperty(t *testing.T) {
	f := func(charges []uint8) bool {
		b := Unlimited()
		var want int
		for _, c := range charges {
			b.Charge("m", token.Usage{PromptTokens: int(c), Calls: 1})
			want += int(c)
		}
		u, _ := b.Spent()
		return u.PromptTokens == want && u.Calls == len(charges)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBudgetedModelUnlimitedIsFree: an uncapped budget admits every call
// without estimating it, so the wrapper allocates nothing per call while
// Spent stays exact; a capped budget still estimates and refuses.
func TestBudgetedModelUnlimitedIsFree(t *testing.T) {
	resp := llm.Response{Text: "hello", Model: "m", Usage: token.Usage{PromptTokens: 3, CompletionTokens: 1, Calls: 1}}
	stub := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) { return resp, nil }}
	b := Unlimited()
	m := NewBudgeted(stub, b)
	ctx, req := context.Background(), llm.Request{Prompt: strings.Repeat("a unit task prompt of some words\n", 4)}
	runs := 0
	allocs := testing.AllocsPerRun(100, func() {
		runs++
		if _, err := m.Complete(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("uncapped BudgetedModel.Complete allocates %.1f per call, want 0", allocs)
	}
	want := 0.0
	for i := 0; i < runs; i++ {
		want += token.PriceFor("m").Cost(resp.Usage)
	}
	if u, dollars := b.Spent(); u.Calls != runs || u.PromptTokens != 3*runs || u.CompletionTokens != runs || dollars != want {
		t.Fatalf("spent = %+v, $%v after %d calls, want $%v", u, dollars, runs, want)
	}

	// A token cap below the prompt's estimate refuses before any call.
	capped := NewBudgeted(stub, NewBudget(0, 10, 0))
	if _, err := capped.Complete(ctx, llm.Request{Prompt: strings.Repeat("word ", 20)}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("capped budget admitted an over-cap call: %v", err)
	}
}
