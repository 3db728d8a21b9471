package workflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/token"
)

// gatedModel blocks every upstream call until release is closed, so a test
// can guarantee N requests are simultaneously in flight.
func gatedModel(calls *atomic.Int64, release <-chan struct{}) llm.Model {
	return llm.Func{
		ModelName: "gated",
		Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			calls.Add(1)
			<-release
			return llm.Response{
				Text:  "echo:" + req.Prompt,
				Model: "gated",
				Usage: token.Usage{PromptTokens: 1, CompletionTokens: 1, Calls: 1},
			}, nil
		},
	}
}

// TestCoalescingCollapsesIdenticalConcurrent is the headline guarantee:
// N identical concurrent requests issue exactly one upstream call.
func TestCoalescingCollapsesIdenticalConcurrent(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	layer := NewExecLayer()
	c := layer.Wrap(gatedModel(&calls, release))
	ctx := context.Background()

	const n = 8
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		texts     []string
		usedCalls int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Complete(ctx, llm.Request{Prompt: "same"})
			if err != nil {
				t.Errorf("complete: %v", err)
				return
			}
			mu.Lock()
			texts = append(texts, resp.Text)
			usedCalls += resp.Usage.Calls
			mu.Unlock()
		}()
	}
	// Wait until the leader is inside the upstream call, give followers
	// time to pile onto the flight, then release.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("upstream calls = %d, want 1", calls.Load())
	}
	if layer.Stats().Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", layer.Stats().Coalesced, n-1)
	}
	for _, text := range texts {
		if text != "echo:same" {
			t.Fatalf("follower text = %q", text)
		}
	}
	// Exactly one caller (the leader) carries the usage of the real call.
	if usedCalls != 1 {
		t.Fatalf("summed usage calls = %d, want 1 (followers must be free)", usedCalls)
	}
}

func TestCoalescingKeepsDistinctRequestsApart(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	close(release)
	layer := NewExecLayer()
	c := layer.Wrap(gatedModel(&calls, release))
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("p%d", i)}); err != nil {
				t.Errorf("complete: %v", err)
			}
		}(i)
	}
	// Seed-distinct sampling requests must also stay apart.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Complete(ctx, llm.Request{Prompt: "sample", Temperature: 0.7, Seed: int64(i)}); err != nil {
				t.Errorf("complete: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if calls.Load() != 7 {
		t.Fatalf("upstream calls = %d, want 7", calls.Load())
	}
}

func TestCoalescingSharesLeaderError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	release := make(chan struct{})
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		<-release
		return llm.Response{}, boom
	}}
	layer := NewExecLayer()
	c := layer.Wrap(inner)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Complete(ctx, llm.Request{Prompt: "p"})
		}(i)
	}
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want boom", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("upstream calls = %d, want 1", calls.Load())
	}
}

// TestCoalescingFollowerSurvivesLeaderCancellation: a cancelled leader
// must not poison followers from live sessions — the follower retries
// under its own context and becomes the new leader.
func TestCoalescingFollowerSurvivesLeaderCancellation(t *testing.T) {
	var calls atomic.Int64
	leaderIn := make(chan struct{}, 2)
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		leaderIn <- struct{}{}
		select {
		case <-ctx.Done():
			return llm.Response{}, fmt.Errorf("upstream: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
			return llm.Response{Text: "ok", Model: "m", Usage: token.Usage{Calls: 1}}, nil
		}
	}}
	layer := NewExecLayer()
	c := layer.Wrap(inner)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Complete(leaderCtx, llm.Request{Prompt: "p"})
		leaderErr <- err
	}()
	<-leaderIn // leader is inside the upstream call

	followerDone := make(chan error, 1)
	var followerResp llm.Response
	go func() {
		var err error
		followerResp, err = c.Complete(context.Background(), llm.Request{Prompt: "p"})
		followerDone <- err
	}()
	for layer.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want its own cancellation", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("follower err = %v, want retry success", err)
	}
	if followerResp.Text != "ok" {
		t.Fatalf("follower text = %q", followerResp.Text)
	}
	if calls.Load() != 2 {
		t.Fatalf("upstream calls = %d, want 2 (dead leader + follower retry)", calls.Load())
	}
}

func TestCoalescingFollowerHonoursOwnContext(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	layer := NewExecLayer()
	c := layer.Wrap(gatedModel(&calls, release))

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Complete(context.Background(), llm.Request{Prompt: "p"})
		leaderErr <- err
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	followerCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Complete(followerCtx, llm.Request{Prompt: "p"})
		done <- err
	}()
	for layer.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled follower still blocked on the flight")
	}
}

// TestExecLayerUpstreamOncePerKey pins the memo contract: upstream calls
// equal distinct keys, however callers interleave with a flight's end. A
// hook holds the first leader between its upstream call's return and the
// answer's publication while identical asks pile up; the rounds after
// that race many asks per key against leaders that yield at that point.
func TestExecLayerUpstreamOncePerKey(t *testing.T) {
	var calls atomic.Int64
	upstream := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls.Add(1)
		return llm.Response{Text: "echo:" + req.Prompt, Model: "m", Usage: token.Usage{Calls: 1}}, nil
	}}

	layer := NewExecLayer()
	held, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	layer.leaderHook = func() {
		if first.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
	}
	m := layer.Wrap(upstream)
	var wg sync.WaitGroup
	ask := func() {
		defer wg.Done()
		if resp, err := m.Complete(context.Background(), llm.Request{Prompt: "p"}); err != nil || resp.Text != "echo:p" {
			t.Errorf("ask = (%q, %v)", resp.Text, err)
		}
	}
	wg.Add(1)
	go ask()
	<-held
	const n = 8
	wg.Add(n)
	for i := 0; i < n; i++ {
		go ask()
	}
	for layer.Stats().Coalesced < n {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	wg.Add(n)
	for i := 0; i < n; i++ {
		go ask()
	}
	wg.Wait()
	if s := layer.Stats(); calls.Load() != 1 || s.Coalesced != n || s.CacheHits != n {
		t.Fatalf("calls = %d, stats %+v; want 1 call, %d followers, %d hits", calls.Load(), s, n, n)
	}

	const keys, asksPerKey = 4, 16
	for round := 0; round < 200; round++ {
		calls.Store(0)
		layer := NewExecLayer()
		layer.leaderHook = runtime.Gosched
		m := layer.Wrap(upstream)
		wg.Add(keys * asksPerKey)
		for i := 0; i < keys*asksPerKey; i++ {
			go func(i int) {
				defer wg.Done()
				if _, err := m.Complete(context.Background(), llm.Request{Prompt: fmt.Sprintf("k%d", i%keys)}); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		if calls.Load() != keys {
			t.Fatalf("round %d: upstream calls = %d for %d distinct keys", round, calls.Load(), keys)
		}
	}
}
