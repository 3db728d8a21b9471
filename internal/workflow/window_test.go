package workflow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/quality"
)

// envelopeLog wraps envelopeModel and records every envelope prompt it
// receives.
type envelopeLog struct {
	calls atomic.Int64
	model llm.Model

	mu        sync.Mutex
	envelopes []string
}

func newEnvelopeLog(mangle func(string) string) *envelopeLog {
	l := &envelopeLog{}
	inner := envelopeModel(&l.calls, mangle)
	l.model = llm.Func{ModelName: "env", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.HasPrefix(req.Prompt, "Below are ") {
			l.mu.Lock()
			l.envelopes = append(l.envelopes, req.Prompt)
			l.mu.Unlock()
		}
		return inner.Complete(ctx, req)
	}}
	return l
}

// sorted returns the recorded envelopes in a stable order.
func (l *envelopeLog) sorted() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), l.envelopes...)
	sort.Strings(out)
	return out
}

// finishes fails the test if fn does not return within a generous bound:
// every window test must terminate, whatever the schedule.
func finishes(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("fan-out still blocked after 20s: a batch window never flushed")
	}
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// taskPrompts returns the unit prompts "task 00\n" ... for indices lo..hi-1.
func taskPrompts(lo, hi int) []string {
	var ps []string
	for i := lo; i < hi; i++ {
		ps = append(ps, fmt.Sprintf("task %02d\n", i))
	}
	return ps
}

// TestWindowStragglersRideTogether pins the release-before-wake rule: a
// fan-out twice as wide as its parallelism packs into exactly two full
// envelopes, tasks 0-7 and 8-15, on every run. Had a woken waiter
// unparked itself, a task launched into the first freed slot would see
// its still-sleeping co-riders as parked and flush alone.
func TestWindowStragglersRideTogether(t *testing.T) {
	want := []string{prompt.TaskBatch(taskPrompts(0, 8)), prompt.TaskBatch(taskPrompts(8, 16))}
	for rep := 0; rep < 50; rep++ {
		log := newEnvelopeLog(nil)
		b := NewBatching(log.model, BatchOptions{MaxBatch: 8})
		var out []string
		finishes(t, func() {
			var err error
			out, err = Map(context.Background(), 16, 8, func(ctx context.Context, i int) (string, error) {
				resp, err := b.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("task %02d\n", i)})
				return resp.Text, err
			})
			if err != nil {
				t.Error(err)
			}
		})
		for i, text := range out {
			if w := fmt.Sprintf("ans:task %02d", i); text != w {
				t.Fatalf("rep %d: task %d answer = %q, want %q", rep, i, text, w)
			}
		}
		if got := log.sorted(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] || log.calls.Load() != 2 {
			t.Fatalf("rep %d: %d upstream calls, envelopes %q; want exactly %q", rep, log.calls.Load(), got, want)
		}
	}
}

// TestWindowSectionOrderFollowsPrompts: the envelope's sections are
// ordered by prompt, not by which task queued first.
func TestWindowSectionOrderFollowsPrompts(t *testing.T) {
	log := newEnvelopeLog(nil)
	b := NewBatching(log.model, BatchOptions{MaxBatch: 8})
	finishes(t, func() {
		_, err := Map(context.Background(), 4, 4, func(ctx context.Context, i int) (string, error) {
			// Later tasks carry earlier prompts.
			_, err := b.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("task %02d\n", 3-i)})
			return "", err
		})
		if err != nil {
			t.Error(err)
		}
	})
	if got, want := log.sorted(), []string{prompt.TaskBatch(taskPrompts(0, 4))}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("envelopes = %q, want %q", got, want)
	}
}

// TestWindowParallelismOneNeverPacks: with one task at a time, every
// task is the whole window, so each is issued verbatim at once.
func TestWindowParallelismOneNeverPacks(t *testing.T) {
	log := newEnvelopeLog(nil)
	b := NewBatching(log.model, BatchOptions{MaxBatch: 8})
	var out []string
	finishes(t, func() {
		var err error
		out, err = Map(context.Background(), 5, 1, func(ctx context.Context, i int) (string, error) {
			resp, err := b.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("task %02d\n", i)})
			return resp.Text, err
		})
		if err != nil {
			t.Error(err)
		}
	})
	for i, text := range out {
		if w := fmt.Sprintf("ans:task %02d", i); text != w {
			t.Fatalf("task %d answer = %q, want %q", i, text, w)
		}
	}
	if batches, _, _ := b.Stats(); log.calls.Load() != 5 || batches != 0 {
		t.Fatalf("calls = %d, envelopes = %d; want 5 verbatim calls", log.calls.Load(), batches)
	}
}

// TestWindowTwinPromptsShareOneSection: twin prompts in one window meet
// in the execution layer first; the followers park, and the envelope
// carries each distinct prompt once.
func TestWindowTwinPromptsShareOneSection(t *testing.T) {
	log := newEnvelopeLog(nil)
	layer := NewExecLayer()
	b := NewBatching(log.model, BatchOptions{MaxBatch: 8, Observer: layer})
	m := layer.Wrap(b)
	var out []string
	finishes(t, func() {
		var err error
		out, err = Map(context.Background(), 6, 6, func(ctx context.Context, i int) (string, error) {
			resp, err := m.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("task %02d\n", i%3)})
			return resp.Text, err
		})
		if err != nil {
			t.Error(err)
		}
	})
	for i, text := range out {
		if w := fmt.Sprintf("ans:task %02d", i%3); text != w {
			t.Fatalf("task %d answer = %q, want %q", i, text, w)
		}
	}
	if got, want := log.sorted(), prompt.TaskBatch(taskPrompts(0, 3)); len(got) != 1 || got[0] != want {
		t.Fatalf("envelopes = %q, want one of the 3 distinct prompts", got)
	}
	if s := layer.Stats(); log.calls.Load() != 1 || s.Coalesced+s.CacheHits != 3 {
		t.Fatalf("calls = %d, stats %+v; want 1 envelope and 3 free twins", log.calls.Load(), s)
	}
}

// TestWindowReaskAfterParseFailure: a task whose batched answer fails to
// parse re-asks through quality.AskWithRetry (at a new temperature, so a
// new compatibility group) after its co-riders finished; the re-ask is
// the window's only live task and goes out at once, verbatim.
func TestWindowReaskAfterParseFailure(t *testing.T) {
	log := newEnvelopeLog(func(text string) string {
		return strings.Replace(text, "ans:task 02", "garbled", 1)
	})
	b := NewBatching(log.model, BatchOptions{MaxBatch: 8})
	parse := func(s string) (string, error) {
		if s == "garbled" {
			return "", errors.New("unparseable")
		}
		return s, nil
	}
	var out []string
	finishes(t, func() {
		var err error
		out, err = Map(context.Background(), 4, 4, func(ctx context.Context, i int) (string, error) {
			return quality.AskWithRetry(ctx, b, fmt.Sprintf("task %02d\n", i), parse, 3)
		})
		if err != nil {
			t.Error(err)
		}
	})
	for i, text := range out {
		if w := fmt.Sprintf("ans:task %02d", i); text != w {
			t.Fatalf("task %d answer = %q, want %q", i, text, w)
		}
	}
	if batches, packed, retried := b.Stats(); log.calls.Load() != 2 || batches != 1 || packed != 4 || retried != 0 {
		t.Fatalf("calls = %d, stats %d/%d/%d; want 1 envelope of 4 plus 1 verbatim re-ask",
			log.calls.Load(), batches, packed, retried)
	}
}

// TestWindowCancelMidWindow: cancelling a fan-out while its envelope is in
// flight and more tasks wait to launch returns the cancellation, hangs
// nothing and leaks no goroutine.
func TestWindowCancelMidWindow(t *testing.T) {
	base := runtime.NumGoroutine()
	var once sync.Once
	inFlight := make(chan struct{})
	inner := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.HasPrefix(req.Prompt, "Below are ") {
			once.Do(func() { close(inFlight) })
			<-ctx.Done()
			return llm.Response{}, ctx.Err()
		}
		return llm.Response{Text: "ok", Model: "m"}, nil
	}}
	b := NewBatching(inner, BatchOptions{MaxBatch: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-inFlight
		cancel()
	}()
	finishes(t, func() {
		_, err := Map(ctx, 12, 4, func(ctx context.Context, i int) (string, error) {
			resp, err := b.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("task %02d\n", i)})
			return resp.Text, err
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want the cancellation", err)
		}
	})
	settleGoroutines(t, base)
}

// TestWindowAbandonedTasksNeverReachUpstream: tasks whose context ends
// while they wait in a forming batch leave it, so nothing is sent for
// them.
func TestWindowAbandonedTasksNeverReachUpstream(t *testing.T) {
	base := runtime.NumGoroutine()
	log := newEnvelopeLog(nil)
	b := NewBatching(log.model, BatchOptions{MaxBatch: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	finishes(t, func() {
		_, err := Map(ctx, 4, 4, func(ctx context.Context, i int) (string, error) {
			if i == 0 {
				// Running, never parked, task 0 holds the window open
				// until its co-riders have queued and then left.
				for queued(ctx) < 3 {
					time.Sleep(time.Millisecond)
				}
				cancel()
				for queued(ctx) > 0 {
					time.Sleep(time.Millisecond)
				}
				return "", ctx.Err()
			}
			resp, err := b.Complete(ctx, llm.Request{Prompt: fmt.Sprintf("task %02d\n", i)})
			return resp.Text, err
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want the cancellation", err)
		}
	})
	settleGoroutines(t, base)
	if n := log.calls.Load(); n != 0 {
		t.Fatalf("upstream calls = %d, want none for abandoned tasks", n)
	}
}

// queued reports how many unit tasks wait in the forming batch of ctx's
// window.
func queued(ctx context.Context) int {
	w := windowFrom(ctx)
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// TestWindowlessCallNeverWaits: a call whose context carries no window
// goes upstream verbatim at once, even while a window of the same
// batcher holds a forming batch.
func TestWindowlessCallNeverWaits(t *testing.T) {
	log := newEnvelopeLog(nil)
	b := NewBatching(log.model, BatchOptions{MaxBatch: 8})
	release := make(chan struct{})
	var fanOut sync.WaitGroup
	fanOut.Add(1)
	go func() {
		defer fanOut.Done()
		_, _ = Map(context.Background(), 2, 2, func(ctx context.Context, i int) (string, error) {
			if i == 1 {
				<-release // keeps task 0's batch forming
				return "", nil
			}
			_, err := b.Complete(ctx, llm.Request{Prompt: "task 00\n"})
			return "", err
		})
	}()
	finishes(t, func() {
		resp, err := b.Complete(context.Background(), llm.Request{Prompt: "task 99\n"})
		if err != nil || resp.Text != "ans:task 99" {
			t.Errorf("windowless call = (%q, %v)", resp.Text, err)
		}
	})
	close(release)
	fanOut.Wait()
	if batches, _, _ := b.Stats(); batches != 0 || log.calls.Load() != 2 {
		t.Fatalf("envelopes = %d, calls = %d; want 2 verbatim calls", batches, log.calls.Load())
	}
}

// TestWindowNestedMap: fan-outs nest. Inner tasks ask both fresh prompts
// and twins of prompts the outer tasks have queued, so inner followers
// wait on outer batches; a task whose inner window is quiet counts as
// parked in the outer one, so neither window waits on the other forever.
func TestWindowNestedMap(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		log := newEnvelopeLog(nil)
		m := NewExecLayer().Wrap(NewBatching(log.model, BatchOptions{MaxBatch: 8}))
		ask := func(ctx context.Context, p string) error {
			resp, err := m.Complete(ctx, llm.Request{Prompt: p + "\n"})
			if err == nil && resp.Text != "ans:"+p {
				err = fmt.Errorf("answer %q for %q", resp.Text, p)
			}
			return err
		}
		finishes(t, func() {
			_, err := Map(context.Background(), 3, 3, func(ctx context.Context, i int) (string, error) {
				if i == 2 {
					if err := ask(ctx, "outer 2"); err != nil {
						return "", err
					}
				}
				_, err := Map(ctx, 3, 2, func(ctx context.Context, j int) (string, error) {
					if err := ask(ctx, fmt.Sprintf("inner %d", j)); err != nil {
						return "", err
					}
					return "", ask(ctx, fmt.Sprintf("outer %d", j))
				})
				if err != nil {
					return "", err
				}
				return "", ask(ctx, fmt.Sprintf("after %d", i))
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}
