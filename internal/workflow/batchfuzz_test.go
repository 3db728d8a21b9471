package workflow

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// FuzzFaultyBatchReplies throws arbitrary envelope completions at the
// batcher — truncated mid-answer, renumbered or duplicated section
// headers, NUL-ridden garbage, empty strings — and asserts the
// degradation contract: no panic, no wedged waiter, and every unit task
// gets either a parsed section or a solo-retry answer computed from its
// original prompt. All four tasks share one prompt, so even though
// goroutine arrival order permutes which envelope slot each task lands
// in, the multiset of delivered answers is exactly determined by
// ParseTaskBatch on the fuzzed reply. This is the parse-and-retry path
// a llm.FaultPlan's malformed/wrong-section faults exercise, fuzzed
// directly at the reply boundary.
func FuzzFaultyBatchReplies(f *testing.F) {
	f.Add("### Task 1\nYes\n### Task 2\nNo\n### Task 3\nYes\n### Task 4\nNo\n")
	f.Add("### Task 1\nYes\n### Task 2\nNo, defi\x00<<truncated>>")
	f.Add("### Task 9001\nYes\n### Task 9002\nNo\n### Task 9003\nYes\n### Task 9004\nNo\n")
	f.Add("### Task 1\nfirst\n### Task 1\ndup\n### Task oops\norphan\n")
	f.Add("")
	f.Add("no sections at all, just prose")
	f.Add("### Task 2\nonly the middle\n")
	f.Add("### Task 1\n\n### Task 2\n\n### Task 3\n\n### Task 4\n\n")
	f.Fuzz(func(t *testing.T, reply string) {
		const n = 4
		inner := llm.Func{ModelName: "fuzz-upstream", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if strings.HasPrefix(req.Prompt, "Below are ") {
				return llm.Response{Text: reply, Model: "fuzz-upstream"}, nil
			}
			return llm.Response{Text: "solo:" + req.Prompt, Model: "fuzz-upstream"}, nil
		}}
		// The n tasks are one fan-out of width n, so they always ride one
		// envelope and the expected split is exactly ParseTaskBatch(reply, n).
		b := NewBatching(inner, BatchOptions{MaxBatch: n})

		const taskPrompt = "classify the fuzz probe record\n"
		texts := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = Map(context.Background(), n, n, func(ctx context.Context, i int) (struct{}, error) {
				resp, err := b.Complete(ctx, llm.Request{Prompt: taskPrompt})
				texts[i], errs[i] = resp.Text, err
				return struct{}{}, nil
			})
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("batcher wedged: waiters still blocked after 30s")
		}

		answers, _ := prompt.ParseTaskBatch(reply, n)
		want := make([]string, 0, n)
		for i := 0; i < n; i++ {
			if a, ok := answers[i]; ok {
				want = append(want, a)
			} else {
				want = append(want, "solo:"+taskPrompt)
			}
		}
		sort.Strings(want)
		for i := 0; i < n; i++ {
			if errs[i] != nil {
				t.Fatalf("task %d failed: %v (a garbled reply must degrade to a solo retry, not an error)", i, errs[i])
			}
		}
		got := append([]string(nil), texts...)
		sort.Strings(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivered answers %q, want %q (reply %q)", got, want, reply)
			}
		}
	})
}
