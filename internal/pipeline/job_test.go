package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
)

// TestJobCancelNoLeak cancels a pipeline run after its first model call:
// Run must return the context error, and every stage goroutine must exit.
// Run with -race in CI.
func TestJobCancelNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	model := llm.Func{ModelName: "hang", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		once.Do(cancel)
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a"}},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx, ExecConfig{Model: model, Chunk: 1, Parallelism: 2}, flavorTables(6))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run's error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
