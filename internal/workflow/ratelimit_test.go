package workflow

import (
	"context"
	"testing"
	"time"

	"repro/internal/llm"
)

// fakeClock drives a RateLimiter deterministically.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time { return c.t }

func newTestLimiter(rate float64, burst int) (*RateLimiter, *fakeClock) {
	l := NewRateLimiter(rate, burst)
	clock := &fakeClock{t: time.Unix(1000, 0)}
	l.now = clock.now
	l.last = clock.t
	l.sleep = func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		clock.t = clock.t.Add(d)
		return nil
	}
	return l, clock
}

func TestRateLimiterBurstThenRefill(t *testing.T) {
	l, clock := newTestLimiter(10, 3)
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("burst call %d refused", i)
		}
	}
	if l.Allow() {
		t.Fatal("burst exhausted; call should be refused")
	}
	// 100ms refills one token at 10/s.
	clock.t = clock.t.Add(100 * time.Millisecond)
	if !l.Allow() {
		t.Fatal("refilled token should be granted")
	}
	if l.Allow() {
		t.Fatal("only one token refilled")
	}
}

func TestRateLimiterWaitBlocksDeterministically(t *testing.T) {
	l, clock := newTestLimiter(100, 1)
	start := clock.t
	if err := l.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The second Wait must have advanced the (fake) clock ~10ms.
	if elapsed := clock.t.Sub(start); elapsed < 9*time.Millisecond {
		t.Fatalf("Wait did not pace: elapsed %v", elapsed)
	}
}

func TestRateLimiterWaitCancellation(t *testing.T) {
	l, _ := newTestLimiter(0.001, 1)
	l.Allow() // drain
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Wait(ctx); err == nil {
		t.Fatal("cancelled context should abort Wait")
	}
}

func TestRateLimiterCapsAtBurst(t *testing.T) {
	l, clock := newTestLimiter(1000, 2)
	clock.t = clock.t.Add(time.Hour) // massive idle period
	granted := 0
	for i := 0; i < 10; i++ {
		if l.Allow() {
			granted++
		}
	}
	if granted != 2 {
		t.Fatalf("granted %d, want burst cap 2", granted)
	}
}

func TestNewRateLimiterPanics(t *testing.T) {
	for _, bad := range []struct {
		rate  float64
		burst int
	}{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRateLimiter(%v, %d) should panic", bad.rate, bad.burst)
				}
			}()
			NewRateLimiter(bad.rate, bad.burst)
		}()
	}
}

func TestRateLimitedModel(t *testing.T) {
	l, _ := newTestLimiter(1000, 5)
	m := NewRateLimited(fixedModel("m", "ok"), l)
	if m.Name() != "m" {
		t.Fatal("name")
	}
	resp, err := m.Complete(context.Background(), llm.Request{Prompt: "x"})
	if err != nil || resp.Text != "ok" {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
}
