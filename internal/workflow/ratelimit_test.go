package workflow

import (
	"testing"
	"time"
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
