package workflow

import (
	"sync"
	"time"
)

// RateLimiter is a token-bucket limiter for model calls: vendors meter
// requests per minute, and production workflows must pace their fan-out
// accordingly. The zero value is unusable; construct with NewRateLimiter.
type RateLimiter struct {
	mu       sync.Mutex
	capacity float64
	tokens   float64
	refill   float64 // tokens per second
	last     time.Time
	now      func() time.Time
}

// NewRateLimiter returns a limiter permitting ratePerSecond calls
// sustained with bursts of up to burst calls. Both must be positive.
func NewRateLimiter(ratePerSecond float64, burst int) *RateLimiter {
	if ratePerSecond <= 0 || burst <= 0 {
		panic("workflow: NewRateLimiter needs positive rate and burst")
	}
	l := &RateLimiter{
		capacity: float64(burst),
		tokens:   float64(burst),
		refill:   ratePerSecond,
		now:      time.Now,
	}
	l.last = l.now()
	return l
}

// Allow reports whether a call is permitted right now, consuming a token
// if so. It never blocks.
func (l *RateLimiter) Allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.tokens += now.Sub(l.last).Seconds() * l.refill
	if l.tokens > l.capacity {
		l.tokens = l.capacity
	}
	l.last = now
	if l.tokens >= 1 {
		l.tokens--
		return true
	}
	return false
}
