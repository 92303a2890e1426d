package endpoint

import (
	"container/list"
	"context"
	"sync"
)

// Limiter is a FIFO weighted semaphore: the admission-control primitive
// of the serving tier. Each request acquires a weight (its estimated
// cost) against a fixed capacity; when the capacity is exhausted,
// acquirers queue in arrival order — FIFO, so a heavy request cannot be
// starved by a stream of light ones slipping past it. A saturated server
// sheds load at admission (the HTTP layer turns a failed Acquire into
// 429 + Retry-After) instead of stacking goroutines until it collapses.
type Limiter struct {
	mu       sync.Mutex
	capacity int64
	inUse    int64
	waiters  list.List // of *limiterWaiter, FIFO
}

type limiterWaiter struct {
	weight int64
	ready  chan struct{}
}

// NewLimiter returns a limiter admitting at most capacity total weight
// concurrently. capacity must be positive.
func NewLimiter(capacity int64) *Limiter {
	if capacity <= 0 {
		capacity = 1
	}
	return &Limiter{capacity: capacity}
}

// Acquire blocks until weight units are available or ctx is done. A
// weight above the capacity is clamped to it (the request is maximally
// heavy, not impossible). The returned error is ctx.Err() on failure;
// nil means the caller owns the weight and must Release it.
func (l *Limiter) Acquire(ctx context.Context, weight int64) error {
	if weight < 1 {
		weight = 1
	}
	if weight > l.capacity {
		weight = l.capacity
	}
	l.mu.Lock()
	if l.waiters.Len() == 0 && l.inUse+weight <= l.capacity {
		l.inUse += weight
		l.mu.Unlock()
		return nil
	}
	if ctx.Err() != nil {
		// Saturated and the caller is not willing to wait at all.
		l.mu.Unlock()
		return ctx.Err()
	}
	w := &limiterWaiter{weight: weight, ready: make(chan struct{})}
	el := l.waiters.PushBack(w)
	l.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: hand the weight back and
			// wake whoever is next. (ready is only closed under l.mu, so
			// this re-check is race-free.)
			l.inUse -= weight
			l.grantLocked()
		default:
			l.waiters.Remove(el)
			// A departing head-of-line waiter may have been the only
			// thing blocking smaller queued requests that already fit.
			l.grantLocked()
		}
		l.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns weight units (clamped like Acquire) and wakes queued
// acquirers in FIFO order.
func (l *Limiter) Release(weight int64) {
	if weight < 1 {
		weight = 1
	}
	if weight > l.capacity {
		weight = l.capacity
	}
	l.mu.Lock()
	l.inUse -= weight
	if l.inUse < 0 {
		l.inUse = 0
	}
	l.grantLocked()
	l.mu.Unlock()
}

// grantLocked admits queued waiters from the front while they fit.
func (l *Limiter) grantLocked() {
	for l.waiters.Len() > 0 {
		front := l.waiters.Front()
		w := front.Value.(*limiterWaiter)
		if l.inUse+w.weight > l.capacity {
			return
		}
		l.inUse += w.weight
		l.waiters.Remove(front)
		close(w.ready)
	}
}

// InFlight returns the weight currently admitted.
func (l *Limiter) InFlight() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inUse
}

// Waiting returns the number of queued acquirers.
func (l *Limiter) Waiting() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiters.Len()
}

// Capacity returns the limiter's total weight capacity.
func (l *Limiter) Capacity() int64 { return l.capacity }
