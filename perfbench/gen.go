package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator. Requests are due on a fixed schedule whether or
// not earlier ones have finished; a bounded set of senders (at most one
// per processor, each with its own connection) claims them in order. When
// every sender is busy the next request waits, so its latency, timed from
// when it was due, includes the wait a slow answer imposed on it.

// schedule places n arrivals at a fixed interval from start.
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
}

// newSchedule spaces n arrivals at rate per second, beginning at start.
func newSchedule(start time.Time, rate float64, n int) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate), n: n}
}

// due is when request i should be sent.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// sample is one request's timing, indexed like the schedule.
type sample struct {
	sent    bool
	latency time.Duration // from due (or an early send) to completion
	late    time.Duration // from due to the send
	err     error         // transport error, bad status, or a flagged answer
	done    time.Duration // closed loop: when it answered, from the loop's start
}

// openLoop runs the schedule over senders goroutines and returns one
// sample per scheduled request. It stops claiming new requests once a
// send runs later than abortLate behind its due time (0 never aborts):
// such a backlog can only grow, and the unsent remainder is marked unsent.
// send(w, i) sends request i on sender w's connection and returns its
// failure; it must be safe for concurrent use across senders.
func openLoop(s schedule, senders int, abortLate time.Duration, send func(w, i int) error) []sample {
	out := make([]sample, s.n)
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1) - 1)
				if i >= s.n {
					return
				}
				due := s.due(i)
				sleepUntil(due)
				sent := time.Now()
				late := max(sent.Sub(due), 0)
				if abortLate > 0 && late > abortLate {
					aborted.Store(true)
					return
				}
				err := send(w, i)
				// Timed from when it was due, or from the send if the
				// sender woke early: a wait for a busy sender counts.
				out[i] = sample{sent: true, latency: time.Since(earliest(due, sent)), late: late, err: err}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop sends requests back to back from senders goroutines: each
// claims the next index as soon as its last request has answered, until n
// are sent or d has passed. It returns one sample per index, timed from
// its send and stamped with when it answered, and how long the sent
// requests took. The throughput it reaches is the most the receiver
// sustains with senders requests in flight.
func closedLoop(n, senders int, d time.Duration, send func(w, i int) error) ([]sample, time.Duration) {
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sent := time.Now()
				err := send(w, i)
				now := time.Now()
				out[i] = sample{sent: true, latency: now.Sub(sent), err: err, done: now.Sub(start)}
			}
		}(w)
	}
	wg.Wait()
	return out, time.Since(start)
}

// windowRates cuts the first took of a closed loop into whole windows of
// length w and returns each window's answers per second; a loop shorter
// than one window is one window of its own length.
func windowRates(samples []sample, took, w time.Duration) []float64 {
	if took < w {
		w = took
	}
	counts := make([]int, int(took/w))
	for _, s := range samples {
		if k := int(s.done / w); s.sent && k < len(counts) {
			counts[k]++
		}
	}
	rates := make([]float64, len(counts))
	for k, n := range counts {
		rates[k] = float64(n) / w.Seconds()
	}
	return rates
}

// timerSlack is how late the runtime's timers may fire: on Linux the
// netpoller sleeps in whole milliseconds.
const timerSlack = time.Millisecond

// sleepUntil returns within timerSlack before t (at once if t has passed).
// Aiming early keeps the timer's own lateness out of the measurement;
// spinning out the rest would starve the network poller.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// earliest of two times.
func earliest(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
