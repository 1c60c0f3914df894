package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newSchedule(t0, 200, 10)
	for i := 0; i < 10; i++ {
		if got, want := s.due(i), t0.Add(time.Duration(i)*5*time.Millisecond); !got.Equal(want) {
			t.Errorf("due(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestOpenLoopSendsEachOnceOnSchedule(t *testing.T) {
	const n = 40
	var calls [n]atomic.Int32
	start := time.Now().Add(5 * time.Millisecond)
	s := newSchedule(start, 500, n)
	out := openLoop(s, 2, 0, func(w, i int) error {
		calls[i].Add(1)
		if w < 0 || w > 1 {
			t.Errorf("sender index %d out of range", w)
		}
		return nil
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("request %d sent %d times", i, c)
		}
		if !out[i].sent {
			t.Errorf("request %d not marked sent", i)
		}
	}
	// Senders may wake up to timerSlack early, never earlier.
	if last := s.due(n-1).Sub(start) - timerSlack; time.Since(start) < last {
		t.Errorf("40 requests at 500/s finished after %v, before the last was due (less the slack, %v)", time.Since(start), last)
	}
}

// A request due while every sender is busy is timed from when it was due,
// so the wait the slow request imposed on it shows in its latency.
func TestOpenLoopTimesFromDue(t *testing.T) {
	s := newSchedule(time.Now().Add(5*time.Millisecond), 1000, 3)
	out := openLoop(s, 1, 0, func(_, i int) error {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	if out[1].late < 25*time.Millisecond || out[1].latency < 25*time.Millisecond {
		t.Errorf("request queued behind a 30ms one: late %v, latency %v; want both >= 25ms", out[1].late, out[1].latency)
	}
	if out[0].late > timerSlack {
		t.Errorf("an idle sender sent %v late", out[0].late)
	}
}

func TestOpenLoopAbortsGrowingBacklog(t *testing.T) {
	s := newSchedule(time.Now().Add(2*time.Millisecond), 1000, 100)
	out := openLoop(s, 1, 10*time.Millisecond, func(_, i int) error {
		if i == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	sent := 0
	for _, smp := range out {
		if smp.sent {
			sent++
		}
	}
	if sent != 1 {
		t.Errorf("sent %d requests after the backlog passed the abort bound, want only the first", sent)
	}
}

func TestClosedLoopKeepsSendersBusyUntilDeadline(t *testing.T) {
	var inFlight, most atomic.Int32
	out, took := closedLoop(1000, 2, 30*time.Millisecond, func(_, i int) error {
		if n := inFlight.Add(1); n > most.Load() {
			most.Store(n)
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	sent := 0
	for i, smp := range out {
		if smp.sent {
			sent++
			if i >= sent {
				t.Fatalf("request %d sent, but an earlier one was skipped", i)
			}
		}
	}
	if most.Load() > 2 {
		t.Errorf("%d requests in flight from 2 senders", most.Load())
	}
	// Two senders of 1ms requests for 30ms send about 60.
	if sent < 20 || sent > 70 {
		t.Errorf("sent %d requests in %v, want about 60", sent, took)
	}
	if took < 30*time.Millisecond {
		t.Errorf("stopped after %v, before the deadline", took)
	}
}

func TestClosedLoopStopsAtPlanEnd(t *testing.T) {
	out, took := closedLoop(5, 2, time.Second, func(_, i int) error { return nil })
	for i, smp := range out {
		if !smp.sent {
			t.Errorf("request %d not sent", i)
		}
	}
	if took > 500*time.Millisecond {
		t.Errorf("a 5-request plan took %v: the loop waited for the deadline", took)
	}
}

func TestWindowRates(t *testing.T) {
	var s []sample
	for _, ms := range []int{1, 2, 3, 1500, 1600, 2100, 2200, 2300, 2400, 3100} {
		s = append(s, sample{sent: true, done: time.Duration(ms) * time.Millisecond})
	}
	s = append(s, sample{done: 10 * time.Millisecond}) // unsent: not counted
	got := windowRates(s, 3200*time.Millisecond, time.Second)
	want := []float64{3, 2, 4} // the partial fourth window is left out
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d: %v/s, want %v/s", i, got[i], want[i])
		}
	}
	if got := windowRates(s[:3], 500*time.Millisecond, time.Second); len(got) != 1 || got[0] != 6 {
		t.Errorf("a half-second loop: windowRates = %v, want [6]", got)
	}
}

func TestEarliest(t *testing.T) {
	a, b := time.Unix(10, 0), time.Unix(20, 0)
	if !earliest(a, b).Equal(a) || !earliest(b, a).Equal(a) {
		t.Error("earliest picked the later time")
	}
}
