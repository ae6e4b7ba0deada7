package sim

import (
	"errors"
	"testing"
)

// twoShards partitions a test engine: the system domain on shard 0,
// domain d on shard d%2.
func twoShards(e *Engine, lookahead Time) {
	e.ConfigureSharding(2, lookahead, func(d uint32) int {
		if d == SysDomain {
			return 0
		}
		return int(d % 2)
	})
}

// zeroDelayLoop schedules a callback on d at cycle at that reschedules
// itself with no delay forever, counting its runs in *n.
func zeroDelayLoop(d *Domain, at Time, n *int) {
	var loop func()
	loop = func() {
		*n++
		d.After(0, loop)
	}
	d.At(at, loop)
}

// checkStall asserts that the watchdog stopped a run after exactly limit
// callbacks at cycle at (plus before, events run at earlier cycles), and
// that the event that would have exceeded the limit is still queued.
func checkStall(t *testing.T, e *Engine, err error, ran int, at Time, limit, before uint64, pending int) {
	t.Helper()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("Run = %v, want *StallError", err)
	}
	if se.Time != at || se.Events != limit {
		t.Errorf("StallError = {Time %d, Events %d}, want {%d, %d}", se.Time, se.Events, at, limit)
	}
	if uint64(ran) != limit {
		t.Errorf("%d callbacks ran, want %d", ran, limit)
	}
	if e.EventCount != before+limit {
		t.Errorf("EventCount = %d, want %d", e.EventCount, before+limit)
	}
	if got := e.Pending(); got != pending {
		t.Errorf("Pending() = %d, want %d (the loop's next event stays queued)", got, pending)
	}
}

func TestStallOnDriver(t *testing.T) {
	e := NewEngine()
	e.StallLimit = 5
	n := 0
	zeroDelayLoop(e.Sys(), 3, &n)
	checkStall(t, e, e.Drain(), n, 3, 5, 0, 1)
}

// The loop starts while a proc is parked and running events inline, so
// the watchdog's verdict reaches Run through the proc's coroutine yield.
func TestStallInsideProcPark(t *testing.T) {
	e := NewEngine()
	e.StallLimit = 5
	n := 0
	p := e.Spawn(0, 0, 1, func(p *Proc) {
		zeroDelayLoop(p.Domain(), 1, &n)
		p.Work(10)
		p.Sync()
		t.Error("proc passed a stalled cycle")
	})
	// Before: the proc's start wake. Pending: the loop's next event and
	// the proc's wake at 10.
	checkStall(t, e, e.Drain(), n, 1, 5, 1, 2)
	if blocked, reason, _, _ := p.Status(); !blocked || reason != "advancing clock" {
		t.Errorf("proc Status = (%v, %q), want parked in Sync", blocked, reason)
	}
	e.KillAll()
}

func TestStallSharded(t *testing.T) {
	e := NewEngine()
	twoShards(e, 10)
	e.StallLimit = 5
	n := 0
	zeroDelayLoop(e.Domain(1), 4, &n)
	checkStall(t, e, e.Drain(), n, 4, 5, 0, 1)
}
