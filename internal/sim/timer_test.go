package sim

import (
	"reflect"
	"testing"
)

// A timer takes exactly the key At would give it at arm time, so a timer
// and At events with the same (cycle, domain) run in arm order.
func TestTimerSameKeyRunsInArmOrder(t *testing.T) {
	e := NewEngine()
	d := e.Domain(3)
	var got []string
	tm := NewTimer(func() { got = append(got, "timer") })
	d.At(10, func() { got = append(got, "at1") })
	d.Arm(tm, 10)
	d.At(10, func() { got = append(got, "at2") })
	e.Sys().Arm(NewTimer(func() { got = append(got, "sys") }), 10) // later domain
	d.At(9, func() { got = append(got, "early") })
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "at1", "timer", "at2", "sys"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// Stop before the deadline: the timer never runs, leaves the queue at
// once, and the drained clock stays at the last live event.
func TestTimerStopBeforeFiring(t *testing.T) {
	e := NewEngine()
	d := e.Domain(0)
	fired := false
	tm := NewTimer(func() { fired = true })
	d.Arm(tm, 100)
	d.At(5, func() {})
	if n := e.Pending(); n != 2 {
		t.Fatalf("Pending = %d, want 2", n)
	}
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer returned false")
	}
	if n := e.Pending(); n != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", n)
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
	if e.Now() != 5 || e.EventCount != 1 {
		t.Fatalf("Now = %d, EventCount = %d; want 5, 1", e.Now(), e.EventCount)
	}
}

// Stop after firing returns false, and a fired timer can be armed again —
// also from its own callback.
func TestTimerRearmAfterFiring(t *testing.T) {
	e := NewEngine()
	d := e.Domain(0)
	var at []Time
	var tm *Timer
	tm = NewTimer(func() {
		at = append(at, d.Now())
		if len(at) == 1 {
			d.Arm(tm, d.Now()+10)
		}
	})
	d.Arm(tm, 10)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Fatal("Stop after the last firing returned true")
	}
	d.Arm(tm, e.Now()+5)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{10, 20, 25}; !reflect.DeepEqual(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
}

// Arming a queued timer twice is a caller bug and panics.
func TestTimerDoubleArmPanics(t *testing.T) {
	e := NewEngine()
	tm := NewTimer(func() {})
	e.Sys().Arm(tm, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("double Arm did not panic")
		}
	}()
	e.Sys().Arm(tm, 6)
}

// Sync must not fast-forward past a pending timer: a timer at or before
// the proc's clock runs first.
func TestSyncParksOnPendingTimer(t *testing.T) {
	for _, tc := range []struct {
		name string
		dom  uint32
		at   Time
	}{
		{"before-clock-sys", SysDomain, 5},
		{"at-clock-own-domain", 0, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var firedAt Time
			fired := false
			e.Domain(tc.dom).Arm(NewTimer(func() { fired, firedAt = true, e.Now() }), tc.at)
			var sawFired bool
			e.Spawn(0, 0, 1, func(p *Proc) {
				p.Work(10)
				p.Sync()
				sawFired = fired
			})
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			if !sawFired || firedAt != tc.at {
				t.Fatalf("proc past Sync saw fired=%v (timer ran at %d); want the timer at %d to run first",
					sawFired, firedAt, tc.at)
			}
		})
	}
}

// Under sharding, a timer is a shard's pending work like any event: a
// window opens for it (even when it is the only work anywhere), it fires
// at its cycle on its domain's shard, and a run stopped before it parks
// at the stop time with the timer still pending.
func TestTimerSharded(t *testing.T) {
	e := NewEngine()
	twoShards(e, 10)
	d1 := e.Domain(1)
	var at []Time
	var tm *Timer
	tm = NewTimer(func() {
		at = append(at, d1.Now())
		if len(at) < 3 {
			d1.Arm(tm, d1.Now()+25)
		}
	})
	d1.Arm(tm, 100) // armed while idle: moves to shard 1 at partition
	stopped := NewTimer(func() { t.Error("stopped timer fired") })
	e.Domain(2).Arm(stopped, 60)
	stopped.Stop()
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 50 || e.Pending() != 1 {
		t.Fatalf("after Run(50): Now = %d, Pending = %d; want 50, 1", e.Now(), e.Pending())
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{100, 125, 150}; !reflect.DeepEqual(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if e.Now() != 150 || e.EventCount != 3 {
		t.Fatalf("Now = %d, EventCount = %d; want 150, 3", e.Now(), e.EventCount)
	}
}
