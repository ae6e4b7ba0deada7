package sim

import "testing"

// The hot paths of the kernel must not allocate in steady state: every
// simulated memory access costs at least one event or proc handoff, so a
// single allocation per step dominates host time with GC work. These
// guards pin the zero-alloc property the typed event queue and the
// allocation-free proc wakes were built for. (Skipped under -race: the
// detector instruments allocations and AllocsPerRun over-counts.)

// TestEventDispatchZeroAlloc drives a self-rescheduling event chain — the
// event-dispatch path: heap/ring pop, exec, reschedule — and asserts the
// steady state allocates nothing.
func TestEventDispatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	var step func()
	step = func() { e.After(1, step) }
	e.After(1, step)
	var chain func()
	chain = func() { e.After(0, func() {}); e.After(2, chain) }
	e.After(1, chain)
	if err := e.Run(100); err != nil { // warm up queue capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("event dispatch allocates %.1f objects per 16 cycles, want 0", allocs)
	}
}

// TestProcHandoffZeroAlloc runs two procs that interleave cycle-by-cycle
// through Sync — the park/wake handoff path: wake scheduling, token
// transfer, resume — and asserts the steady state allocates nothing.
func TestProcHandoffZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	worker := func(p *Proc) {
		for {
			p.Work(1)
			p.Sync()
		}
	}
	e.Spawn(0, 0, 1, worker)
	e.Spawn(1, 0, 2, worker)
	if err := e.Run(100); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 32); err != nil {
			t.Fatal(err)
		}
	})
	e.KillAll()
	if allocs != 0 {
		t.Errorf("proc handoff allocates %.1f objects per 32 cycles, want 0", allocs)
	}
}

// TestProcHandoffRing64ZeroAlloc is the same guard with 64 procs in
// lockstep, so every handoff resumes a different proc.
func TestProcHandoffRing64ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	for id := 0; id < 64; id++ {
		e.Spawn(id, 0, uint64(id+1), func(p *Proc) {
			for {
				p.Work(1)
				p.Sync()
			}
		})
	}
	if err := e.Run(100); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 4); err != nil {
			t.Fatal(err)
		}
	})
	e.KillAll()
	if allocs != 0 {
		t.Errorf("64-proc handoff ring allocates %.1f objects per 4 cycles, want 0", allocs)
	}
}

// TestBlockWakeZeroAlloc exercises the third hot shape — a proc blocking
// on an external event that wakes it (the coherence-miss path).
func TestBlockWakeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	p := e.Spawn(0, 0, 1, func(p *Proc) {
		for {
			p.Block("waiting for reply")
		}
	})
	var ping func()
	ping = func() {
		p.WakeAt(e.Now() + 1)
		e.After(2, ping)
	}
	e.After(1, ping)
	if err := e.Run(100); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 32); err != nil {
			t.Fatal(err)
		}
	})
	e.KillAll()
	if allocs != 0 {
		t.Errorf("block/wake allocates %.1f objects per 32 cycles, want 0", allocs)
	}
}

// TestTimerZeroAlloc drives the lease-expiry shape: an event arms a
// deadline and a later one stops it, while a second timer fires and
// re-arms itself. Arm, Stop and firing allocate nothing once the timer
// queue has grown.
func TestTimerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	d := e.Domain(0)
	expiry := NewTimer(func() { t.Error("stopped timer fired") })
	var tick *Timer
	tick = NewTimer(func() { d.Arm(tick, d.Now()+3) })
	d.Arm(tick, 1)
	var step func()
	step = func() {
		if !expiry.Stop() {
			d.Arm(expiry, d.Now()+1000)
		}
		d.After(2, step)
	}
	d.After(1, step)
	if err := e.Run(100); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 32); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("timer arm/stop/fire allocates %.1f objects per 32 cycles, want 0", allocs)
	}
}
