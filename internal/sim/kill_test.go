package sim

import (
	"runtime"
	"testing"
)

func TestKillBlockedProc(t *testing.T) {
	e := NewEngine()
	cleanedUp := false
	e.Spawn(0, 0, 1, func(p *Proc) {
		defer func() { cleanedUp = true }()
		p.Block("forever")
		t.Error("proc resumed after kill")
	})
	// Run drains with a deadlock (the proc never wakes).
	if _, ok := e.Drain().(*DeadlockError); !ok {
		t.Fatal("expected deadlock before kill")
	}
	e.KillAll()
	if !cleanedUp {
		t.Fatal("deferred cleanup did not run on kill")
	}
}

func TestKillBeforeFirstDispatch(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Spawn(0, 100, 1, func(p *Proc) { ran = true })
	p.Kill()
	if ran {
		t.Fatal("killed proc ran its body")
	}
	// The stale start event must be a no-op.
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	e := NewEngine()
	p := e.Spawn(0, 0, 1, func(p *Proc) {})
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	p.Kill() // must not hang or panic
}

func TestKillAllMixed(t *testing.T) {
	e := NewEngine()
	done := 0
	for i := 0; i < 3; i++ {
		e.Spawn(i, 0, uint64(i+1), func(p *Proc) {
			done++
		})
	}
	for i := 3; i < 6; i++ {
		e.Spawn(i, 0, uint64(i+1), func(p *Proc) {
			p.Block("never")
		})
	}
	if _, ok := e.Drain().(*DeadlockError); !ok {
		t.Fatal("expected deadlock")
	}
	e.KillAll()
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
	// Idempotent.
	e.KillAll()
}

// A proc parked at Run's stop condition inside a window (the stop time
// falls short of the lookahead horizon) is suspended in its coroutine's
// yield; Kill must unwind it from there.
func TestKillAtWindowedStop(t *testing.T) {
	e := NewEngine()
	twoShards(e, 100)
	cleaned := false
	p := e.Spawn(1, 0, 1, func(p *Proc) {
		defer func() { cleaned = true }()
		for {
			p.Work(1)
			p.Sync()
		}
	})
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if blocked, reason, _, _ := p.Status(); !blocked || reason != "advancing clock" {
		t.Fatalf("proc Status = (%v, %q), want parked in Sync", blocked, reason)
	}
	p.Kill()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if _, _, _, done := p.Status(); !done {
		t.Fatal("killed proc not done")
	}
	if err := e.Drain(); err != nil { // its stale wake is skipped
		t.Fatal(err)
	}
}

// Every proc's coroutine goroutine exits by the time KillAll returns:
// finished, blocked, and never-started procs alike.
func TestKillAllLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 4; i++ {
		e.Spawn(i, 0, uint64(i+1), func(p *Proc) { p.Work(3); p.Sync() })
	}
	for i := 4; i < 8; i++ {
		e.Spawn(i, 0, uint64(i+1), func(p *Proc) { p.Block("never") })
	}
	e.Spawn(8, 1000, 9, func(p *Proc) { t.Error("proc started after its stop time") })
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	e.KillAll()
	// Only growth is a leak: window workers of an earlier test may still
	// be exiting when before is sampled.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after KillAll, %d before Spawn", after, before)
	}
}
