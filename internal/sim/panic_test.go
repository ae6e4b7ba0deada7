package sim

import (
	"strings"
	"testing"
)

// recoverPanicError runs fn and returns the *PanicError it panics with
// (nil if fn returns normally or panics with something else).
func recoverPanicError(t *testing.T, fn func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		if pe, ok = r.(*PanicError); !ok {
			t.Fatalf("panic value = %T (%v), want *PanicError", r, r)
		}
	}()
	fn()
	return nil
}

func TestProcPanicCarriesContext(t *testing.T) {
	e := NewEngine()
	e.Spawn(3, 0, 1, func(p *Proc) {
		p.Work(50)
		p.Sync()
		panic("boom")
	})
	pe := recoverPanicError(t, func() { e.Drain() })
	if pe == nil {
		t.Fatal("proc panic did not reach the engine caller")
	}
	if pe.ProcID != 3 {
		t.Errorf("ProcID = %d, want 3", pe.ProcID)
	}
	if pe.Cycle != 50 {
		t.Errorf("Cycle = %d, want 50", pe.Cycle)
	}
	if pe.Value != "boom" {
		t.Errorf("Value = %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(pe.Error(), "proc 3") || !strings.Contains(pe.Error(), "cycle 50") {
		t.Errorf("Error() = %q, missing context", pe.Error())
	}
}

func TestEventPanicCarriesContext(t *testing.T) {
	e := NewEngine()
	e.At(10, func() { panic("evt") })
	pe := recoverPanicError(t, func() { e.Drain() })
	if pe == nil {
		t.Fatal("event panic not wrapped")
	}
	if pe.ProcID != -1 {
		t.Errorf("ProcID = %d, want -1 (engine context)", pe.ProcID)
	}
	if pe.Cycle != 10 {
		t.Errorf("Cycle = %d, want 10", pe.Cycle)
	}
}

func TestPanicErrorNotDoubleWrapped(t *testing.T) {
	e := NewEngine()
	inner := &PanicError{ProcID: 7, Cycle: 1, Value: "inner"}
	e.At(5, func() { panic(inner) })
	pe := recoverPanicError(t, func() { e.Drain() })
	if pe != inner {
		t.Fatalf("wrapped an already-wrapped PanicError: %v", pe)
	}
}

// After a proc panic, the remaining blocked procs must still be killable
// so a harness can tear the simulation down without leaking goroutines.
func TestKillAllAfterProcPanic(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn(0, 0, 1, func(p *Proc) {
		defer func() { cleaned = true }()
		p.Block("forever")
	})
	e.Spawn(1, 5, 2, func(p *Proc) { panic("die") })
	if pe := recoverPanicError(t, func() { e.Drain() }); pe == nil {
		t.Fatal("expected a PanicError")
	}
	e.KillAll()
	if !cleaned {
		t.Fatal("blocked proc was not unwound after panic")
	}
}

// An event callback that panics while a parked proc runs it inline is
// attributed to the engine and to that event, not to the proc.
func TestEventPanicInsideProcPark(t *testing.T) {
	e := NewEngine()
	for c := Time(1); c <= 3; c++ {
		e.At(c, func() {})
	}
	e.At(5, func() { panic("evt") }) // the system domain's 4th event
	e.Spawn(2, 0, 1, func(p *Proc) {
		p.Work(10)
		p.Sync() // parks: the events at 1..5 run inline on this proc
	})
	pe := recoverPanicError(t, func() { e.Drain() })
	if pe == nil {
		t.Fatal("event panic not wrapped")
	}
	if pe.ProcID != -1 || pe.EventSeq != 4 || pe.Cycle != 5 {
		t.Errorf("PanicError = {ProcID %d, EventSeq %d, Cycle %d}, want {-1, 4, 5}",
			pe.ProcID, pe.EventSeq, pe.Cycle)
	}
	if !strings.Contains(string(pe.Stack), "(*Proc).park") {
		t.Errorf("panic was not raised inside the proc's park:\n%s", pe.Stack)
	}
}

func TestProcPanicSharded(t *testing.T) {
	e := NewEngine()
	twoShards(e, 10)
	e.Spawn(0, 0, 1, func(p *Proc) {
		for {
			p.Work(1)
			p.Sync()
		}
	})
	e.Spawn(1, 0, 2, func(p *Proc) {
		p.Work(25)
		p.Sync()
		panic("boom")
	})
	pe := recoverPanicError(t, func() { e.Run(100) })
	if pe == nil {
		t.Fatal("proc panic on a worker shard did not reach the Run caller")
	}
	if pe.ProcID != 1 || pe.Cycle != 25 || pe.Value != "boom" {
		t.Errorf("PanicError = {ProcID %d, Cycle %d, Value %v}, want {1, 25, boom}",
			pe.ProcID, pe.Cycle, pe.Value)
	}
	e.KillAll()
}
