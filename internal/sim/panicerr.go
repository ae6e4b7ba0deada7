package sim

import (
	"fmt"
	"runtime/debug"
)

// PanicError wraps a panic that escaped simulation code with the sim
// context needed to debug it: the simulated cycle, the sequence number of
// the event being executed, and the proc involved (-1 for panics raised in
// engine-event context, e.g. inside the coherence protocol).
//
// A proc body runs as a coroutine: its Spawn wrapper wraps a panic with
// the proc's context (or the engine's, if an event callback the parked
// proc was running inline panicked) and marks the proc done, and the
// coroutine re-raises the PanicError on the goroutine that resumed it.
// Run wraps panics from callbacks its own driver loop runs, and under
// sharding re-raises a window worker's panic at the next barrier, so
// every PanicError surfaces on Run's caller's goroutine, where a harness
// can recover it.
type PanicError struct {
	ProcID   int    // panicking proc, or -1 for engine-event context
	Cycle    Time   // simulated time of the panic
	LocalClk Time   // panicking proc's local clock (0 for engine context)
	EventSeq uint64 // sequence number of the event being executed
	Value    interface{}
	Stack    []byte // goroutine stack captured at the panic site
}

func (e *PanicError) Error() string {
	where := "engine event"
	if e.ProcID >= 0 {
		where = fmt.Sprintf("proc %d (local clock %d)", e.ProcID, e.LocalClk)
	}
	return fmt.Sprintf("sim: panic in %s at cycle %d (event seq %d): %v",
		where, e.Cycle, e.EventSeq, e.Value)
}

// Unwrap exposes an underlying error panic value, if any.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

func stack() []byte { return debug.Stack() }
