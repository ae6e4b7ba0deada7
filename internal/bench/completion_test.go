package bench

import (
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/machine"
)

// TestRunToCompletionReportsLastFinish: the reported run time is the cycle
// the last thread body returned, even when hardware timers armed by the
// program (a lease that is never released, a Tardis read reservation)
// are still pending then and fire while the engine drains.
func TestRunToCompletionReportsLastFinish(t *testing.T) {
	const leaseDur = 10_000
	for _, proto := range coherence.Protocols() {
		t.Run(proto, func(t *testing.T) {
			cfg := machine.DefaultConfig(2)
			cfg.Protocol = proto
			finish := make([]uint64, 2)
			cycles, st, err := RunToCompletion(cfg, 2, 0, func(d *machine.Direct) func(int, *machine.Ctx) {
				a := d.Alloc(64)
				b := d.Alloc(64)
				return func(tid int, c *machine.Ctx) {
					if tid == 0 {
						c.Lease(a, leaseDur) // never released: expires after the program ends
						c.Store(a, 1)
					} else {
						_ = c.Load(b) // a Tardis read reservation outlives the thread
						c.Work(100)
					}
					finish[tid] = c.Now()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			last := max(finish[0], finish[1])
			if cycles != last {
				t.Fatalf("reported %d cycles, want the last thread's finish %d", cycles, last)
			}
			if last >= leaseDur {
				t.Fatalf("last finish %d not before the lease deadline: the test no longer leaves a timer pending", last)
			}
			if st.InvoluntaryReleases != 1 {
				t.Fatalf("involuntary releases = %d, want 1 (the lease expiry fired while draining)", st.InvoluntaryReleases)
			}
		})
	}
}
