package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/coherence/tardis"
	"leaserelease/internal/core"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// A rung times n operations through one module's public API. It returns
// how many units the time is divided by (usually n) and fails when the
// module's observable result is not what n operations produce, so a rung
// cannot get faster by skipping work.
type rung struct {
	metric string
	n      int
	run    func(n int) (units int, err error)
}

const rungReps = 5

func ladder() []rung {
	return []rung{
		{"sim.ns_per_event", 300_000, rungEvent},
		{"sim.ns_per_handoff", 200_000, rungHandoff},
		{"sim.ns_per_sync", 300_000, rungSync},
		{"cache.ns_per_lookup", 2_000_000, rungLookup},
		{"mem.ns_per_load", 2_000_000, rungLoad},
		{"coherence.ns_per_txn", 30_000, func(n int) (int, error) { return rungTxn(n, false) }},
		{"tardis.ns_per_txn", 30_000, func(n int) (int, error) { return rungTxn(n, true) }},
		{"core.ns_per_lease", 500_000, rungLease},
		{"telemetry.ns_per_emit", 300_000, func(n int) (int, error) { return rungEmit(n, true) }},
		{"telemetry.ns_per_emit_off", 5_000_000, func(n int) (int, error) { return rungEmit(n, false) }},
		{"machine.ns_per_hit_op", 300_000, rungHitOp},
		{"machine.ns_per_miss_op", 20_000, rungMissOp},
	}
}

// runRung returns the median ns per unit over rungReps repetitions.
func runRung(r rung) (float64, error) {
	var ns []float64
	for i := 0; i < rungReps; i++ {
		start := time.Now()
		units, err := r.run(r.n)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.metric, err)
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(units))
	}
	sort.Float64s(ns)
	return ns[len(ns)/2], nil
}

// rungEvent: a chain of events, each scheduling its successor one cycle
// later through Engine.After.
func rungEvent(n int) (int, error) {
	e := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	if err := e.Drain(); err != nil {
		return 0, err
	}
	if count != n || e.Now() != uint64(n) {
		return 0, fmt.Errorf("ran %d events to cycle %d, want %d", count, e.Now(), n)
	}
	return n, nil
}

// rungHandoff: an event chain wakes two blocked procs in turn, so every
// event hands the execution token to a proc and back.
func rungHandoff(n int) (int, error) {
	e := sim.NewEngine()
	var woke [2]int
	var procs [2]*sim.Proc
	for i := range procs {
		i := i
		procs[i] = e.Spawn(i, 0, uint64(i+1), func(p *sim.Proc) {
			for {
				p.Block("rung")
				woke[i]++
			}
		})
	}
	k := 0
	var tick func()
	tick = func() {
		procs[k%2].WakeAt(e.Now())
		k++
		if k < n {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	// Both procs block forever after the last wake: the drained queue is
	// reported as a deadlock, which is the expected end.
	err := e.Run(uint64(n) + 2)
	e.KillAll()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		return 0, fmt.Errorf("want the final deadlock, got %v", err)
	}
	if woke[0]+woke[1] != n {
		return 0, fmt.Errorf("procs woke %d times, want %d", woke[0]+woke[1], n)
	}
	return n, nil
}

// rungSync: a lone proc alternates Work(1) and Sync.
func rungSync(n int) (int, error) {
	e := sim.NewEngine()
	var clock sim.Time
	e.Spawn(0, 0, 1, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Work(1)
			p.Sync()
		}
		clock = p.Clock()
	})
	if err := e.Drain(); err != nil {
		return 0, err
	}
	if clock != uint64(n) {
		return 0, fmt.Errorf("proc clock %d, want %d", clock, n)
	}
	return n, nil
}

// rungLookup: reads and writes that hit a warm L1.
func rungLookup(n int) (int, error) {
	c := cache.New(cache.DefaultConfig())
	const lines = 256 // half the 32 KB L1: every line stays resident
	for l := 0; l < lines; l++ {
		c.Install(mem.Line(l), cache.Modified)
	}
	hits := 0
	for i := 0; i < n; i++ {
		if c.Lookup(mem.Line(i%lines), i&1 == 0) {
			hits++
		}
	}
	if hits != n {
		return 0, fmt.Errorf("%d hits of %d lookups", hits, n)
	}
	return n, nil
}

// rungLoad: word loads from the paged backing store.
func rungLoad(n int) (int, error) {
	var s mem.Store
	const words = 4096
	for i := 0; i < words; i++ {
		s.Store(mem.Addr(64+8*i), uint64(i))
	}
	var sum, want uint64
	for i := 0; i < n; i++ {
		sum += s.Load(mem.Addr(64 + 8*(i%words)))
		want += uint64(i % words)
	}
	if sum != want {
		return 0, fmt.Errorf("loaded sum %d, want %d", sum, want)
	}
	return n, nil
}

// stubEnv completes coherence transactions without a machine: probes are
// serviced at once, and each completion submits the next request.
type stubEnv struct {
	done, msgs int
	next       func()
}

func (s *stubEnv) DeliverProbe(int, *coherence.Request) bool { return false }
func (s *stubEnv) Invalidate(int, mem.Line)                  {}
func (s *stubEnv) Complete(*coherence.Request, cache.State) {
	s.done++
	s.next()
}
func (s *stubEnv) CountMsg(_ coherence.MsgKind, n int) { s.msgs += n }
func (s *stubEnv) CountL2()                            {}
func (s *stubEnv) CountDRAM()                          {}

// rungTxn: two cores take a line exclusively in turn, so every
// transaction moves ownership through the protocol.
func rungTxn(n int, useTardis bool) (int, error) {
	e := sim.NewEngine()
	env := &stubEnv{}
	var proto coherence.Protocol
	if useTardis {
		proto = tardis.New(e, env, coherence.DefaultTiming(), tardis.Config{}, 2)
	} else {
		proto = coherence.NewDirectory(e, env, coherence.DefaultTiming())
	}
	var reqs [2]coherence.Request
	submit := func() {
		c := env.done % 2
		reqs[c] = coherence.Request{Core: c, Line: 1, Excl: true}
		proto.Submit(&reqs[c])
	}
	env.next = func() {
		if env.done < n {
			submit()
		}
	}
	submit()
	if err := e.Drain(); err != nil {
		return 0, err
	}
	if env.done != n || env.msgs < n {
		return 0, fmt.Errorf("%d transactions, %d messages; want %d transactions", env.done, env.msgs, n)
	}
	return n, nil
}

// rungLease: one lease's life in the table: Insert, Start, Remove.
func rungLease(n int) (int, error) {
	t := core.NewTable(core.DefaultConfig())
	for i := 0; i < n; i++ {
		l := mem.Line(i%8 + 1)
		if _, ok := t.Insert(l, 1000, false); !ok {
			return 0, fmt.Errorf("insert %d refused", i)
		}
		if t.Start(l, uint64(i)) == nil {
			return 0, fmt.Errorf("start %d found no entry", i)
		}
		if t.Remove(l) == nil {
			return 0, fmt.Errorf("remove %d found no entry", i)
		}
	}
	if t.Len() != 0 {
		return 0, fmt.Errorf("%d leases left", t.Len())
	}
	return n, nil
}

// rungEmit: lease created/released pairs on a bus, into an attached
// recorder (on) or with no subscriber (off).
func rungEmit(n int, on bool) (int, error) {
	var now uint64
	bus := telemetry.NewBus(func() uint64 { return now })
	rec := telemetry.NewRecorder()
	if on {
		rec.Attach(bus)
	}
	for i := 0; i < n; i += 2 {
		now = uint64(i)
		bus.Emit(telemetry.CatLease, 0, telemetry.LeaseCreated, mem.Line(i%64+1), telemetry.NoVal)
		bus.Emit(telemetry.CatLease, 0, telemetry.LeaseReleased, mem.Line(i%64+1), 10)
	}
	want := uint64(0)
	if on {
		want = uint64(n / 2)
	}
	if got := rec.LeaseHold.Count(); got != want || bus.Wants(telemetry.CatLease) != on {
		return 0, fmt.Errorf("recorder saw %d releases, want %d", got, want)
	}
	return n, nil
}

// rungHitOp: one core loads a resident line.
func rungHitOp(n int) (int, error) {
	m := machine.New(machine.DefaultConfig(1))
	defer m.Stop()
	a := m.Direct().Alloc(8)
	m.Poke(a, 3)
	var sum uint64
	m.Spawn(0, func(c *machine.Ctx) {
		c.Load(a) // the cold miss
		for i := 0; i < n; i++ {
			sum += c.Load(a)
		}
	})
	if err := m.Drain(); err != nil {
		return 0, err
	}
	if st := m.Stats(); sum != 3*uint64(n) || st.L1Hits < uint64(n) {
		return 0, fmt.Errorf("sum %d over %d hits, want %d over %d", sum, st.L1Hits, 3*n, n)
	}
	return n, nil
}

// rungMissOp: two cores store to one line with think time between
// stores, so ownership moves between them on nearly every store. The
// time is divided by the L1 misses counted.
func rungMissOp(n int) (int, error) {
	m := machine.New(machine.DefaultConfig(2))
	defer m.Stop()
	a := m.Direct().Alloc(8)
	for c := 0; c < 2; c++ {
		m.Spawn(0, func(x *machine.Ctx) {
			for i := 0; i < n/2; i++ {
				x.Store(a, uint64(i))
				x.Work(100)
			}
		})
	}
	if err := m.Drain(); err != nil {
		return 0, err
	}
	misses := m.Stats().L1Misses
	if misses < uint64(n)/2 {
		return 0, fmt.Errorf("%d misses for %d stores", misses, n)
	}
	return int(misses), nil
}
