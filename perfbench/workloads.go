package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"leaserelease/internal/bench"
	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/machine"
	"leaserelease/internal/multiqueue"
	"leaserelease/internal/stm"
	"leaserelease/internal/telemetry"
)

// Paper reference speedups of leases at 64 threads (PPoPP'16 §7, as
// recorded in EXPERIMENTS.md "Summary of divergences"). The paper measured
// them in the Graphite simulator, so they check the model against another
// model: it is unvalidated against hardware.
const (
	paperStackSpeedup64   = 7.0
	paperCounterSpeedup64 = 20.0
)

// A cell is one bench.ThroughputOpts measurement: one structure on one
// freshly built machine.
type cell struct {
	name     string
	threads  int
	protocol string // "" for MSI
	// build returns the structure's builder; aborts receives TL2 aborts.
	build    func(aborts *uint64) func(*machine.Direct) bench.OpFunc
	observed bool // attach a telemetry.Recorder with spans and ledger
	tl2      bool
}

// pair names a base cell and its leased counterpart for lease_speedup;
// paper is the paper's 64-thread speedup for the pair, or 0.
type pair struct {
	base, lease string
	paper       float64
}

type workload struct {
	name, why    string
	warm, window uint64
	cells        []cell
	pairs        []pair
	sweep        bool // the quick sweep of every bench.All() experiment
	// procs is the GOMAXPROCS the workload runs at; 0 keeps the default.
	// The cell workloads run the sequential kernel, whose proc handoffs
	// are goroutine switches: on one P they stay in the Go scheduler, on
	// more they also wake OS threads, which measures the host's scheduler.
	procs int
}

func plain(b func(*machine.Direct) bench.OpFunc) func(*uint64) func(*machine.Direct) bench.OpFunc {
	return func(*uint64) func(*machine.Direct) bench.OpFunc { return b }
}

func workloads() []workload {
	const n64, n16, n8 = 64, 16, 8
	contended := []cell{
		{name: "counter-tts", threads: n64, build: plain(bench.CounterWorkload(bench.CounterTTS))},
		{name: "counter-lease", threads: n64, build: plain(bench.CounterWorkload(bench.CounterLeasedTTS))},
		{name: "stack-base", threads: n64, build: plain(bench.StackWorkload(ds.StackOptions{}))},
		{name: "stack-lease", threads: n64, build: plain(bench.StackWorkload(ds.StackOptions{Lease: bench.LeaseTime}))},
		{name: "msqueue-lease", threads: n64, build: plain(bench.QueueWorkload(ds.QueueSingleLease))},
		{name: "multiqueue-lease", threads: n64, build: plain(bench.MQWorkload(multiqueue.Options{LeaseTime: bench.LeaseTime}))},
		{name: "tl2-hwmulti", threads: n64, tl2: true, build: func(a *uint64) func(*machine.Direct) bench.OpFunc {
			return bench.TL2Workload(stm.HWMulti, a)
		}},
		{name: "tardis-counter-lease", threads: n64, protocol: coherence.ProtocolTardis,
			build: plain(bench.CounterWorkload(bench.CounterLeasedTTS))},
		{name: "tardis-stack-lease", threads: n64, protocol: coherence.ProtocolTardis,
			build: plain(bench.StackWorkload(ds.StackOptions{Lease: bench.LeaseTime}))},
	}
	var search []cell
	var searchPairs []pair
	for _, k := range bench.AllSetKinds() {
		search = append(search,
			cell{name: k.String() + "-base", threads: n8, build: plain(bench.SetWorkload(k, 0, 1024, 512))},
			cell{name: k.String() + "-lease", threads: n8, build: plain(bench.SetWorkload(k, bench.LeaseTime, 1024, 512))})
		searchPairs = append(searchPairs, pair{base: k.String() + "-base", lease: k.String() + "-lease"})
	}
	observed := []cell{
		{name: "stack-lease", threads: n16, observed: true, build: plain(bench.StackWorkload(ds.StackOptions{Lease: bench.LeaseTime}))},
		{name: "stack-base", threads: n16, observed: true, build: plain(bench.StackWorkload(ds.StackOptions{}))},
		{name: "counter-lease", threads: n16, observed: true, build: plain(bench.CounterWorkload(bench.CounterLeasedTTS))},
		{name: "tardis-counter-lease", threads: n16, observed: true, protocol: coherence.ProtocolTardis,
			build: plain(bench.CounterWorkload(bench.CounterLeasedTTS))},
	}
	return []workload{
		{name: "contended-64", procs: 1, warm: 100_000, window: 700_000, cells: contended,
			why: "64 cores on one hot line, the paper's headline regime: every op is a directory transaction and a proc handoff",
			pairs: []pair{
				{base: "counter-tts", lease: "counter-lease", paper: paperCounterSpeedup64},
				{base: "stack-base", lease: "stack-lease", paper: paperStackSpeedup64},
			}},
		{name: "search-8", procs: 1, warm: 40_000, window: 60_000, cells: search, pairs: searchPairs,
			why: "8 cores on the seven search structures at 20% updates: L1 hits and Sync fast-forward dominate, the lease table idles"},
		{name: "observed-16", procs: 1, warm: 100_000, window: 1_400_000, cells: observed,
			pairs: []pair{{base: "stack-base", lease: "stack-lease"}},
			why:   "16 cores with a recorder holding spans and ledger: the only workload whose telemetry bus is live"},
		{name: "quick-sweep", sweep: true,
			why: "every bench.All() experiment at QuickParams on a 2-worker Pool: the cross-cell pool, Pagerank, faults and protocol-compare"},
	}
}

// cellResult is one cell's outcome in one pass.
type cellResult struct {
	name   string
	res    bench.Result
	aborts uint64
	tardis bool
	tl2    bool
	emits  uint64 // telemetry events in the window (traced observed cells)
	digest string
	err    string
}

// passResult is one pass over a workload.
type passResult struct {
	wall      float64   // s, excluding set-up
	probe     float64   // s, the host-speed probe's time around the pass (untraced runs)
	setups    []float64 // s, per cell
	simCycles uint64
	alloc     uint64 // bytes
	mallocs   uint64
	cells     []cellResult
	sweepText map[string]string // experiment id -> Experiment.Run output
	sweepFail map[string]string // experiment id -> failure
}

// runCellPass runs every cell of w once, in order. traced subscribes the
// emit counter on observed cells; the digest must not depend on it.
func runCellPass(w workload, seed uint64, traced bool, tr *tracer, parent int) passResult {
	var pr passResult
	for _, c := range w.cells {
		cs := tr.begin("cell "+c.name, parent)
		cr, setup, sim := runCell(w, c, seed, traced, tr, cs)
		tr.end(cs)
		pr.cells = append(pr.cells, cr)
		pr.setups = append(pr.setups, setup)
		pr.wall += sim
		pr.simCycles += w.warm + w.window
	}
	return pr
}

func runCell(w workload, c cell, seed uint64, traced bool, tr *tracer, parent int) (cellResult, float64, float64) {
	cfg := machine.DefaultConfig(c.threads)
	cfg.Seed = seed
	cfg.Protocol = c.protocol
	cr := cellResult{name: c.name, tardis: c.protocol == coherence.ProtocolTardis, tl2: c.tl2}

	var m *machine.Machine
	opts := bench.Options{Hooks: []func(*machine.Machine){func(mm *machine.Machine) { m = mm }}}
	if c.observed {
		rec := telemetry.NewRecorder()
		rec.EnableSpans()
		rec.EnableLedger()
		opts.Recorder = rec
		if traced {
			warm := w.warm
			opts.Hooks = append(opts.Hooks, func(mm *machine.Machine) {
				mm.Telemetry().SubscribeAll(func(e telemetry.Event) {
					if e.Time >= warm {
						cr.emits++
					}
				})
			})
		}
	}
	inner := c.build(&cr.aborts)
	var built time.Time
	build := func(d *machine.Direct) bench.OpFunc {
		op := inner(d)
		built = time.Now()
		return op
	}
	start := time.Now()
	cr.res = bench.ThroughputOpts(cfg, c.threads, w.warm, w.window, build, opts)
	end := time.Now()
	if built.IsZero() { // the run failed inside set-up
		built = end
	}
	tr.add("setup", parent, start, built)
	tr.add("simulate", parent, built, end)

	switch {
	case cr.res.Err != nil:
		cr.err = "run error: " + cr.res.Err.Error()
	case m == nil:
		cr.err = "machine not captured"
	default:
		if err := m.VerifyCoherence(); err != nil {
			cr.err = "coherence: " + err.Error()
		}
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d %d %+v", cr.res.Ops, cr.aborts, cr.res.Window)))
	cr.digest = fmt.Sprintf("%x", sum[:8])
	return cr, built.Sub(start).Seconds(), end.Sub(built).Seconds()
}

// sweepSetupRepeats is how many times a sweep pass sets up each of
// sweepSetupCells: a sweep pass takes seconds, so a run holds few passes.
const sweepSetupRepeats = 5

// sweepSetupCells are the structure builders the quick sweep's cells set
// up, at QuickParams' largest thread count. Experiment.Run does not expose
// its cells' set-up, so the sweep's setup_s times these outside the sweep.
func sweepSetupCells() []cell {
	const n = 8
	cells := []cell{
		{name: "stack", build: plain(bench.StackWorkload(ds.StackOptions{}))},
		{name: "counter", build: plain(bench.CounterWorkload(bench.CounterTTS))},
		{name: "msqueue", build: plain(bench.QueueWorkload(ds.QueueNoLease))},
		{name: "lcrq", build: plain(bench.LCRQWorkload())},
		{name: "pq", build: plain(bench.PQWorkload(bench.PQFineLocking, 512))},
		{name: "multiqueue", build: plain(bench.MQWorkload(multiqueue.Options{}))},
		{name: "tl2", build: func(a *uint64) func(*machine.Direct) bench.OpFunc { return bench.TL2Workload(stm.NoLease, a) }},
	}
	for _, k := range bench.AllSetKinds() {
		cells = append(cells, cell{name: k.String(), build: plain(bench.SetWorkload(k, 0, 512, 256))})
	}
	for i := range cells {
		cells[i].threads = n
	}
	return cells
}

// runSweepPass runs every experiment once at QuickParams on a fresh
// 2-worker pool, in an order drawn from the seed: Experiment.Run takes no
// seed of its own (its cells use machine.DefaultConfig's).
func runSweepPass(seed uint64, pass int, tr *tracer, parent int) passResult {
	pr := passResult{sweepText: map[string]string{}, sweepFail: map[string]string{}}
	ss := tr.begin("setup", parent)
	setupW := workload{warm: 0, window: 0}
	for _, c := range sweepSetupCells() {
		var setups []float64
		for r := 0; r < sweepSetupRepeats; r++ {
			cr, setup, _ := runCell(setupW, c, seed, false, tr, ss)
			pr.cells = append(pr.cells, cr)
			setups = append(setups, setup)
		}
		pr.setups = append(pr.setups, median(setups))
	}
	tr.end(ss)

	exps := bench.All()
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(pass)))
	rng.Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
	prog := bench.NewProgress()
	pool := bench.NewPool(2)
	defer pool.Close()
	start := time.Now()
	for _, e := range exps {
		es := tr.begin("experiment "+e.ID, parent)
		p := bench.QuickParams()
		p.Pool, p.Progress, p.Exp = pool, prog, e.ID
		text, err := runExperiment(e, p)
		tr.end(es)
		pr.sweepText[e.ID] = text
		if err != "" {
			pr.sweepFail[e.ID] = err
		}
	}
	pr.wall = time.Since(start).Seconds()
	pr.simCycles = prog.Snapshot().SimCycles
	return pr
}

func runExperiment(e bench.Experiment, p bench.Params) (text, failure string) {
	var buf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			text, failure = buf.String(), fmt.Sprintf("panic: %v", r)
		}
	}()
	e.Run(&buf, p)
	text = buf.String()
	if i := strings.Index(text, "FAILED"); i >= 0 {
		line := text[i:]
		if j := strings.IndexByte(line, '\n'); j >= 0 {
			line = line[:j]
		}
		return text, line
	}
	return text, ""
}

// runPass runs one pass and records its host allocation. It collects
// the previous pass's garbage first, so every pass starts from the same
// heap.
func runPass(w workload, seed uint64, pass int, traced bool, tr *tracer, parent int) passResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var pr passResult
	if w.sweep {
		pr = runSweepPass(seed, pass, tr, parent)
	} else {
		pr = runCellPass(w, seed, traced, tr, parent)
	}
	runtime.ReadMemStats(&after)
	pr.alloc = after.TotalAlloc - before.TotalAlloc
	pr.mallocs = after.Mallocs - before.Mallocs
	return pr
}
