package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFoldStack(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"innermost repo frame wins", []string{
			"leaserelease/internal/cache.(*Cache).Lookup",
			"leaserelease/internal/machine.(*Ctx).Load",
			"leaserelease/internal/sim.(*Engine).Run",
		}, "cache"},
		{"runtime frames charge their caller", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"runtime.gcAssistAlloc",
			"leaserelease/internal/coherence.(*Directory).arrive",
			"leaserelease/internal/sim.(*Engine).Run",
		}, "coherence"},
		{"tardis is its own layer", []string{
			"leaserelease/internal/coherence/tardis.(*Protocol).Submit",
			"leaserelease/internal/machine.(*Ctx).Store",
		}, "tardis"},
		{"workload code folds to ds", []string{
			"leaserelease/internal/locks.(*TTS).Lock",
			"leaserelease/internal/bench.CounterWorkload.func1.4",
		}, "ds"},
		{"nested module path", []string{
			"leaserelease/internal/apps/pagerank.Run.func2",
		}, "ds"},
		{"the benchmark's own frames", []string{
			"runtime.mapaccess2",
			"main.workCounts",
			"main.tracedRun",
		}, "perfbench"},
		{"no repo frame, collector", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.systemstack",
		}, "runtime.gc"},
		{"no repo frame, scheduler", []string{
			"runtime.futex",
			"runtime.notesleep",
			"runtime.stopm",
			"runtime.findRunnable",
			"runtime.schedule",
		}, "runtime.sched"},
		{"empty stack", nil, "runtime.sched"},
	}
	for _, c := range cases {
		if got := foldStack(c.frames); got != c.want {
			t.Errorf("%s: foldStack = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestFoldProfile decodes a real CPU profile of a rung and finds the
// rung's layer in it.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := rungEvent(100_000); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	fold, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Samples inside the race detector's C code carry no Go frames, so
	// under -race much of the time folds to runtime.sched; sim must still
	// lead the repo layers.
	for l, s := range fold {
		if l != "sim" && !strings.HasPrefix(l, "runtime.") && s >= fold["sim"] {
			t.Fatalf("fold %v: want sim to lead the repo layers", fold)
		}
	}
	if fold["sim"] <= 0 {
		t.Fatalf("fold %v: no time in sim", fold)
	}
	if _, err := foldProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestSetSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 1, Start: 15, End: 20},
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	setSelfTimes(spans)
	for id, want := range []int64{100 - 50 - 10, 30 - 5, 30, 5, 30} {
		if spans[id].Self != want {
			t.Errorf("span %d self = %d, want %d", id, spans[id].Self, want)
		}
	}
}

func TestParseTables(t *testing.T) {
	text := "intro line\n" +
		"threads  base Mops/s  lease Mops/s  speedup  tts nJ/op\n" +
		"-------  -----------  ------------  -------  ---------\n" +
		"2        10.000       20.000        2.000    4.000\n" +
		"8        -            40.000        0.500    16.000\n" +
		"\n" +
		"threads  hw Mtx/s\n" +
		"-------  --------\n" +
		"2        5.000\n"
	tables := parseTables(text)
	if len(tables) != 2 || len(tables[0].rows) != 2 || tables[0].header[1] != "base Mops/s" ||
		tables[0].rows[1][1] != "-" || tables[1].rows[0][1] != "5.000" {
		t.Fatalf("parsed %+v", tables)
	}
	r := sweepSimResults(text)
	near := func(a, b float64) bool { return a > b*0.999999 && a < b*1.000001 }
	// Mops: 10, 20, 40 and Mtx 5 -> geomean 40000^(1/4).
	if !near(r.mops, 14.142135623730951) || !near(r.njPerOp, 8) || !near(r.leaseSpeedup, 1) {
		t.Fatalf("sweep results %+v", r)
	}
}

func TestLadderRungsCheckTheirWork(t *testing.T) {
	for _, r := range ladder() {
		units, err := r.run(2000)
		if err != nil || units <= 0 {
			t.Errorf("%s: units %d, err %v", r.metric, units, err)
		}
	}
}

// TestReferenceSeconds pins the scaling of the gated time metrics: a
// pass that ran while the probe took k times its nominal time counts 1/k
// of its host seconds.
func TestReferenceSeconds(t *testing.T) {
	w := workload{name: "scaled"}
	passes := []passResult{
		{wall: 2, probe: 2 * probeNominalS, simCycles: 1e6, setups: []float64{0.2, 0.4}},
		{wall: 3, probe: 3 * probeNominalS, simCycles: 1e6, setups: []float64{0.3, 0.6}},
		{wall: 0.5, probe: probeNominalS / 2, simCycles: 1e6, setups: []float64{0.05, 0.1}},
	}
	values, _ := endToEndValues(w, passes)
	if got := values["ref_wall_s"]; math.Abs(got-1) > 1e-12 {
		t.Errorf("ref_wall_s = %v, want 1", got)
	}
	if got := values["sim_cycles_per_ref_s"]; math.Abs(got-1e6) > 1e-3 {
		t.Errorf("sim_cycles_per_ref_s = %v, want 1e6", got)
	}
	if got := values["setup_s"]; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("setup_s = %v, want 0.3", got)
	}
	if p := newProbe().run(); !(p > 0) {
		t.Errorf("probe took %v s", p)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workloads and metrics in step
// with the program.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || (got[i].Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.name, got[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
