package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"leaserelease/internal/bench"
	"leaserelease/internal/coherence"
)

type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off; BENCHMARK.json lists the same
// names and units with their bounds.
var endToEnd = []metricDef{
	{"ref_wall_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_ref_s", "cycles/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"sim_mops", "Mops/s"},
	{"sim_nj_per_op", "nJ/op"},
	{"lease_speedup", "ratio"},
}

// selfLayers are the layers whose profile-folded self time is reported.
var selfLayers = []string{"sim", "runtime.sched", "runtime.gc", "machine", "cache", "mem",
	"coherence", "tardis", "core", "telemetry", "ds", "bench", "faults", "invariant"}

// perLayer are reported by the traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	return append(defs, []metricDef{
		{"sim.ns_per_event", "ns"},
		{"sim.ns_per_handoff", "ns"},
		{"sim.ns_per_sync", "ns"},
		{"machine.ns_per_hit_op", "ns"},
		{"machine.ns_per_miss_op", "ns"},
		{"machine.allocs_per_kcycle", "allocs/kcycle"},
		{"cache.ns_per_lookup", "ns"},
		{"cache.lookups_per_op", "1/op"},
		{"cache.hit_ratio", "ratio"},
		{"mem.ns_per_load", "ns"},
		{"coherence.ns_per_txn", "ns"},
		{"coherence.requests_per_op", "1/op"},
		{"coherence.msgs_per_op", "1/op"},
		{"coherence.max_dir_queue", "count"},
		{"tardis.ns_per_txn", "ns"},
		{"tardis.renewals_per_op", "1/op"},
		{"tardis.rts_jumps_per_op", "1/op"},
		{"core.ns_per_lease", "ns"},
		{"core.leases_per_op", "1/op"},
		{"core.voluntary_ratio", "ratio"},
		{"core.deferred_probes_per_op", "1/op"},
		{"telemetry.ns_per_emit", "ns"},
		{"telemetry.ns_per_emit_off", "ns"},
		{"telemetry.emits_per_op", "1/op"},
		{"ds.cas_success_ratio", "ratio"},
		{"ds.aborts_per_op", "1/op"},
		{"trace.overhead_frac", "fraction"},
	}...)
}()

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of the positive values; 0 when there are none.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simResults are the deterministic simulated end-to-end metrics.
type simResults struct {
	mops, njPerOp, leaseSpeedup float64
	speedupErr                  float64 // 0 when the workload has no paper pair
	paperPairs                  []string
}

// cellSimResults folds one pass's cells: geomeans over cells, and over
// the workload's base/lease pairs.
func cellSimResults(w workload, cells []cellResult) simResults {
	byName := map[string]bench.Result{}
	var mops, nj []float64
	for _, c := range cells {
		byName[c.name] = c.res
		mops = append(mops, c.res.MopsPerSec)
		nj = append(nj, c.res.NJPerOp)
	}
	r := simResults{mops: geomean(mops), njPerOp: geomean(nj)}
	var speedups []float64
	var errSum float64
	for _, p := range w.pairs {
		s := ratio(byName[p.lease].MopsPerSec, byName[p.base].MopsPerSec)
		speedups = append(speedups, s)
		if p.paper > 0 && s > 0 {
			errSum += math.Abs(math.Log(s / p.paper))
			r.paperPairs = append(r.paperPairs, p.lease+"/"+p.base+"="+strconv.FormatFloat(s, 'f', 3, 64)+
				" (paper "+strconv.FormatFloat(p.paper, 'f', 0, 64)+")")
		}
	}
	r.leaseSpeedup = geomean(speedups)
	if len(r.paperPairs) > 0 {
		r.speedupErr = errSum / float64(len(r.paperPairs))
	}
	return r
}

// sweepSimResults reads the quick sweep's printed tables: the geomean of
// every Mops/s (or Mtx/s) cell, every nJ/op (or nJ/tx) cell, and every
// speedup column.
func sweepSimResults(text string) simResults {
	var mops, nj, speedup []float64
	for _, t := range parseTables(text) {
		for ci, h := range t.header {
			var dst *[]float64
			switch {
			case strings.HasSuffix(h, "Mops/s"), strings.HasSuffix(h, "Mtx/s"):
				dst = &mops
			case strings.HasSuffix(h, "nJ/op"), strings.HasSuffix(h, "nJ/tx"):
				dst = &nj
			case h == "speedup", strings.HasSuffix(h, " speedup"):
				dst = &speedup
			default:
				continue
			}
			for _, row := range t.rows {
				if v, err := strconv.ParseFloat(row[ci], 64); err == nil {
					*dst = append(*dst, v)
				}
			}
		}
	}
	return simResults{mops: geomean(mops), njPerOp: geomean(nj), leaseSpeedup: geomean(speedup)}
}

type table struct {
	header []string
	rows   [][]string
}

// parseTables finds every bench.Table in text. A table is a header line,
// a rule of dash runs that gives each column's extent, and rows up to the
// next blank line.
func parseTables(text string) []table {
	lines := strings.Split(text, "\n")
	var out []table
	for i := 1; i < len(lines); i++ {
		starts := ruleColumns(lines[i])
		if starts == nil {
			continue
		}
		t := table{header: splitColumns(lines[i-1], starts)}
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != ""; i++ {
			t.rows = append(t.rows, splitColumns(lines[i], starts))
		}
		out = append(out, t)
	}
	return out
}

// ruleColumns returns the start offset of each dash run when line is a
// table rule, else nil.
func ruleColumns(line string) []int {
	if strings.Trim(line, "- ") != "" || !strings.HasPrefix(line, "-") {
		return nil
	}
	var starts []int
	for i := 0; i < len(line); i++ {
		if line[i] == '-' && (i == 0 || line[i-1] == ' ') {
			starts = append(starts, i)
		}
	}
	return starts
}

func splitColumns(line string, starts []int) []string {
	cols := make([]string, len(starts))
	for i, s := range starts {
		if s >= len(line) {
			break
		}
		e := len(line)
		if i+1 < len(starts) && starts[i+1] < e {
			e = starts[i+1]
		}
		cols[i] = strings.TrimSpace(line[s:e])
	}
	return cols
}

// workCounts are the per-layer counts of one pass, from the cells'
// machine.Stats windows.
func workCounts(w workload, cells []cellResult) map[string]float64 {
	var ops, tardisOps, tl2Ops, observedOps float64
	var hits, misses, requests, msgs, leases, voluntary, ended, deferred, casOK, casFail float64
	var renewals, rtsJumps, aborts, emits float64
	maxQueue := 0
	for _, c := range cells {
		st, o := c.res.Window, float64(c.res.Ops)
		ops += o
		hits += float64(st.L1Hits)
		misses += float64(st.L1Misses)
		requests += float64(st.Msgs[coherence.MsgRequest])
		msgs += float64(st.TotalMsgs())
		leases += float64(st.Leases)
		voluntary += float64(st.VoluntaryReleases)
		ended += float64(st.VoluntaryReleases + st.InvoluntaryReleases + st.EvictedLeases +
			st.ForcedReleases + st.BrokenLeases)
		deferred += float64(st.DeferredProbes)
		casOK += float64(st.CASSuccesses)
		casFail += float64(st.CASFailures)
		maxQueue = max(maxQueue, st.MaxDirQueue)
		if c.tardis {
			tardisOps += o
			renewals += float64(st.Renewals)
			rtsJumps += float64(st.RTSJumps)
		}
		if c.tl2 {
			// The abort counter spans warm-up and window; bench's TL2
			// experiments take the window's share the same way.
			tl2Ops += o
			aborts += float64(c.aborts) * float64(w.window) / float64(w.warm+w.window)
		}
		if c.emits > 0 {
			observedOps += o
			emits += float64(c.emits)
		}
	}
	return map[string]float64{
		"cache.lookups_per_op":        ratio(hits+misses, ops),
		"cache.hit_ratio":             ratio(hits, hits+misses),
		"coherence.requests_per_op":   ratio(requests, ops),
		"coherence.msgs_per_op":       ratio(msgs, ops),
		"coherence.max_dir_queue":     float64(maxQueue),
		"tardis.renewals_per_op":      ratio(renewals, tardisOps),
		"tardis.rts_jumps_per_op":     ratio(rtsJumps, tardisOps),
		"core.leases_per_op":          ratio(leases, ops),
		"core.voluntary_ratio":        ratio(voluntary, ended), // useful leases / leases ended
		"core.deferred_probes_per_op": ratio(deferred, ops),
		"telemetry.emits_per_op":      ratio(emits, observedOps),
		"ds.cas_success_ratio":        ratio(casOK, casOK+casFail),
		"ds.aborts_per_op":            ratio(aborts, tl2Ops),
	}
}
