// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator from the outside, through bench's public
// harness and each layer's public API, checks the outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload contended-64 --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"leaserelease/internal/bench"
)

// Seeds: the default, and one held out for confirming a later claim on
// inputs the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
	minPasses   = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := fl.Float64("seconds", 10, "how long to measure")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fl.String("out", ".bench_build/perfbench", "directory for the traced run's spans and profile")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w workload
	for _, c := range workloads() {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace is 0 or 1, not %d\n", *trace)
		return 2
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	host := fingerprint()
	fmt.Fprintf(stdout, "host: %s\n", host)
	fmt.Fprintf(stdout, "workload %s (seed %d): %s\n", w.name, *seed, w.why)

	var res result
	if *trace == 1 {
		var err error
		if res, err = tracedRun(w, *seed, *seconds, *out, host, stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		res = plainRun(w, *seed, *seconds, stdout)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64) result {
	r := result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	return r
}

// measure runs passes until seconds have passed and at least min passes
// are done. pass receives the pass index.
func measure(seconds float64, min int, pass func(i int)) {
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < seconds; i++ {
		pass(i)
	}
}

func plainRun(w workload, seed uint64, seconds float64, stdout io.Writer) result {
	// The probe runs after a collection, so no marking shares the core
	// with it; each pass is scaled by the mean of the probes either side.
	pb := newProbe()
	var passes []passResult
	var probes []float64
	measure(seconds, minPasses, func(i int) {
		runtime.GC()
		probes = append(probes, pb.run())
		passes = append(passes, runPass(w, seed, i, false, nil, -1))
	})
	runtime.GC()
	probes = append(probes, pb.run())
	for i := range passes {
		passes[i].probe = (probes[i] + probes[i+1]) / 2
	}
	attempted, failures := check(passes)
	values, extra := endToEndValues(w, passes)
	values["peak_rss_mb"] = peakRSSMB()
	res := newResult(endToEnd, values)
	res.Attempted, res.Failed = attempted, len(failures)
	res.Correct = len(failures) == 0
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
	}
	extra = append(extra, fmt.Sprintf("wall_s of each pass, in order: %.4g", walls),
		fmt.Sprintf("probe_s around each pass, in order: %.4g", probes))
	printReport(stdout, len(passes), endToEnd, values, extra, failures, attempted)
	return res
}

// check applies the output checks: no cell failed, coherence verified,
// and every pass reproduced the first pass's digests (or sweep text).
func check(passes []passResult) (attempted int, failures []string) {
	first := passes[0]
	for pi, p := range passes {
		for ci, c := range p.cells {
			attempted++
			switch {
			case c.err != "":
				failures = append(failures, fmt.Sprintf("pass %d cell %s: %s", pi, c.name, c.err))
			case c.digest != first.cells[ci].digest:
				failures = append(failures, fmt.Sprintf("pass %d cell %s: digest %s differs from pass 0's %s",
					pi, c.name, c.digest, first.cells[ci].digest))
			}
		}
		for id, text := range p.sweepText {
			attempted++
			switch {
			case p.sweepFail[id] != "":
				failures = append(failures, fmt.Sprintf("pass %d experiment %s: %s", pi, id, p.sweepFail[id]))
			case text != first.sweepText[id]:
				failures = append(failures, fmt.Sprintf("pass %d experiment %s: output differs from pass 0", pi, id))
			}
		}
	}
	sort.Strings(failures)
	return attempted, failures
}

// endToEndValues computes the end-to-end metrics over untraced passes,
// plus the text-only ones (speedup_err_vs_paper, failed_frac inputs).
func endToEndValues(w workload, passes []passResult) (map[string]float64, []string) {
	var wall, cps, refWall, refCPS, alloc []float64
	for _, p := range passes {
		ref := p.wall * probeNominalS / p.probe
		wall = append(wall, p.wall)
		cps = append(cps, float64(p.simCycles)/p.wall)
		refWall = append(refWall, ref)
		refCPS = append(refCPS, float64(p.simCycles)/ref)
		alloc = append(alloc, float64(p.alloc)/1e6)
	}
	var sr simResults
	if w.sweep {
		sr = sweepSimResults(sweepText(passes[0]))
	} else {
		sr = cellSimResults(w, passes[0].cells)
	}
	values := map[string]float64{
		"ref_wall_s":           median(refWall),
		"setup_s":              setupSeconds(passes, true),
		"sim_cycles_per_ref_s": median(refCPS),
		"alloc_mb":             median(alloc),
		"sim_mops":             sr.mops,
		"sim_nj_per_op":        sr.njPerOp,
		"lease_speedup":        sr.leaseSpeedup,
	}
	// The unscaled host times, for reading beside the host line.
	extra := []string{
		fmt.Sprintf("wall_s %.6g s, sim_cycles_per_s %.6g cycles/s, host setup_s %.6g s (host seconds, medians over passes)",
			median(wall), median(cps), setupSeconds(passes, false)),
	}
	if len(sr.paperPairs) > 0 {
		extra = append(extra, fmt.Sprintf("speedup_err_vs_paper %.4f |ln ratio| over %s; the references come from the Graphite simulator, so the model is unvalidated against hardware",
			sr.speedupErr, strings.Join(sr.paperPairs, ", ")))
	}
	return values, extra
}

// setupSeconds sums, over the cells a pass sets up, each cell's median
// set-up time across the passes; ref scales each pass's times to
// reference seconds by the probe around it.
func setupSeconds(passes []passResult, ref bool) float64 {
	var total float64
	for c := range passes[0].setups {
		var xs []float64
		for _, p := range passes {
			x := p.setups[c]
			if ref {
				x *= probeNominalS / p.probe
			}
			xs = append(xs, x)
		}
		total += median(xs)
	}
	return total
}

// sweepText joins a sweep pass's outputs in bench.All() order, a blank
// line apart so no table runs into the next experiment's.
func sweepText(p passResult) string {
	var texts []string
	for _, e := range bench.All() {
		texts = append(texts, p.sweepText[e.ID])
	}
	return strings.Join(texts, "\n")
}

func printReport(wr io.Writer, passes int, defs []metricDef, values map[string]float64,
	extra, failures []string, attempted int) {
	fmt.Fprintf(wr, "%d passes\n", passes)
	for _, d := range defs {
		fmt.Fprintf(wr, "  %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, e := range extra {
		fmt.Fprintf(wr, "  %s\n", e)
	}
	fmt.Fprintf(wr, "  %-28s %14.6g fraction (%d of %d)\n", "failed_frac",
		ratio(float64(len(failures)), float64(attempted)), len(failures), attempted)
	for _, f := range failures {
		fmt.Fprintf(wr, "FAILED %s\n", f)
	}
}

// tracedRun alternates untraced and traced passes, so the tracing
// overhead is measured on the same host conditions, then climbs the
// ladder. It writes the spans and layer fold under out.
func tracedRun(w workload, seed uint64, seconds float64, out string, host hostInfo, stdout io.Writer) (result, error) {
	tr := newTracer()
	root := tr.begin("workload "+w.name, -1)
	var plain, traced []passResult
	self := map[string]float64{}
	var firstProfile []byte
	var profErr error
	measure(seconds, 2*minPasses, func(i int) {
		if i%2 == 0 {
			plain = append(plain, runPass(w, seed, i, false, nil, -1))
			return
		}
		ps := tr.begin(fmt.Sprintf("pass %d", i), root)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			profErr = err
		}
		traced = append(traced, runPass(w, seed, i, true, tr, ps))
		tr.end(ps) // before the profiler's flush, which is not the pass's work
		pprof.StopCPUProfile()
		fold, err := foldProfile(buf.Bytes())
		if err != nil {
			profErr = err
		}
		for l, s := range fold {
			self[l] += s
		}
		if firstProfile == nil {
			firstProfile = buf.Bytes()
		}
	})
	tr.end(root)
	if profErr != nil {
		return result{}, fmt.Errorf("cpu profile: %w", profErr)
	}

	values := map[string]float64{}
	var total float64
	for l, s := range self {
		self[l] = s / float64(len(traced))
		total += self[l]
	}
	for _, l := range selfLayers {
		values[l+".self_s"] = self[l]
	}
	if !w.sweep {
		for k, v := range workCounts(w, traced[0].cells) {
			values[k] = v
		}
	}
	var mallocs, cycles float64
	var plainWall, tracedWall []float64
	for _, p := range plain {
		mallocs += float64(p.mallocs)
		cycles += float64(p.simCycles)
		plainWall = append(plainWall, p.wall)
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall)
	}
	values["machine.allocs_per_kcycle"] = ratio(mallocs, cycles/1000)
	values["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1

	passes := append(append([]passResult(nil), plain...), traced...)
	attempted, failures := check(passes)
	ls := tr.begin("ladder", -1)
	for _, r := range ladder() {
		rs := tr.begin("rung "+r.metric, ls)
		ns, err := runRung(r)
		tr.end(rs)
		attempted++
		if err != nil {
			failures = append(failures, "rung "+err.Error())
		}
		values[r.metric] = ns
	}
	tr.end(ls)

	res := newResult(perLayer, values)
	res.Attempted, res.Failed = attempted, len(failures)
	res.Correct = len(failures) == 0
	var shares []string
	for _, l := range sortedKeys(self) {
		shares = append(shares, fmt.Sprintf("%s %.1f%%", l, 100*ratio(self[l], total)))
	}
	printReport(stdout, len(passes), perLayer, values,
		[]string{"profile fold (share of traced CPU time): " + strings.Join(shares, ", ")},
		failures, attempted)

	dump := map[string]interface{}{
		"host": host, "workload": w.name, "seed": seed,
		"layer_self_s": self, "metrics": values, "spans": tr.finish(),
	}
	data, err := json.MarshalIndent(dump, "", " ")
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d", w.name, seed))
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".pprof", firstProfile, 0o644); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "spans and fold: %s.json; first traced pass profile: %s.pprof\n", base, base)
	return res, nil
}

func sortedKeys(m map[string]float64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, which
// Linux reports in kilobytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// hostInfo fingerprints the host and the source: numbers taken under a
// different Go, CPU count or GOMAXPROCS are not comparable.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Revision   string `json:"git_revision"`
	Source     string `json:"source_sha256"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("go=%s %s/%s cpus=%d gomaxprocs=%d rev=%s src=%s",
		h.GoVersion, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS, h.Revision, h.Source)
}

func fingerprint() hostInfo {
	h := hostInfo{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	h.Source = sourceDigest(".")
	return h
}

// sourceDigest hashes the Go sources under root, so a run names the code
// it measured even where the checkout is not a git repository.
func sourceDigest(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(sum, "%s %d\n", filepath.ToSlash(path), len(data))
			sum.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", sum.Sum(nil)[:6])
}
