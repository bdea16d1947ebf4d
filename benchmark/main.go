// Command benchmark is the repository's benchmark: four workloads run
// through the simulator's public entry points, measured end to end (host
// wall time, peak memory, set-up time, and the simulated system's virtual
// wall time and bandwidth) and, in a separate traced run, layer by layer
// (CPU profile shares, critical-path shares, registry counters). See
// README.md in this directory.
//
//	bash benchmark/run.sh -seed 42              # every workload, one child process each
//	bash benchmark/run.sh -seed 42 -trace 1     # the traced run: per-layer metrics
//	bash benchmark/run.sh -workload readback_64 -seed 7 -seconds 10 -trace 0
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

// resultsSchema versions the results file.
const resultsSchema = "e10perf/v1"

// detailPrefix marks the line on which a workload process hands its full
// result to the process that started it.
const detailPrefix = "detail "

// workloadResult is one workload's outcome in one process.
type workloadResult struct {
	Name      string             `json:"name"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Spans     []span             `json:"spans,omitempty"`
}

// results is the file a full run writes.
type results struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	name := flag.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 42, "workload seed; 42 matches the committed scale digests, 0 selects 42")
	seconds := flag.Int("seconds", 10, "seconds of timed reps per workload")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass, which reports the per-layer metrics")
	out := flag.String("out", "", "results file of a full run (default bench-results.json, or bench-layers.json with -trace 1)")
	compare := flag.Bool("compare", false, "compare two sides given as arguments, each one results file or a comma-separated list: -compare A.json B.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two sides, each a results file or a comma-separated list of them")
		} else {
			err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		}
	case *traceFlag != 0 && *traceFlag != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	default:
		if *seed == 0 {
			*seed = digestSeed
		}
		if *name != "" {
			err = runOne(*name, *seed, *seconds, *traceFlag == 1)
		} else {
			err = runAll(*seed, *seconds, *traceFlag == 1, *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOne measures one workload in this process, prints its metrics, the
// detail line and, last, the one-line JSON result, and fails when any rep
// or check failed.
func runOne(name string, seed int64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	// The simulation kernel runs one simulated process at a time, handing
	// off between goroutines; on one P those hand-offs stay on one thread.
	// On a 2-core machine shared with other tenants, one P ran paper_512
	// about 10% faster and kilo_degraded_4096 about 10% slower than two,
	// and made peak RSS steadier.
	runtime.GOMAXPROCS(1)
	res := measureWorkload(w, seed, time.Duration(seconds)*time.Second, traced)
	printResult(os.Stdout, res)
	detail, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("detail: %w", err)
	}
	fmt.Printf("%s%s\n", detailPrefix, detail)
	line, err := json.Marshal(resultLine(res))
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d reps failed, %d errors", name, res.Failed, res.Attempted, len(res.Errors))
	}
	return nil
}

// measureWorkload runs workload w: one warm-up rep, then the timed pass
// or the traced pass. The timed pass runs a set-up batch ahead of the
// warm-up and of every timed rep; the traced pass runs its set-up batches
// back to back before the warm-up.
func measureWorkload(w workload, seed int64, budget time.Duration, traced bool) workloadResult {
	spans := newSpanLog(w.name)
	l := &loop{run: func(rep int, tr bool) (*repResult, error) {
		spans.rep = rep
		defer spans.end(spans.begin("rep"))
		return w.rep(repEnv{seed: seed, traced: tr, spans: spans})
	}}
	if w.check != nil {
		l.check = func(r *repResult) error { return w.check(seed, r) }
	}
	rp := &report{res: workloadResult{Name: w.name, Seed: seed, Trace: traced, Metrics: map[string]summary{}}}

	batch := func(rep int) float64 {
		spans.rep = rep
		return setupBatch(w.cluster(seed), spans)
	}
	if traced {
		// Set-up batches stay out of the CPU profile of the reps.
		for range setupBatchesTraced {
			l.setupS = append(l.setupS, batch(0))
		}
	} else {
		l.setup = batch
	}
	l.once(0, false, false) // warm-up
	if traced {
		tracedPass(rp, l, budget, spans)
		rp.res.Spans = spans.spans
	} else {
		timedPass(rp, l, budget)
	}

	rp.put("failed_frac", float64(l.failed)/float64(l.attempted))
	res := rp.res
	res.Attempted, res.Failed = l.attempted, l.failed
	res.Errors = append(l.errs, res.Errors...)
	res.Correct = len(res.Errors) == 0
	return res
}

// report collects one workload's metrics and the errors of its checks.
type report struct{ res workloadResult }

func (p *report) fail(err error) { p.res.Errors = append(p.res.Errors, err.Error()) }

// put records the summary of metric name, which must be defined in one of
// the metric lists.
func (p *report) put(name string, values ...float64) {
	for _, defs := range [][]metricDef{endToEnd, reportOnly, perLayer(), detailLayer()} {
		for _, d := range defs {
			if d.name == name {
				p.res.Metrics[name] = summarize(d.unit, d.better, values)
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not defined")
}

// require fails the run for every metric of defs that was not recorded.
func (p *report) require(defs []metricDef) {
	for _, d := range defs {
		if _, ok := p.res.Metrics[d.name]; !ok {
			p.fail(fmt.Errorf("metric %s was not measured", d.name))
		}
	}
}

// timedPass runs untraced reps for budget and records the end-to-end
// metrics, then checks the 18-cell matrix against its committed baseline.
func timedPass(p *report, l *loop, budget time.Duration) {
	l.timed(1, budget)
	p.put("host_s", l.hostS...)
	p.put("setup_s", l.setupS...)
	if l.rssErr != nil {
		p.fail(l.rssErr)
	} else if len(l.rssMiB) > 0 {
		p.put("peak_rss_mb", slices.Max(l.rssMiB))
	}
	var wall, bw []float64
	extra := map[string][]float64{}
	for _, r := range l.reps {
		wall = append(wall, float64(r.wallNs())/1e9)
		bw = append(bw, r.bwGBs)
		for k, v := range r.extra {
			extra[k] = append(extra[k], v)
		}
	}
	if len(l.reps) > 0 {
		p.put("virt_wall_s", wall...)
		p.put("virt_bw_gbs", bw...)
	}
	for _, d := range reportOnly {
		if vs, ok := extra[d.name]; ok {
			p.put(d.name, vs...)
		}
	}
	if err := checkBenchReport(); err != nil {
		p.fail(err)
	}
	p.require(endToEnd)
}

// tracedPass runs untraced reps under the CPU profiler for budget, then one
// rep with tracing and metrics on, and records the per-layer metrics.
func tracedPass(p *report, l *loop, budget time.Duration, spans *spanLog) {
	p.put("harness.new_cluster_s", median(l.setupS))
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		p.fail(fmt.Errorf("cpu profile: %w", err))
		return
	}
	next := l.timed(1, budget)
	pprof.StopCPUProfile()
	if prf, err := parseProfile(prof.Bytes()); err != nil {
		p.fail(err)
	} else {
		for layer, share := range layerShares(prf) {
			p.put("cpu."+layer, share)
		}
	}
	if n := float64(len(l.hostS)); n > 0 {
		p.put("runtime.allocs", float64(l.mallocs)/n)
		p.put("runtime.allocs_per_event", float64(l.mallocs)/float64(l.timedEvents))
		p.put("runtime.alloc_mb", float64(l.allocBytes)/mib/n)
		p.put("runtime.gc_cycles", float64(l.gcCycles)/n)
		p.put("runtime.gc_pause_s", float64(l.gcPauseNs)/1e9/n)
		p.put("sim.events_per_s", float64(l.timedEvents)/n/median(l.hostS))
	}
	if r, d := l.once(next, true, false); r != nil {
		m, err := tracedMetrics(r, spans)
		if err != nil {
			p.fail(err)
		}
		for k, v := range m {
			p.put(k, v)
		}
		if len(l.hostS) > 0 {
			p.put("trace.overhead", d.Seconds()/median(l.hostS)-1)
		}
	}
	p.require(perLayer())
}

// setupBatchesTraced is how many set-up batches the traced pass runs for
// harness.new_cluster_s.
const setupBatchesTraced = 9

// benchGuardSeed and benchGuardFile are the committed virtual-time
// baseline of the 18-cell regression matrix.
const (
	benchGuardSeed = 20160901
	benchGuardFile = "BENCH_2026-08-05.json"
)

// checkBenchReport reruns the 18-cell matrix and fails when any cell's
// virtual outputs differ from the committed baseline at all, faster or
// slower. harness.CompareBenchReports at tolerance 0 names missing cells
// and slower ones; the exact comparison after it also catches a cell that
// got faster or whose bandwidth, hidden sync or byte counts moved.
func checkBenchReport() error {
	data, err := os.ReadFile(benchGuardFile)
	if err != nil {
		return fmt.Errorf("bench guard: %w", err)
	}
	base, err := harness.ParseBench(data)
	if err != nil {
		return fmt.Errorf("bench guard: %w", err)
	}
	cur, err := harness.RunBenchReport(benchGuardSeed)
	if err != nil {
		return fmt.Errorf("bench guard: %w", err)
	}
	if err := harness.CompareBenchReports(base, cur, 0); err != nil {
		return fmt.Errorf("bench guard: %w", err)
	}
	return sameBenchCells(base, cur)
}

// sameBenchCells fails when any baseline cell of base differs from the cell
// of the same name in cur in any field.
func sameBenchCells(base, cur *harness.BenchReport) error {
	var diffs []string
	for _, b := range base.Scenarios {
		i := slices.IndexFunc(cur.Scenarios, func(c harness.BenchScenario) bool { return c.Name == b.Name })
		if i >= 0 && cur.Scenarios[i] != b {
			diffs = append(diffs, fmt.Sprintf("%s: %+v, baseline %+v", b.Name, cur.Scenarios[i], b))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("bench guard: virtual outputs drifted from %s:\n  %s", benchGuardFile, strings.Join(diffs, "\n  "))
	}
	return nil
}

// lineResult is the one-line JSON result a workload process prints last.
type lineResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine reduces a workload result to the one-line form: the median of
// every end-to-end metric, or with tracing every per-layer metric of
// BENCHMARK.json. The detail metrics stay in the printed report and the
// results file.
func resultLine(res workloadResult) lineResult {
	defs := endToEnd
	if res.Trace {
		defs = perLayer()
	}
	out := lineResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		if s, ok := res.Metrics[d.name]; ok {
			out.Metrics[d.name] = lineMetric{Value: s.Median, Unit: d.unit}
		}
	}
	return out
}

// printResult prints every metric by name, unit, median, quartiles and n.
func printResult(w io.Writer, res workloadResult) {
	pass := "timed"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d): %d reps attempted, %d failed\n", res.Name, pass, res.Seed, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := res.Metrics[k]
		fmt.Fprintf(w, "  %-26s %14.6g %-6s q1 %-12.6g q3 %-12.6g n=%d\n", k, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
}

// runAll runs every workload, one after another, each in its own child
// process so that peak memory is per workload, then writes the results
// file (and, traced, the span file) and fails when any workload did.
func runAll(seed int64, seconds int, traced bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = "bench-results.json"
		if traced {
			out = "bench-layers.json"
		}
	}
	all := results{Schema: resultsSchema, Seed: seed, Seconds: seconds, Trace: traced}
	var spans []span
	var failed []string
	for _, w := range allWorkloads {
		res, err := runChild(exe, w.name, seed, seconds, traced)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			if res == nil {
				continue
			}
		}
		spans = append(spans, res.Spans...)
		res.Spans = nil
		all.Workloads = append(all.Workloads, *res)
	}
	if err := writeJSON(out, all); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if traced {
		if err := writeJSON("bench-trace.json", struct {
			Spans []span `json:"spans"`
		}{spans}); err != nil {
			return err
		}
		fmt.Println("wrote bench-trace.json")
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// runChild runs one workload in a child process of this binary, echoes its
// report as it comes, and returns the result from its detail line.
func runChild(exe, name string, seed int64, seconds int, traced bool) (*workloadResult, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", tr)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var res *workloadResult
	var detailErr error
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		line := sc.Text()
		if detail, ok := strings.CutPrefix(line, detailPrefix); ok {
			res = new(workloadResult)
			if detailErr = json.Unmarshal([]byte(detail), res); detailErr != nil {
				res = nil
			}
			continue
		}
		// The one-line JSON result repeats the report above it.
		if !strings.HasPrefix(line, `{"correct"`) {
			fmt.Println(line)
		}
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Keep the child from blocking on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}
	waitErr := cmd.Wait()
	switch {
	case scanErr != nil:
		return res, scanErr
	case waitErr != nil:
		return res, waitErr
	case detailErr != nil:
		return nil, fmt.Errorf("detail line: %w", detailErr)
	case res == nil:
		return nil, errors.New("no result from the workload process")
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
