// Command e10chaos is the deterministic chaos explorer for the simulated
// E10 stack: it soaks randomized workload/fault scenarios through the full
// cluster and checks the end-to-end integrity invariants (byte
// conservation, no lost acks, journal-replay idempotence, lock release,
// liveness, trace/metrics consistency).
//
//	e10chaos -iters 200 -seed 1              # soak; exit 1 on any violation
//	e10chaos -iters 200 -json                # same, machine-readable report
//	e10chaos -iters 200 -family netfaults    # degraded-mode collective soak
//	e10chaos -iters 200 -family tenants      # multi-tenant service-mode soak
//	e10chaos -iters 200 -family corrupt      # corruption-recovery soak
//	e10chaos -replay chaos_repro.json        # re-execute a committed reproducer
//
// The whole soak is a pure function of (-seed, -iters): two runs print
// byte-identical reports with the same sha256 digest. When a scenario
// fails, the failing schedule is shrunk ddmin-style to a minimal
// reproducer and written as a replayable chaos_repro.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/critpath"
	"repro/internal/estat"
)

func main() {
	var (
		iters   = flag.Int("iters", 100, "scenarios to explore")
		seed    = flag.Int64("seed", 1, "master seed; the soak is a pure function of (seed, iters)")
		replay  = flag.String("replay", "", "replay this chaos_repro.json instead of soaking; exit 1 unless the recorded verdict reproduces")
		jsonOut = flag.Bool("json", false, "print the soak report as JSON instead of text")
		out     = flag.String("out", "", "also write the soak report JSON to this file")
		repro   = flag.String("repro", "chaos_repro.json", "where to write the shrunk reproducer when the soak fails")
		noShrnk = flag.Bool("no-shrink", false, "report failures without shrinking them")
		family  = flag.String("family", "cache", "scenario family to soak: cache (the default mix: cache-stack scenarios under crashes, device and target faults, one in four a degraded-mode collective), "+
			"netfaults (degraded-mode collectives: lossy links, duplication, partitions, aggregator crashes), "+
			"tenants (multi-tenant service mode: quotas, reservations, queued admissions, tenant crashes, NVM faults) or "+
			"corrupt (crashes followed by torn journal appends and bit-rot, probing scrub-and-repair)")
		critf   = flag.Bool("critpath", false, "with -replay: also print the replayed run's critical-path report")
		timelf  = flag.Bool("timeline", false, "with -replay: also print the replayed run's timeline")
		metOut  = flag.String("metrics-out", "", "with -replay: write the replayed run's metric snapshot as e10stat input JSON to this file (recovery/scrub counters included)")
		verbose = flag.Bool("v", false, "print one line per scenario")
	)
	flag.Parse()

	if *replay != "" {
		runReplay(*replay, *critf, *timelf, *metOut)
		return
	}

	var progress func(int, *chaos.Result)
	if *verbose {
		progress = func(i int, res *chaos.Result) {
			verdict := "ok"
			if res.Failed() {
				verdict = fmt.Sprintf("FAIL %v", res.ViolatedInvariants())
			}
			fmt.Fprintf(os.Stderr, "iter %3d seed %-20d %s/%s sessions=%d faults=%d: %s\n",
				i, res.Scenario.Seed, res.Scenario.Shape, res.Scenario.Mode,
				res.Scenario.Sessions, len(res.Scenario.Faults), verdict)
		}
	}

	rep, err := chaos.Explore(*seed, *iters, chaos.Family(*family), progress)
	if err != nil {
		fatalf("%v", err)
	}
	if *jsonOut {
		b, err := rep.JSON()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(b)
	} else {
		fmt.Print(rep.Text())
	}
	if *out != "" {
		b, err := rep.JSON()
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if len(rep.Failures) == 0 {
		return
	}

	// The soak failed: shrink the first failure to a minimal reproducer so
	// the bug ships as a replayable file, then exit nonzero.
	if !*noShrnk {
		first := rep.Failures[0]
		fmt.Fprintf(os.Stderr, "shrinking iter %d (seed %d)...\n", first.Iter, first.Seed)
		sr, err := chaos.Shrink(first.Scenario)
		if err != nil {
			fatalf("shrink: %v", err)
		}
		res, err := chaos.Execute(sr.Minimal)
		if err != nil {
			fatalf("minimal scenario: %v", err)
		}
		note := fmt.Sprintf("shrunk from soak seed=%d iter=%d in %d evals", *seed, first.Iter, sr.Evals)
		b, err := chaos.NewRepro(res, note).Marshal()
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*repro, b, 0o644); err != nil {
			fatalf("write %s: %v", *repro, err)
		}
		fmt.Fprintf(os.Stderr,
			"minimal reproducer: %d fault action(s), %d rank(s), %d block(s) of %d KB — wrote %s (replay with: e10chaos -replay %s)\n",
			len(sr.Minimal.Faults), sr.Minimal.Nodes*sr.Minimal.PerNode,
			sr.Minimal.Blocks, sr.Minimal.BlockKB, *repro, *repro)
	}
	os.Exit(1)
}

// runReplay re-executes a committed reproducer and verifies the recorded
// verdict still holds. With showCrit/showTimeline the replayed run's
// critical-path report and timeline are printed too — the replay is the
// cheapest way to get an attributed view of a failing schedule — and
// metricsOut exports the metric snapshot as e10stat input, which is how
// the scrub/quarantine counters of a corruption fixture reach e10stat.
func runReplay(path string, showCrit, showTimeline bool, metricsOut string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	rp, err := chaos.ParseRepro(data)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	res, match, err := chaos.Replay(rp)
	if err != nil {
		fatalf("replay %s: %v", path, err)
	}
	fmt.Printf("replayed %s: seed=%d %s/%s sessions=%d faults=%d injection=%q\n",
		path, rp.Scenario.Seed, rp.Scenario.Shape, rp.Scenario.Mode,
		rp.Scenario.Sessions, len(rp.Scenario.Faults), rp.Scenario.Injection)
	if rp.Note != "" {
		fmt.Printf("  note: %s\n", rp.Note)
	}
	fmt.Printf("  recorded verdict: %v\n", rp.Verdict)
	fmt.Printf("  replayed verdict: %v\n", res.ViolatedInvariants())
	for _, v := range res.Violations {
		fmt.Printf("    %s\n", v)
	}
	if showCrit {
		if res.CritPath != nil {
			fmt.Print(res.CritPath.Markdown())
		} else {
			fmt.Println("  (no critical-path report: the run did not terminate cleanly)")
		}
	}
	if showTimeline {
		if res.CritPath != nil {
			fmt.Print(critpath.BuildTimeline(res.Trace, res.CritPath.WallNs, critpath.DefaultTimelineBuckets).Markdown())
		} else {
			fmt.Println("  (no timeline: the run did not terminate cleanly)")
		}
	}
	if metricsOut != "" {
		in := estat.Input{
			Schema:           estat.Schema,
			Workload:         "chaos",
			Case:             rp.Scenario.Mode,
			Cell:             rp.Scenario.Shape,
			Ranks:            rp.Scenario.Nodes * rp.Scenario.PerNode,
			WallTimeNs:       res.WallNS,
			EventsDispatched: res.Events,
			Metrics:          res.Metrics,
		}
		b, err := json.MarshalIndent(in, "", "  ")
		if err != nil {
			fatalf("metrics-out: %v", err)
		}
		if err := os.WriteFile(metricsOut, append(b, '\n'), 0o644); err != nil {
			fatalf("metrics-out: %v", err)
		}
		fmt.Printf("  metrics: wrote %s (feed it to e10stat)\n", metricsOut)
	}
	if !match {
		fatalf("%s: verdict did NOT reproduce", path)
	}
	fmt.Println("  verdict reproduced")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "e10chaos: "+format+"\n", args...)
	os.Exit(1)
}
