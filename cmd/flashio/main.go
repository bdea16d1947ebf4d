// Command flashio runs the Flash-IO kernel (§IV-C): HDF5-style checkpoint
// files of a block-structured AMR hydrodynamics code, written through the
// h5lite container layer. The harness times the checkpoint file, which
// consumes the majority of the I/O time; -plot additionally writes the two
// plot files (with and without corner data) per phase, as the real kernel
// does.
//
//	flashio -aggs 64 -cb 4 -case enabled
//	flashio -blocks 80 -plot
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/workloads"
)

// flashWithPlots wraps FlashIO to also emit the two plot files per phase.
type flashWithPlots struct {
	workloads.FlashIO
	plotVars int
}

func (f flashWithPlots) WritePhase(r *mpi.Rank, file *mpiio.File, payload bool) error {
	if err := f.FlashIO.WritePhase(r, file, payload); err != nil {
		return err
	}
	// The plot files are separate, much smaller files; to keep the harness
	// single-file-per-phase they are appended as extra datasets here, which
	// preserves the extra small-write traffic without changing accounting.
	if err := f.PlotFile(r, file, f.plotVars, false, payload); err != nil {
		return err
	}
	return f.PlotFile(r, file, f.plotVars, true, payload)
}

func main() {
	fs := flag.NewFlagSet("flashio", flag.ExitOnError)
	flags := cli.Register(fs, false)
	blocks := fs.Int("blocks", 80, "AMR blocks per process")
	vars := fs.Int("vars", 24, "unknowns (variables) per zone")
	plot := fs.Bool("plot", false, "also write the plot-file datasets each phase")
	plotVars := fs.Int("plot-vars", 4, "variables in each plot file")
	_ = fs.Parse(os.Args[1:])

	base := workloads.DefaultFlashIO()
	base.BlocksPerProc = *blocks
	base.Vars = *vars
	var w workloads.Workload = base
	if *plot {
		w = flashWithPlots{FlashIO: base, plotVars: *plotVars}
	}
	spec, err := flags.Spec(w)
	if err != nil {
		cli.Fatalf("flashio", "%v", err)
	}
	res, err := harness.Run(spec)
	if err != nil {
		cli.Fatalf("flashio", "%v", err)
	}
	flags.Report(os.Stdout, "flashio", res)
	fmt.Printf("  checkpoint size    : %.2f GB/process-file\n",
		float64(base.FileBytes(spec.Cluster.Nodes*spec.Cluster.RanksPerNode))/1e9)
}
