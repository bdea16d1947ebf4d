package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/store"
)

// refOutcome is what a run must reproduce under the message-passing
// reference collectives: every global file's bytes and, per file and
// rank, the ADIO statistics and the aggregator list.
type refOutcome struct {
	files map[string][]byte
	stats map[string]adio.Stats
	aggs  map[string][]int
}

// recordFiles makes every collective open on cl record its ADIO file in
// *files. It wraps the cluster's hook factory, so the hooks each file
// gets are unchanged.
func recordFiles(cl *Cluster, files *[]*adio.File) {
	inner := cl.Env.Hooks
	cl.Env.Hooks = func(f *adio.File) (adio.Hooks, error) {
		*files = append(*files, f)
		if inner == nil {
			return nil, nil
		}
		return inner(f)
	}
}

// outcome collects the refOutcome of a finished payload run.
func outcome(t *testing.T, cl *Cluster, files []*adio.File) refOutcome {
	t.Helper()
	o := refOutcome{files: map[string][]byte{}, stats: map[string]adio.Stats{}, aggs: map[string][]int{}}
	for _, f := range files {
		key := fmt.Sprintf("%s/rank%d", f.Path(), f.Rank().ID())
		o.stats[key], o.aggs[key] = f.Stats, f.Aggregators()
		if _, ok := o.files[f.Path()]; ok {
			continue
		}
		meta := cl.FS.Lookup(f.Path())
		if meta == nil {
			t.Fatalf("global file %s not found", f.Path())
		}
		b := make([]byte, meta.Size())
		meta.Store().ReadAt(store.Bytes(b, 0), 0, int64(len(b)))
		o.files[f.Path()] = b
	}
	return o
}

// sameOutcome fails t, naming the first difference, unless a and b agree.
func sameOutcome(t *testing.T, cell string, a, b refOutcome) {
	t.Helper()
	keys := func(m map[string]adio.Stats) []string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if !reflect.DeepEqual(keys(a.stats), keys(b.stats)) || len(a.files) != len(b.files) {
		t.Fatalf("%s: the two models opened different files", cell)
	}
	for name, ab := range a.files {
		if !bytes.Equal(ab, b.files[name]) {
			t.Errorf("%s: global file %s differs (%d vs %d bytes)", cell, name, len(ab), len(b.files[name]))
		}
	}
	for _, k := range keys(a.stats) {
		if a.stats[k] != b.stats[k] {
			t.Errorf("%s: %s adio stats differ:\n analytic        %+v\n message-passing %+v", cell, k, a.stats[k], b.stats[k])
		}
		if !reflect.DeepEqual(a.aggs[k], b.aggs[k]) {
			t.Errorf("%s: %s aggregators differ: %v vs %v", cell, k, a.aggs[k], b.aggs[k])
		}
	}
}

// TestMessagePassingReference runs the stack over the message-passing
// reference collectives where it uses the analytic ones: every cell of
// the 18-cell bench matrix with real bytes, and a payload readback
// (WriteAtAll, Sync, ReadAtAll). Each runs once as is and once with the
// world communicator, and so every communicator split from it, set to
// mpi.MessagePassing through Spec.PreRun. Global-file bytes, ADIO stats
// and aggregator lists must be identical; virtual wall time may differ
// and is only logged.
func TestMessagePassingReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 19 payload cells under both collective models")
	}
	moved := false
	for _, cell := range benchCells(20160901) {
		var out [2]refOutcome
		var wall [2]float64
		for i, model := range []mpi.CollModel{mpi.Analytic, mpi.MessagePassing} {
			spec := cell.Spec
			spec.Cluster.Payload = true
			spec.Metrics = false
			var files []*adio.File
			var cl *Cluster
			spec.PreRun = func(c *Cluster) error {
				cl = c
				c.World.Comm().SetCollModel(model)
				recordFiles(c, &files)
				return nil
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s model %d: %v", cell.Name, model, err)
			}
			out[i], wall[i] = outcome(t, cl, files), res.WallTime.Seconds()
		}
		sameOutcome(t, cell.Name, out[0], out[1])
		moved = moved || wall[0] != wall[1]
		t.Logf("%-44s wall analytic %.4f s, message-passing %.4f s (%+.1f%%)",
			cell.Name, wall[0], wall[1], 100*(wall[1]/wall[0]-1))
	}

	if !moved {
		t.Error("no cell's wall time moved: the message-passing model was not in use")
	}

	var out [2]refOutcome
	for i, model := range []mpi.CollModel{mpi.Analytic, mpi.MessagePassing} {
		var files []*adio.File
		var cl *Cluster
		data, got := make([][]byte, 64), make([][]byte, 64)
		payloadReadback(t, data, got, func(c *Cluster) {
			cl = c
			c.World.Comm().SetCollModel(model)
			recordFiles(c, &files)
		})
		out[i] = outcome(t, cl, files)
	}
	sameOutcome(t, "readback", out[0], out[1])
}
