package adio

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/store"
)

// TestOpenCollSharesHints checks that a collective open parses each Info
// content once per communicator: ranks passing equal Info maps share one
// *Hints, while a different Info, or the same Info on another
// communicator, gets a parse of its own.
func TestOpenCollSharesHints(t *testing.T) {
	cl := newCluster(t, 1, 2, 4, store.NewMem) // 8 ranks
	world := cl.w.Comm()
	n := world.Size()
	same := make([]*Hints, n)  // equal Info on the world
	mixed := make([]*Hints, n) // even and odd ranks differ
	split := make([]*Hints, n) // equal Info on the even/odd halves
	again := make([]*Hints, n) // rank 0 edits its map after opening
	open := func(r *mpi.Rank, c *mpi.Comm, path string, info mpi.Info) *Hints {
		f, err := OpenColl(r, OpenArgs{Comm: c, Registry: cl.reg, Path: path, Create: true, Info: info})
		if err != nil {
			t.Error(err)
			return nil
		}
		defer f.Close()
		return f.Hints()
	}
	err := cl.w.Run(func(r *mpi.Rank) {
		me := world.RankOf(r)
		// Every rank builds its own map: sharing must follow content, not
		// map identity.
		info := mpi.Info{HintCBBufferSize: "1048576", "e10_cache": "enable"}
		same[me] = open(r, world, "same", info)
		other := mpi.Info{HintCBBufferSize: "1048576", "e10_cache": "enable"}
		if me%2 == 1 {
			other[HintCBBufferSize] = "2097152"
		}
		mixed[me] = open(r, world, "mixed", other)
		half := world.Split(r, me%2, me)
		split[me] = open(r, half, "split", info)
		if me == 0 {
			info[HintCBBufferSize] = "4194304"
		}
		again[me] = open(r, world, "again", info)
	})
	if err != nil {
		t.Fatal(err)
	}
	for me := 0; me < n; me++ {
		if same[me] != same[0] {
			t.Errorf("rank %d: equal Info on one communicator parsed again", me)
		}
		if mixed[me] != mixed[me%2] {
			t.Errorf("rank %d: Info equal to rank %d's not shared", me, me%2)
		}
		if split[me] != split[me%2] {
			t.Errorf("rank %d: equal Info on its half not shared with rank %d", me, me%2)
		}
		if split[me] == same[0] {
			t.Errorf("rank %d: another communicator reused the world's parse", me)
		}
		if me > 0 && again[me] != same[0] {
			t.Errorf("rank %d: reopening with the world's Info parsed again", me)
		}
	}
	if mixed[0] != same[0] {
		t.Error("even ranks' Info equals the first open's but was parsed again")
	}
	if mixed[1] == mixed[0] || mixed[1].CBBufferSize != 2097152 {
		t.Errorf("odd ranks got %+v, want their own parse with cb_buffer_size 2097152", mixed[1])
	}
	if split[0] == split[1] {
		t.Error("the two halves share one parse")
	}
	if again[0] == same[0] || again[0].CBBufferSize != 4194304 || same[0].CBBufferSize != 1048576 {
		t.Errorf("an edited Info map must get its own parse and leave the shared one alone: got %d, shared %d",
			again[0].CBBufferSize, same[0].CBBufferSize)
	}
}

// TestOpenCollInvalidHintFailsEveryRank checks that a bad hint value fails
// the open on every rank with ParseHints' error, not only on the first
// rank to parse it.
func TestOpenCollInvalidHintFailsEveryRank(t *testing.T) {
	cl := newCluster(t, 1, 2, 4, store.NewMem)
	info := mpi.Info{HintCBNodes: "zero"}
	_, want := ParseHints(info, cl.w.Size())
	if want == nil {
		t.Fatal("cb_nodes=zero must be rejected")
	}
	err := cl.w.Run(func(r *mpi.Rank) {
		me := cl.w.Comm().RankOf(r)
		for range 2 {
			_, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
				Info: mpi.Info{HintCBNodes: "zero"}})
			if err == nil || err.Error() != want.Error() {
				t.Errorf("rank %d: open error %v, want %v", me, err, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParseHintsFirstInvalidInTableOrder parses an Info whose every adio
// hint is invalid 100 times: the error must always name the first hint of
// the table, romio_cb_write.
func TestParseHintsFirstInvalidInTableOrder(t *testing.T) {
	info := mpi.Info{}
	for _, row := range hintTable {
		info[row.Key] = "x"
	}
	errs := map[string]int{}
	for range 100 {
		_, err := ParseHints(info, 8)
		if err == nil {
			t.Fatalf("ParseHints(%v) accepted every hint invalid", info)
		}
		errs[err.Error()]++
	}
	want := `adio: hint romio_cb_write: invalid value "x"`
	if len(errs) != 1 || errs[want] != 100 {
		t.Fatalf("errors over 100 parses: %v, want only %q", errs, want)
	}
}

// TestOpenCollRejectsBadResilientWrite checks that e10_resilient_write is
// a parsed hint: a value other than enable or disable fails the open, and
// the valid ones are echoed and kept out of Extra.
func TestOpenCollRejectsBadResilientWrite(t *testing.T) {
	cl := newCluster(t, 1, 2, 4, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		_, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintResilientWrite: "enabled"}})
		if want := `adio: hint e10_resilient_write: invalid value "enabled"`; err == nil || err.Error() != want {
			t.Errorf("open error %v, want %s", err, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{HintEnable, HintDisable} {
		h, err := ParseHints(mpi.Info{HintResilientWrite: v}, 8)
		if err != nil || h.ResilientWrite != v || h.Echo()[HintResilientWrite] != v {
			t.Fatalf("e10_resilient_write=%s: %v %+v", v, err, h)
		}
		if _, leaked := h.Extra[HintResilientWrite]; leaked {
			t.Fatalf("e10_resilient_write=%s leaked into Extra", v)
		}
	}
}
