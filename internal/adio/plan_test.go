package adio

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/extent"
)

// bruteClip is the reference clipSegs: intersect win with every segment.
func bruteClip(segs []extent.Extent, win extent.Extent) []extent.Extent {
	var out []extent.Extent
	for _, s := range segs {
		if ov := s.Intersect(win); !ov.Empty() {
			out = append(out, ov)
		}
	}
	return out
}

// randSegs returns n sorted, non-empty, non-overlapping segments with
// random gaps (zero gaps make adjacent segments touch).
func randSegs(rng *rand.Rand, n int) []extent.Extent {
	segs := make([]extent.Extent, n)
	off := rng.Int63n(64)
	for i := range segs {
		segs[i] = extent.Extent{Off: off, Len: 1 + rng.Int63n(32)}
		off = segs[i].End() + rng.Int63n(3)*rng.Int63n(16)
	}
	return segs
}

// probeWindows returns windows covering every placement relative to segs:
// before, after, straddling, touching an end, inside one segment, empty.
func probeWindows(rng *rand.Rand, segs []extent.Extent) []extent.Extent {
	first, last := segs[0], segs[len(segs)-1]
	s := segs[rng.Intn(len(segs))]
	t := segs[rng.Intn(len(segs))]
	if t.Off < s.Off {
		s, t = t, s
	}
	return []extent.Extent{
		{Off: 0, Len: first.Off},                               // before, touching the first start
		{Off: last.End(), Len: 1 + rng.Int63n(64)},             // after, touching the last end
		{Off: last.End() + 5, Len: 10},                         // after, detached
		{Off: 0, Len: last.End() + 10},                         // covers everything
		{Off: s.Off + s.Len/2, Len: t.End() - s.Off},           // straddles s..t
		{Off: s.End() - 1, Len: 2},                             // straddles s's end
		{Off: s.End(), Len: 1 + rng.Int63n(8)},                 // starts where s ends
		{Off: s.Off - 3, Len: 3},                               // ends where s starts
		{Off: s.Off, Len: s.Len},                               // exactly s
		{Off: s.Off + rng.Int63n(s.Len), Len: 1},               // inside s
		{Off: s.Off + 1, Len: 0},                               // empty
		{Off: rng.Int63n(last.End() + 8), Len: rng.Int63n(48)}, // random
	}
}

func TestClipSegsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		segs := randSegs(rng, 1+rng.Intn(12))
		if _, err := validateSegs(segs); err != nil {
			t.Fatalf("generator produced invalid segments %v: %v", segs, err)
		}
		for _, win := range probeWindows(rng, segs) {
			got := clipSegs(nil, segs, win)
			if want := bruteClip(segs, win); !reflect.DeepEqual(got, want) {
				t.Fatalf("clipSegs(%v, %v) = %v, want %v", segs, win, got, want)
			}
			// Appending keeps what dst already holds.
			prefix := []extent.Extent{{Off: -9, Len: 1}}
			if got := clipSegs(prefix, segs, win); len(got) != 1+len(bruteClip(segs, win)) || got[0] != prefix[0] {
				t.Fatalf("clipSegs dropped the dst prefix: %v", got)
			}
		}
	}
	if got := clipSegs(nil, nil, extent.Extent{Off: 0, Len: 10}); len(got) != 0 {
		t.Fatalf("clipSegs over no segments = %v", got)
	}
}

// Paper_512's per-rank shape: 512 ranks write 256 segments each,
// interleaved across 64 file domains of 32 rounds of 16 MiB.
const (
	planRanks  = 512
	planSegs   = 256
	planAggs   = 64
	planCB     = 16 << 20
	planRounds = 32
)

// paperShape returns rank r's segments and the file domains.
func paperShape(r int) (segs, fds []extent.Extent) {
	file := int64(planAggs * planRounds * planCB)
	segLen := file / (planRanks * planSegs)
	segs = make([]extent.Extent, planSegs)
	for i := range segs {
		segs[i] = extent.Extent{Off: int64(i*planRanks+r) * segLen, Len: segLen}
	}
	fdLen := file / planAggs
	fds = make([]extent.Extent, planAggs)
	for a := range fds {
		fds[a] = extent.Extent{Off: int64(a) * fdLen, Len: fdLen}
	}
	return segs, fds
}

func TestPlanRoundMatchesBruteForce(t *testing.T) {
	segs, fds := paperShape(77)
	aggList := aggregatorRanks(planRanks, planAggs)
	exts := make([][]extent.Extent, planAggs)
	sizes := make([]int64, planRanks)
	var total int64
	for m := 0; m < planRounds; m++ {
		planRound(exts, sizes, segs, fds, aggList, planCB, m)
		want := make([]int64, planRanks)
		for a := range fds {
			w := bruteClip(segs, roundWindow(fds[a], planCB, m))
			if len(w) != len(exts[a]) || (len(w) > 0 && !reflect.DeepEqual(w, exts[a])) {
				t.Fatalf("round %d agg %d: plan %v, want %v", m, a, exts[a], w)
			}
			for _, e := range w {
				want[aggList[a]] += e.Len
			}
		}
		if !reflect.DeepEqual(sizes, want) {
			t.Fatalf("round %d: sizes differ from brute force", m)
		}
		for _, s := range sizes {
			total += s
		}
	}
	if total != planSegs*segs[0].Len {
		t.Fatalf("planned %d bytes over all rounds, want %d", total, planSegs*segs[0].Len)
	}
}

// BenchmarkRoundPlan plans every round of one paper_512 rank's collective
// write, reusing the per-round vectors as the two-phase loops do.
func BenchmarkRoundPlan(b *testing.B) {
	segs, fds := paperShape(77)
	aggList := aggregatorRanks(planRanks, planAggs)
	exts := make([][]extent.Extent, planAggs)
	sizes := make([]int64, planRanks)
	var want int64
	for m := 0; m < planRounds; m++ {
		for a := range fds {
			for _, e := range bruteClip(segs, roundWindow(fds[a], planCB, m)) {
				want += e.Len
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		for m := 0; m < planRounds; m++ {
			planRound(exts, sizes, segs, fds, aggList, planCB, m)
			for _, s := range sizes {
				got += s
			}
		}
		if got != want {
			b.Fatalf("planned %d bytes, brute force %d", got, want)
		}
	}
}
