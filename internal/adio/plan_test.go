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

// brutePlan is the reference round plan: clipSegs against every
// aggregator's round-m window, keeping the aggregators that get a piece.
func brutePlan(segs, fds []extent.Extent, aggList []int, cb int64, m int) (groups []int, exts [][]extent.Extent, send []int64) {
	for a := range fds {
		w := bruteClip(segs, roundWindow(fds[a], cb, m))
		if len(w) == 0 {
			continue
		}
		var bytes int64
		for _, e := range w {
			bytes += e.Len
		}
		groups = append(groups, a)
		exts = append(exts, w)
		send = append(send, int64(aggList[a]), bytes)
	}
	return groups, exts, send
}

// checkRound compares rp, just planned for round m, with brutePlan.
func checkRound(t *testing.T, rp *roundPlan, segs, fds []extent.Extent, aggList []int, cb int64, m int) {
	t.Helper()
	groups, exts, send := brutePlan(segs, fds, aggList, cb, m)
	if len(rp.groups) != len(groups) {
		t.Fatalf("round %d of segs %v over fds %v (cb %d): %d groups, want %d (%v)",
			m, segs, fds, cb, len(rp.groups), len(groups), exts)
	}
	for k, g := range rp.groups {
		if g.agg != groups[k] || !reflect.DeepEqual(rp.exts(g), exts[k]) {
			t.Fatalf("round %d of segs %v over fds %v (cb %d): group %d is agg %d %v, want agg %d %v",
				m, segs, fds, cb, k, g.agg, rp.exts(g), groups[k], exts[k])
		}
	}
	if len(rp.send) != len(send) || (len(send) > 0 && !reflect.DeepEqual(rp.send, send)) {
		t.Fatalf("round %d: send list %v, want %v", m, rp.send, send)
	}
}

// randDomains returns n contiguous file domains from off whose lengths
// straddle cb: some shorter than one round, some many rounds long, so a
// late round has empty windows between non-empty ones.
func randDomains(rng *rand.Rand, off int64, n int, cb int64) []extent.Extent {
	fds := make([]extent.Extent, n)
	for a := range fds {
		l := 1 + rng.Int63n(cb)
		if rng.Intn(2) == 0 {
			l += rng.Int63n(4 * cb)
		}
		fds[a] = extent.Extent{Off: off, Len: l}
		off += l
	}
	return fds
}

// TestPlanRoundMergeMatchesBruteForce checks the merge against clipSegs per
// aggregator on random shapes: no segments; segments shorter and longer
// than the domains, so some span several; domains shorter than cb and
// fewer domains than aggregators; every round past the last, where windows
// are empty and segments fall in the gaps between the remaining windows.
// One round plan is reused throughout, as a File reuses its own.
func TestPlanRoundMergeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var rp roundPlan
	for iter := 0; iter < 3000; iter++ {
		cb := 1 + rng.Int63n(40)
		var segs []extent.Extent
		if n := rng.Intn(16); n > 0 {
			segs = randSegs(rng, n)
			if rng.Intn(3) == 0 { // long segments spanning several domains
				for i := range segs {
					segs[i].Off *= 8
					segs[i].Len *= 1 + rng.Int63n(8)
				}
			}
		}
		naggs := 1 + rng.Intn(12)
		var fds []extent.Extent
		switch rng.Intn(3) {
		case 0:
			fds = randDomains(rng, rng.Int63n(64), 1+rng.Intn(naggs), cb)
		case 1: // ROMIO's even split; fewer domains than aggregators when the range is short
			lo := rng.Int63n(64)
			fds = genFileDomains(lo, lo+rng.Int63n(400), naggs)
		default:
			lo := rng.Int63n(64)
			fds = alignedFileDomains(lo, lo+rng.Int63n(400), naggs, 1+rng.Int63n(24))
		}
		aggList := aggregatorRanks(naggs+rng.Intn(40), naggs)
		ntimes := 0
		for _, fd := range fds {
			ntimes = max(ntimes, int((fd.Len+cb-1)/cb))
		}
		for m := 0; m <= ntimes+1; m++ {
			rp.planRound(segs, fds, aggList, cb, m)
			checkRound(t, &rp, segs, fds, aggList, cb, m)
		}
	}
}

func TestPlanRoundMatchesBruteForce(t *testing.T) {
	segs, fds := paperShape(77)
	aggList := aggregatorRanks(planRanks, planAggs)
	var rp roundPlan
	var total int64
	for m := 0; m < planRounds; m++ {
		rp.planRound(segs, fds, aggList, planCB, m)
		checkRound(t, &rp, segs, fds, aggList, planCB, m)
		for k := 1; k < len(rp.send); k += 2 {
			total += rp.send[k]
		}
	}
	if total != planSegs*segs[0].Len {
		t.Fatalf("planned %d bytes over all rounds, want %d", total, planSegs*segs[0].Len)
	}
}

// BenchmarkRoundPlan plans every round of one paper_512 rank's collective
// write, reusing one round plan as the two-phase loops do, and checks the
// planned bytes against brute force.
func BenchmarkRoundPlan(b *testing.B) {
	segs, fds := paperShape(77)
	aggList := aggregatorRanks(planRanks, planAggs)
	var rp roundPlan
	var want int64
	for m := 0; m < planRounds; m++ {
		_, _, send := brutePlan(segs, fds, aggList, planCB, m)
		for k := 1; k < len(send); k += 2 {
			want += send[k]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		for m := 0; m < planRounds; m++ {
			rp.planRound(segs, fds, aggList, planCB, m)
			for k := 1; k < len(rp.send); k += 2 {
				got += rp.send[k]
			}
		}
		if got != want {
			b.Fatalf("planned %d bytes, brute force %d", got, want)
		}
	}
}
