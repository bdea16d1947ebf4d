package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// IterRecord is one failing iteration in a soak report.
type IterRecord struct {
	Iter       int         `json:"iter"`
	Seed       int64       `json:"seed"`
	Scenario   Scenario    `json:"scenario"`
	Violations []Violation `json:"violations"`
}

// Report aggregates one soak run. All fields serialize deterministically
// (maps render key-sorted), so the same master seed yields a byte-identical
// report — and digest — on every machine.
type Report struct {
	MasterSeed int64          `json:"master_seed"`
	Iters      int            `json:"iters"`
	Clean      int            `json:"clean"`
	Violations map[string]int `json:"violations"` // invariant -> failing iters
	Shapes     map[string]int `json:"shapes"`     // coverage: shape -> iters
	Modes      map[string]int `json:"modes"`      // coverage: cache mode -> iters
	Sessions   map[string]int `json:"sessions"`   // coverage: session count -> iters
	// Tenants counts multi-tenant iterations by tenant count. Omitted when
	// the soak generated none, keeping pre-tenant reports byte-identical.
	Tenants     map[string]int `json:"tenants,omitempty"`
	FaultsArmed int            `json:"faults_armed"`
	AckedOps    int64          `json:"acked_ops"`
	Events      int64          `json:"events"`
	WallNS      int64          `json:"wall_ns"` // total virtual time simulated
	Failures    []IterRecord   `json:"failures,omitempty"`
}

// Explore runs iters seeded scenarios of family fam and aggregates their
// verdicts. progress (optional) observes each result as it lands. The
// whole soak is a pure function of (masterSeed, iters, fam).
func Explore(masterSeed int64, iters int, fam Family, progress func(i int, res *Result)) (*Report, error) {
	if _, ok := families[fam]; !ok {
		return nil, fmt.Errorf("chaos: unknown family %q (want one of %v)", fam, Families)
	}
	rng := rand.New(rand.NewSource(masterSeed))
	rep := &Report{
		MasterSeed: masterSeed,
		Iters:      iters,
		Violations: map[string]int{},
		Shapes:     map[string]int{},
		Modes:      map[string]int{},
		Sessions:   map[string]int{},
	}
	for i := 0; i < iters; i++ {
		seed := rng.Int63()
		sc := Generate(rand.New(rand.NewSource(seed)), fam)
		sc.Seed = seed
		res, err := Execute(sc)
		if err != nil {
			return nil, fmt.Errorf("chaos: iter %d (seed %d): %w", i, seed, err)
		}
		rep.Shapes[sc.Shape]++
		rep.Modes[sc.Mode]++
		rep.Sessions[fmt.Sprintf("%d", sc.Sessions)]++
		if len(sc.Tenants) > 0 {
			if rep.Tenants == nil {
				rep.Tenants = map[string]int{}
			}
			rep.Tenants[fmt.Sprintf("%d", len(sc.Tenants))]++
		}
		rep.FaultsArmed += len(sc.Faults)
		rep.AckedOps += int64(res.AckedOps)
		rep.Events += res.Events
		rep.WallNS += res.WallNS
		if res.Failed() {
			for _, inv := range res.ViolatedInvariants() {
				rep.Violations[inv]++
			}
			rep.Failures = append(rep.Failures, IterRecord{
				Iter: i, Seed: seed, Scenario: sc, Violations: res.Violations,
			})
		} else {
			rep.Clean++
		}
		if progress != nil {
			progress(i, res)
		}
	}
	return rep, nil
}

// JSON renders the report as stable, indented JSON.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Digest returns the sha256 of the JSON rendering: the one-line proof that
// two soaks were byte-identical.
func (r *Report) Digest() (string, error) {
	data, err := r.JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Text renders a deterministic human-readable summary.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %d iterations, master seed %d\n", r.Iters, r.MasterSeed)
	fmt.Fprintf(&b, "  clean: %d   failing: %d\n", r.Clean, r.Iters-r.Clean)
	fmt.Fprintf(&b, "  coverage: shapes %s | modes %s | sessions %s\n",
		renderCounts(r.Shapes), renderCounts(r.Modes), renderCounts(r.Sessions))
	if len(r.Tenants) > 0 {
		fmt.Fprintf(&b, "  coverage: tenants %s\n", renderCounts(r.Tenants))
	}
	fmt.Fprintf(&b, "  faults armed: %d   acked writes: %d\n", r.FaultsArmed, r.AckedOps)
	fmt.Fprintf(&b, "  kernel events: %d   virtual time: %.3fs\n",
		r.Events, float64(r.WallNS)/1e9)
	if len(r.Violations) > 0 {
		b.WriteString("  violations by invariant:\n")
		keys := make([]string, 0, len(r.Violations))
		for k := range r.Violations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "    %-20s %d\n", k, r.Violations[k])
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAIL iter %d seed %d: ", f.Iter, f.Seed)
		for i, v := range f.Violations {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	if digest, err := r.Digest(); err == nil {
		fmt.Fprintf(&b, "  report digest: sha256:%s\n", digest)
	}
	return b.String()
}

// renderCounts formats a coverage map deterministically.
func renderCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, ",")
}
