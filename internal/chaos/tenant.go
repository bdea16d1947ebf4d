// Multi-tenant service-mode chaos: several independent jobs on one
// simulated cluster, each on its own contiguous rank block writing its own
// file under its own capacity contract, all contending for deliberately
// undersized per-node NVM. The tenant_isolation oracle re-runs every
// unfaulted tenant solo with the same seed and demands its file come out
// byte-identical — capacity pressure, noisy neighbors and other tenants'
// crashes must cost bandwidth, never bytes.
package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
)

// tenantName returns tenant i's e10_tenant hint value.
func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// tenantFile returns tenant i's private global file path.
func tenantFile(i int) string { return fmt.Sprintf("chaos.t%d.dat", i) }

// liveCache reports whether a cache is still open on any node.
func (r *run) liveCache(c *core.Cache) bool {
	for _, m := range r.live {
		if m[c] {
			return true
		}
	}
	return false
}

// digestTenant hashes tenant i's global file: every written extent's
// bounds and payload, in file order. Two runs that durably wrote the same
// bytes — and nothing else — produce the same digest, so a foreign byte
// landing anywhere in the file changes it.
func (r *run) digestTenant(i int) string {
	h := sha256.New()
	if meta := r.cl.FS.Lookup(tenantFile(i)); meta != nil {
		st := meta.Store()
		for _, e := range st.Written().Extents() {
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:8], uint64(e.Off))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(e.Len))
			h.Write(hdr[:])
			buf := make([]byte, e.Len)
			st.ReadAt(store.Bytes(buf, e.Off), e.Off, int64(len(buf)))
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// soloTenantDigest re-executes the scenario with only tenant `only`
// active — same seed, same cluster and rank placement, same capacity
// contract, but no faults, no injection and no neighbors — and returns
// the digest of the tenant's file. This is the contention-free baseline
// the isolation oracle compares against.
func soloTenantDigest(sc Scenario, only int) (string, error) {
	s := sc
	s.Faults = nil
	s.Injection = ""
	tenants := append([]TenantSpec(nil), sc.Tenants...)
	for j := range tenants {
		tenants[j].CrashUS = 0
	}
	s.Tenants = tenants
	r := &run{sc: s, solo: only}
	if err := r.setup(); err != nil {
		return "", err
	}
	r.simulate()
	if r.runErr != nil {
		return "", fmt.Errorf("solo run did not terminate: %w", r.runErr)
	}
	lo := s.tenantStart(only)
	for lr := 0; lr < s.Tenants[only].Ranks; lr++ {
		if e := r.rankErr[lo+lr]; e != "" {
			return "", fmt.Errorf("solo run rank %d failed: %s", lo+lr, e)
		}
	}
	return r.digestTenant(only), nil
}

// checkTenantIsolation enforces the multi-tenant contract for every tenant
// that is not a deliberate fault victim:
//
//   - capacity pressure alone never fails the job — no rank of an
//     unfaulted tenant may end with a surfaced error;
//   - the tenant's file is byte-identical to a solo same-seed run, so
//     neighbors' load, crashes and evictions cost bandwidth, never bytes,
//     and no foreign byte leaks into the tenant's namespace.
func (r *run) checkTenantIsolation(add func(inv, format string, args ...interface{})) {
	if len(r.sc.Tenants) == 0 {
		return
	}
	for i := range r.sc.Tenants {
		if r.sc.tenantFaulted(i) {
			continue // durability of faulted tenants is the conservation oracle's job
		}
		clean := true
		lo := r.sc.tenantStart(i)
		for lr := 0; lr < r.sc.Tenants[i].Ranks; lr++ {
			if e := r.rankErr[lo+lr]; e != "" {
				add(InvTenantIsolation,
					"tenant %s rank %d failed under capacity pressure alone: %s",
					tenantName(i), lo+lr, e)
				clean = false
			}
		}
		if !clean {
			continue // the digest of a failed job would only repeat the news
		}
		want, err := soloTenantDigest(r.sc, i)
		if err != nil {
			add(InvTenantIsolation, "tenant %s baseline: %v", tenantName(i), err)
			continue
		}
		if got := r.digestTenant(i); got != want {
			add(InvTenantIsolation,
				"tenant %s file %s diverged from its solo same-seed run (digest %.12s != %.12s)",
				tenantName(i), tenantFile(i), got, want)
		}
	}
}
