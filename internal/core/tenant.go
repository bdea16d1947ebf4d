// Multi-tenant service mode for the E10 cache: admission control at open,
// backpressure and clean-extent eviction under capacity pressure. The paper
// evaluates one application owning the whole NVM partition; this file
// models a production burst buffer serving several jobs at once. Every
// entry point is gated on Options.Tenancy(), so single-tenant runs execute
// byte-identical control flow.
package core

import (
	"errors"

	"repro/internal/metrics"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tenantArb returns the arbiter of this rank's NVM device.
func (c *Cache) tenantArb() *nvm.Arbiter { return c.fs.Device().Arbiter() }

// tenantCounter resolves a tenant-labelled cache counter, or nil when
// metrics are off. These are new series — the pre-existing cache_* series
// stay unlabelled so single-tenant metric output is unchanged and the
// chaos trace/metrics cross-check keeps summing a single series.
func (c *Cache) tenantCounter(name string) *metrics.Counter {
	m := c.f.Rank().World().Kernel().Metrics()
	if m == nil {
		return nil
	}
	return m.Counter(name, metrics.L(metrics.KeyLayer, "core"),
		metrics.L("tenant", c.opts.Tenant.Name))
}

// tenantInstant marks a tenant-layer event on this rank's trace timeline.
// The tenant identity is implied by the rank's track (args are int-only).
func (c *Cache) tenantInstant(name string, args ...trace.Arg) {
	if tr, tk := c.tracer(); tr != nil {
		tr.Instant(tk, "tenant", name, int64(c.f.Rank().Now()), args...)
	}
}

// tenantAdmit registers the tenant's quota with the device arbiter and
// claims its admission reservation. With e10_tenant_admit=reject a denied
// reservation fails the open immediately (adio falls back to the uncached
// path); with queue it polls for headroom — another tenant closing releases
// its reservation — until DefaultAdmitTimeout, then falls back.
func (c *Cache) tenantAdmit() error {
	t := c.opts.Tenant
	if t.Name == "" {
		return nil
	}
	arb := c.tenantArb()
	arb.Register(t.Name, nvm.Quota{Bytes: t.QuotaBytes, Files: t.QuotaFiles})
	err := arb.TryAdmit(t.Name, t.Reserve)
	if err != nil && t.Admit == AdmitQueue {
		p := c.f.Rank().Proc()
		deadline := p.Now() + DefaultAdmitTimeout
		c.tenantInstant("tenant_admit_queued", trace.I("reserve", t.Reserve))
		for err != nil && p.Now() < deadline {
			p.Sleep(PressurePollInterval)
			if c.crashed {
				return ErrCrashed
			}
			err = arb.TryAdmit(t.Name, t.Reserve)
		}
	}
	if err != nil {
		c.Stats.AdmitRejects++
		if ctr := c.tenantCounter("cache_tenant_admit_rejects_total"); ctr != nil {
			ctr.Inc()
		}
		c.tenantInstant("tenant_admit_reject", trace.I("reserve", t.Reserve))
		return err
	}
	c.tenantAttached = true
	c.unregEvict = arb.RegisterEvictor(c.evictClean)
	c.tenantInstant("tenant_admitted", trace.I("reserve", t.Reserve))
	return nil
}

// tenantWithdraw undoes tenantAdmit at close (or on a failed open after
// admission). Crash never withdraws: the crashed session's reservation and
// cache bytes stay charged, which is exactly what a retained-for-recovery
// cache file costs the device.
func (c *Cache) tenantWithdraw() {
	if !c.tenantAttached {
		return
	}
	c.tenantAttached = false
	if c.unregEvict != nil {
		c.unregEvict()
		c.unregEvict = nil
	}
	c.tenantArb().Withdraw(c.opts.Tenant.Name)
}

// tenantDetachEvictor stops serving eviction requests (used by Crash: a
// dead node cannot punch extents, and its journal must stay intact).
func (c *Cache) tenantDetachEvictor() {
	if c.unregEvict != nil {
		c.unregEvict()
		c.unregEvict = nil
	}
}

// pressureErr reports whether err is capacity pressure (quota or space) —
// recoverable by eviction, waiting, or writing through — as opposed to a
// dead device.
func pressureErr(err error) bool {
	return errors.Is(err, nvm.ErrQuota) || errors.Is(err, nvm.ErrNoSpace)
}

// allocCache allocates cache space for one write. The single-tenant path
// is exactly Fallocate. Under tenancy, capacity pressure engages the
// backpressure ladder: reclaim clean extents (own tenants' evictors run
// via the arbiter), then — policy=block — poll for capacity until
// BlockTimeout before giving up (the caller degrades that write to
// write-through), or give up immediately under policy=writethrough.
// Returns ErrCrashed if the node dies while blocked.
func (c *Cache) allocCache(p *sim.Proc, off, size int64) error {
	err := c.cfile.Fallocate(p, off, size)
	t := c.opts.Tenant
	if err == nil || t.Name == "" || !pressureErr(err) {
		return err
	}
	arb := c.tenantArb()
	if arb.Reclaim(t.Name, size) > 0 {
		if err = c.cfile.Fallocate(p, off, size); err == nil || !pressureErr(err) {
			return err
		}
	}
	if t.Policy == PolicyWriteThrough {
		c.notePressureDegrade(off, size)
		return err
	}
	start := p.Now()
	deadline := start + t.BlockTimeout
	c.Stats.QuotaStalls++
	if ctr := c.tenantCounter("cache_tenant_stalls_total"); ctr != nil {
		ctr.Inc()
	}
	c.tenantInstant("tenant_stall", trace.I("off", off), trace.I("bytes", size))
	for {
		p.Sleep(PressurePollInterval)
		if c.crashed {
			c.Stats.QuotaStallTime += p.Now() - start
			return ErrCrashed
		}
		arb.Reclaim(t.Name, size)
		err = c.cfile.Fallocate(p, off, size)
		if err == nil || !pressureErr(err) {
			c.Stats.QuotaStallTime += p.Now() - start
			return err
		}
		if p.Now() >= deadline {
			c.Stats.QuotaStallTime += p.Now() - start
			c.notePressureDegrade(off, size)
			return err
		}
	}
}

// notePressureDegrade accounts one write degraded to write-through by
// capacity pressure (the job continues; only its bandwidth suffers).
func (c *Cache) notePressureDegrade(off, size int64) {
	c.Stats.QuotaWriteThroughs++
	if ctr := c.tenantCounter("cache_tenant_writethrough_total"); ctr != nil {
		ctr.Inc()
	}
	c.tenantInstant("tenant_writethrough", trace.I("off", off), trace.I("bytes", size))
}

// evictClean punches clean extents — allocated but no longer dirty, i.e.
// already durable in the global file — out of this rank's cache file,
// freeing up to need bytes for whichever tenant is under pressure. Dirty
// extents are never touched: the journal trims an extent only after its
// chunks reach the global file, so (allocated − dirty) is always safe to
// drop. Reads of punched ranges fall through to the global file.
func (c *Cache) evictClean(need int64) int64 {
	if c.cfile == nil || c.crashed || c.degraded {
		return 0
	}
	var freed int64
	for _, a := range c.cfile.AllocatedExtents() {
		for _, g := range c.dirty.Gaps(a) {
			freed += c.cfile.Punch(g)
			if freed >= need {
				break
			}
		}
		if freed >= need {
			break
		}
	}
	if freed > 0 {
		c.Stats.EvictedBytes += freed
		if ctr := c.tenantCounter("cache_tenant_evicted_bytes_total"); ctr != nil {
			ctr.Add(freed)
		}
		c.tenantInstant("tenant_evict", trace.I("bytes", freed))
	}
	return freed
}
