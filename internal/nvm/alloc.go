package nvm

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
)

// Multi-tenant capacity arbitration errors. They are distinct from
// ErrNoSpace so the cache layer can tell "this tenant is over ITS budget"
// (back off, evict own clean extents, or write through) from "the device is
// physically full" (somebody else's bytes are in the way).
var (
	// ErrQuota is returned when an allocation would push a tenant past its
	// per-device byte or file-count quota.
	ErrQuota = errors.New("nvm: tenant quota exceeded")
	// ErrAdmission is returned when a tenant's capacity reservation cannot
	// be granted at admission time.
	ErrAdmission = errors.New("nvm: tenant admission rejected")
	// ErrStale is returned by operations on a file handle whose file was
	// removed (e.g. evicted under capacity pressure). The cache layer's
	// discard semantics make a removed cache file dead, not POSIX-unlinked:
	// allowing further writes would reserve device capacity that no Remove
	// could ever return.
	ErrStale = errors.New("nvm: stale file handle (file was removed)")
)

// Quota caps one tenant's footprint on one device. Zero fields mean
// unlimited.
type Quota struct {
	Bytes int64 // byte cap on cache allocations
	Files int   // cache file-count cap
}

// tenantAcct is one tenant's accounting state on one device.
type tenantAcct struct {
	quota    Quota
	reserved int64 // admission reservation: a guaranteed capacity floor
	admitted bool
	sessions int // open sessions sharing the admission
	used     int64
	files    int

	// Statistics.
	rejections int64 // allocations denied by quota or capacity
	evicted    int64 // bytes reclaimed from this tenant's clean extents
}

// Evictor reclaims up to need bytes of clean (already durable elsewhere)
// cache capacity and returns how many bytes it actually freed. The cache
// layer registers one per open cache file.
type Evictor func(need int64) int64

type evictorEntry struct {
	id int
	fn Evictor
}

// Arbiter arbitrates one device's capacity between tenants: per-tenant
// byte and file-count quotas, admission reservations (guaranteed floors),
// and a registry of clean-extent evictors consulted under pressure. All
// state is plain bookkeeping in virtual time — the arbiter never blocks;
// backpressure policy (wait, retry, write through) lives in the cache
// layer.
type Arbiter struct {
	dev      *Device
	tenants  map[string]*tenantAcct
	evictors []evictorEntry
	nextID   int
}

// Arbiter returns the device's capacity arbiter, creating it on first use.
// Devices without tenants never allocate one, so single-tenant runs are
// byte-identical to builds that predate arbitration.
func (d *Device) Arbiter() *Arbiter {
	if d.arb == nil {
		d.arb = &Arbiter{dev: d, tenants: make(map[string]*tenantAcct)}
	}
	return d.arb
}

// acct returns (creating on demand) the accounting record for tenant.
func (a *Arbiter) acct(tenant string) *tenantAcct {
	t, ok := a.tenants[tenant]
	if !ok {
		t = &tenantAcct{}
		a.tenants[tenant] = t
	}
	return t
}

// Register installs (or updates) tenant's quota. Every rank of a tenant
// passes the same parsed hint set, so later registrations are idempotent.
func (a *Arbiter) Register(tenant string, q Quota) {
	a.acct(tenant).quota = q
}

// TryAdmit grants tenant a reservation of reserve bytes, or returns
// ErrAdmission when the sum of all reservations would exceed the device.
// Admission is idempotent per tenant (the first rank to open admits the
// job; its peers see the grant). Reservations are guaranteed floors: a
// tenant allocating within its reservation can never be starved by other
// tenants' best-effort allocations. They last for the device's lifetime,
// i.e. one simulated run.
func (a *Arbiter) TryAdmit(tenant string, reserve int64) error {
	t := a.acct(tenant)
	if t.admitted {
		t.sessions++
		return nil
	}
	var committed int64
	for _, o := range a.tenants {
		if o.admitted {
			committed += o.reserved
		}
	}
	if committed+reserve > a.dev.cfg.Capacity {
		return fmt.Errorf("%w: tenant %q reserve %d, %d of %d already committed",
			ErrAdmission, tenant, reserve, committed, a.dev.cfg.Capacity)
	}
	t.reserved = reserve
	t.admitted = true
	t.sessions = 1
	return nil
}

// Withdraw ends one admitted session. When the last session of a tenant
// withdraws, its reservation is released so queued tenants can admit. A
// crashed session deliberately never withdraws: its cache file (and the
// journal needed to recover it) stays charged until recovery or discard.
func (a *Arbiter) Withdraw(tenant string) {
	t, ok := a.tenants[tenant]
	if !ok || !t.admitted {
		return
	}
	t.sessions--
	if t.sessions <= 0 {
		t.sessions = 0
		t.admitted = false
		t.reserved = 0
	}
}

// avail returns how many bytes tenant may still allocate from the device:
// raw free space minus the unconsumed reservations of every OTHER tenant.
// A tenant's own unconsumed reservation is excluded from the hold, which is
// exactly what makes reservations guaranteed floors.
func (a *Arbiter) avail(tenant string) int64 {
	var hold int64
	for name, o := range a.tenants {
		if name != tenant && o.reserved > o.used {
			hold += o.reserved - o.used
		}
	}
	return a.dev.cfg.Capacity - a.dev.used - hold
}

// reserveFor claims n bytes for tenant, enforcing its byte quota and the
// reservation-aware capacity check. The claim is atomic: either both the
// tenant's and the device's accounting advance, or neither does — a failed
// allocation can never strand reserved bytes.
func (a *Arbiter) reserveFor(tenant string, n int64) error {
	t := a.acct(tenant)
	if tenant != "" && t.quota.Bytes > 0 && t.used+n > t.quota.Bytes {
		t.rejections++
		return fmt.Errorf("%w: tenant %q needs %d, quota headroom %d",
			ErrQuota, tenant, n, t.quota.Bytes-t.used)
	}
	if n > a.avail(tenant) {
		t.rejections++
		return fmt.Errorf("%w: tenant %q needs %d, available %d (reservations held)",
			ErrNoSpace, tenant, n, a.avail(tenant))
	}
	a.dev.used += n
	t.used += n
	a.gauge(tenant)
	return nil
}

// releaseFor returns n bytes of tenant's allocation to the device.
func (a *Arbiter) releaseFor(tenant string, n int64) {
	t := a.acct(tenant)
	t.used -= n
	if t.used < 0 {
		panic("nvm: tenant released more than reserved")
	}
	a.dev.release(n)
	a.gauge(tenant)
}

// chargeFile counts one cache file against tenant's file quota.
func (a *Arbiter) chargeFile(tenant string) error {
	t := a.acct(tenant)
	if tenant != "" && t.quota.Files > 0 && t.files+1 > t.quota.Files {
		t.rejections++
		return fmt.Errorf("%w: tenant %q at file-count quota %d", ErrQuota, tenant, t.quota.Files)
	}
	t.files++
	return nil
}

// releaseFile returns one file-count slot to tenant.
func (a *Arbiter) releaseFile(tenant string) {
	t := a.acct(tenant)
	t.files--
	if t.files < 0 {
		panic("nvm: tenant released more files than created")
	}
}

// gauge publishes tenant's live byte footprint when metrics are on.
func (a *Arbiter) gauge(tenant string) {
	if tenant == "" {
		return
	}
	if m := a.dev.k.Metrics(); m != nil {
		m.Gauge("nvm_tenant_used_bytes", metrics.L(metrics.KeyLayer, "nvm"),
			metrics.L("dev", a.dev.name), metrics.L("tenant", tenant)).Set(a.tenants[tenant].used)
	}
}

// RegisterEvictor adds a clean-extent evictor (registration order is the
// deterministic eviction order) and returns its unregister function.
func (a *Arbiter) RegisterEvictor(fn Evictor) (unregister func()) {
	id := a.nextID
	a.nextID++
	a.evictors = append(a.evictors, evictorEntry{id: id, fn: fn})
	return func() {
		for i, e := range a.evictors {
			if e.id == id {
				a.evictors = append(a.evictors[:i], a.evictors[i+1:]...)
				return
			}
		}
	}
}

// Reclaim asks the registered evictors, in registration order, to free up
// to need bytes of clean cache capacity, and returns the bytes actually
// freed. forTenant names the beneficiary (metrics only; "" is anonymous).
func (a *Arbiter) Reclaim(forTenant string, need int64) int64 {
	var freed int64
	evictors := make([]evictorEntry, len(a.evictors))
	copy(evictors, a.evictors) // evictors may unregister themselves
	for _, e := range evictors {
		if freed >= need {
			break
		}
		freed += e.fn(need - freed)
	}
	if freed > 0 && forTenant != "" {
		if m := a.dev.k.Metrics(); m != nil {
			m.Counter("nvm_tenant_reclaimed_bytes_total", metrics.L(metrics.KeyLayer, "nvm"),
				metrics.L("dev", a.dev.name), metrics.L("tenant", forTenant)).Add(freed)
		}
	}
	return freed
}

// noteEvicted credits reclaimed clean bytes to the tenant they were taken
// from (called by File.Punch).
func (a *Arbiter) noteEvicted(tenant string, n int64) {
	if tenant == "" {
		return
	}
	a.acct(tenant).evicted += n
	if m := a.dev.k.Metrics(); m != nil {
		m.Counter("nvm_tenant_evicted_bytes_total", metrics.L(metrics.KeyLayer, "nvm"),
			metrics.L("dev", a.dev.name), metrics.L("tenant", tenant)).Add(n)
	}
}
