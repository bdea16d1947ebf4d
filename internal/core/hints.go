// Package core implements the paper's contribution: the E10 persistent
// cache layer for collective writes in ROMIO, controlled by the MPI-IO hint
// extensions of Table II. Aggregators write their file domains to a cache
// file on the node-local NVM device; a per-file sync thread
// (ADIOI_Sync_thread_start) drains the cache to the global parallel file
// system in ind_wr_buffer_size chunks in the background, so that cache
// synchronisation overlaps the application's next compute phase. MPI-IO
// consistency semantics (§III-B) are preserved: data becomes globally
// visible after the immediate-flush sync completes, after MPI_File_close,
// or after MPI_File_sync; the coherent mode additionally write-locks
// in-transit extents.
//
// The Table II hints, their extensions and the tenant hints are declared
// once each, as rows of optionHints and tenantHints (adio.Hint), which
// ParseOptions applies in table order with adio.DecodeHints: the first
// invalid hint is the one reported, and the options it returns are
// normalized (a zero retry backoff reads as the default), so no consumer
// checks them again.
package core

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Hint keys from Table II of the paper.
const (
	HintCache       = "e10_cache"
	HintCachePath   = "e10_cache_path"
	HintFlushFlag   = "e10_cache_flush_flag"
	HintDiscardFlag = "e10_cache_discard_flag"
	// ind_wr_buffer_size (Table II's last row) is parsed by package adio,
	// since it predates the extensions; the cache layer reads it from the
	// normalized adio hint set.

	// HintCacheRead enables serving reads of locally cached extents from
	// the SSD. This implements the first item of the paper's future work
	// (§VI: "we plan to support cache reading operations"); it is NOT part
	// of the published hint set and defaults to disable.
	HintCacheRead = "e10_cache_read"

	// HintCacheRecovery enables crash recovery: when a retained cache file
	// from a previous (crashed) session exists at open, its unsynced
	// extents are replayed to the global file before new writes start.
	// This exercises the paper's persistence argument (§III: cached data
	// survives node failures and "can be synchronized at a later stage").
	// Defaults to disable.
	HintCacheRecovery = "e10_cache_recovery"

	// HintSyncRetryLimit bounds how many times the sync thread retries a
	// failed global-file chunk write (exponential backoff between
	// attempts) before completing the request with an error.
	HintSyncRetryLimit = "e10_sync_retry_limit"

	// HintSyncRetryBackoff is the initial retry backoff (a Go duration
	// string such as "10ms"); it doubles after every failed attempt.
	HintSyncRetryBackoff = "e10_sync_retry_backoff"
)

// Multi-tenant service-mode hints. None of these appear in the paper (it
// evaluates one application owning the whole scratch partition); they model
// a production burst buffer serving several jobs at once. All are inert
// unless e10_tenant is set, which keeps single-tenant runs byte-identical.
const (
	// HintTenant names the tenant (job) this session belongs to. Setting it
	// activates per-tenant capacity accounting on the NVM devices.
	HintTenant = "e10_tenant"

	// HintTenantQuotaBytes caps the tenant's cache footprint per device, in
	// bytes (0 = unlimited).
	HintTenantQuotaBytes = "e10_tenant_quota_bytes"

	// HintTenantQuotaFiles caps the tenant's cache file count per device
	// (0 = unlimited).
	HintTenantQuotaFiles = "e10_tenant_quota_files"

	// HintTenantReserve is a per-device admission reservation in bytes: a
	// guaranteed capacity floor the tenant claims at open. When the sum of
	// reservations would exceed a device, admission fails.
	HintTenantReserve = "e10_tenant_reserve"

	// HintTenantAdmit picks the admission-failure behaviour: "reject"
	// (default) falls the session back to the uncached path immediately;
	// "queue" polls for capacity until AdmitTimeout, then falls back.
	HintTenantAdmit = "e10_tenant_admit"

	// HintTenantPolicy picks the quota-exhaustion behaviour: "block"
	// (default) backpressures the writer — evict own clean extents, then
	// poll until BlockTimeout before degrading that write to write-through —
	// while "writethrough" degrades immediately.
	HintTenantPolicy = "e10_tenant_policy"

	// HintTenantBlockTimeout bounds how long a blocked write waits for
	// capacity (a Go duration string) before degrading to write-through.
	HintTenantBlockTimeout = "e10_tenant_block_timeout"
)

// e10_tenant_admit values.
const (
	AdmitReject = "reject"
	AdmitQueue  = "queue"
)

// e10_tenant_policy values.
const (
	PolicyBlock        = "block"
	PolicyWriteThrough = "writethrough"
)

// e10_cache values.
const (
	CacheEnable   = "enable"
	CacheDisable  = "disable"
	CacheCoherent = "coherent"
)

// e10_cache_flush_flag values. FlushAdaptive extends the published pair
// per the paper's §III suggestion that "the cache synchronisation could
// take into account the level of congestion of the I/O servers": requests
// start immediately, but the sync thread backs off between chunks when it
// observes service times far above the uncongested baseline.
const (
	FlushImmediate = "flush_immediate"
	FlushOnClose   = "flush_onclose"
	FlushAdaptive  = "flush_adaptive"
)

// Options is the parsed Table II hint set.
type Options struct {
	Mode         string   // disable | enable | coherent
	Path         string   // cache directory on the local file system
	FlushFlag    string   // flush_immediate | flush_onclose | flush_adaptive
	Discard      bool     // remove the cache file at close
	ReadCache    bool     // serve cached extents on reads (future-work extension)
	Recover      bool     // replay a retained cache file's unsynced extents at open
	RetryLimit   int      // sync chunk retry budget (attempts beyond the first)
	RetryBackoff sim.Time // initial backoff between retries; doubles per attempt

	Tenant TenantOptions // multi-tenant service mode (zero value: single tenant)
}

// TenantOptions is the parsed e10_tenant_* hint set. The zero value (empty
// Name) means single-tenant mode and leaves every legacy code path
// untouched.
type TenantOptions struct {
	Name         string   // tenant identity; "" disables tenancy
	QuotaBytes   int64    // per-device cache byte cap (0 = unlimited)
	QuotaFiles   int      // per-device cache file cap (0 = unlimited)
	Reserve      int64    // per-device admission reservation in bytes
	Admit        string   // reject | queue
	Policy       string   // block | writethrough
	BlockTimeout sim.Time // blocked-write deadline before write-through
}

// Defaults for tenant backpressure and queued admission.
const (
	DefaultBlockTimeout = 50 * sim.Millisecond
	// DefaultAdmitTimeout bounds how long a queued admission polls for
	// reservation headroom before falling back to the uncached path.
	DefaultAdmitTimeout = 200 * sim.Millisecond
	// PressurePollInterval is the deterministic polling period used by
	// blocked writes and queued admissions (the sim kernel has no timed
	// condition wait).
	PressurePollInterval = 2 * sim.Millisecond
)

// DefaultRetryLimit and DefaultRetryBackoff govern sync-failure handling
// when the e10_sync_retry_* hints are absent. PartitionBackoffCap bounds
// the backoff used while waiting out a network partition, whose retries
// are budget-exempt and could otherwise sleep geometrically forever.
const (
	DefaultRetryLimit   = 4
	DefaultRetryBackoff = 10 * sim.Millisecond
	PartitionBackoffCap = 80 * sim.Millisecond
)

// optionHints are Table II's hints, their extensions and e10_tenant, in
// the order ParseOptions applies them.
var optionHints = []adio.Hint[Options]{
	adio.Enum(HintCache, func(o *Options) *string { return &o.Mode }, CacheEnable, CacheDisable, CacheCoherent),
	adio.NonEmpty(HintCachePath, "path", func(o *Options) *string { return &o.Path }),
	adio.Enum(HintFlushFlag, func(o *Options) *string { return &o.FlushFlag }, FlushImmediate, FlushOnClose, FlushAdaptive),
	adio.Flag(HintCacheRead, func(o *Options) *bool { return &o.ReadCache }),
	adio.Flag(HintDiscardFlag, func(o *Options) *bool { return &o.Discard }),
	adio.Flag(HintCacheRecovery, func(o *Options) *bool { return &o.Recover }),
	adio.Int(HintSyncRetryLimit, 0, func(o *Options) *int { return &o.RetryLimit }),
	adio.Duration(HintSyncRetryBackoff, func(o *Options) *sim.Time { return &o.RetryBackoff }),
	adio.NonEmpty(HintTenant, "tenant name", func(o *Options) *string { return &o.Tenant.Name }),
}

// tenantHints are the e10_tenant_* hints that need e10_tenant, in the
// order ParseOptions applies them.
var tenantHints = []adio.Hint[Options]{
	adio.Int(HintTenantQuotaBytes, 0, func(o *Options) *int64 { return &o.Tenant.QuotaBytes }),
	adio.Int(HintTenantQuotaFiles, 0, func(o *Options) *int { return &o.Tenant.QuotaFiles }),
	adio.Int(HintTenantReserve, 0, func(o *Options) *int64 { return &o.Tenant.Reserve }),
	adio.Enum(HintTenantAdmit, func(o *Options) *string { return &o.Tenant.Admit }, AdmitReject, AdmitQueue),
	adio.Enum(HintTenantPolicy, func(o *Options) *string { return &o.Tenant.Policy }, PolicyBlock, PolicyWriteThrough),
	adio.Duration(HintTenantBlockTimeout, func(o *Options) *sim.Time { return &o.Tenant.BlockTimeout }),
}

// ParseOptions extracts and validates the e10_* hints. Cache mode defaults
// to disable, flush flag to flush_onclose and discard to enable (cache
// files are scratch data); a zero retry backoff means the default.
func ParseOptions(extra mpi.Info) (Options, error) {
	o := Options{
		Mode:         CacheDisable,
		Path:         "/scratch",
		FlushFlag:    FlushOnClose,
		Discard:      true,
		RetryLimit:   DefaultRetryLimit,
		RetryBackoff: DefaultRetryBackoff,
		Tenant: TenantOptions{
			Admit:        AdmitReject,
			Policy:       PolicyBlock,
			BlockTimeout: DefaultBlockTimeout,
		},
	}
	if err := adio.DecodeHints(extra, &o, optionHints, "core: "); err != nil {
		return o, err
	}
	// A quota without an owner is a configuration error, not a default.
	for _, h := range tenantHints {
		if _, ok := extra[h.Key]; ok && o.Tenant.Name == "" {
			return o, fmt.Errorf("core: %s requires %s", h.Key, HintTenant)
		}
	}
	if err := adio.DecodeHints(extra, &o, tenantHints, "core: "); err != nil {
		return o, err
	}
	if t := o.Tenant; t.QuotaBytes > 0 && t.Reserve > t.QuotaBytes {
		return o, fmt.Errorf("core: %s %d exceeds %s %d",
			HintTenantReserve, t.Reserve, HintTenantQuotaBytes, t.QuotaBytes)
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	return o, nil
}

// Enabled reports whether the cache data path is active.
func (o Options) Enabled() bool { return o.Mode != CacheDisable }
