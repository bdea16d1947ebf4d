package nvm

import "sort"

// Create creates a new file, failing if it already exists.
func (fs *FS) Create(name string) (*File, error) { return fs.CreateTenant(name, "") }

// Tenants returns the registered tenant names, sorted.
func (a *Arbiter) Tenants() []string {
	out := make([]string, 0, len(a.tenants))
	for name := range a.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Usage returns tenant's current byte and file-count footprint.
func (a *Arbiter) Usage(tenant string) (bytes int64, files int) {
	if t, ok := a.tenants[tenant]; ok {
		return t.used, t.files
	}
	return 0, 0
}

// Evicted returns how many clean bytes have been reclaimed from tenant.
func (a *Arbiter) Evicted(tenant string) int64 {
	if t, ok := a.tenants[tenant]; ok {
		return t.evicted
	}
	return 0
}

// Rejections returns how many of tenant's allocations were denied.
func (a *Arbiter) Rejections(tenant string) int64 {
	if t, ok := a.tenants[tenant]; ok {
		return t.rejections
	}
	return 0
}

// Admitted reports whether tenant's reservation was granted.
func (a *Arbiter) Admitted(tenant string) bool {
	t, ok := a.tenants[tenant]
	return ok && t.admitted
}
