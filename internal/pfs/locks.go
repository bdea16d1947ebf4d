package pfs

import (
	"repro/internal/extent"
	"repro/internal/sim"
)

// LockMode distinguishes shared (read) from exclusive (write) byte-range
// locks, mirroring ROMIO's ADIOI_READ_LOCK / ADIOI_WRITE_LOCK macros.
type LockMode int

// Lock modes.
const (
	ReadLock LockMode = iota
	WriteLock
)

func (m LockMode) String() string {
	if m == ReadLock {
		return "read"
	}
	return "write"
}

// Lock is a granted byte-range lock; release it with LockManager.Unlock.
type Lock struct {
	file string
	mode LockMode
	ext  extent.Extent
	req  *lockReq
}

// Extent returns the locked byte range.
func (l *Lock) Extent() extent.Extent { return l.ext }

type lockReq struct {
	proc    *sim.Proc
	mode    LockMode
	ext     extent.Extent
	since   sim.Time // when the request was queued
	granted bool
}

type fileLocks struct {
	queue []*lockReq // FIFO: granted requests stay until unlocked
}

// LockManager implements FIFO-fair byte-range locking per file, the
// mechanism behind both extent-based file-system locking protocols and the
// e10_cache=coherent consistency mode.
type LockManager struct {
	k     *sim.Kernel
	files map[string]*fileLocks

	// Statistics.
	Waits    int64    // lock requests that had to queue
	WaitTime sim.Time // total time spent blocked on locks
}

// NewLockManager creates a lock manager.
func NewLockManager(k *sim.Kernel) *LockManager {
	return &LockManager{k: k, files: make(map[string]*fileLocks)}
}

func compatible(a, b *lockReq) bool {
	if !a.ext.Overlaps(b.ext) {
		return true
	}
	return a.mode == ReadLock && b.mode == ReadLock
}

// grantable reports whether req conflicts with no earlier request in the
// queue (granted or still waiting — strict FIFO prevents starvation).
func (fl *fileLocks) grantable(req *lockReq) bool {
	for _, q := range fl.queue {
		if q == req {
			return true
		}
		if !compatible(q, req) {
			return false
		}
	}
	return true
}

// Acquire blocks p until the requested byte range is locked.
func (m *LockManager) Acquire(p *sim.Proc, file string, mode LockMode, e extent.Extent) *Lock {
	l, wait := m.acquireThen(p, file, mode, e)
	if wait {
		p.Park()
		m.granted(l, p.Now())
	}
	return l
}

// acquireThen is Acquire's step form. It queues the request and returns
// its lock; when the lock is not granted at once, wait is true, p resumes
// at the grant, and the resumed step must call granted.
func (m *LockManager) acquireThen(p *sim.Proc, file string, mode LockMode, e extent.Extent) (l *Lock, wait bool) {
	fl := m.files[file]
	if fl == nil {
		fl = &fileLocks{}
		m.files[file] = fl
	}
	req := &lockReq{proc: p, mode: mode, ext: e, since: p.Now()}
	fl.queue = append(fl.queue, req)
	l = &Lock{file: file, mode: mode, ext: e, req: req}
	if fl.grantable(req) {
		req.granted = true
		return l, false
	}
	m.Waits++
	return l, true
}

// granted accounts the wait of a lock that acquireThen queued and that
// was granted at now.
func (m *LockManager) granted(l *Lock, now sim.Time) {
	if !l.req.granted {
		panic("pfs: lock wakeup without grant")
	}
	m.WaitTime += now - l.req.since
}

// Unlock releases l and grants any newly compatible waiters in FIFO order.
func (m *LockManager) Unlock(l *Lock) {
	fl := m.files[l.file]
	if fl == nil {
		panic("pfs: unlock on unknown file")
	}
	for i, q := range fl.queue {
		if q == l.req {
			fl.queue = append(fl.queue[:i], fl.queue[i+1:]...)
			m.grantWaiters(fl)
			return
		}
	}
	panic("pfs: unlock of lock not held")
}

func (m *LockManager) grantWaiters(fl *fileLocks) {
	for _, q := range fl.queue {
		if q.granted {
			continue
		}
		if fl.grantable(q) {
			q.granted = true
			m.k.Wake(q.proc)
		}
	}
}

// HeldLocks returns the number of currently granted locks on file (for
// tests and introspection).
func (m *LockManager) HeldLocks(file string) int {
	fl := m.files[file]
	if fl == nil {
		return 0
	}
	n := 0
	for _, q := range fl.queue {
		if q.granted {
			n++
		}
	}
	return n
}
