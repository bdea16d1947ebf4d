// Package burst implements the comparator architecture the paper discusses
// in §V: a burst buffer in the style of the DOE Fast Forward I/O project
// and the DDN Infinite Memory Engine — a small number of dedicated,
// high-end NVMe storage proxies that absorb I/O bursts over the fabric and
// drain them to the parallel file system in the background.
//
// The paper's argument against this design is economic and architectural:
// burst buffers need expensive dedicated servers, whereas the E10 cache
// uses commodity SSDs already present in compute nodes, and aggregate
// cache bandwidth scales with the number of compute nodes while a burst
// buffer is capped by its proxy count. This package makes that comparison
// measurable: it plugs into the same adio.Hooks seam as the E10 cache, so
// the harness can run identical workloads against either tier.
//
// Semantics differ deliberately from the E10 cache: data is considered
// persistent once acknowledged by a proxy (IME-style), so MPI_File_close
// does not wait for the drain unless WaitDrainOnClose is set. The E10
// layer, by contrast, preserves MPI-IO visibility in the global file.
package burst

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/nvm"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config sizes the burst-buffer tier.
type Config struct {
	Proxies    int              // dedicated proxy nodes
	Device     nvm.DeviceConfig // high-end NVMe per proxy
	DrainChunk int64            // granularity of the background drain
	// WaitDrainOnClose makes close block until the PFS drain completes,
	// for apples-to-apples visibility with the E10 cache.
	WaitDrainOnClose bool
}

// DefaultConfig models a small dedicated appliance: two proxies with
// 3 GB/s NVMe each.
func DefaultConfig() Config {
	return Config{
		Proxies: 2,
		Device: nvm.DeviceConfig{
			WriteRate: 3 * sim.GBps,
			ReadRate:  3.2 * sim.GBps,
			Latency:   20 * sim.Microsecond,
			Capacity:  1 << 40,
		},
		DrainChunk: 4 << 20,
	}
}

// Pool is the burst-buffer tier: proxies with NVMe, fabric endpoints and
// PFS clients for draining.
type Pool struct {
	k       *sim.Kernel
	cfg     Config
	proxies []*proxy

	openFiles int // per-rank open handles staging into the pool

	// Statistics.
	Absorbed int64 // bytes accepted from compute nodes
	Drained  int64 // bytes pushed to the parallel file system
}

type proxy struct {
	pool    *Pool
	node    *netsim.Node
	fs      *nvm.FS
	client  *pfs.Client
	queue   []*drainReq
	cond    *sim.Cond
	running bool
}

type drainReq struct {
	file string
	ext  extent.Extent
	greq *mpi.Request
}

// NewPool builds the tier. nodes must be dedicated fabric endpoints (not
// compute nodes); clients provides each proxy's PFS client.
func NewPool(k *sim.Kernel, cfg Config, nodes []*netsim.Node, clients []*pfs.Client, factory store.Factory) *Pool {
	if len(nodes) != cfg.Proxies || len(clients) != cfg.Proxies {
		panic("burst: need one fabric node and one PFS client per proxy")
	}
	if cfg.DrainChunk <= 0 {
		cfg.DrainChunk = 4 << 20
	}
	p := &Pool{k: k, cfg: cfg}
	for i := 0; i < cfg.Proxies; i++ {
		dev := nvm.NewDevice(k, "bb.nvme", fmt.Sprintf("bb%d.nvme", i), cfg.Device)
		px := &proxy{
			pool:   p,
			node:   nodes[i],
			fs:     nvm.NewFS(dev, nvm.FSConfig{SupportsFallocate: true}, factory),
			client: clients[i],
			cond:   sim.NewCond(k),
		}
		p.proxies = append(p.proxies, px)
	}
	return p
}

// proxyFor routes an extent to a proxy: round-robin by 8 MB slabs, like
// IME's deterministic placement.
func (p *Pool) proxyFor(off int64) *proxy {
	slab := off / (8 << 20)
	return p.proxies[int(slab)%len(p.proxies)]
}

// ensureRunning launches the proxy's background drainer on demand. The
// drainer exits once its queue is empty and no file handles stage into the
// pool anymore, so the simulation can run to quiescence.
func (px *proxy) ensureRunning() {
	if px.running {
		return
	}
	px.running = true
	px.pool.k.Spawn(fmt.Sprintf("bb.drain.%s", px.fs.Device().Name()), func(dp *sim.Proc) {
		defer func() { px.running = false }()
		for {
			for len(px.queue) == 0 {
				if px.pool.openFiles == 0 {
					return
				}
				px.cond.Wait(dp)
			}
			req := px.queue[0]
			px.queue = px.queue[1:]
			px.drain(dp, req)
			req.greq.Complete()
		}
	})
}

// drain moves one staged extent from the proxy NVMe to the global file.
func (px *proxy) drain(dp *sim.Proc, req *drainReq) {
	f, err := px.fs.Open(req.file, false)
	if err != nil {
		return // nothing staged (can't happen in normal flow)
	}
	gh, err := px.client.Open(dp, req.file, true, pfs.Striping{})
	if err != nil {
		return
	}
	chunk := px.pool.cfg.DrainChunk
	for off := req.ext.Off; off < req.ext.End(); off += chunk {
		n := off + chunk
		if n > req.ext.End() {
			n = req.ext.End()
		}
		size := n - off
		var buf store.Payload
		if _, mem := f.Store().(store.PayloadBacked); mem {
			buf = store.Bytes(make([]byte, size), off)
		}
		f.ReadAt(dp, buf, off, size)
		gh.WriteAt(dp, buf, off, size)
		px.pool.Drained += size
	}
	gh.Close(dp)
}

// HooksFactory returns an adio hook factory that stages every write in the
// burst buffer. Unlike the E10 cache it ignores the e10_* hints: the tier
// is selected by wiring, the way a site-wide burst buffer would be.
func (p *Pool) HooksFactory() adio.HooksFactory {
	return func(f *adio.File) (adio.Hooks, error) {
		return &hooks{pool: p}, nil
	}
}

// hooks implements adio.Hooks over the pool.
type hooks struct {
	pool        *Pool
	outstanding []*drainReq
}

// AtOpenColl implements adio.Hooks: register the handle and make sure the
// drainers are up.
func (h *hooks) AtOpenColl(f *adio.File) error {
	h.pool.openFiles++
	for _, px := range h.pool.proxies {
		px.ensureRunning()
	}
	return nil
}

// WriteContig implements adio.Hooks: push the extent over the fabric to
// its proxy, store it on the proxy NVMe, and enqueue the background drain.
// The call returns once the proxy has the data (burst absorbed).
func (h *hooks) WriteContig(f *adio.File, src store.Source, off, size int64) (bool, error) {
	p := f.Rank().Proc()
	// Route in slab-sized pieces so large writes spread over proxies.
	for cur := off; cur < off+size; {
		px := h.pool.proxyFor(cur)
		slabEnd := (cur/(8<<20) + 1) * (8 << 20)
		end := off + size
		if slabEnd < end {
			end = slabEnd
		}
		n := end - cur
		// Fabric transfer to the proxy, then NVMe write.
		f.Rank().Node().Transfer(p, px.node, n)
		bf, err := px.fs.Open(f.Path(), true)
		if err != nil {
			return false, err
		}
		if err := bf.WriteAt(p, src, cur, n); err != nil {
			return false, nil // proxy full: fall through to the global FS
		}
		h.pool.Absorbed += n
		req := &drainReq{file: f.Path(), ext: extent.Extent{Off: cur, Len: n},
			greq: f.Rank().World().NewGrequest()}
		h.outstanding = append(h.outstanding, req)
		px.queue = append(px.queue, req)
		px.cond.Signal()
		cur = end
	}
	return true, nil
}

// AtFlush implements adio.Hooks: with IME-style semantics the data is
// already persistent on the proxies, so flush only waits for the drain
// when WaitDrainOnClose demands global-file visibility.
func (h *hooks) AtFlush(f *adio.File) error {
	if !h.pool.cfg.WaitDrainOnClose {
		return nil
	}
	for _, req := range h.outstanding {
		f.Rank().Wait(req.greq)
	}
	h.outstanding = nil
	return nil
}

// AtClose implements adio.Hooks: deregister the handle and nudge the
// drainers so idle ones can exit.
func (h *hooks) AtClose(f *adio.File) error {
	err := h.AtFlush(f)
	h.pool.openFiles--
	for _, px := range h.pool.proxies {
		px.cond.Broadcast()
	}
	return err
}
