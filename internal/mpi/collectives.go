package mpi

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CollModel selects how collectives are executed.
type CollModel int

const (
	// Analytic charges a LogGP-style cost model and synchronises all ranks
	// at max(arrival) + cost. It keeps 512-rank multi-round sweeps fast
	// while preserving wait-for-slowest semantics. This is the default.
	Analytic CollModel = iota
	// MessagePassing runs real message-based algorithms (dissemination
	// barrier, binomial bcast/reduce, ring allgather, pairwise alltoall)
	// over the simulated network.
	MessagePassing
)

// Comm is a communicator: an ordered group of ranks.
type Comm struct {
	w       *World
	ranks   []*Rank
	index   map[int]int // world id -> comm rank
	model   CollModel
	states  map[int]*collState
	callIdx []int
	surv    map[string]survivorComm // Survivors results, by scope
	memo    map[any]any             // Memo values, by key

	// Where c is registered, for Free: its intern key when interned, and
	// the communicators whose Survivors cache holds it.
	key      internKey
	interned bool
	holders  []*Comm
}

// survivorComm is one cached Survivors result and the World's kill count
// at the time it was derived.
type survivorComm struct {
	kills int
	comm  *Comm
}

func newComm(w *World, ranks []*Rank) *Comm {
	c := &Comm{
		w:       w,
		ranks:   ranks,
		index:   make(map[int]int, len(ranks)),
		states:  make(map[int]*collState),
		callIdx: make([]int, len(ranks)),
	}
	for i, r := range ranks {
		c.index[r.id] = i
	}
	return c
}

// NewComm builds a communicator from the given world rank ids, in order.
func (w *World) NewComm(members []int) *Comm {
	ranks := make([]*Rank, len(members))
	for i, m := range members {
		ranks[i] = w.ranks[m]
	}
	return newComm(w, ranks)
}

// internKey buckets interned communicators by scope and a hash of their
// member ids. A bucket may hold several communicators whose memberships
// collide on the hash; intern tells them apart member by member.
type internKey struct {
	scope string
	h     uint64
}

// hashMembers is FNV-1a over the member ids, one id per step.
func hashMembers(members []int) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range members {
		h ^= uint64(m)
		h *= 1099511628211
	}
	return h
}

// intern returns the communicator shared by every caller passing the same
// scope and members, creating it on first use. Comm.Split interns under
// the empty scope and relies on every member receiving the same object.
// Distinct scopes yield distinct communicators even over identical
// membership: Survivors callers use a fresh scope per failover epoch, so
// retried collectives start from clean rendezvous state instead of
// colliding with the poisoned call indices of a timed-out epoch.
func (w *World) intern(scope string, members []int) *Comm {
	key := internKey{scope: scope, h: hashMembers(members)}
	for _, c := range w.interned[key] {
		if c.hasMembers(members) {
			return c
		}
	}
	c := w.NewComm(members)
	c.key, c.interned = key, true
	w.interned[key] = append(w.interned[key], c)
	return c
}

// hasMembers reports whether c's world rank ids are exactly members, in
// order.
func (c *Comm) hasMembers(members []int) bool {
	if len(c.ranks) != len(members) {
		return false
	}
	for i, r := range c.ranks {
		if r.id != members[i] {
			return false
		}
	}
	return true
}

// Survivors returns the communicator of c's live members, in c's rank
// order, interned under scope (which must be non-empty). Every caller
// that passes the same scope while the same ranks are dead gets the same
// communicator, so all survivors of a failure derive one shared
// sub-communicator; a caller that runs after further kills gets the one
// over its own, smaller view. The result is cached per scope together
// with the World's kill count, so callers that see no new deaths pay
// O(1) rather than a filter over c.
func (c *Comm) Survivors(scope string) *Comm {
	if scope == "" {
		panic("mpi: Survivors needs a non-empty scope")
	}
	w := c.w
	if s, ok := c.surv[scope]; ok && s.kills == w.kills {
		return s.comm
	}
	live := make([]int, 0, len(c.ranks))
	for _, r := range c.ranks {
		if !w.dead[r.id] {
			live = append(live, r.id)
		}
	}
	nc := w.intern(scope, live)
	if c.surv == nil {
		c.surv = make(map[string]survivorComm)
	}
	c.surv[scope] = survivorComm{kills: w.kills, comm: nc}
	if !slices.Contains(nc.holders, c) {
		nc.holders = append(nc.holders, c)
	}
	return nc
}

// Free releases c, as MPI_Comm_free does: the World no longer hands c out
// for its scope and members, and no Survivors cache returns it, so a later
// Survivors or Split call over the same scope and members builds a fresh
// communicator. Ranks that still hold c may finish using it. Each map entry
// is removed only while it is still c, so Free never drops a communicator
// that has since replaced c, and freeing twice is a no-op.
func (c *Comm) Free() {
	w := c.w
	if c.interned {
		b := w.interned[c.key]
		if i := slices.Index(b, c); i >= 0 {
			if b = slices.Delete(b, i, i+1); len(b) == 0 {
				delete(w.interned, c.key)
			} else {
				w.interned[c.key] = b
			}
		}
	}
	for _, p := range c.holders {
		if s, ok := p.surv[c.key.scope]; ok && s.comm == c {
			delete(p.surv, c.key.scope)
		}
	}
	c.holders = nil
}

// Memo returns the value c holds under key, calling build to make it on
// the first request. Callers on every member share the one value and must
// treat it as read-only, so build may depend only on what every member
// agrees on: the communicator and the key.
func (c *Comm) Memo(key any, build func() any) any {
	if v, ok := c.memo[key]; ok {
		return v
	}
	v := build()
	if c.memo == nil {
		c.memo = make(map[any]any)
	}
	c.memo[key] = v
	return v
}

// SetCollModel selects the collective execution model.
func (c *Comm) SetCollModel(m CollModel) { c.model = m }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// RankOf returns the communicator rank of world rank r, or -1.
func (c *Comm) RankOf(r *Rank) int {
	if i, ok := c.index[r.id]; ok {
		return i
	}
	return -1
}

// Member returns the rank at communicator position i.
func (c *Comm) Member(i int) *Rank { return c.ranks[i] }

// collState tracks one in-flight collective operation.
type collState struct {
	comm    *Comm
	n       int // call index within the communicator
	kind    string
	arrived int
	got     []bool // which comm ranks have contributed
	bytes   int64  // largest per-rank byte count seen, for held completion
	// inputs holds the per-rank contributions until the call settles, and
	// the table its callers read after that (see settle).
	inputs [][]int64
	// derived is the value the call's first reader computes from the
	// settled table and every later reader shares: the allreduce fold (see
	// fold) or an AllgatherDerive result.
	derived any
	waiters []*Rank
	finish  sim.Time
	err     error // terminal timeout error, set at most once
	timer   *sim.Timer
}

// CollTimeoutError is the typed failure a timed-out collective surfaces:
// the operation that stalled plus the world ranks that never arrived (dead,
// partitioned away, or simply still busy).
type CollTimeoutError struct {
	Op      string
	Missing []int
}

// ErrCollTimeout is the sentinel matched by errors.Is for any
// *CollTimeoutError.
var ErrCollTimeout = errors.New("mpi: collective timed out")

func (e *CollTimeoutError) Error() string {
	return fmt.Sprintf("mpi: %s timed out waiting for ranks %v", e.Op, e.Missing)
}

// Is makes errors.Is(err, ErrCollTimeout) match.
func (e *CollTimeoutError) Is(target error) bool { return target == ErrCollTimeout }

// cut reports whether an active network partition separates any two member
// nodes of the communicator.
func (c *Comm) cut() bool {
	if len(c.ranks) < 2 {
		return false
	}
	first := c.ranks[0].node.ID()
	for _, r := range c.ranks[1:] {
		if c.w.fabric.Partitioned(first, r.node.ID()) {
			return true
		}
	}
	return false
}

// rendezvous is the analytic collective: every rank contributes input,
// blocks until all have arrived plus the modelled cost, and gets the call's
// state back, whose inputs are the settled table (see settle). When a
// collective timeout is armed, a per-call cancellable timer bounds the
// wait, and a collective whose communicator spans an active partition is
// held open — completing when the partition heals, or failing all
// participants with *CollTimeoutError when the timer fires first. On the
// fault-free path the timer is always cancelled before firing, leaving
// virtual time untouched.
func (c *Comm) rendezvous(r *Rank, kind string, perRankBytes int64, input []int64) (*collState, error) {
	r.checkKilled()
	me := c.RankOf(r)
	if me < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in communicator", r.id))
	}
	if len(c.ranks) == 1 {
		return &collState{inputs: c.settle(kind, [][]int64{input})}, nil
	}
	n := c.callIdx[me]
	c.callIdx[me]++
	st := c.states[n]
	if st == nil {
		st = &collState{
			comm: c, n: n, kind: kind,
			inputs: make([][]int64, len(c.ranks)),
			got:    make([]bool, len(c.ranks)),
		}
		c.states[n] = st
		if d := c.w.collTimeout; d > 0 {
			st.timer = c.w.k.AfterTimer(d, func() { c.w.timeoutColl(st) })
		}
	}
	if st.kind != kind {
		panic(fmt.Sprintf("mpi: mismatched collectives: rank %d calls %s, others called %s", r.id, kind, st.kind))
	}
	if st.err != nil {
		// The call slot already timed out: a straggler fails immediately
		// instead of parking for a timeout of its own, so a rank that fell
		// one collective behind (slow open, receive deadline) resynchronises
		// with the group at the next call rather than trailing forever.
		return st, st.err
	}
	st.inputs[me] = input
	st.got[me] = true
	st.arrived++
	if perRankBytes > st.bytes {
		st.bytes = perRankBytes
	}
	if st.arrived == len(c.ranks) && !(st.timer != nil && c.cut()) {
		// Last arrival, communicator reachable: everyone resumes after the
		// modelled completion time.
		delete(c.states, n)
		if st.timer != nil {
			st.timer.Stop()
		}
		st.inputs = c.settle(kind, st.inputs)
		cost := c.collCost(kind, perRankBytes)
		st.finish = r.proc.Now() + cost
		for _, wr := range st.waiters {
			c.w.k.WakeAt(st.finish, wr.proc)
		}
		r.proc.Sleep(cost)
		return st, nil
	}
	if st.arrived == len(c.ranks) {
		// All arrived but a partition cuts the communicator: hold the
		// collective open until the fabric heals or the timer fires.
		delete(c.states, n)
		c.w.heldColl = append(c.w.heldColl, st)
	}
	st.waiters = append(st.waiters, r)
	r.collSt = st
	r.proc.Park()
	r.collSt = nil
	r.checkKilled()
	return st, st.err
}

// timeoutColl fails a stalled collective: every parked participant wakes
// with the typed error, and the call slot is released. Kernel-callback
// context.
func (w *World) timeoutColl(st *collState) {
	if st.err != nil {
		return
	}
	var missing []int
	for i, got := range st.got {
		if !got {
			missing = append(missing, st.comm.ranks[i].id)
		}
	}
	st.err = &CollTimeoutError{Op: st.kind, Missing: missing}
	st.inputs = st.comm.settle(st.kind, st.inputs)
	// The errored state stays registered at its call index: ranks that have
	// not arrived yet must observe the failure (and fail fast) instead of
	// opening a fresh rendezvous that can only time out again.
	w.dropHeld(st)
	for _, wr := range st.waiters {
		w.k.Wake(wr.proc)
	}
	st.waiters = nil
}

// recheckHeld re-evaluates partition-held collectives after every topology
// change, completing those whose communicator became reachable again.
// Held states live in an insertion-ordered slice so completions (and their
// wake events) replay deterministically.
func (w *World) recheckHeld() {
	kept := w.heldColl[:0]
	for _, st := range w.heldColl {
		c := st.comm
		if st.err == nil && st.arrived == len(c.ranks) && !c.cut() {
			if st.timer != nil {
				st.timer.Stop()
			}
			st.inputs = c.settle(st.kind, st.inputs)
			cost := c.collCost(st.kind, st.bytes)
			st.finish = w.k.Now() + cost
			for _, wr := range st.waiters {
				w.k.WakeAt(st.finish, wr.proc)
			}
			st.waiters = nil
			continue
		}
		kept = append(kept, st)
	}
	w.heldColl = kept
}

// settle turns a completed rendezvous's inputs into the table its callers
// read. It runs exactly once per call — at the last arrival, the heal of a
// held collective, or the timeout — before any participant resumes. Only
// alltoall changes: its inputs (row i holds rank i's (dest, count) pairs)
// become their transpose (row j holds the (src, count) pairs rank j
// receives, in ascending src order), so no caller's send slice is read
// after the call returns and the caller may reuse it at once, as MPI
// allows. The transpose costs O(ranks + pairs): one count per rank, then
// every pair copied once into a shared backing array. Zero counts are
// dropped; a rank receiving nothing gets an empty row.
func (c *Comm) settle(kind string, inputs [][]int64) [][]int64 {
	if kind != "alltoall" {
		return inputs
	}
	p := len(inputs)
	start := make([]int, p+1) // start[j+1] counts rank j's received pairs, then offsets
	for _, in := range inputs {
		for k := 0; k < len(in); k += 2 {
			if in[k+1] != 0 {
				start[in[k]+1] += 2
			}
		}
	}
	for j := 0; j < p; j++ {
		start[j+1] += start[j]
	}
	pairs := make([]int64, start[p])
	out := make([][]int64, p)
	for j := range out {
		out[j] = pairs[start[j]:start[j]:start[j+1]]
	}
	for src, in := range inputs {
		for k := 0; k < len(in); k += 2 {
			if dst, n := in[k], in[k+1]; n != 0 {
				out[dst] = append(out[dst], int64(src), n)
			}
		}
	}
	return out
}

// dropHeld removes st from the held-collective list.
func (w *World) dropHeld(st *collState) {
	for i, held := range w.heldColl {
		if held == st {
			w.heldColl = append(w.heldColl[:i], w.heldColl[i+1:]...)
			return
		}
	}
}

// collCost models the completion time of a collective once all ranks have
// arrived, following LogGP: per-message software overhead o, wire latency
// L, and per-rank NIC bandwidth for the data terms.
func (c *Comm) collCost(kind string, n int64) sim.Time {
	p := len(c.ranks)
	if p <= 1 {
		return 0
	}
	const o = 1 * sim.Microsecond
	l := c.w.fabric.Latency()
	bw := sim.Rate(3.2 * sim.GBps)
	log2p := sim.Time(bits.Len(uint(p - 1)))
	step := o + l
	switch kind {
	case "barrier":
		return log2p * step
	case "bcast", "reduce", "allreduce":
		return log2p * (step + bw.DurationFor(n))
	case "allgather":
		return log2p*step + sim.Time(p-1)*bw.DurationFor(n)
	case "alltoall":
		return sim.Time(p-1)*(o+bw.DurationFor(n)) + l
	default:
		panic("mpi: unknown collective " + kind)
	}
}

// collSpan covers one collective call for both observability layers: a
// tracer span on the rank's timeline plus a latency sample in the
// per-operation histogram. It also carries the entered/completed balance
// behind World.CollBalance: a call that never reaches end (the rank parked
// forever, or unwound by Kill) stays visible as an imbalance.
type collSpan struct {
	c  *Comm
	sp trace.Span
	h  *metrics.Histogram
	t0 sim.Time
}

// beginColl opens a collSpan for one collective call (both execution models
// route through the public wrappers).
func (c *Comm) beginColl(r *Rank, name string) collSpan {
	cs := collSpan{c: c}
	c.w.collStarted[r.id]++
	if tr := c.w.k.Tracer(); tr != nil {
		cs.sp = tr.Begin(r.TraceTrack(tr), "mpi", name, int64(r.proc.Now()))
	}
	if m := c.w.k.Metrics(); m != nil {
		cm := c.w.collMetricsFor(m, name)
		cs.h = cm.ns
		cm.calls.Inc()
		cs.t0 = r.proc.Now()
	}
	return cs
}

// collMetrics is one collective op's cached metric handles.
type collMetrics struct {
	ns    *metrics.Histogram
	calls *metrics.Counter
}

// collMetricsFor resolves (and caches) the handles for one collective op.
// Resolving through the registry canonicalizes the label set on every
// call; the per-op cache keeps the steady-state cost at one map hit.
func (w *World) collMetricsFor(m *metrics.Registry, name string) collMetrics {
	if cm, ok := w.collM[name]; ok {
		return cm
	}
	cm := collMetrics{
		ns: m.Histogram("mpi_coll_ns",
			metrics.L(metrics.KeyLayer, "mpi"), metrics.L(metrics.KeyOp, name)),
		calls: m.Counter("mpi_colls_total",
			metrics.L(metrics.KeyLayer, "mpi"), metrics.L(metrics.KeyOp, name)),
	}
	if w.collM == nil {
		w.collM = make(map[string]collMetrics)
	}
	w.collM[name] = cm
	return cm
}

// end closes the span at the rank's current virtual time.
func (cs collSpan) end(r *Rank) {
	cs.c.w.collDone[r.id]++
	now := r.proc.Now()
	cs.sp.End(int64(now))
	cs.h.Observe(int64(now - cs.t0))
}

// Op is a reduction operator over int64.
type Op func(a, b int64) int64

// Standard reduction operators.
var (
	MaxOp Op = func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	MinOp Op = func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	SumOp Op = func(a, b int64) int64 { return a + b }
	BorOp Op = func(a, b int64) int64 { return a | b }
)

// The collectives below surface a *CollTimeoutError from their Try* form
// when SetCollTimeout is armed and the call stalls (dead ranks, network
// partition); the plain form drops the error and returns the same partial
// result. Under the MessagePassing model they run the message algorithms,
// which have no timeout support — degraded-mode callers (the resilient
// two-phase write) require Analytic.

// Barrier blocks until every rank of the communicator has entered.
func (c *Comm) Barrier(r *Rank) { _ = c.TryBarrier(r) }

// TryBarrier is Barrier with timeout surfacing.
func (c *Comm) TryBarrier(r *Rank) error {
	sp := c.beginColl(r, "barrier")
	var err error
	if c.model == MessagePassing {
		c.msgBarrier(r)
	} else {
		_, err = c.rendezvous(r, "barrier", 0, nil)
	}
	sp.end(r)
	return err
}

// Allreduce combines each rank's vals element-wise with op; every rank
// receives the combined vector (MPI_Allreduce). Under Analytic each rank
// gets a copy of its own, which it may modify.
func (c *Comm) Allreduce(r *Rank, vals []int64, op Op) []int64 {
	out, _ := c.TryAllreduce(r, vals, op)
	return out
}

// TryAllreduce is Allreduce with timeout surfacing. A timed-out call
// returns the fold of the ranks that arrived in time.
func (c *Comm) TryAllreduce(r *Rank, vals []int64, op Op) ([]int64, error) {
	sp := c.beginColl(r, "allreduce")
	defer func() { sp.end(r) }()
	if c.model == MessagePassing {
		return c.msgAllreduce(r, vals, op), nil
	}
	st, err := c.rendezvous(r, "allreduce", int64(8*len(vals)), vals)
	if err != nil {
		return foldInputs(st.inputs, vals, op), err
	}
	return st.fold(vals, op), nil
}

// fold returns a fresh copy of a completed allreduce's result. The first
// caller folds every rank's inputs; the rest copy its result, so a call
// costs O(ranks) in total rather than O(ranks) per caller. Every rank
// contributed to a completed call, so the fold is the same whoever runs
// it.
func (st *collState) fold(own []int64, op Op) []int64 {
	if st.derived == nil {
		st.derived = foldInputs(st.inputs, own, op)
	}
	folded := st.derived.([]int64)
	out := make([]int64, len(folded))
	copy(out, folded)
	return out
}

// foldInputs reduces the contributed vectors element-wise, skipping slots
// that are nil (possible only after a collective timeout left some ranks
// unheard).
func foldInputs(inputs [][]int64, own []int64, op Op) []int64 {
	var out []int64
	for _, in := range inputs {
		if in == nil {
			continue
		}
		if out == nil {
			out = make([]int64, len(in))
			copy(out, in)
			continue
		}
		for j := range out {
			out[j] = op(out[j], in[j])
		}
	}
	if out == nil {
		out = make([]int64, len(own))
		copy(out, own)
	}
	return out
}

// Allgather collects each rank's vals; result[i] is rank i's contribution
// (MPI_Allgather / MPI_Allgatherv).
func (c *Comm) Allgather(r *Rank, vals []int64) [][]int64 {
	out, _ := c.TryAllgather(r, vals)
	return out
}

// TryAllgather is Allgather with timeout surfacing. A timed-out call
// returns nil in the slots of the ranks that never arrived.
func (c *Comm) TryAllgather(r *Rank, vals []int64) ([][]int64, error) {
	sp := c.beginColl(r, "allgather")
	defer func() { sp.end(r) }()
	if c.model == MessagePassing {
		return c.msgAllgather(r, vals), nil
	}
	// The rendezvous result is returned as-is: the state it lives in is
	// released once the collective completes, and callers treat it as
	// read-only. Copying the outer slice would cost O(ranks) per caller —
	// 400 MB across one 4096-rank collective write.
	st, err := c.rendezvous(r, "allgather", int64(8*len(vals)), vals)
	return st.inputs, err
}

// derivedValue boxes an AllgatherDerive result, so a zero T still marks
// the call's value as derived.
type derivedValue[T any] struct{ v T }

// AllgatherDerive is Allgather for callers that need only a value computed
// from the gathered table, the same on every rank: the first rank to read
// the completed call runs derive(table) and every rank gets that one
// value, which it must treat as read-only. A call thus costs one derive
// rather than one per rank. derive may read only what every rank of the
// call shares (the table, the communicator, inputs agreed on beforehand).
// A timed-out call returns its *CollTimeoutError and runs no derive.
// Under MessagePassing every rank derives from its own gathered table.
func AllgatherDerive[T any](c *Comm, r *Rank, vals []int64, derive func(table [][]int64) T) (T, error) {
	sp := c.beginColl(r, "allgather")
	defer func() { sp.end(r) }()
	if c.model == MessagePassing {
		return derive(c.msgAllgather(r, vals)), nil
	}
	st, err := c.rendezvous(r, "allgather", int64(8*len(vals)), vals)
	if err != nil {
		var zero T
		return zero, err
	}
	if st.derived == nil {
		st.derived = derivedValue[T]{derive(st.inputs)}
	}
	return st.derived.(derivedValue[T]).v, nil
}

// Alltoall is the sparse MPI_Alltoall with one int64 per pair of ranks:
// send lists (dest, count) pairs, flattened, for the non-zero entries only,
// in strictly ascending dest order; the result lists the (src, count) pairs
// sent to this rank, in ascending src order. Zero counts are dropped. This
// is the dissemination step at the start of every two-phase exchange
// round, where each rank sends to a few aggregators. send may be reused as
// soon as the call returns. Under Analytic the result is a row of the
// rendezvous's shared table (see settle) and is read-only.
func (c *Comm) Alltoall(r *Rank, send []int64) []int64 {
	recv, _ := c.TryAlltoall(r, send)
	return recv
}

// TryAlltoall is Alltoall with timeout surfacing. A timed-out call
// returns nothing from the ranks that never arrived.
func (c *Comm) TryAlltoall(r *Rank, send []int64) ([]int64, error) {
	if len(send)%2 != 0 {
		panic("mpi: alltoall send list must hold (dest, count) pairs")
	}
	for k := 0; k < len(send); k += 2 {
		if send[k] < 0 || send[k] >= int64(len(c.ranks)) || (k > 0 && send[k] <= send[k-2]) {
			panic(fmt.Sprintf("mpi: alltoall destination %d out of range or order", send[k]))
		}
	}
	sp := c.beginColl(r, "alltoall")
	defer func() { sp.end(r) }()
	if c.model == MessagePassing {
		return c.msgAlltoall(r, send), nil
	}
	st, err := c.rendezvous(r, "alltoall", 8, send)
	return st.inputs[c.RankOf(r)], err
}

// Split partitions the communicator by color; ranks with equal color land
// in a new communicator ordered by (key, rank), as MPI_Comm_split. Every
// member must call it; callers with color < 0 (MPI_UNDEFINED) get nil.
// The grouping is computed via an Allgather of (color, key) pairs, so it
// costs one collective.
func (c *Comm) Split(r *Rank, color, key int) *Comm {
	pairs := c.Allgather(r, []int64{int64(color), int64(key)})
	if color < 0 {
		return nil
	}
	type member struct {
		rank int // position in c
		key  int64
	}
	var members []member
	for i, p := range pairs {
		if p[0] == int64(color) {
			members = append(members, member{rank: i, key: p[1]})
		}
	}
	// Stable order by (key, rank).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].rank < members[j-1].rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	ids := make([]int, len(members))
	for i, m := range members {
		ids[i] = c.ranks[m.rank].id
	}
	// All members must share one communicator object so that collective
	// rendezvous state matches; intern by membership.
	nc := c.w.intern("", ids)
	nc.model = c.model
	return nc
}

// ---- Message-passing implementations ----

// advanceTagFor reserves a tag block for one collective call. All ranks
// allocate collective call indices in the same order (SPMD), so the tag is
// consistent across the communicator; the stride of 4 leaves room for
// multi-stage algorithms (reduce+bcast) to use distinct sub-tags.
func (c *Comm) advanceTagFor(me int) int {
	tag := 1<<30 + c.callIdx[me]*4
	c.callIdx[me]++
	return tag
}

func (c *Comm) msgBarrier(r *Rank) {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	for dist := 1; dist < p; dist *= 2 {
		dst := c.ranks[(me+dist)%p].id
		src := c.ranks[(me-dist+p)%p].id
		req := r.Irecv(src, tag)
		r.Send(dst, tag, Message{Size: 1})
		r.Wait(req)
	}
}

func (c *Comm) msgAllreduce(r *Rank, vals []int64, op Op) []int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	acc := make([]int64, len(vals))
	copy(acc, vals)
	// Binomial reduce to comm rank 0.
	for dist := 1; dist < p; dist *= 2 {
		if me%(2*dist) == 0 {
			if me+dist < p {
				m := r.Recv(c.ranks[me+dist].id, tag)
				for j := range acc {
					acc[j] = op(acc[j], m.Vals[j])
				}
			}
		} else {
			r.Send(c.ranks[me-dist].id, tag, Message{Vals: acc})
			break
		}
	}
	// Binomial broadcast of the result on a distinct sub-tag.
	return c.bcastWithTag(r, 0, acc, tag+1)
}

func (c *Comm) bcastWithTag(r *Rank, root int, vals []int64, tag int) []int64 {
	me := c.RankOf(r)
	p := len(c.ranks)
	rel := (me - root + p) % p
	if rel != 0 {
		src := ((rel - lowestSetBit(rel)) + root) % p
		m := r.Recv(c.ranks[src].id, tag)
		vals = m.Vals
	}
	for dist := topMask(p); dist >= 1; dist /= 2 {
		if rel%(2*dist) == 0 && rel+dist < p {
			dst := (rel + dist + root) % p
			r.Send(c.ranks[dst].id, tag, Message{Vals: vals})
		}
	}
	return vals
}

func (c *Comm) msgAllgather(r *Rank, vals []int64) [][]int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	out := make([][]int64, p)
	out[me] = vals
	// Ring: forward the (p-1) most recently received contributions.
	right := c.ranks[(me+1)%p].id
	left := c.ranks[(me-1+p)%p].id
	cur := me
	curVals := vals
	for step := 0; step < p-1; step++ {
		req := r.Irecv(left, tag)
		r.Send(right, tag, Message{Vals: append([]int64{int64(cur)}, curVals...)})
		m := r.Wait(req)
		cur = int(m.Vals[0])
		curVals = m.Vals[1:]
		out[cur] = curVals
	}
	return out
}

// msgAlltoall runs the pairwise exchange over the dense vector the sparse
// send list stands for, and returns the non-zero entries received.
func (c *Comm) msgAlltoall(r *Rank, send []int64) []int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	dense := make([]int64, p)
	for k := 0; k < len(send); k += 2 {
		dense[send[k]] = send[k+1]
	}
	in := make([]int64, p)
	in[me] = dense[me]
	for round := 1; round < p; round++ {
		dst := (me + round) % p
		src := (me - round + p) % p
		req := r.Irecv(c.ranks[src].id, tag)
		r.Send(c.ranks[dst].id, tag, Message{Vals: []int64{dense[dst]}})
		m := r.Wait(req)
		in[src] = m.Vals[0]
	}
	var out []int64
	for src, n := range in {
		if n != 0 {
			out = append(out, int64(src), n)
		}
	}
	return out
}

func lowestSetBit(x int) int { return x & (-x) }

// topMask returns the largest power of two strictly below the smallest
// power of two >= p (i.e. the first sender stride of a binomial tree).
func topMask(p int) int {
	m := 1
	for m < p {
		m *= 2
	}
	return m / 2
}
