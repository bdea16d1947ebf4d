package adio

import (
	"errors"
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the degraded-mode variant of the extended two-phase
// collective write: the same round structure as WriteStridedColl, wrapped
// in a failover-epoch loop that survives aggregator death and network
// partitions.
//
// The protocol adds one collective per round — a round-ack Allreduce — and
// treats the acked extent set as the unit of progress: a sender releases a
// round's buffers (here: stops considering those extents pending) only
// once the round-ack succeeds, so anything an aggregator had in flight
// when it died is replayed from the sender's retained data in the next
// epoch. Epochs are delimited by collective failures: any timed-out
// collective or receive aborts the epoch, the survivors recompute the live
// membership and the file-domain partitioning over it (deterministically —
// same survivor set, same domains), and only the unacked remainder is
// re-exchanged. Re-writing an extent is idempotent: the bytes are the
// same, so byte conservation holds across failover.
//
// The failover machinery requires World.SetCollTimeout to be armed; with
// no timeout a collective involving a dead rank waits forever and the
// epoch loop never advances.

// HintResilientWrite enables the failover-capable collective write path
// ("enable"/"disable"). It rides in the hint Extra set, like the e10_*
// cache hints.
const HintResilientWrite = "e10_resilient_write"

// maxFailoverEpochs bounds the epoch loop: each epoch either finishes the
// write, or shrinks the membership / waits out a partition. Repeated
// failure without progress gives up with ErrFailoverExhausted.
const maxFailoverEpochs = 8

// DefaultRecvDeadline bounds an aggregator's wait for one shuffled data
// message when no collective timeout is armed to derive it from.
const DefaultRecvDeadline = 100 * sim.Millisecond

// ErrFailoverExhausted reports that the resilient write could not complete
// within maxFailoverEpochs membership epochs.
var ErrFailoverExhausted = errors.New("adio: resilient collective write exhausted failover epochs")

// errEpochFailed marks an epoch aborted by a retryable degraded-mode
// condition (collective timeout, receive deadline, peer-reported timeout).
var errEpochFailed = errors.New("adio: failover epoch aborted")

// epochAbort reports an epoch aborted by cause. It matches both
// errEpochFailed and cause under errors.Is/As and reads as
// fmt.Errorf("%w: %w", errEpochFailed, cause) would, but builds that text
// only when asked: every survivor of a failed epoch returns one, and the
// epoch loop discards it.
type epochAbort struct{ cause error }

func (e *epochAbort) Error() string   { return errEpochFailed.Error() + ": " + e.cause.Error() }
func (e *epochAbort) Unwrap() []error { return []error{errEpochFailed, e.cause} }

// Round-ack codes, combined with MaxOp so the worst peer status wins.
const (
	ackOK      = 0 // round written and acknowledged
	ackIOErr   = 1 // an aggregator's WriteContig failed: fatal
	ackTimeout = 2 // an aggregator missed a shuffle message: retry epoch
)

// resilientEnabled reports whether the e10_resilient_write hint selects
// the failover path.
func (f *File) resilientEnabled() bool {
	v, _ := f.hints.Extra.Get(HintResilientWrite)
	return v == "enable"
}

// writeStridedCollResilient runs the failover-epoch loop around
// resilientEpoch. acked accumulates every extent of this rank whose round
// was acknowledged; each epoch replays only the gaps.
func (f *File) writeStridedCollResilient(segs []extent.Extent, data []byte, total int64) error {
	r, w := f.rank, f.rank.World()
	f.Stats.CollWrites++
	f.metrics().Counter("adio_coll_writes_total", layerLabel).Inc()

	tr := w.Kernel().Tracer()
	ttk := r.TraceTrack(tr)
	if tr != nil {
		csp := tr.Begin(ttk, "adio", "coll_write_resilient", int64(r.Now()))
		defer func() {
			csp.End(int64(r.Now()), trace.I("segs", int64(len(segs))), trace.I("bytes", total))
		}()
	}

	pre := prefixSums(segs, data)

	// Per-file resilient-call counter: collective calls run in lockstep on
	// every rank, so the counter agrees across the communicator and keys
	// the per-epoch communicator scopes.
	call := f.resilCall
	f.resilCall++

	// The receive deadline must undercut the collective timeout: an
	// aggregator that gives up on a dead sender has to reach the round-ack
	// before the other survivors' round-ack timer fires, so every survivor
	// observes the same failed collective and enters the next epoch at the
	// same instant. A deadline >= the timeout leaves the aggregator one
	// collective behind for the rest of the call.
	deadline := w.CollTimeout() / 2
	if deadline <= 0 {
		deadline = DefaultRecvDeadline
	}

	var acked extent.Set
	for epoch := 0; epoch < maxFailoverEpochs; epoch++ {
		// Survivor membership, in the file communicator's rank order, so
		// every live rank derives the same sub-communicator and the same
		// aggregator placement. The first caller of an epoch filters the
		// file communicator; later callers that saw no new deaths reuse
		// its result in O(1).
		scope := fmt.Sprintf("e10res|%s|c%d|e%d", f.path, call, epoch)
		sub := f.comm.Survivors(scope)
		if sub.RankOf(r) < 0 {
			return fmt.Errorf("adio: rank %d not in survivor set", r.ID())
		}
		if epoch > 0 {
			f.Stats.FailoverEpochs++
			f.metrics().Counter("adio_failover_epochs_total", layerLabel).Inc()
			if tr != nil {
				tr.Instant(ttk, "adio", "failover_epoch", int64(r.Now()),
					trace.I("epoch", int64(epoch)), trace.I("survivors", int64(sub.Size())))
			}
		}
		err := f.resilientEpoch(sub, epoch, segs, pre, data, &acked, deadline)
		if err == nil {
			return nil
		}
		if !errors.Is(err, errEpochFailed) && !errors.Is(err, mpi.ErrCollTimeout) {
			return err
		}
	}
	return fmt.Errorf("%w (after %d epochs)", ErrFailoverExhausted, maxFailoverEpochs)
}

// resilientEpoch runs one membership epoch of the two-phase loop over the
// unacked remainder. A nil return means the whole write (this rank's part
// and, via the final code exchange, everyone else's) completed; a
// retryable abort is reported as errEpochFailed (possibly wrapping the
// underlying timeout) and a write error is returned as itself.
func (f *File) resilientEpoch(c *mpi.Comm, epoch int, segs []extent.Extent, pre []int64,
	data []byte, acked *extent.Set, deadline sim.Time) error {
	r := f.rank

	// This rank's pending work: the unacked gaps of each original segment.
	// Gaps are computed per segment, so every pending extent stays inside
	// one segment and segPayload can locate its bytes.
	var rem []extent.Extent
	for _, s := range segs {
		rem = append(rem, acked.Gaps(s)...)
	}

	// Offset exchange and file domains over the survivors, with the
	// aggregators placed over them by the file's own rule, so every survivor
	// derives the same map.
	p, err := f.plan(c, rem, HintEnable)
	if err != nil {
		return &epochAbort{err}
	}
	if p.fds == nil {
		// Nothing left anywhere: synchronise final codes and succeed.
		if _, err := c.TryAllreduce(r, []int64{ackOK}, mpi.MaxOp); err != nil {
			return &epochAbort{err}
		}
		return nil
	}

	mExch := f.metrics().Counter("adio_exchange_bytes_total", layerLabel)
	mRounds := f.metrics().Counter("adio_coll_rounds_total", layerLabel)

	// The epoch's tag space: rounds live in the low 16 bits, the epoch
	// above them, so a straggler retransmit from a failed epoch can never
	// match a later epoch's receives.
	tagBase := tagDataBase + ((epoch & 0x3ff) << 16)

	var firstErr error
	rp := &f.round
	for m := 0; m < p.ntimes; m++ {
		tag := tagBase + (m & 0xffff)

		rp.planRound(rem, p.fds, p.aggList, p.cb, m)

		recv, err := c.TryAlltoall(r, rp.send)
		if err != nil {
			return &epochAbort{err}
		}

		recvReqs, sendReqs, selfExts := f.postWriteRound(&p, tag, recv, rp, segs, pre, data, mExch)
		r.Waitall(sendReqs)

		// Aggregator: collect contributions under a deadline — a sender
		// that died mid-round must not park this rank forever — then pack
		// and write whatever arrived. A missed message degrades the round
		// to ackTimeout; the write is not attempted, and the round-ack
		// sends everyone to the next epoch.
		code := int64(ackOK)
		if win := p.window(m); !win.Empty() {
			msgs := make([]*mpi.Message, 0, len(recvReqs))
			for _, q := range recvReqs {
				msg, rerr := r.WaitDeadline(q, deadline)
				if rerr != nil {
					code = ackTimeout
					break
				}
				msgs = append(msgs, msg)
			}
			if code == ackOK {
				if err := f.packAndWrite(win, msgs, selfExts, segs, pre, data); err != nil {
					code = ackIOErr
					if firstErr == nil {
						firstErr = err
					}
				}
				f.Stats.CollRounds++
				mRounds.Inc()
			}
		}

		// Round-ack: senders release this round's extents only when every
		// surviving aggregator confirms the round landed.
		res, err := c.TryAllreduce(r, []int64{code}, mpi.MaxOp)
		if err != nil {
			return &epochAbort{err}
		}
		switch res[0] {
		case ackIOErr:
			if firstErr == nil {
				firstErr = fmt.Errorf("adio: collective write failed on another rank")
			}
			return firstErr
		case ackTimeout:
			return fmt.Errorf("%w: %w in round %d", errEpochFailed, mpi.ErrRecvTimeout, m)
		}
		for _, e := range rp.pieces {
			acked.Add(e)
		}
	}

	// Final code exchange, as in the standard path.
	code := int64(ackOK)
	if firstErr != nil {
		code = ackIOErr
	}
	res, err := c.TryAllreduce(r, []int64{code}, mpi.MaxOp)
	if err != nil {
		return &epochAbort{err}
	}
	if res[0] != ackOK && firstErr == nil {
		firstErr = fmt.Errorf("adio: collective write failed on another rank")
	}
	return firstErr
}
