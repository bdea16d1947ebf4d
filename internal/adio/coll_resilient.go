package adio

import (
	"errors"
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the failover write: the collective write as a loop of
// membership epochs that survives aggregator death and network partitions.
// Each epoch runs writeEpoch (coll.go) over the survivors of the file
// communicator, for the extents of this rank not yet acknowledged, with
// the failover state, which changes three things:
//
//   - a timed-out collective aborts the epoch with an epochAbort;
//   - an aggregator waits for each shuffle message under a deadline, and a
//     missed message fails the round;
//   - each round ends with a round-ack Allreduce, and only then do its
//     extents count as acknowledged.
//
// So an extent an aggregator had in flight when it died is replayed from
// the sender's data in the next epoch, over the domains of the new
// membership (same survivors, same domains). Re-writing an extent is
// idempotent, so byte conservation holds across failover. Epochs draw
// fresh shuffle tags (epochTag), so a message given up on at its deadline
// and delivered late never counts as a later epoch's data, and the epochs'
// survivor communicators are freed when the call returns. Failover needs
// World.SetCollTimeout armed: without it a collective with a dead rank
// waits forever.

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

// failover is the failover write's state across the epochs of one call.
// A nil *failover in writeEpoch is the plain collective write.
type failover struct {
	deadline sim.Time   // an aggregator's wait for one shuffle message
	acked    extent.Set // this rank's extents whose round was acknowledged
}

// writeStridedCollResilient runs the failover epoch loop over this rank's
// access own. Each epoch writes only the gaps the acknowledged extents
// leave in its segments.
func (f *File) writeStridedCollResilient(own *view) error {
	// Collective calls run in lockstep, so this per-file call counter agrees
	// across the communicator and keys the epochs' communicator scopes.
	call := f.resilCall
	f.resilCall++
	fo := f.newFailover()
	for epoch := 0; epoch < maxFailoverEpochs; epoch++ {
		// No survivor returns before every other one has passed here for
		// each epoch, so freeing on return is safe.
		sub, err := f.survivors(call, epoch)
		defer sub.Free()
		if err != nil {
			return err
		}
		err = f.writeEpoch(sub, f.pending(own, fo, sub, epoch), own, fo)
		if err == nil || !errors.Is(err, errEpochFailed) {
			return err
		}
	}
	return fmt.Errorf("%w (after %d epochs)", ErrFailoverExhausted, maxFailoverEpochs)
}

// newFailover returns the failover state of one call. The receive
// deadline must undercut the collective timeout: an aggregator that gives
// up on a dead sender has to reach the round-ack before the other
// survivors' round-ack timer fires, so that all see the same failed
// collective and enter the next epoch at once. A longer deadline leaves
// the aggregator one collective behind for good.
func (f *File) newFailover() *failover {
	fo := &failover{deadline: f.rank.World().CollTimeout() / 2}
	if fo.deadline <= 0 {
		fo.deadline = DefaultRecvDeadline
	}
	return fo
}

// survivors returns the survivor communicator of the file's communicator
// for epoch of failover write call, with the members in the file
// communicator's rank order, so every live rank derives the same
// sub-communicator and aggregator placement. It fails when this rank is
// not a survivor.
func (f *File) survivors(call, epoch int) (*mpi.Comm, error) {
	r := f.rank
	sub := f.comm.Survivors(fmt.Sprintf("e10res|%s|c%d|e%d", f.path, call, epoch))
	if sub.RankOf(r) < 0 {
		return sub, fmt.Errorf("adio: rank %d not in survivor set", r.ID())
	}
	return sub, nil
}

// pending counts and traces a failover epoch after the first, and returns
// this rank's pending work for it: the unacked gaps of each segment of
// own, sorted and disjoint like them.
func (f *File) pending(own *view, fo *failover, sub *mpi.Comm, epoch int) []extent.Extent {
	if epoch > 0 {
		r := f.rank
		f.Stats.FailoverEpochs++
		f.metrics().Counter("adio_failover_epochs_total", layerLabel).Inc()
		tr := r.World().Kernel().Tracer()
		tr.Instant(r.TraceTrack(tr), "adio", "failover_epoch", int64(r.Now()),
			trace.I("epoch", int64(epoch)), trace.I("survivors", int64(sub.Size())))
	}
	var rem []extent.Extent
	for _, s := range own.segs {
		rem = append(rem, fo.acked.Gaps(s)...)
	}
	return rem
}
