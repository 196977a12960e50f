package core

import (
	"fmt"
	"io"
	"time"

	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/shuffle"
	"github.com/ict-repro/mpid/internal/trace"
)

// UnexpectedTagError reports a message on the MPI-D communicator whose tag
// is neither DataTag nor DoneTag — some other protocol is leaking onto the
// communicator MPI-D was given. The receiver surfaces it as a typed error
// so callers can tell protocol contamination apart from transport failures.
type UnexpectedTagError struct {
	// Tag is the offending message's tag.
	Tag int
	// Source is the communicator rank that sent it.
	Source int
	// Size is the dropped payload's length in bytes.
	Size int
}

func (e *UnexpectedTagError) Error() string {
	return fmt.Sprintf("mpid: unexpected tag %d from rank %d (%d bytes dropped)", e.Tag, e.Source, e.Size)
}

// receiver is the reducer-side state behind Recv: wildcard reception,
// reverse realignment and (in grouped mode) the cross-mapper merge.
type receiver struct {
	d *D

	// sendersLeft counts senders that have not yet sent DoneTag.
	sendersLeft int

	// Streaming mode: fragments decoded from the current message, served
	// in order.
	fragments []kv.KeyList

	// Grouped mode (default): every received partition buffer is a
	// sorted run; the shuffle merge engine folds runs in the background
	// while reception is still in flight, and the final k-way pass streams
	// key groups through out while the reduce function consumes them.
	merger   *shuffle.Merger
	nextSeq  int
	out      chan kv.KeyList
	started  bool
	mergeErr error
}

func newReceiver(d *D) *receiver {
	r := &receiver{
		d:           d,
		sendersLeft: len(d.cfg.Senders),
	}
	if !d.cfg.Streaming {
		// Recycle consumed run buffers into the transport's read pool when
		// there is one (TCP), closing the frame-read allocation loop;
		// otherwise into the instance pool. Final-pass buffers are never
		// recycled — the emitted slices alias them.
		pool := d.comm.RecvBufferPool()
		if pool == nil {
			pool = d.cfg.Pool
		}
		r.merger = shuffle.NewMerger(shuffle.Config{
			Factor:  d.cfg.MergeFactor,
			Pool:    pool,
			Ordered: true,
			OnPass: func(info shuffle.PassInfo) {
				d.mergeTimer.ObserveDuration(info.Duration)
				d.cfg.Tracer.Record(d.cfg.TraceCtx, "mpid.recv.merge", trace.KindMerge,
					info.Start, info.Start.Add(info.Duration),
					trace.Annotation{Key: "runs", Value: fmt.Sprint(info.Runs)},
					trace.Annotation{Key: "bytes_in", Value: fmt.Sprint(info.BytesIn)})
			},
		})
	}
	return r
}

// Recv returns the next key with its value list — MPI_D_Recv. Reducers call
// it in a loop; io.EOF signals that every sender finalized and all data was
// delivered.
//
// In the default grouped mode each key is returned exactly once with all
// its values merged across mappers, keys in lexicographic order. In
// Streaming mode fragments are returned in arrival order as each message is
// reverse-realigned, so a key may appear once per sending spill.
func (d *D) Recv() ([]byte, [][]byte, error) {
	if !d.isReducer {
		return nil, nil, fmt.Errorf("mpid: rank %d is not a reducer", d.comm.Rank())
	}
	if d.cfg.Streaming {
		return d.recvState.nextStreaming()
	}
	return d.recvState.nextGroupedMerged()
}

// RecvKeyList is Recv returning a kv.KeyList.
func (d *D) RecvKeyList() (kv.KeyList, error) {
	k, vs, err := d.Recv()
	return kv.KeyList{Key: k, Values: vs}, err
}

// receiveMessage blocks for the next MPI-D message in the wildcard
// reception style of §IV.A. It returns false when end-of-stream is reached
// (all senders done). An off-protocol tag yields an *UnexpectedTagError.
func (r *receiver) receiveMessage() (data []byte, more bool, err error) {
	for r.sendersLeft > 0 {
		// Wildcard: "each reducer adopts the MPI_Recv primitive in the
		// wildcard reception style to receive messages from any source."
		payload, st, err := r.d.comm.Recv(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return nil, false, err
		}
		switch st.Tag {
		case DataTag:
			return payload, true, nil
		case DoneTag:
			r.sendersLeft--
		default:
			return nil, false, &UnexpectedTagError{Tag: st.Tag, Source: st.Source, Size: len(payload)}
		}
	}
	return nil, false, nil
}

// decode reverse-realigns one contiguous partition buffer back into
// key/value-list fragments ("the sequential data stream will be
// re-constructed as key-value pairs").
func (r *receiver) decode(data []byte) ([]kv.KeyList, error) {
	var out []kv.KeyList
	for len(data) > 0 {
		klist, n, err := kv.ReadKeyList(data)
		if err != nil {
			return nil, fmt.Errorf("mpid: corrupt partition buffer: %w", err)
		}
		out = append(out, klist)
		r.d.counters.PairsReceived += int64(len(klist.Values))
		data = data[n:]
	}
	return out, nil
}

// nextStreaming yields fragments in arrival order.
func (r *receiver) nextStreaming() ([]byte, [][]byte, error) {
	for len(r.fragments) == 0 {
		data, more, err := r.receiveMessage()
		if err != nil {
			return nil, nil, err
		}
		if !more {
			return nil, nil, io.EOF
		}
		r.fragments, err = r.decode(data)
		if err != nil {
			return nil, nil, err
		}
	}
	f := r.fragments[0]
	r.fragments = r.fragments[1:]
	return f.Key, f.Values, nil
}

// nextGroupedMerged is the streaming grouped drain: each received partition
// buffer is a sorted run (spill serializes in sorted key order) handed to
// the merge engine, whose background passes fold runs while reception is
// still in flight. Once every sender is done, the final k-way pass runs in
// its own goroutine and streams key groups through a channel, so reduce
// computation overlaps the tail of the merge. Equal keys concatenate their
// values in run-arrival order (Ordered merger), so a key's values reach
// the reducer in the order its senders' spills arrived.
func (r *receiver) nextGroupedMerged() ([]byte, [][]byte, error) {
	if !r.started {
		for {
			data, more, err := r.receiveMessage()
			if err != nil {
				return nil, nil, err
			}
			if !more {
				break
			}
			r.merger.Add(r.nextSeq, data)
			r.nextSeq++
		}
		r.out = make(chan kv.KeyList, 64)
		mergeStart := time.Now()
		go func() {
			defer close(r.out)
			r.mergeErr = r.merger.Merge(func(kl kv.KeyList) error {
				r.out <- kl
				return nil
			})
			d := r.d
			d.mergeTimer.ObserveDuration(time.Since(mergeStart))
			d.cfg.Tracer.Record(d.cfg.TraceCtx, "mpid.recv.merge", trace.KindMerge,
				mergeStart, time.Now(), trace.Annotation{Key: "pass", Value: "final"})
		}()
		r.started = true
	}
	kl, ok := <-r.out
	if !ok {
		// Channel closed: r.mergeErr was written before close, so the
		// receive above orders the read after the write.
		if r.mergeErr != nil {
			return nil, nil, r.mergeErr
		}
		return nil, nil, io.EOF
	}
	r.d.counters.PairsReceived += int64(len(kl.Values))
	return kl.Key, kl.Values, nil
}
