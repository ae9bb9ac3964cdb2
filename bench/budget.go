package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"icewafl/internal/netstream"
	"icewafl/internal/stream"
)

// budgetTuples caps the budget pass's input.
const budgetTuples = 100_000

// budget is the isolated pass over the serve layers: the captured dirty
// tuples replayed through each layer's public functions on their own,
// one goroutine (two for the socket), so a layer's cost can be read
// without the others in the way. All times are ns per tuple (= per
// tuple frame); allocs are heap objects per tuple.
type budget struct {
	n float64

	encodeTupleNs, marshalNs, encodeAllocs float64 // EncodeTuple, EncodeFrame
	decodeNs, decodeAllocs                 float64 // DecodeFrame + DecodeTuple
	frameBytes                             float64 // payload + length prefix
	colbatchNs, colbatchBytes              float64
	walAppendNs, walReplayNs               float64
	hub1Ns, hub2Ns                         float64
	loopbackNs                             float64
}

func (b *budget) encodeNs() float64 { return b.encodeTupleNs + b.marshalNs }

// timed runs fn over the pass's tuples and returns ns and heap
// allocations per tuple.
func (b *budget) timed(fn func() error) (ns, allocs float64, err error) {
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	err = fn()
	took := time.Since(start)
	m1 := readMem()
	return float64(took) / b.n, float64(m1.mallocs-m0.mallocs) / b.n, err
}

func runBudget(tuples []stream.Tuple, durable bool, dir string) (*budget, error) {
	b := &budget{n: float64(len(tuples))}
	var err error

	// wire: tuple → WireTuple → frame bytes, and back.
	wts := make([]*netstream.WireTuple, len(tuples))
	var a1, a2 float64
	if b.encodeTupleNs, a1, err = b.timed(func() error {
		for i, t := range tuples {
			wts[i] = netstream.EncodeTuple(t)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(tuples))
	if b.marshalNs, a2, err = b.timed(func() error {
		for i, wt := range wts {
			f := netstream.Frame{Type: netstream.FrameTuple, Channel: serveChannel, Seq: uint64(i + 1), Tuple: wt}
			if payloads[i], err = netstream.EncodeFrame(&f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	b.encodeAllocs = a1 + a2
	total := 0
	for _, p := range payloads {
		total += len(p) + 4
	}
	b.frameBytes = float64(total) / b.n
	if b.decodeNs, b.decodeAllocs, err = b.timed(func() error {
		for _, p := range payloads {
			f, err := netstream.DecodeFrame(p)
			if err != nil {
				return err
			}
			if _, err := netstream.DecodeTuple(f.Tuple, loadSchema); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// wire, colbatch codec: the same tuples as 256-row column batches.
	batchBytes := 0
	if b.colbatchNs, _, err = b.timed(func() error {
		cb := stream.NewColumnBatch(loadSchema, traceBatch)
		for lo := 0; lo < len(tuples); lo += traceBatch {
			cb.Reset()
			for _, t := range tuples[lo:min(lo+traceBatch, len(tuples))] {
				if err := cb.AppendTuple(t); err != nil {
					return err
				}
			}
			f := netstream.Frame{Type: netstream.FrameColBatch, Channel: serveChannel, Seq: uint64(lo/traceBatch + 1), Batch: netstream.EncodeColumnBatch(cb)}
			p, err := netstream.EncodeFrame(&f)
			if err != nil {
				return err
			}
			batchBytes += len(p) + 4
		}
		return nil
	}); err != nil {
		return nil, err
	}
	b.colbatchBytes = float64(batchBytes) / b.n

	if durable {
		if err := b.wal(payloads, filepath.Join(dir, "budget-wal")); err != nil {
			return nil, err
		}
	}
	if b.hub1Ns, err = b.hub(wts, 1); err != nil {
		return nil, err
	}
	if b.hub2Ns, err = b.hub(wts, 2); err != nil {
		return nil, err
	}
	if err := b.loopback(payloads); err != nil {
		return nil, err
	}
	return b, nil
}

// wal appends every frame to a fresh log at the default fsync cadence,
// then reads the log back.
func (b *budget) wal(payloads [][]byte, dir string) error {
	w, err := netstream.OpenWAL(dir, netstream.WALOptions{})
	if err != nil {
		return err
	}
	defer w.Close()
	if b.walAppendNs, _, err = b.timed(func() error {
		for i, p := range payloads {
			if err := w.Append(uint64(i+1), false, p); err != nil {
				return err
			}
		}
		return w.Sync()
	}); err != nil {
		return err
	}
	b.walReplayNs, _, err = b.timed(func() error {
		r, err := w.ReadFrom(1)
		if err != nil {
			return err
		}
		defer r.Close()
		for n := 0; ; n++ {
			if _, err := r.Next(); err == io.EOF {
				if n != len(payloads) {
					return fmt.Errorf("wal replay returned %d of %d frames", n, len(payloads))
				}
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	return err
}

// hub publishes every frame to a hub with subs subscribers and receives
// it on each, in one goroutine: Publish (which marshals the frame and
// keeps it in the replay ring) plus the queue hand-off.
func (b *budget) hub(wts []*netstream.WireTuple, subs int) (float64, error) {
	const ch = netstream.ChannelDirty
	hub := netstream.NewHubNamed([]string{ch}, 256, 65536, netstream.PolicyBlock, nil)
	defer hub.Close()
	ss := make([]*netstream.Subscriber, subs)
	for i := range ss {
		s, err := hub.Subscribe(ch, 0)
		if err != nil {
			return 0, err
		}
		defer s.Close()
		ss[i] = s
	}
	ns, _, err := b.timed(func() error {
		for _, wt := range wts {
			if err := hub.Publish(ch, &netstream.Frame{Type: netstream.FrameTuple, Tuple: wt}); err != nil {
				return err
			}
			for _, s := range ss {
				if _, _, err := s.Recv(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return ns, err
}

// loopback sends every frame over a loopback TCP connection the way
// Server.streamTCP does (WriteFrame + Flush per frame) while a second
// goroutine reads them the way ClientSource does (ReadFrame on a
// bufio.Reader).
func (b *budget) loopback(payloads [][]byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	read := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			read <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for range payloads {
			if _, err := netstream.ReadFrame(br); err != nil {
				read <- err
				return
			}
		}
		read <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	b.loopbackNs, _, err = b.timed(func() error {
		for _, p := range payloads {
			if err := netstream.WriteFrame(bw, p); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		return <-read
	})
	return err
}

// record reports the pass as per-layer metrics.
func (b *budget) record(res *Result) {
	res.add("wire.encode_tuple_ns_per_tuple", b.encodeNs())
	res.add("wire.encode_tuple_allocs_per_tuple", b.encodeAllocs)
	res.add("wire.decode_tuple_ns_per_tuple", b.decodeNs)
	res.add("wire.decode_tuple_allocs_per_tuple", b.decodeAllocs)
	res.add("wire.frame_bytes_per_tuple", b.frameBytes)
	res.add("wire.encode_colbatch_ns_per_tuple", b.colbatchNs)
	res.add("wire.colbatch_bytes_per_tuple", b.colbatchBytes)
	if b.walAppendNs > 0 {
		res.add("wal.append_ns_per_frame", b.walAppendNs)
		res.add("wal.replay_ns_per_frame", b.walReplayNs)
	}
	res.add("hub.publish_recv_ns_per_frame_1sub", b.hub1Ns)
	res.add("hub.publish_recv_ns_per_frame_2sub", b.hub2Ns)
	res.add("server.loopback_ns_per_frame", b.loopbackNs)
}
