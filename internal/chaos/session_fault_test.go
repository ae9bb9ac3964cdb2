package chaos

// The failure model of a durable session, one fault at a time: the
// source dies mid-run, the disk fills under the session log, a write
// to it is torn, or an fsync is denied. Each fault must leave the
// session failed with nothing terminal in its log, and a fresh service
// over the same state directory must Recover it into streams
// byte-identical to a run that never failed.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icewafl/internal/netstream"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

const (
	faultTenant = "t"
	faultName   = "s"
)

// faultSpec is the opaque session spec the fault table's Build hook
// compiles.
type faultSpec struct {
	Seed int64 `json:"seed"`
	N    int   `json:"n"`
}

// failAfterSource emits left tuples of the wrapped source, then fails.
type failAfterSource struct {
	stream.Source
	left int
}

func (f *failAfterSource) Next() (stream.Tuple, error) {
	if f.left <= 0 {
		return stream.Tuple{}, errors.New("chaos: source failed mid-run")
	}
	f.left--
	return f.Source.Next()
}

// faultBuild compiles a faultSpec into a checkpointing session config.
// wrap, when set, decorates every source the session opens.
func faultBuild(t *testing.T, wrap func(stream.Source) stream.Source) func(json.RawMessage) (netstream.Config, error) {
	t.Helper()
	schema := itSchema(t)
	return func(raw json.RawMessage) (netstream.Config, error) {
		var fs faultSpec
		if err := json.Unmarshal(raw, &fs); err != nil {
			return netstream.Config{}, err
		}
		return netstream.Config{
			Schema: schema,
			Proc:   itProcess(fs.Seed),
			NewSource: func() (stream.Source, error) {
				src := itSource(schema, fs.N)
				if wrap != nil {
					src = wrap(src)
				}
				return src, nil
			},
			Reorder:         1,
			Buffer:          64,
			CheckpointEvery: 16,
		}, nil
	}
}

// serveFaultService serves a durable session service over loopback TCP
// and returns it with its address and an idempotent stop.
func serveFaultService(t *testing.T, cfg netstream.ServiceConfig) (svc *netstream.Service, addr string, stop func()) {
	t.Helper()
	cfg.Reg = obs.NewRegistry()
	cfg.DrainTimeout = 100 * time.Millisecond
	svc, err := netstream.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Serve(ctx, ln, nil); err != nil {
			t.Logf("serve: %v", err)
		}
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("service did not shut down")
		}
	}
	t.Cleanup(stop)
	return svc, ln.Addr().String(), stop
}

// waitSession blocks until the fault table's session finishes its run
// and returns its control-plane state.
func waitSession(t *testing.T, svc *netstream.Service) netstream.SessionStatus {
	t.Helper()
	sess, ok := svc.Get(faultTenant, faultName)
	if !ok {
		t.Fatal("session not registered")
	}
	select {
	case <-sess.Server().PipelineDone():
	case <-time.After(30 * time.Second):
		t.Fatal("session never finished")
	}
	for _, st := range svc.List() {
		if st.Tenant == faultTenant && st.Name == faultName {
			return st
		}
	}
	t.Fatal("session missing from the control plane")
	return netstream.SessionStatus{}
}

// drainRaw subscribes to channel from its first frame and returns every
// payload up to and including the eof, plus the data frames' sequence
// numbers.
func drainRaw(t *testing.T, addr, channel string) (payloads [][]byte, seqs []uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := json.Marshal(netstream.SubscribeRequest{Channel: channel})
	if err != nil {
		t.Fatal(err)
	}
	if err := netstream.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(conn)
	for {
		payload, err := netstream.ReadFrame(br)
		if err != nil {
			t.Fatalf("%s: read frame: %v", channel, err)
		}
		f, err := netstream.DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
		switch f.Type {
		case netstream.FrameTuple, netstream.FrameLog:
			seqs = append(seqs, f.Seq)
		case netstream.FrameError:
			t.Fatalf("%s: error frame: %s", channel, f.Error)
		case netstream.FrameEOF:
			return payloads, seqs
		}
	}
}

// channelDigest is the sha256 of a channel's framed payloads.
func channelDigest(payloads [][]byte) string {
	h := sha256.New()
	for _, p := range payloads {
		_ = netstream.WriteFrame(h, p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// drainSession drains the session's three channels into per-channel
// digests, checking that the dirty sequence runs 1..n.
func drainSession(t *testing.T, addr string, n int) map[string]string {
	t.Helper()
	digests := make(map[string]string)
	for _, local := range netstream.Channels() {
		payloads, seqs := drainRaw(t, addr, faultTenant+"/"+faultName+"/"+local)
		digests[local] = channelDigest(payloads)
		if local != netstream.ChannelDirty {
			continue
		}
		if len(seqs) != n {
			t.Fatalf("dirty carries %d frames, want %d", len(seqs), n)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("dirty seq %d at position %d, want %d (duplicate or gap)", s, i, i+1)
			}
		}
	}
	return digests
}

// TestFaultFSSessionFailsThenRecovers runs one durable, checkpointing
// session through each fault. The faulted run ends failed without a
// terminal frame in its log; a fresh service over the same state dir,
// on the real filesystem, recovers it into the uninterrupted run's
// exact bytes on every channel.
func TestFaultFSSessionFailsThenRecovers(t *testing.T) {
	const seed, n = 91, 240
	spec, err := json.Marshal(faultSpec{Seed: seed, N: n})
	if err != nil {
		t.Fatal(err)
	}
	req := netstream.SessionRequest{Tenant: faultTenant, Name: faultName, Spec: spec}
	walOpts := netstream.WALOptions{FsyncEvery: 8}

	refSvc, refAddr, _ := serveFaultService(t, netstream.ServiceConfig{
		Build: faultBuild(t, nil), StateDir: t.TempDir(), WAL: walOpts,
	})
	if _, err := refSvc.Create(req); err != nil {
		t.Fatal(err)
	}
	if st := waitSession(t, refSvc); st.State != "done" {
		t.Fatalf("reference run: state %s (%s)", st.State, st.Error)
	}
	want := drainSession(t, refAddr, n)
	t.Logf("reference digests: %v", want)

	cases := []struct {
		name string
		wrap func(stream.Source) stream.Source
		fs   *FaultFS
	}{
		{name: "source fails after 70 rows", wrap: func(src stream.Source) stream.Source {
			return &failAfterSource{Source: src, left: 70}
		}},
		{name: "ENOSPC on the session log", fs: &FaultFS{FailAfterBytes: 24 << 10}},
		{name: "fsync denied", fs: &FaultFS{SyncFailEvery: 10}},
		{name: "short write on the session log", fs: &FaultFS{ShortWriteEvery: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := t.TempDir()
			faulty := netstream.ServiceConfig{Build: faultBuild(t, tc.wrap), StateDir: stateDir, WAL: walOpts}
			if tc.fs != nil {
				faulty.WAL.FS = tc.fs
			}
			svc, _, stop := serveFaultService(t, faulty)
			if _, err := svc.Create(req); err != nil {
				t.Fatal(err)
			}
			st := waitSession(t, svc)
			if st.State != "failed" {
				t.Fatalf("faulted run: state %s, want failed", st.State)
			}
			t.Logf("faulted run failed: %s", st.Error)
			stop()

			w, err := netstream.OpenWAL(filepath.Join(stateDir, faultTenant, faultName, "wal"), netstream.WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dirty := w.Channel(faultTenant + "/" + faultName + "/" + netstream.ChannelDirty)
			w.Close()
			if dirty.Terminal || dirty.Max >= n {
				t.Fatalf("faulted log: dirty %+v, want non-terminal below %d", dirty, n)
			}

			svc2, addr2, _ := serveFaultService(t, netstream.ServiceConfig{
				Build: faultBuild(t, nil), StateDir: stateDir, WAL: walOpts,
			})
			if ids, err := svc2.Recover(); err != nil || len(ids) != 1 {
				t.Fatalf("Recover = %v, %v; want the one session", ids, err)
			}
			if st := waitSession(t, svc2); st.State != "done" {
				t.Fatalf("recovered run: state %s (%s)", st.State, st.Error)
			}
			got := drainSession(t, addr2, n)
			t.Logf("dirty max at failure %d; recovered digests: %v", dirty.Max, got)
			for _, local := range netstream.Channels() {
				if got[local] != want[local] {
					t.Errorf("%s after Recover: digest %s, want %s", local, got[local], want[local])
				}
			}
		})
	}
}

// TestFaultFSSpecWriteLeavesNothing: the session spec is written
// through the service's filesystem, so a short write there fails the
// create and leaves neither the spec nor its temporary file behind.
func TestFaultFSSpecWriteLeavesNothing(t *testing.T) {
	stateDir := t.TempDir()
	ffs := &FaultFS{ShortWriteEvery: 1}
	svc, _, _ := serveFaultService(t, netstream.ServiceConfig{
		Build: faultBuild(t, nil), StateDir: stateDir, WAL: netstream.WALOptions{FS: ffs},
	})
	spec, err := json.Marshal(faultSpec{Seed: 1, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Create(netstream.SessionRequest{Tenant: faultTenant, Name: faultName, Spec: spec})
	if err == nil || !errors.Is(err, io.ErrShortWrite) || !strings.Contains(err.Error(), "persist session spec") {
		t.Fatalf("create through a short spec write: err = %v, want the spec write's short write", err)
	}
	if ffs.ShortWrites() != 1 {
		t.Fatalf("create made %d short writes, want the one spec write (%v)", ffs.ShortWrites(), err)
	}
	for _, f := range []string{"spec.json", "spec.json.tmp"} {
		if _, serr := os.Stat(filepath.Join(stateDir, faultTenant, faultName, f)); !os.IsNotExist(serr) {
			t.Errorf("%s left behind after the failed create (%v): stat = %v", f, err, serr)
		}
	}
}
