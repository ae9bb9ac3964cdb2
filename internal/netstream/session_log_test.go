package netstream

// The session log: one write-ahead log per durable session carrying all
// three channels and the checkpoints. These tests pin its fsync policy,
// its directory fsyncs, its recovery from a log cut at any byte, and
// the per-channel index OpenWAL rebuilds.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/stream"
)

// countingFS records what the WAL asks of the filesystem: segment
// creations, directory syncs, segment-file writes and, per channel, how
// many frame records were written since the last file sync.
type countingFS struct {
	FS
	mu       sync.Mutex
	events   []string       // "create <path>", "syncdir <dir>", "write <path>"
	fsyncs   int            // file syncs of segment files
	writes   int            // writes to segment files, headers included
	pending  map[string]int // frames per channel written since the last sync
	worst    int            // the largest pending count ever observed
	lastRec  string         // "frame <channel> <pending>", "eof <channel> <seq>" or "checkpoint"
	justify  []string       // lastRec of every write that a sync followed
	specDirs map[string]bool
	newest   map[string]uint64 // per channel, the newest frame written
	full     bool              // every write fails with ENOSPC
}

func newCountingFS() *countingFS {
	return &countingFS{FS: OSFS(), pending: make(map[string]int), specDirs: make(map[string]bool), newest: make(map[string]uint64)}
}

// written returns the newest frame of channel written so far.
func (c *countingFS) written(channel string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.newest[channel]
}

// fill makes every later write fail with ENOSPC.
func (c *countingFS) fill() {
	c.mu.Lock()
	c.full = true
	c.mu.Unlock()
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		c.record("create " + name)
	}
	return &countingFile{File: f, fs: c, name: name}, nil
}

func (c *countingFS) record(event string) {
	c.mu.Lock()
	c.events = append(c.events, event)
	c.mu.Unlock()
}

// follows reports whether event b was recorded after event a.
func (c *countingFS) follows(a, b string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.Index(c.events, a)
	return i >= 0 && slices.Contains(c.events[i+1:], b)
}

func (c *countingFS) MkdirAll(name string, perm os.FileMode) error {
	c.record("mkdir " + name)
	return c.FS.MkdirAll(name, perm)
}

func (c *countingFS) RemoveAll(name string) error {
	c.record("removeall " + name)
	return c.FS.RemoveAll(name)
}

func (c *countingFS) Rename(oldname, newname string) error {
	c.record("rename " + oldname + " " + newname)
	return c.FS.Rename(oldname, newname)
}

func (c *countingFS) SyncDir(name string) error {
	c.mu.Lock()
	c.events = append(c.events, "syncdir "+name)
	// A directory sync after the spec's rename finds spec.json in place.
	if _, err := os.Stat(filepath.Join(name, "spec.json")); err == nil {
		c.specDirs[name] = true
	}
	c.mu.Unlock()
	return c.FS.SyncDir(name)
}

type countingFile struct {
	File
	fs   *countingFS
	name string
}

// Write accounts for every record in p: the log writes its buffered
// records in one Write.
func (f *countingFile) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	if c.full {
		c.mu.Unlock()
		return 0, syscall.ENOSPC
	}
	if strings.HasSuffix(f.name, walSuffix) {
		c.writes++
	}
	for b := p; ; {
		rec, n, err := DecodeRecord(b)
		if err != nil {
			break
		}
		if len(b) == len(p) {
			c.events = append(c.events, "write "+f.name)
		}
		b = b[n:]
		c.lastRec = "checkpoint"
		if !rec.Checkpoint {
			channel, seq, _ := frameHeader(rec.Payload)
			c.newest[string(channel)] = seq
			c.pending[string(channel)]++
			c.worst = max(c.worst, c.pending[string(channel)])
			c.lastRec = fmt.Sprintf("frame %s %d", channel, c.pending[string(channel)])
			if rec.Terminal {
				c.lastRec = fmt.Sprintf("eof %s %d", channel, seq)
			}
		}
	}
	c.mu.Unlock()
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	if strings.HasSuffix(f.name, walSuffix) {
		c.fsyncs++
		c.justify = append(c.justify, c.lastRec)
		clear(c.pending)
	}
	c.mu.Unlock()
	return f.File.Sync()
}

// TestSessionLogFsyncPolicy: over 1 000 rows at wal_fsync_every 64 no
// channel ever has more than 64 frames written but not durable, and the
// one log takes at most ⌈1000/64⌉ + 1 fsyncs: every fsync follows a
// frame that filled its channel's bound or the eof that finished the
// session, none follows a checkpoint, and the run ends with every eof
// durable. With no subscriber the records are written in groups: at
// most one segment-file write per fsync, plus one per segment header and
// rotation.
func TestSessionLogFsyncPolicy(t *testing.T) {
	const seed, n, every = 5, 1000, 64
	fs := newCountingFS()
	cfg := serverConfig(t, seed, n)
	cfg.StateDir = t.TempDir()
	cfg.CheckpointEvery = 16
	cfg.WAL = WALOptions{FsyncEvery: every, FS: fs}
	srv, err := newServer(cfg, "", nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	res := srv.startPipeline(context.Background())
	waitPipelineDone(t, srv)
	if err := srv.PipelineErr(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	fsyncs, worst, justify, pending := fs.fsyncs, fs.worst, slices.Clone(fs.justify), len(fs.pending)
	fs.mu.Unlock()
	segments := srv.Hub().WAL(ChannelDirty).Segments()
	if err := srv.drainAndClose(res); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	writes, closedFsyncs := fs.writes, fs.fsyncs
	fs.mu.Unlock()
	if limit := closedFsyncs + 2*segments - 1; writes > limit {
		t.Errorf("the log made %d segment-file writes for %d fsyncs and %d segments, want at most %d", writes, closedFsyncs, segments, limit)
	}

	if worst > every {
		t.Errorf("a channel had %d frames written but not durable, bound %d", worst, every)
	}
	if limit := (n+every-1)/every + 1; fsyncs > limit {
		t.Errorf("the log took %d fsyncs for %d rows, want at most %d", fsyncs, n, limit)
	}
	if pending != 0 {
		t.Errorf("%d channels had frames not yet durable when the run finished", pending)
	}
	for i, why := range justify {
		switch {
		case why == "checkpoint":
			t.Errorf("fsync %d followed a checkpoint record", i)
		case strings.HasPrefix(why, "eof "):
		case why != "" && strings.HasSuffix(why, fmt.Sprintf(" %d", every)):
		default:
			t.Errorf("fsync %d followed %q, neither a full channel nor an eof", i, why)
		}
	}
	if last := justify[len(justify)-1]; !strings.HasPrefix(last, "eof ") {
		t.Errorf("the last fsync followed %q, not the finishing eof", last)
	}
	t.Logf("%d rows: %d fsyncs, %d segment-file writes, at most %d frames of one channel not yet durable", n, fsyncs, writes, worst)
	if srv.Hub().WAL(ChannelDirty).Fsyncs() != uint64(fsyncs) {
		t.Errorf("Fsyncs() = %d, the filesystem saw %d", srv.Hub().WAL(ChannelDirty).Fsyncs(), fsyncs)
	}
}

// stepSource yields the wrapped source's rows, its final io.EOF
// included, one per token received on steps.
type stepSource struct {
	stream.Source
	steps <-chan struct{}
}

func (s *stepSource) Next() (stream.Tuple, error) {
	<-s.steps
	return s.Source.Next()
}

// TestSessionLogWritesBeforeSend: no frame reaches a socket before its
// record is in the segment file. A durable session streams dirty to a
// raw TCP subscriber in lockstep: the source yields a row only for a
// token, the client gives one per frame it reads, and the fsync group
// is longer than the run, so no fsync writes the log while the client
// reads. Each frame the client holds must already have been written. On
// a full disk the client receives only frames that the reopened log
// holds, then an error frame naming the log's failure, and a later
// replay of the frames already written gets that error frame alone.
func TestSessionLogWritesBeforeSend(t *testing.T) {
	const seed, n = 17, 60
	for _, fillAt := range []uint64{0, 20} {
		t.Run(fmt.Sprintf("full_at=%d", fillAt), func(t *testing.T) {
			fs := newCountingFS()
			stateDir := t.TempDir()
			steps := make(chan struct{}, n+3)
			cfg := serverConfig(t, seed, n)
			cfg.NewSource = func() (stream.Source, error) {
				return &stepSource{Source: testSource(cfg.Schema, n), steps: steps}, nil
			}
			cfg.StateDir = stateDir
			cfg.WAL = WALOptions{FsyncEvery: 1 << 20, FS: fs}
			srv, addr, _, stop := startStoppableServer(t, cfg)
			// Closing steps lets the run go on without the client, so the
			// server can stop on any exit.
			release := sync.OnceFunc(func() { close(steps) })
			t.Cleanup(release)
			conn := subscribeRaw(t, addr, ChannelDirty)
			defer conn.Close()
			// The subscription precedes the first row; the reorder window
			// may hold one row back, so two tokens start the run.
			steps <- struct{}{}
			steps <- struct{}{}

			var got uint64
			var last *Frame
			for {
				_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				payload, err := ReadFrame(conn)
				if err != nil {
					t.Fatalf("after frame %d: %v", got, err)
				}
				if last, err = DecodeFrame(payload); err != nil {
					t.Fatal(err)
				}
				if last.Type != FrameTuple {
					break
				}
				got = last.Seq
				if w := fs.written(ChannelDirty); w < got {
					t.Fatalf("the client holds dirty frame %d, the log has written up to %d", got, w)
				}
				if got == fillAt {
					fs.fill()
				}
				steps <- struct{}{}
			}

			if fillAt == 0 {
				if last.Type != FrameEOF || got != n {
					t.Fatalf("stream ended with %s after frame %d, want eof after %d", last.Type, got, n)
				}
				return
			}
			if last.Type != FrameError || !strings.Contains(last.Error, syscall.ENOSPC.Error()) {
				t.Fatalf("stream ended after frame %d with %s %q, want the log's ENOSPC as an error frame", got, last.Type, last.Error)
			}
			release() // the run's next publish finds the log stopped
			waitPipelineDone(t, srv)
			if err := srv.PipelineErr(); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("the run ended with %v, want the log's ENOSPC", err)
			}
			// A replay of frames already in the segment file is refused
			// too: the stopped log fails every reader until a reopen.
			late, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer late.Close()
			req, _ := json.Marshal(SubscribeRequest{Channel: ChannelDirty, FromSeq: 1})
			if err := WriteFrame(late, req); err != nil {
				t.Fatal(err)
			}
			_ = late.SetReadDeadline(time.Now().Add(10 * time.Second))
			payload, err := ReadFrame(late)
			if err != nil {
				t.Fatal(err)
			}
			if f, err := DecodeFrame(payload); err != nil || f.Type != FrameError || !strings.Contains(f.Error, syscall.ENOSPC.Error()) {
				t.Fatalf("a replay from the stopped log got %v (%v), want the log's ENOSPC as an error frame", f, err)
			}
			stop()
			w, err := OpenWAL(filepath.Join(stateDir, "wal"), WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if kept := w.Channel(ChannelDirty).Max; got > kept || got < fillAt {
				t.Fatalf("the client received dirty frames up to %d, the reopened log holds up to %d (disk full after %d)", got, kept, fillAt)
			}
		})
	}
}

// TestSessionLogSyncsDirectories: creating a segment of the session log
// fsyncs the log directory before any record lands in it, creating the
// log directory fsyncs the session directory before the first record,
// a durable create fsyncs the session directory after the spec's
// rename, a delete the tenant directory after the removal, and an
// archiving delete the archive's and the tenant's directory after the
// rename.
func TestSessionLogSyncsDirectories(t *testing.T) {
	fs := newCountingFS()
	stateDir := t.TempDir()
	svc, tcpAddr, _ := startService(t, ServiceConfig{StateDir: stateDir, WAL: WALOptions{SegmentBytes: 4 << 10, FS: fs}})
	if _, err := svc.Create(durableRequest(t, "alpha", "s", 3, 200)); err != nil {
		t.Fatal(err)
	}
	drainSession(t, tcpAddr, "alpha", "s")
	sessDir := filepath.Join(stateDir, "alpha", "s")
	walDir := filepath.Join(sessDir, "wal")

	fs.mu.Lock()
	events, specSynced := slices.Clone(fs.events), fs.specDirs[sessDir]
	fs.mu.Unlock()
	if !specSynced {
		t.Errorf("no directory sync of %s after the spec's rename", sessDir)
	}
	mkdir := slices.Index(events, "mkdir "+walDir)
	if mkdir < 0 {
		t.Fatalf("no mkdir of %s", walDir)
	}
	parentSynced := false
	for _, next := range events[mkdir+1:] {
		if parentSynced = next == "syncdir "+sessDir; parentSynced || strings.HasPrefix(next, "write "+walDir) {
			break
		}
	}
	if !parentSynced {
		t.Errorf("no directory sync of %s between the creation of %s and its first record", sessDir, walDir)
	}
	segments := 0
	for i, ev := range events {
		path, ok := strings.CutPrefix(ev, "create ")
		if !ok || !strings.HasSuffix(path, walSuffix) {
			continue
		}
		segments++
		// Every segment here takes a record (the checkpoint copy opens
		// each new one), so a directory sync must follow each creation,
		// and precede that record.
		synced := false
		for _, next := range events[i+1:] {
			if synced = next == "syncdir "+walDir; synced || next == "write "+path {
				break
			}
		}
		if !synced {
			t.Errorf("segment %s: no directory sync between its creation and its first record", path)
		}
	}
	if segments < 3 {
		t.Fatalf("only %d segments created; the run should have rotated", segments)
	}

	if err := svc.Delete("alpha", "s"); err != nil {
		t.Fatal(err)
	}
	if tenantDir := filepath.Dir(sessDir); !fs.follows("removeall "+sessDir, "syncdir "+tenantDir) {
		t.Errorf("no directory sync of %s after the removal of %s", tenantDir, sessDir)
	}

	archFS, archState := newCountingFS(), t.TempDir()
	archSvc, archAddr, _ := startService(t, ServiceConfig{StateDir: archState, ArchiveDeleted: true, WAL: WALOptions{FS: archFS}})
	if _, err := archSvc.Create(durableRequest(t, "alpha", "s", 3, 20)); err != nil {
		t.Fatal(err)
	}
	drainSession(t, archAddr, "alpha", "s")
	if err := archSvc.Delete("alpha", "s"); err != nil {
		t.Fatal(err)
	}
	rename := "rename " + filepath.Join(archState, "alpha", "s") + " " + filepath.Join(archState, ".deleted", "alpha", "s")
	for _, dir := range []string{filepath.Join(archState, ".deleted", "alpha"), filepath.Join(archState, "alpha")} {
		if !archFS.follows(rename, "syncdir "+dir) {
			t.Errorf("no directory sync of %s after the archive's rename", dir)
		}
	}
}

// drainHub reads every frame of every channel from the hub, hello to
// terminal frame, as raw payload bytes.
func drainHub(t *testing.T, h *Hub) map[string][][]byte {
	t.Helper()
	out := make(map[string][][]byte)
	for _, ch := range Channels() {
		sub, err := h.Subscribe(ch, 0)
		if err != nil {
			t.Fatalf("%s: %v", ch, err)
		}
		for {
			data, terminal, err := sub.Recv()
			if err != nil {
				t.Fatalf("%s after %d frames: %v", ch, len(out[ch]), err)
			}
			out[ch] = append(out[ch], bytes.Clone(data))
			if terminal {
				break
			}
		}
		sub.Close()
	}
	return out
}

// runToEnd starts a server over stateDir, runs its pipeline to the end
// and returns every channel's frames, the log closed behind it.
func runToEnd(t *testing.T, cfg Config, stateDir string) map[string][][]byte {
	t.Helper()
	cfg.StateDir = stateDir
	srv, err := newServer(cfg, "", nil, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	res := srv.startPipeline(context.Background())
	waitPipelineDone(t, srv)
	if err := srv.PipelineErr(); err != nil {
		t.Fatal(err)
	}
	frames := drainHub(t, srv.Hub())
	if err := srv.drainAndClose(res); err != nil {
		t.Fatal(err)
	}
	return frames
}

// logRecord is one record of a session log on disk: its segment and the
// byte range it occupies there.
type logRecord struct {
	seg        int
	start, end int
}

// TestSessionLogTruncationSweep cuts a finished session log at every
// record boundary and once inside every record — the states a crash can
// leave — and restarts on each copy. The recovered checkpoint never
// references a frame past the surviving ones, and every restart drains
// all three channels byte-identical to the uninterrupted run.
func TestSessionLogTruncationSweep(t *testing.T) {
	const seed, n = 9, 100
	newCfg := func() Config {
		cfg := serverConfig(t, seed, n)
		cfg.CheckpointEvery = 16
		cfg.WAL = WALOptions{FsyncEvery: 8, SegmentBytes: 4 << 10}
		return cfg
	}
	src := t.TempDir()
	want := runToEnd(t, newCfg(), src)

	entries, err := os.ReadDir(filepath.Join(src, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	var segs [][]byte
	var names []string
	var recs []logRecord
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, "wal", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for off := walHeaderLen; off < len(data); {
			_, size, err := DecodeRecord(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, logRecord{seg: len(segs), start: off, end: off + size})
			off += size
		}
		segs, names = append(segs, data), append(names, e.Name())
	}
	if len(segs) < 2 {
		t.Fatalf("the log has %d segment(s); the sweep should cross a rotation", len(segs))
	}

	// cut writes a state dir holding the log up to byte at of segment seg.
	cut := func(seg, at int) string {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= seg; i++ {
			data := segs[i]
			if i == seg {
				data = data[:at]
			}
			if err := os.WriteFile(filepath.Join(dir, "wal", names[i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	restarts := 0
	check := func(dir, label string) {
		w, err := OpenWAL(filepath.Join(dir, "wal"), WALOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ck, err := w.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, ch := range Channels() {
			if ck != nil && uint64(ck.Offsets["net."+ch]) > w.Channel(ch).Max {
				t.Fatalf("%s: checkpoint offset %d for %s past the surviving max %d", label, ck.Offsets["net."+ch], ch, w.Channel(ch).Max)
			}
		}
		w.Close()
		got := runToEnd(t, newCfg(), dir)
		for _, ch := range Channels() {
			if len(got[ch]) != len(want[ch]) {
				t.Fatalf("%s: %s drained %d frames, want %d", label, ch, len(got[ch]), len(want[ch]))
			}
			for i := range got[ch] {
				if !bytes.Equal(got[ch][i], want[ch][i]) {
					t.Fatalf("%s: %s frame %d differs from the uninterrupted run", label, ch, i)
				}
			}
		}
		restarts++
	}
	for i, r := range recs {
		if r.start == walHeaderLen {
			check(cut(r.seg, walHeaderLen), fmt.Sprintf("segment %d head", r.seg))
		}
		check(cut(r.seg, (r.start+r.end)/2), fmt.Sprintf("inside record %d", i))
		check(cut(r.seg, r.end), fmt.Sprintf("after record %d", i))
	}
	t.Logf("%d records in %d segments, %d restarts", len(recs), len(segs), restarts)
}

// FuzzSessionLogIndex interleaves three channels' frames and checkpoint
// records at random, cuts the log at a random byte and reopens it: every
// channel's min, max and terminal flag, and the newest checkpoint, must
// equal those of the records that survived the cut.
func FuzzSessionLogIndex(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(500))
	f.Add([]byte{0x80, 0x81, 0x82, 3, 3, 0}, uint16(0xffff))
	f.Add([]byte("interleaved channels and checkpoints"), uint16(300))
	f.Fuzz(func(t *testing.T, ops []byte, cutAt uint16) {
		type modelRec struct {
			end      int
			channel  string // "" for a checkpoint
			seq      uint64 // a checkpoint's TuplesIn
			terminal bool
		}
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seqs := map[string]uint64{}
		done := map[string]bool{}
		var model []modelRec
		for i, op := range ops {
			ch := Channels()[int(op)%3]
			var rec modelRec
			switch {
			case op%5 == 3:
				ck := &core.Checkpoint{Version: core.CheckpointVersion, TuplesIn: uint64(i), Offsets: map[string]int64{}}
				for _, c := range Channels() {
					ck.Offsets["net."+c] = int64(seqs[c])
				}
				if err := w.AppendCheckpoint(ck); err != nil {
					t.Fatal(err)
				}
				rec.seq = ck.TuplesIn
			case done[ch]:
				continue
			default:
				seqs[ch]++
				rec.channel, rec.seq, rec.terminal = ch, seqs[ch], op&0x80 != 0
				frame := &Frame{Type: FrameTuple, Channel: ch, Seq: rec.seq, Tuple: &WireTuple{ID: uint64(i), Values: []string{}}}
				if rec.terminal {
					frame = &Frame{Type: FrameEOF, Channel: ch, Seq: rec.seq}
					done[ch] = true
				}
				payload, err := EncodeFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.AppendFrame(ch, rec.seq, rec.terminal, false, payload); err != nil {
					t.Fatal(err)
				}
			}
			rec.end = int(w.SizeBytes())
			model = append(model, rec)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, fmt.Sprintf("%020d%s", 1, walSuffix))
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		cut := int(cutAt) % (len(data) + 1)
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		type rng struct {
			min, max uint64
			terminal bool
		}
		want := map[string]rng{}
		wantCk := -1
		for _, r := range model {
			if r.end > cut {
				break
			}
			if r.channel == "" {
				wantCk = int(r.seq)
				continue
			}
			g := want[r.channel]
			if g.min == 0 {
				g.min = r.seq
			}
			g.max, g.terminal = r.seq, r.terminal
			want[r.channel] = g
		}
		w2, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("reopen after a cut at %d: %v", cut, err)
		}
		defer w2.Close()
		for _, ch := range Channels() {
			got := w2.Channel(ch)
			if g := want[ch]; got.Min != g.min || got.Max != g.max || got.Terminal != g.terminal {
				t.Fatalf("cut at %d: %s index %+v, model %+v", cut, ch, got, g)
			}
		}
		ck, err := w2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if gotCk := -1; ck != nil && int(ck.TuplesIn) != wantCk || ck == nil && wantCk != -1 {
			if ck != nil {
				gotCk = int(ck.TuplesIn)
			}
			t.Fatalf("cut at %d: newest checkpoint from op %d, model %d", cut, gotCk, wantCk)
		}
		// The reopened log reads each channel back in order.
		for _, ch := range Channels() {
			r, err := w2.ReadChannel(ch, 1)
			if err != nil {
				t.Fatal(err)
			}
			for next := uint64(1); ; next++ {
				rec, err := r.Next()
				if err == io.EOF {
					if next-1 != want[ch].max {
						t.Fatalf("cut at %d: %s read back through seq %d, index says %d", cut, ch, next-1, want[ch].max)
					}
					break
				}
				if err != nil || rec.Seq != next {
					t.Fatalf("cut at %d: %s record %d: seq %d, %v", cut, ch, next, rec.Seq, err)
				}
			}
		}
	})
}
