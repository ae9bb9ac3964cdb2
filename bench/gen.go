package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"time"

	"icewafl/internal/csvio"
	"icewafl/internal/dataset"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// This file is the gen layer: the harness's own load generator. The
// program under test only ever sees what these functions produce from
// the seed.

// genAirQuality writes n generated air-quality tuples (18 attributes)
// and their schema document to dir, returning the CSV's size.
func genAirQuality(dir string, seed int64, n int) (csvPath, schemaPath string, size int64, err error) {
	schema := dataset.AirQualitySchema()
	tuples := dataset.AirQuality(dataset.RegionGucheng, seed, dataset.AirQualityOptions{Tuples: n})
	csvPath, schemaPath = dir+"/input.csv", dir+"/schema.json"
	f, err := os.Create(csvPath)
	if err != nil {
		return "", "", 0, err
	}
	if err := csvio.WriteAll(f, schema, tuples); err != nil {
		f.Close()
		return "", "", 0, err
	}
	if size, err = f.Seek(0, io.SeekCurrent); err != nil {
		f.Close()
		return "", "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", "", 0, err
	}
	sf, err := os.Create(schemaPath)
	if err != nil {
		return "", "", 0, err
	}
	if err := schemafile.Write(sf, schema); err != nil {
		sf.Close()
		return "", "", 0, err
	}
	return csvPath, schemaPath, size, sf.Close()
}

// loadSchema is the 3-column schema of cmd/icewafload's sessions.
var loadSchema = stream.MustSchema("Time",
	stream.Field{Name: "Time", Kind: stream.KindTime},
	stream.Field{Name: "V", Kind: stream.KindFloat},
	stream.Field{Name: "K", Kind: stream.KindInt},
)

// loadInput is the serve workloads' in-memory input: one tuple per
// second of event time, V drawn from the seed.
type loadInput struct {
	v []float64
}

func genLoad(seed int64, n int) *loadInput {
	r := rand.New(rand.NewSource(seed))
	in := &loadInput{v: make([]float64, n)}
	for i := range in.v {
		in.v[i] = float64(r.Intn(8900)) / 100
	}
	return in
}

var loadBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// source serves the first n tuples. Every Next mints a fresh tuple
// because the streaming runner pollutes in place.
func (in *loadInput) source(n int) *memSource { return &memSource{in: in, n: n} }

type memSource struct {
	in   *loadInput
	n, i int
}

func (s *memSource) Schema() *stream.Schema { return loadSchema }

func (s *memSource) Next() (stream.Tuple, error) {
	if s.i >= s.n {
		return stream.Tuple{}, io.EOF
	}
	i := s.i
	s.i++
	return stream.NewTuple(loadSchema, []stream.Value{
		stream.Time(loadBase.Add(time.Duration(i) * time.Second)),
		stream.Float(s.in.v[i]),
		stream.Int(int64(i)),
	}), nil
}

// pacer is the open-loop schedule of a paced phase: tuple i (0-based)
// is due at t0 + i/rate and is never released earlier. It records how
// late the generator itself ran and how far the reader fell behind.
type pacer struct {
	rate float64
	n    int
	t0   time.Time

	released   int
	late       []int64 // ns, one per release
	backlogMax int
}

func newPacer(rate float64, n int) *pacer {
	return &pacer{rate: rate, n: n, late: make([]int64, 0, n)}
}

// due is tuple i's scheduled offset from t0.
func (p *pacer) due(i int) time.Duration {
	return time.Duration(float64(i) / p.rate * float64(time.Second))
}

// release blocks until the next k tuples are all due.
func (p *pacer) release(k int) {
	due := p.due(p.released + k - 1)
	now := time.Since(p.t0)
	if wait := due - now; wait > 0 {
		time.Sleep(wait)
		now = time.Since(p.t0)
	}
	// Tuples whose due time has passed but which the program has not
	// pulled yet are its read lag.
	if backlog := int(now.Seconds()*p.rate) - (p.released + k); backlog > p.backlogMax {
		p.backlogMax = backlog
	}
	p.late = append(p.late, int64(now-due))
	p.released += k
}

func (p *pacer) lateP99() time.Duration {
	late := slices.Clone(p.late)
	slices.Sort(late)
	return time.Duration(percentile(late, 0.99))
}

// pacedSource releases its inner source's tuples on the pacer's
// schedule.
type pacedSource struct {
	inner stream.Source
	p     *pacer
}

func (s *pacedSource) Schema() *stream.Schema { return s.inner.Schema() }

func (s *pacedSource) Next() (stream.Tuple, error) {
	if s.p.released < s.p.n {
		s.p.release(1)
	}
	return s.inner.Next()
}

// pacedBatchSource is the batch face: like a blocking reader on a live
// pipe, ReadBatch returns once every row of the batch has arrived.
type pacedBatchSource struct {
	pacedSource
	cbr stream.ColumnBatchReader
}

func (s *pacedBatchSource) ReadBatch(dst *stream.ColumnBatch, max int) (int, error) {
	if k := min(max, s.p.n-s.p.released); k > 0 {
		s.p.release(k)
		max = k
	}
	return s.cbr.ReadBatch(dst, max)
}

// paced wraps src, keeping its batch face when it has one.
func paced(src stream.Source, p *pacer) stream.Source {
	ps := pacedSource{inner: src, p: p}
	if cbr, ok := src.(stream.ColumnBatchReader); ok {
		return &pacedBatchSource{pacedSource: ps, cbr: cbr}
	}
	return &ps
}

// gatedSource holds the first Next until the gate opens, so that a
// session created by Service.Create (which starts its pipeline at once)
// streams nothing before its subscribers are attached.
type gatedSource struct {
	inner stream.Source
	gate  <-chan struct{}
}

func (s *gatedSource) Schema() *stream.Schema { return s.inner.Schema() }

func (s *gatedSource) Next() (stream.Tuple, error) {
	<-s.gate
	return s.inner.Next()
}

// latencies turns the sinks' pickup offsets (ns since t0, indexed by
// tuple id - 1, 0 = never delivered) into the sorted delivery latencies
// from due time and the count delivered within the limit.
func latencies(p *pacer, limit time.Duration, pickups ...[]int64) (sorted []int64, onTime int) {
	for _, pickup := range pickups {
		for i, at := range pickup {
			if at == 0 {
				continue
			}
			d := at - int64(p.due(i))
			sorted = append(sorted, d)
			if d <= int64(limit) {
				onTime++
			}
		}
	}
	slices.Sort(sorted)
	return sorted, onTime
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed pure-Go loop. It touches no program code, so
// a change in its duration is a change in the machine, not the program.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(start)
}

// tupleDigest folds tuples into a sha256 in a canonical rendering: the
// metadata the wire carries (id, sub-stream, event and arrival time)
// plus every value as the CSV and wire encodings render it.
type tupleDigest struct {
	h   hash.Hash
	buf []byte
}

func newTupleDigest() *tupleDigest { return &tupleDigest{h: sha256.New()} }

func (d *tupleDigest) add(t stream.Tuple) {
	b := d.buf[:0]
	b = strconv.AppendUint(b, t.ID, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(t.SubStream), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, t.EventTime.UnixNano(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, t.Arrival.UnixNano(), 10)
	for i := 0; i < t.Len(); i++ {
		b = append(b, ',')
		b = append(b, t.At(i).String()...)
	}
	b = append(b, '\n')
	d.h.Write(b)
	d.buf = b
}

func (d *tupleDigest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// fileDigest is the sha256 of a file's bytes.
func fileDigest(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, fmt.Errorf("digest %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
