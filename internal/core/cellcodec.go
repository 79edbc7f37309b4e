package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/vcabench/vcabench/internal/diag"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/stats"
)

// This file is the canonical binary encoding of one unit result: the
// bytes the cell store persists and the worker fleet ships. A cell is
// one tag byte naming its type, then the type's fields in declaration
// order:
//
//   - integers (int, int64, time.Duration, enum kinds) are zigzag
//     varints and lengths are unsigned varints, both in their shortest
//     form;
//   - floats are their raw IEEE-754 bits, little-endian, so NaN
//     payloads, -0 and ±Inf survive;
//   - strings and slices carry a length prefix; a nil slice and an
//     empty one both encode as length 0 and decode as nil;
//   - a pointer is a presence byte (0 nil, 1 present) before its value;
//   - a present *stats.Sample is its GobEncode layout: a little-endian
//     uint64 count, then each observation's bits in insertion order;
//   - a map is a length, then its entries in strictly increasing key
//     order, so one value always encodes to the same bytes.
//
// Decoding is strict. An unknown tag, a non-minimal varint, a presence
// byte other than 0 or 1, map keys out of order, a length the remaining
// bytes cannot hold, truncation and trailing bytes are all errors, so
// every input either fails or decodes to a value that re-encodes to
// exactly those bytes. Every length is checked against the remaining
// bytes before anything is allocated for it.

// Cell tags lie in 0x80-0xf7, where no gob stream can start (gob's
// leading message length is either below 0x80 or a byte-count marker in
// 0xf8-0xff), so gob cells from an older fleet worker fail the tag
// check and recompute locally.
const (
	cellTagQoE byte = 0xc1
	cellTagLag byte = 0xc2
)

var errCellTruncated = errors.New("core: cell encoding truncated")

// encodeCell serializes one unit result into one allocation, sized by
// qoeSize or lagSize.
func encodeCell(v any) ([]byte, error) {
	var w cellWriter
	switch r := v.(type) {
	case *QoEStudyResult:
		w.b = append(make([]byte, 0, qoeSize(r)), cellTagQoE)
		w.qoe(r)
		return w.b, nil
	case *LagStudyResult:
		w.b = append(make([]byte, 0, lagSize(r)), cellTagLag)
		w.lag(r)
		return w.b, nil
	}
	return nil, fmt.Errorf("core: cannot encode a %T cell", v)
}

// The size functions bound a cell's encoded length from above, counting
// what grows with the value (samples, strings, maps and slices) at each
// element's widest encoding; cellFixedSize covers the tag and every
// fixed-width field. They only size encodeCell's buffer: an estimate
// that fell short would cost a regrowth, never a different byte.
const (
	cellFixedSize = 256
	varintSize    = binary.MaxVarintLen64
)

func qoeSize(q *QoEStudyResult) int {
	n := cellFixedSize + len(q.Kind) + 8*len(q.RateOverTime)
	for _, s := range [...]*stats.Sample{q.PSNR, q.SSIM, q.VIFP, q.Freeze, q.UpMbps, q.DownMbps, q.MOS} {
		n += sampleSize(s)
	}
	if d := q.Diag; d != nil {
		n += len(d.Key) + 3*varintSize*len(d.Queue)
		for _, p := range d.Pipes {
			n += 2*varintSize + len(p.Name) + (6*varintSize+8)*len(p.Bins)
		}
		for _, e := range d.Events {
			n += 2*varintSize + 16 + len(e.Kind) + len(e.Subject)
		}
	}
	return n
}

func lagSize(l *LagStudyResult) int {
	n := cellFixedSize + len(l.Kind) + len(l.HostRegion.Name) +
		len(l.HostRegion.Location) + len(l.HostRegion.Zone)
	for _, m := range [...]map[string]*stats.Sample{l.Lags, l.RTTs} {
		for k, s := range m {
			n += varintSize + len(k) + sampleSize(s)
		}
	}
	return n + varintsSize(l.Fig2.SentT) + varintsSize(l.Fig2.RecvT) +
		varintsSize(l.Fig2.SentS) + varintsSize(l.Fig2.RecvS)
}

// sampleSize is a present sample's presence byte, count and bits.
func sampleSize(s *stats.Sample) int {
	if s == nil {
		return 1
	}
	return 9 + 8*s.Len()
}

// varintsSize is the exact length of a slice of zigzag varints; these
// slices are most of a lag cell, so they are not sized at 10 bytes per
// element.
func varintsSize[T ~int | ~int64](xs []T) int {
	n := 0
	for _, x := range xs {
		ux := uint64(x) << 1
		if x < 0 {
			ux = ^ux
		}
		n += (bits.Len64(ux|1) + 6) / 7
	}
	return n
}

// decodeCell is encodeCell's inverse. Any error means the bytes are not
// a cell of this schema; callers treat that as a miss.
func decodeCell(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, errCellTruncated
	}
	r := cellReader{b: data[1:]}
	var v any
	switch data[0] {
	case cellTagQoE:
		v = r.qoe()
	case cellTagLag:
		v = r.lag()
	default:
		return nil, fmt.Errorf("core: unknown cell tag %#x", data[0])
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("core: %d trailing bytes after cell", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return v, nil
}

type cellWriter struct{ b []byte }

func (w *cellWriter) uvarint(x uint64) { w.b = binary.AppendUvarint(w.b, x) }
func (w *cellWriter) varint(x int64)   { w.b = binary.AppendVarint(w.b, x) }
func (w *cellWriter) float(x float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(x))
}

func (w *cellWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *cellWriter) present(ok bool) {
	if ok {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *cellWriter) sample(s *stats.Sample) {
	w.present(s != nil)
	if s != nil {
		w.b = s.AppendBits(w.b)
	}
}

func (w *cellWriter) sampleMap(m map[string]*stats.Sample) {
	w.uvarint(uint64(len(m)))
	var buf [16]string // a lag map has one key per participant region: sorted on the stack
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		w.str(k)
		w.sample(m[k])
	}
}

func writeSlice[T any](w *cellWriter, s []T, elem func(T)) {
	w.uvarint(uint64(len(s)))
	for _, x := range s {
		elem(x)
	}
}

func (w *cellWriter) qoe(q *QoEStudyResult) {
	w.str(string(q.Kind))
	w.varint(int64(q.Motion))
	w.varint(int64(q.N))
	for _, s := range [...]*stats.Sample{q.PSNR, q.SSIM, q.VIFP, q.Freeze, q.UpMbps, q.DownMbps, q.MOS} {
		w.sample(s)
	}
	writeSlice(w, q.RateOverTime, w.float)
	w.varint(int64(q.RateBin))
	w.present(q.Diag != nil)
	if q.Diag != nil {
		w.diag(q.Diag)
	}
}

func (w *cellWriter) diag(d *diag.CellDiag) {
	w.varint(int64(d.Version))
	w.str(d.Key)
	w.float(d.BinSec)
	w.varint(d.DropsQueue)
	w.varint(d.DropsRandom)
	writeSlice(w, d.Pipes, func(p diag.PipeSeries) {
		w.str(p.Name)
		writeSlice(w, p.Bins, func(b diag.PipeBin) {
			w.varint(int64(b.Bin))
			w.varint(b.Packets)
			w.varint(b.Bytes)
			w.varint(b.DropsQueue)
			w.varint(b.DropsRandom)
			w.varint(int64(b.QueueMaxBytes))
			w.float(b.DelayMsMean)
		})
	})
	writeSlice(w, d.Queue, func(b diag.QueueBin) {
		w.varint(int64(b.Bin))
		w.varint(b.Steps)
		w.varint(int64(b.DepthMax))
	})
	writeSlice(w, d.Events, func(e diag.Event) {
		w.float(e.AtSec)
		w.str(e.Kind)
		w.str(e.Subject)
		w.float(e.Value)
	})
}

func (w *cellWriter) lag(l *LagStudyResult) {
	w.str(string(l.Kind))
	w.str(l.HostRegion.Name)
	w.str(l.HostRegion.Location)
	w.str(string(l.HostRegion.Zone))
	w.float(l.HostRegion.Pos.Lat)
	w.float(l.HostRegion.Pos.Lon)
	w.sampleMap(l.Lags)
	w.sampleMap(l.RTTs)
	w.varint(int64(l.Endpoints.Total))
	w.float(l.Endpoints.PerSession)
	w.varint(int64(l.Endpoints.Sessions))
	duration := func(d time.Duration) { w.varint(int64(d)) }
	integer := func(x int) { w.varint(int64(x)) }
	writeSlice(w, l.Fig2.SentT, duration)
	writeSlice(w, l.Fig2.RecvT, duration)
	writeSlice(w, l.Fig2.SentS, integer)
	writeSlice(w, l.Fig2.RecvS, integer)
}

// cellReader decodes with a sticky error: after the first failure every
// read returns a zero value and consumes nothing, so the decoders read
// straight through and check err once at the end.
type cellReader struct {
	b   []byte
	err error
}

func (r *cellReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *cellReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errCellTruncated)
		return 0
	case n < 0:
		r.fail(errors.New("core: cell varint overflows 64 bits"))
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail(errors.New("core: cell varint not in shortest form"))
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *cellReader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (r *cellReader) int() int {
	x := r.varint()
	if int64(int(x)) != x {
		r.fail(fmt.Errorf("core: cell integer %d overflows int", x))
		return 0
	}
	return int(x)
}

// length reads the count of a sequence whose elements each take at
// least elemMin bytes, rejecting a count the remaining bytes cannot
// hold.
func (r *cellReader) length(elemMin int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/elemMin) {
		r.fail(fmt.Errorf("core: cell length %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

func (r *cellReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(errCellTruncated)
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return x
}

func (r *cellReader) str() string {
	n := r.length(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *cellReader) present() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 {
		r.fail(errCellTruncated)
		return false
	}
	flag := r.b[0]
	if flag > 1 {
		r.fail(fmt.Errorf("core: cell presence byte %#x", flag))
		return false
	}
	r.b = r.b[1:]
	return flag == 1
}

func (r *cellReader) sample() *stats.Sample {
	if !r.present() {
		return nil
	}
	if len(r.b) < 8 {
		r.fail(errCellTruncated)
		return nil
	}
	n := binary.LittleEndian.Uint64(r.b)
	if n > uint64(len(r.b)-8)/8 {
		r.fail(fmt.Errorf("core: cell sample of %d observations exceeds the %d bytes left", n, len(r.b)))
		return nil
	}
	end := 8 + 8*int(n)
	s := new(stats.Sample)
	if err := s.GobDecode(r.b[:end]); err != nil {
		r.fail(err)
		return nil
	}
	r.b = r.b[end:]
	return s
}

// sampleMap reads a map whose entries (a key length and a presence
// byte at least) take two bytes or more each.
func (r *cellReader) sampleMap() map[string]*stats.Sample {
	n := r.length(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]*stats.Sample, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		if i > 0 && k <= prev {
			r.fail(fmt.Errorf("core: cell map key %q out of order", k))
		}
		m[k] = r.sample()
		prev = k
	}
	return m
}

// readSlice reads a sequence whose elements each take at least elemMin
// bytes.
func readSlice[T any](r *cellReader, elemMin int, elem func() T) []T {
	n := r.length(elemMin)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem()
	}
	return s
}

func (r *cellReader) qoe() *QoEStudyResult {
	q := &QoEStudyResult{}
	q.Kind = platform.Kind(r.str())
	q.Motion = media.MotionClass(r.int())
	q.N = r.int()
	for _, s := range [...]**stats.Sample{&q.PSNR, &q.SSIM, &q.VIFP, &q.Freeze, &q.UpMbps, &q.DownMbps, &q.MOS} {
		*s = r.sample()
	}
	q.RateOverTime = readSlice(r, 8, r.float)
	q.RateBin = time.Duration(r.varint())
	if r.present() {
		q.Diag = r.diag()
	}
	return q
}

func (r *cellReader) diag() *diag.CellDiag {
	d := &diag.CellDiag{}
	d.Version = r.int()
	d.Key = r.str()
	d.BinSec = r.float()
	d.DropsQueue = r.varint()
	d.DropsRandom = r.varint()
	// Minimum element sizes: a pipe is two lengths; a pipe bin six
	// varints and a float; a queue bin three varints; an event two
	// floats and two lengths.
	d.Pipes = readSlice(r, 2, func() diag.PipeSeries {
		p := diag.PipeSeries{Name: r.str()}
		p.Bins = readSlice(r, 6+8, func() diag.PipeBin {
			var b diag.PipeBin
			b.Bin = r.int()
			b.Packets = r.varint()
			b.Bytes = r.varint()
			b.DropsQueue = r.varint()
			b.DropsRandom = r.varint()
			b.QueueMaxBytes = r.int()
			b.DelayMsMean = r.float()
			return b
		})
		return p
	})
	d.Queue = readSlice(r, 3, func() diag.QueueBin {
		var b diag.QueueBin
		b.Bin = r.int()
		b.Steps = r.varint()
		b.DepthMax = r.int()
		return b
	})
	d.Events = readSlice(r, 8+1+1+8, func() diag.Event {
		var e diag.Event
		e.AtSec = r.float()
		e.Kind = r.str()
		e.Subject = r.str()
		e.Value = r.float()
		return e
	})
	return d
}

func (r *cellReader) lag() *LagStudyResult {
	l := &LagStudyResult{}
	l.Kind = platform.Kind(r.str())
	l.HostRegion.Name = r.str()
	l.HostRegion.Location = r.str()
	l.HostRegion.Zone = geo.Zone(r.str())
	l.HostRegion.Pos.Lat = r.float()
	l.HostRegion.Pos.Lon = r.float()
	l.Lags = r.sampleMap()
	l.RTTs = r.sampleMap()
	l.Endpoints.Total = r.int()
	l.Endpoints.PerSession = r.float()
	l.Endpoints.Sessions = r.int()
	duration := func() time.Duration { return time.Duration(r.varint()) }
	l.Fig2.SentT = readSlice(r, 1, duration)
	l.Fig2.RecvT = readSlice(r, 1, duration)
	l.Fig2.SentS = readSlice(r, 1, r.int)
	l.Fig2.RecvS = readSlice(r, 1, r.int)
	return l
}
