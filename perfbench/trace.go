package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"time"

	"repro/internal/storage"
)

// spanName identifies the boundary a span was recorded at.
type spanName uint8

const (
	spanCall      spanName = iota // one Store call of the stream
	spanShardGet                  // one lookup call into a shard's CLAM
	spanShardPut                  // one insert call into a shard's CLAM
	spanDevRead                   // index device: ReadAt, ReadBatch
	spanDevWrite                  // index device: WriteAt, WriteBatch, Trim, Erase
	spanVlogRead                  // value-log device reads
	spanVlogWrite                 // value-log device writes, trims, erases
	numSpanNames
)

var spanNames = [numSpanNames]string{"call", "shard.get", "shard.put", "dev.read", "dev.write", "vlog.read", "vlog.write"}

// span is one timed interval. All spans of one Store call share its call
// id; parent indexes the call's span list (-1 for the call itself).
type span struct {
	call       int32
	parent     int32
	name       spanName
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans in memory, one goroutine at a time. While off, the
// device wrappers pass calls through untimed. Self time (a span's duration
// minus the time its children cover) is aggregated per name as each call
// ends; the first maxLogged spans are also kept for writing out.
type tracer struct {
	epoch time.Time
	on    bool
	cur   []span  // spans of the call in progress
	stack []int32 // open spans of the call in progress

	self  [numSpanNames]int64 // Σ self ns per name
	total [numSpanNames]int64 // Σ duration ns per name
	count [numSpanNames]int64

	log       []span
	maxLogged int
}

func newTracer(maxLogged int) *tracer {
	return &tracer{epoch: time.Now(), maxLogged: maxLogged}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginCall opens the root span of Store call id.
func (t *tracer) beginCall(id int) {
	t.cur = t.cur[:0]
	t.stack = t.stack[:0]
	t.cur = append(t.cur, span{call: int32(id), parent: -1, name: spanCall, start: t.now()})
	t.stack = append(t.stack, 0)
}

// push opens a child of the innermost open span.
func (t *tracer) push(name spanName) {
	top := t.stack[len(t.stack)-1]
	t.stack = append(t.stack, int32(len(t.cur)))
	t.cur = append(t.cur, span{call: t.cur[0].call, parent: top, name: name, start: t.now()})
}

// pop closes the innermost open span.
func (t *tracer) pop() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.cur[i].end = t.now()
}

// leaf records a closed child of the innermost open span that started at
// start (a value from now).
func (t *tracer) leaf(name spanName, start int64) {
	t.cur = append(t.cur, span{call: t.cur[0].call, parent: t.stack[len(t.stack)-1], name: name, start: start, end: t.now()})
}

// endCall closes the root span and folds the call's spans into the
// per-name aggregates. Spans of one call nest strictly (one goroutine), so
// the time children cover is the sum of their durations.
func (t *tracer) endCall() {
	t.pop()
	var covered [64]int64
	cov := covered[:0]
	if len(t.cur) > len(covered) {
		cov = make([]int64, 0, len(t.cur))
	}
	cov = cov[:len(t.cur)]
	clear(cov)
	for _, s := range t.cur {
		if s.parent >= 0 {
			cov[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.cur {
		d := s.end - s.start
		t.total[s.name] += d
		t.self[s.name] += d - cov[i]
		t.count[s.name]++
	}
	if len(t.log)+len(t.cur) <= t.maxLogged {
		t.log = append(t.log, t.cur...)
	}
}

// write stores the kept spans as gzip-compressed tab-separated rows.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "call\tspan\tparent\tname\tstart_ns\tend_ns")
	first := 0 // index of the current call's root span in the log
	for i, s := range t.log {
		if s.parent < 0 {
			first = i
		}
		parent := int32(-1)
		if s.parent >= 0 {
			parent = int32(first) + s.parent
		}
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.call, i, parent, spanNames[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// devStats counts a wrapped device's batched submissions, traced or not.
type devStats struct {
	batches, reqs uint64
}

// timedDev wraps a device model and records a span around every call
// while its tracer is on. It forwards the batch interfaces; the variants
// below add exactly the optional interfaces the wrapped device has,
// because the store picks its code paths by type assertion on the device.
type timedDev struct {
	dev         storage.Device
	br          storage.BatchReader
	bw          storage.BatchWriter
	tr          *tracer
	read, write spanName
	st          devStats
}

func (d *timedDev) begin() int64 {
	if !d.tr.on {
		return -1
	}
	return d.tr.now()
}

func (d *timedDev) end(name spanName, start int64) {
	if start >= 0 {
		d.tr.leaf(name, start)
	}
}

func (d *timedDev) ReadAt(p []byte, off int64) (time.Duration, error) {
	s := d.begin()
	lat, err := d.dev.ReadAt(p, off)
	d.end(d.read, s)
	return lat, err
}

func (d *timedDev) WriteAt(p []byte, off int64) (time.Duration, error) {
	s := d.begin()
	lat, err := d.dev.WriteAt(p, off)
	d.end(d.write, s)
	return lat, err
}

func (d *timedDev) ReadBatch(reqs []storage.ReadReq) (time.Duration, error) {
	d.st.batches++
	d.st.reqs += uint64(len(reqs))
	s := d.begin()
	lat, err := d.br.ReadBatch(reqs)
	d.end(d.read, s)
	return lat, err
}

func (d *timedDev) WriteBatch(reqs []storage.WriteReq) (time.Duration, error) {
	d.st.batches++
	d.st.reqs += uint64(len(reqs))
	s := d.begin()
	lat, err := d.bw.WriteBatch(reqs)
	d.end(d.write, s)
	return lat, err
}

func (d *timedDev) Geometry() storage.Geometry { return d.dev.Geometry() }
func (d *timedDev) Counters() storage.Counters { return d.dev.Counters() }

type timedEraser struct {
	*timedDev
	er storage.Eraser
}

func (d timedEraser) Erase(off, n int64) (time.Duration, error) {
	s := d.begin()
	lat, err := d.er.Erase(off, n)
	d.end(d.write, s)
	return lat, err
}

type timedTrimmer struct {
	*timedDev
	tm storage.Trimmer
}

func (d timedTrimmer) Trim(off, n int64) error {
	s := d.begin()
	err := d.tm.Trim(off, n)
	d.end(d.write, s)
	return err
}

// wrapDevice returns dev behind a span-recording wrapper with the same set
// of optional interfaces, and the wrapper's submission counters. Every
// device model in the repository implements both batch interfaces and at
// most one of Eraser and Trimmer; any other set is refused rather than
// measured as a different program.
func wrapDevice(dev storage.Device, tr *tracer, read, write spanName) (storage.Device, *devStats, error) {
	br, brOK := dev.(storage.BatchReader)
	bw, bwOK := dev.(storage.BatchWriter)
	er, erOK := dev.(storage.Eraser)
	tm, tmOK := dev.(storage.Trimmer)
	if !brOK || !bwOK || (erOK && tmOK) {
		return nil, nil, fmt.Errorf("wrapDevice: unsupported optional interfaces on %T", dev)
	}
	d := &timedDev{dev: dev, br: br, bw: bw, tr: tr, read: read, write: write}
	switch {
	case erOK:
		return timedEraser{d, er}, &d.st, nil
	case tmOK:
		return timedTrimmer{d, tm}, &d.st, nil
	}
	return d, &d.st, nil
}
