package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/clam"
	"repro/internal/disk"
	"repro/internal/flashchip"
	"repro/internal/ssd"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// small returns a scaled-down copy of the named workload, same shape.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := *findWorkload(name)
	switch name {
	case "lookup-zipf", "ingest-evict":
		w.shards, w.flash, w.memory = 4, 4*mib, mib
		w.batch, w.prefill, w.prefillBat, w.virtCalls, w.recent = 256, 100_000, 256, 400, 10_000
	case "bytes-serial":
		w.flash, w.memory, w.vlog = mib, mib/4, 4*mib
		w.prefill, w.prefillBat, w.virtCalls, w.recent = 20_000, 256, 60_000, 2_000
	}
	return &w
}

// measured sets w up and measures it for its virtual prefix only.
func measured(t *testing.T, w *workload, seed uint64) (clam.Store, *window) {
	t.Helper()
	ctx := context.Background()
	st, _, _, err := setup(ctx, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	win, err := measure(ctx, w, st, seed, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	return st, win
}

// ResetMetrics clears core counters and histograms but leaves the device
// counters and clocks cumulative, so a window figure must subtract the
// post-set-up snapshot. A lookup-only window after a write-heavy set-up
// shows both halves.
func TestWindowSubtractsSetupDeviceWork(t *testing.T) {
	w := small(t, "lookup-zipf")
	st, win := measured(t, w, 7)
	end := st.Stats()
	if end.Core.Flushes != 0 || end.Core.Inserts != 0 {
		t.Fatalf("ResetMetrics left core counters: %d flushes, %d inserts", end.Core.Flushes, end.Core.Inserts)
	}
	if end.Device.BytesWritten == 0 || end.Device.BytesWritten != win.post.stats.Device.BytesWritten {
		t.Fatalf("device bytes written: %d at the end, %d after set-up; want the set-up's, unchanged",
			end.Device.BytesWritten, win.post.stats.Device.BytesWritten)
	}
	if win.post.now == 0 {
		t.Fatal("ResetMetrics rewound the virtual clock")
	}
	d := deltaOf(win.post, win.end)
	if d.dev.BytesWritten != 0 || d.writeAmp() != 0 {
		t.Fatalf("window counts %d bytes written (write_amp %v) in a lookup-only phase", d.dev.BytesWritten, d.writeAmp())
	}
	if d.dev.Reads == 0 || d.gets == 0 {
		t.Fatal("window counted no device reads or lookups")
	}
}

// The wrapper must expose exactly the optional interfaces of the device it
// wraps, for every device model.
func TestWrapperKeepsInterfaces(t *testing.T) {
	clk := vclock.New()
	devs := []storage.Device{
		ssd.New(ssd.IntelX18M(), 4*mib, clk),
		flashchip.New(flashchip.DefaultConfig(4*mib), clk),
		disk.New(disk.Hitachi7K80(), 4*mib, clk),
	}
	for _, dev := range devs {
		wrapped, _, err := wrapDevice(dev, newTracer(0), spanDevRead, spanDevWrite)
		if err != nil {
			t.Fatalf("%T: %v", dev, err)
		}
		if got, want := ifaces(wrapped), ifaces(dev); got != want {
			t.Errorf("%T: wrapper exposes %v, device %v", dev, got, want)
		}
	}
}

func ifaces(d storage.Device) [4]bool {
	_, br := d.(storage.BatchReader)
	_, bw := d.(storage.BatchWriter)
	_, er := d.(storage.Eraser)
	_, tm := d.(storage.Trimmer)
	return [4]bool{br, bw, er, tm}
}

// A single CLAM over wrapped devices, traced on every other call, does
// exactly the work of the kind-opened CLAM: the same core counters, device
// and value-log counters and virtual clock.
func TestWrapperSameWork(t *testing.T) {
	w := small(t, "bytes-serial")
	ctx := context.Background()
	st, err := openStore(w)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1 << 16)
	rp, err := openReplay(w, tr)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := rp.clams[0]
	s1, s2 := newStream(w, 3), newStream(w, 3)
	var o1, o2 op
	var r result
	for c := 0; s1.prefillCall(&o1, c); c++ {
		s2.prefillCall(&o2, c)
		if err := do(ctx, st, &o1, &r); err != nil {
			t.Fatal(err)
		}
		if err := do(ctx, wrapped, &o2, &r); err != nil {
			t.Fatal(err)
		}
	}
	for c := range w.virtCalls {
		w.next(s1, &o1, c)
		w.next(s2, &o2, c)
		if err := do(ctx, st, &o1, &r); err != nil {
			t.Fatal(err)
		}
		tr.on = c%2 == 0
		if tr.on {
			tr.beginCall(c)
		}
		err := do(ctx, wrapped, &o2, &r)
		if tr.on {
			tr.endCall()
			tr.on = false
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := snapCLAM(st.(*clam.CLAM)), snapCLAM(wrapped)
	if a.core.Evictions == 0 || a.vlog.Wraps == 0 {
		t.Fatalf("run too small: %d evictions, %d value-log wraps", a.core.Evictions, a.vlog.Wraps)
	}
	if a != b {
		t.Fatalf("wrapped CLAM differs from the kind-opened one:\nkind    %+v\nwrapped %+v", a, b)
	}
	if tr.count[spanDevRead] == 0 || tr.count[spanVlogRead] == 0 || tr.count[spanVlogWrite] == 0 {
		t.Fatalf("no device spans recorded: %v", tr.count)
	}
}

// The peeled replay of a sharded run must do exactly the measured store's
// work, shard by shard; and the check must notice when it does not.
func TestPeeledReplaySameWork(t *testing.T) {
	for _, name := range []string{"lookup-zipf", "ingest-evict", "bytes-serial"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			_, win := measured(t, w, 5)
			rp, err := openReplay(w, newTracer(1<<16))
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.run(context.Background(), 5, win.calls, win.wall); err != nil {
				t.Fatal(err)
			}
			if err := sameWork(w, rp, win); err != nil {
				t.Fatal(err)
			}
			end := win.end.stats
			if name != "lookup-zipf" && end.Core.Evictions == 0 {
				t.Error("the window evicted nothing")
			}
			if name == "bytes-serial" && end.ValueLog.Wraps == 0 {
				t.Error("the value log never wrapped")
			}
			if rp.tracedCalls == 0 || rp.tr.count[spanDevRead] == 0 {
				t.Fatalf("replay traced %d calls, %d device reads", rp.tracedCalls, rp.tr.count[spanDevRead])
			}
			rp.end[len(rp.end)-1].clock++
			if sameWork(w, rp, win) == nil {
				t.Fatal("sameWork accepted a replay whose clock differs")
			}
		})
	}
}

// The same seed gives the same calls; another seed gives other keys.
func TestStreamDeterministic(t *testing.T) {
	w := small(t, "ingest-evict")
	a, b, c := newStream(w, 1), newStream(w, 1), newStream(w, 2)
	var oa, ob, oc op
	for i := range 10 {
		w.next(a, &oa, i)
		w.next(b, &ob, i)
		w.next(c, &oc, i)
		for j := range oa.keys {
			if oa.keys[j] != ob.keys[j] {
				t.Fatalf("call %d key %d: %#x vs %#x for one seed", i, j, oa.keys[j], ob.keys[j])
			}
		}
	}
	if oa.keys[0] == oc.keys[0] {
		t.Fatal("seeds 1 and 2 drew the same key")
	}
}

// A value that is not the one written, a never-written key that is found,
// and a written key that is missing are all wrong.
func TestCheckRejectsWrongResults(t *testing.T) {
	w := small(t, "lookup-zipf")
	s := newStream(w, 1)
	var o op
	w.next(s, &o, 0)
	good := result{vals: make([]uint64, len(o.keys)), found: make([]bool, len(o.keys))}
	for j, k := range o.keys {
		if o.want[j] == mustHit {
			good.vals[j], good.found[j] = valueOf(k), true
		}
	}
	var tl tally
	if err := tl.check(s, &o, &good, nil); err != nil {
		t.Fatal(err)
	}
	hit, miss := -1, -1
	for j := range o.keys {
		if o.want[j] == mustHit {
			hit = j
		} else {
			miss = j
		}
	}
	for _, bad := range []func(r *result){
		func(r *result) { r.vals[hit]++ },
		func(r *result) { r.found[hit] = false },
		func(r *result) { r.found[miss] = true },
	} {
		r := result{vals: append([]uint64(nil), good.vals...), found: append([]bool(nil), good.found...)}
		bad(&r)
		if err := tl.check(s, &o, &r, nil); !errors.Is(err, errWrong) {
			t.Errorf("check returned %v, want errWrong", err)
		}
	}
}

// Without ties quantile is the type-5 sample quantile; with ties it moves
// with the share of calls at the tied value instead of sticking to it.
func TestQuantileInterpolatesTies(t *testing.T) {
	if got := quantile([]time.Duration{1000, 2000, 3000, 4000}, 0.5); got != 2.5 {
		t.Fatalf("p50 of 1..4 µs = %v µs, want 2.5", got)
	}
	a := quantile([]time.Duration{1000, 2000, 2000, 2000}, 0.5)
	b := quantile([]time.Duration{1000, 1000, 2000, 2000, 2000, 2000}, 0.5)
	if a == b || a <= 1 || a >= 2 || b <= 1 || b >= 2 {
		t.Fatalf("tied p50s %v and %v µs: want distinct values strictly between 1 and 2", a, b)
	}
}
