package main

import (
	"slices"
	"time"

	"repro/internal/storage"
)

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// blockCalls is the size of the consecutive blocks the wall and CPU
// figures are computed over; each figure is the median of its per-block
// values, so a burst of interference from other tenants moves a few
// blocks, not the figure. A block's p99 has ten calls beyond it.
const blockCalls = 1000

// quantile is the p-quantile of ds by mid-distribution interpolation: each
// distinct value sits at its mid cumulative probability, F(x) − P(x)/2,
// and the quantile is read off the line between neighbouring values.
// Without ties this is Hyndman and Fan's type-5 sample quantile. With
// ties — per-call virtual times take few distinct values — it still moves
// with the share of calls at each value instead of sticking to one value.
// The result is in microseconds, unrounded.
func quantile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	n := float64(len(s))
	prevX, prevMid := float64(s[0]), -1.0
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		x, mid := float64(s[i]), (float64(i)+float64(j-i)/2)/n
		if p <= mid {
			if prevMid < 0 {
				return x / 1e3
			}
			return (prevX + (p-prevMid)/(mid-prevMid)*(x-prevX)) / 1e3
		}
		prevX, prevMid = x, mid
		i = j
	}
	return float64(s[len(s)-1]) / 1e3
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timed is the per-block figures of one per-call time series: keys per
// second of that time, and p50 and p99 per call in microseconds.
type timed struct {
	Ops []float64 `json:"ops_per_s"`
	P50 []float64 `json:"p50_us"`
	P99 []float64 `json:"p99_us"`
}

func blockFigures(per []time.Duration, batch int) timed {
	var f timed
	n := max(len(per)/blockCalls, 1)
	for b := range n {
		seg := per[b*blockCalls : min((b+1)*blockCalls, len(per))]
		if b == n-1 {
			seg = per[b*blockCalls:]
		}
		var sum time.Duration
		for _, d := range seg {
			sum += d
		}
		f.Ops = append(f.Ops, div(float64(len(seg)*batch), sum.Seconds()))
		f.P50 = append(f.P50, quantile(seg, 0.50))
		f.P99 = append(f.P99, quantile(seg, 0.99))
	}
	return f
}

// medians reduces per-block figures to the reported ones.
func (f timed) medians() (ops, p50, p99 float64) {
	return median(f.Ops), median(f.P50), median(f.P99)
}

// delta is the device-side work between two snapshots, summed over shards.
type delta struct {
	dev, vdev  storage.Counters
	clocks     time.Duration // Σ over shards of clock advance
	wraps      uint64
	puts, gets float64
	putBytes   float64
	hits       float64
}

func deltaOf(a, b snap) delta {
	var d delta
	for i := range a.shards {
		x, y := a.shards[i], b.shards[i]
		d.dev.Add(sub(y.dev, x.dev))
		d.vdev.Add(sub(y.vdev, x.vdev))
		d.clocks += y.clock - x.clock
		d.wraps += y.vlog.Wraps - x.vlog.Wraps
	}
	d.puts = float64(b.tally.puts - a.tally.puts)
	d.gets = float64(b.tally.lookups - a.tally.lookups)
	d.putBytes = float64(b.tally.putBytes - a.tally.putBytes)
	d.hits = float64(b.tally.hits - a.tally.hits)
	return d
}

// sub is the counter growth from a to b. ResetMetrics leaves device
// counters cumulative, so every window figure is such a difference.
func sub(b, a storage.Counters) storage.Counters {
	return storage.Counters{
		Reads: b.Reads - a.Reads, Writes: b.Writes - a.Writes, Erases: b.Erases - a.Erases,
		BytesRead: b.BytesRead - a.BytesRead, BytesWritten: b.BytesWritten - a.BytesWritten,
		PagesMoved: b.PagesMoved - a.PagesMoved, GCRuns: b.GCRuns - a.GCRuns,
		BusyTime: b.BusyTime - a.BusyTime,
	}
}

// writeAmp is index plus value-log device bytes written per user byte put.
func (d delta) writeAmp() float64 {
	return div(float64(d.dev.BytesWritten+d.vdev.BytesWritten), d.putBytes)
}

// endToEnd computes the end-to-end metrics of an untraced run: set-up CPU
// time, and figures of the fixed virtual prefix, which repeat exactly for
// a seed. heap_mib is added once the run's own buffers are released.
func endToEnd(w *workload, win *window, setups []float64) metrics {
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("virt_call_p50_us", "us", quantile(win.virt, 0.50))
	m.set("virt_call_p99_us", "us", quantile(win.virt, 0.99))
	m.set("virt_ops_per_s", "1/s", div(float64(w.virtCalls*w.batch), (win.prefix.now-win.post.now).Seconds()))
	d := deltaOf(win.post, win.prefix)
	m.set("hit_rate", "ratio", div(d.hits, d.gets))
	m.set("dram_mib", "MiB", float64(win.prefix.stats.Memory.Total())/mib)
	return m
}

// hostFigures are the figures that depend on how busy the host is, over
// every measured call: wall and CPU-time throughput and call latency, and
// wall set-up time. They are printed beside the result, not gated (see
// README.md), with failed_frac and write_amp, which can be 0.
func hostFigures(w *workload, win *window, setupWalls []float64) metrics {
	m := metrics{}
	ops, p50, p99 := blockFigures(win.wall, w.batch).medians()
	m.set("ops_per_s", "1/s", ops)
	m.set("call_p50_us", "us", p50)
	m.set("call_p99_us", "us", p99)
	ops, p50, p99 = blockFigures(win.cpu, w.batch).medians()
	m.set("ops_per_cpu_s", "1/s", ops)
	m.set("call_cpu_p50_us", "us", p50)
	m.set("call_cpu_p99_us", "us", p99)
	m.set("setup_wall_s", "s", median(setupWalls))
	m.set("failed_frac", "ratio", div(float64(win.end.tally.failed), float64(win.calls)))
	m.set("write_amp", "ratio", deltaOf(win.post, win.prefix).writeAmp())
	return m
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(w *workload, win *window, rp *replay, addNs, queryNs float64) metrics {
	m := metrics{}
	tr := rp.tr
	keys := float64(win.calls * w.batch)
	var wall time.Duration
	for _, d := range win.wall {
		wall += d
	}
	m.set("router.wall_ns_per_key", "ns", div(float64(wall), keys))
	cpuOps, _, _ := blockFigures(win.cpu, w.batch).medians()
	m.set("store.cpu_ns_per_key", "ns", div(1e9, cpuOps))
	m.set("router.self_ns_per_key", "ns", div(float64(rp.routerSelf), float64(rp.routerKeys)))
	m.set("router.max_shard_share", "ratio", div(win.shares, float64(win.calls)))
	m.set("router.coop_lanes", "count", float64(win.coopLanes))

	m.set("shard.get_self_ns_per_key", "ns", div(float64(tr.self[spanShardGet]), float64(rp.tracedGets)))
	m.set("shard.put_self_ns_per_key", "ns", div(float64(tr.self[spanShardPut]), float64(rp.tracedPuts)))

	c := win.prefix.stats.Core // ResetMetrics ran after set-up
	mputs := float64(c.Inserts) / 1e6
	m.set("core.flash_probes_per_get", "count", div(float64(c.FlashProbes), float64(c.Lookups)))
	m.set("core.spurious_per_get", "count", div(float64(c.SpuriousProbes), float64(c.Lookups)))
	m.set("core.useful_probe_frac", "ratio", div(float64(c.FlashProbes-c.SpuriousProbes), float64(c.FlashProbes)))
	m.set("core.flushes_per_mput", "count", div(float64(c.Flushes), mputs))
	m.set("core.evictions_per_mput", "count", div(float64(c.Evictions), mputs))
	m.set("core.cascades_per_flush", "count", div(float64(c.Cascades), float64(c.Flushes)))

	m.set("bitslice.add_ns_per_key", "ns", addNs)
	m.set("bitslice.query_ns_per_key", "ns", queryNs)

	mem := win.prefix.stats.Memory
	m.set("mem.bloom_mib", "MiB", float64(mem.BloomBytes)/mib)
	m.set("mem.buffer_mib", "MiB", float64(mem.BufferBytes)/mib)
	m.set("mem.meta_mib", "MiB", float64(mem.MetadataBytes+mem.DeleteListBytes)/mib)

	d := deltaOf(win.post, win.prefix)
	m.set("write_amp", "ratio", d.writeAmp())
	m.set("dev.read_ns_per_get", "ns", div(float64(tr.total[spanDevRead]), float64(rp.tracedGets)))
	m.set("dev.write_ns_per_put", "ns", div(float64(tr.total[spanDevWrite]), float64(rp.tracedPuts)))
	m.set("dev.reads_per_get", "count", div(float64(d.dev.Reads), d.gets))
	m.set("dev.bytes_read_per_get", "B", div(float64(d.dev.BytesRead), d.gets))
	m.set("dev.reqs_per_batch", "count", div(float64(rp.reqs), float64(rp.batches)))
	m.set("dev.bytes_written_per_put", "B", div(float64(d.dev.BytesWritten), d.puts))
	m.set("dev.gc_runs", "count", float64(d.dev.GCRuns))
	m.set("dev.pages_moved", "count", float64(d.dev.PagesMoved))
	m.set("dev.virt_busy_frac", "ratio", div(float64(d.dev.BusyTime), float64(d.clocks)))

	m.set("vlog.read_ns_per_get", "ns", div(float64(tr.total[spanVlogRead]), float64(rp.tracedGets)))
	m.set("vlog.write_ns_per_put", "ns", div(float64(tr.total[spanVlogWrite]), float64(rp.tracedPuts)))
	m.set("vlog.bytes_written_per_put", "B", div(float64(d.vdev.BytesWritten), d.puts))
	m.set("vlog.occupancy", "ratio", win.prefix.stats.ValueLog.Occupancy())
	m.set("vlog.wraps", "count", float64(d.wraps))

	devNs := tr.total[spanDevRead] + tr.total[spanDevWrite] + tr.total[spanVlogRead] + tr.total[spanVlogWrite]
	m.set("clam.self_ns_per_op", "ns", div(float64(tr.total[spanCall]-devNs), float64(rp.tracedCalls)))

	m.set("hist.virt_get_p99_us", "us", us(win.prefix.stats.LookupLatency.P99))
	m.set("hist.virt_write_p99_us", "us", us(win.prefix.stats.WriteLatency.P99))

	m.set("go.allocs_per_key", "count", div(float64(win.mem1.Mallocs-win.mem0.Mallocs), keys))
	m.set("go.gc_cycles", "count", float64(win.mem1.NumGC-win.mem0.NumGC))
	m.set("go.gc_pause_ms", "ms", float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs)/1e6)

	traced := div(float64(rp.tracedKeys), rp.tracedWall.Seconds())
	untraced := div(float64(rp.untracedKeys), rp.untracedWall.Seconds())
	m.set("trace.overhead_frac", "ratio", 1-div(traced, untraced))
	return m
}
