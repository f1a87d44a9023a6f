// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the CLAM store, checks every value it reads back,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of its output. See README.md for the
// workloads and the definition of every metric.
//
//	go run . --workload lookup-zipf --seed 1 --seconds 10 --trace 0
//
// It runs from the root of the repository checkout.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/clam"
)

// setupReps is how many times an untraced run sets the store up; setup_s
// is the median.
const setupReps = 3

// traceDir is where traced runs write their spans, relative to the
// checkout root.
const traceDir = ".bench_build/traces"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "minimum wall seconds of the measured phase")
	trace := fl.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second

	var (
		out   output
		extra map[string]any
		err   error
	)
	if *trace == 0 {
		out, extra, err = plainRun(ctx, w, *seed, dur)
	} else {
		out, extra, err = tracedRun(ctx, w, *seed, dur)
	}
	if err != nil && !errors.Is(err, errWrong) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	info := provenance(w, *seed, *seconds, *trace)
	for k, v := range extra {
		info[k] = v
	}
	if err != nil {
		info["error"] = err.Error()
		out.Correct = false
		out.Metrics = metrics{}
	}
	line, _ := json.Marshal(info)
	fmt.Println(string(line))
	line, _ = json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// output is the last line of the output.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// plainRun sets the store up setupReps times, measures the last one, and
// returns the end-to-end metrics.
func plainRun(ctx context.Context, w *workload, seed uint64, dur time.Duration) (output, map[string]any, error) {
	var setups, setupWalls []float64
	var st clam.Store
	for range setupReps {
		st = nil // let the previous store go before building the next
		debug.FreeOSMemory()
		s, cpu, wall, err := setup(ctx, w, seed)
		if err != nil {
			return output{}, nil, err
		}
		st = s
		setups = append(setups, cpu.Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
	}
	win, err := measure(ctx, w, st, seed, dur)
	if err != nil {
		return output{Attempted: max(1, win.calls)}, nil, err
	}
	m := endToEnd(w, win, setups)
	extra := map[string]any{
		"figures":           hostFigures(w, win, setupWalls),
		"cpu_clock_cost_ns": win.clockCost.Nanoseconds(),
		"setup_runs_cpu_s":  setups,
		"setup_runs_wall_s": setupWalls,
		"call_samples":      win.calls,
		"block_calls":       blockCalls,
		"window_wall_s":     win.elapsed.Seconds(),
		"virt_call_samples": len(win.virt),
		"wall_blocks":       blockFigures(win.wall, w.batch),
		"cpu_blocks":        blockFigures(win.cpu, w.batch),
	}
	out := output{Correct: true, Attempted: win.calls, Failed: win.end.tally.failed, Metrics: m}
	win = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("heap_mib", "MiB", float64(ms.HeapAlloc)/mib)
	runtime.KeepAlive(st)
	return out, extra, nil
}

// tracedRun measures the store untraced, replays the same calls through
// span-recording device wrappers, checks that the replay did exactly the
// same work, and returns the per-layer metrics.
func tracedRun(ctx context.Context, w *workload, seed uint64, dur time.Duration) (output, map[string]any, error) {
	st, _, _, err := setup(ctx, w, seed)
	if err != nil {
		return output{}, nil, err
	}
	win, err := measure(ctx, w, st, seed, dur)
	if err != nil {
		return output{Attempted: max(1, win.calls)}, nil, err
	}
	geom := geomOf(clamsOf(st)[0].Core().Config())
	st = nil
	debug.FreeOSMemory()

	tr := newTracer(400_000)
	rp, err := openReplay(w, tr)
	if err != nil {
		return output{}, nil, err
	}
	if err := rp.run(ctx, seed, win.calls, win.wall); err != nil {
		return output{Attempted: win.calls}, nil, err
	}
	if err := sameWork(w, rp, win); err != nil {
		return output{Attempted: win.calls}, nil, fmt.Errorf("%w: %v", errWrong, err)
	}
	rp.clams = nil
	debug.FreeOSMemory()
	addNs, queryNs := bankReplay(w, seed, geom)
	m := perLayer(w, win, rp, addNs, queryNs)

	extra := map[string]any{"replay_equivalent": true, "spans_kept": len(tr.log)}
	if err := os.MkdirAll(traceDir, 0o755); err == nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.tsv.gz", w.name, seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			extra["spans_file"] = path
		}
	}
	return output{Correct: true, Attempted: win.calls, Failed: win.end.tally.failed, Metrics: m}, extra, nil
}

// provenance records where and on what a result was measured.
func provenance(w *workload, seed uint64, seconds, trace int) map[string]any {
	return map[string]any{
		"workload":          w.name,
		"seed":              seed,
		"seconds":           seconds,
		"trace":             trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"git_revision":      gitRevision("."),
		"source_sha256":     sourceDigest("."),
		"shards":            w.shards,
		"workers":           w.workers,
		"flash_mib":         w.flash / mib,
		"memory_budget_mib": w.memory / mib,
		"vlog_mib":          w.vlog / mib,
		"batch":             w.batch,
		"prefill":           w.prefill,
		"virt_calls":        w.virtCalls,
	}
}

// sourceDigest hashes the Go sources and module files under root, the
// revision of a checkout that is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gitRevision reads the commit HEAD names from root's .git directory, or
// returns "" when root is not a git checkout.
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return ""
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
