// Command perfbench is murakkabd's out-of-process serving benchmark. It
// execs the built daemon as a child process, replays a seeded trace against
// it from this (separate) generator process over at most two connections,
// checks every job's output and the daemon's lifecycle totals, watches for
// wedged shards, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of stdout.
//
// It is run through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload mixed-rw --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "trace seed: the same seed replays the same jobs")
		seconds = flag.Float64("seconds", 15, "measured seconds of load")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		bin     = flag.String("daemon", "", "path to the built murakkabd binary")
		workdir = flag.String("workdir", "", "directory for daemon logs and span dumps")
	)
	flag.Parse()
	w, ok := workloads[*name]
	switch {
	case !ok:
		fatalf("unknown -workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *bin == "" || *workdir == "":
		fatalf("-daemon and -workdir are required (run through run.sh)")
	case *seconds <= 0 || *trace < 0 || *trace > 1:
		fatalf("-seconds must be > 0 and -trace 0 or 1")
	}
	// The generator's own collector runs rarely, so its pauses and
	// background marking seldom delay a submit against its schedule.
	debug.SetGCPercent(400)
	b := &bench{w: w, seed: *seed, seconds: *seconds, bin: *bin, workdir: *workdir}
	res, err := b.run(*trace == 1)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// emit prints one metric line for people and adds it to the result. NaN
// (a percentile without enough samples) is reported but never emitted.
func emit(m map[string]metric, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-34s %14.6g %-6s%s\n", name, v, unit, note)
	if m != nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = metric{Value: v, Unit: unit}
	}
}

func pctNote(p pct) string {
	if !p.ok() {
		return fmt.Sprintf("n=%d, too few samples", p.N)
	}
	return fmt.Sprintf("p%.4g of n=%d", 100*p.At, p.N)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (b *bench) path(file string) string {
	return filepath.Join(b.workdir, fmt.Sprintf("%s-seed%d-%s", b.w.name, b.seed, file))
}
