// Command bench is the repository's benchmark: it builds the real
// cmd/rexd, drives it from outside over BGP/TCP, HTTP/SSE and its
// journal directory on four workloads, checks what it answers, and
// prints every metric by name. With -trace 1 it instead reruns the
// workload against a rexd that exposes its counters and walks the
// workload's input through each layer in-process, with a span around
// every call. See README.md.
//
//	go run -C bench . -workload <name|all> -seed n -seconds s -trace 0|1 [-out dir]
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. Direction and
// bound live in BENCHMARK.json; the smoke test holds the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"recover_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MiB"},
}

// value is one metric as the last output line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of <out>/results.jsonl: an outcome with what
// produced it, the form -compare reads.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	SHA256   string  `json:"input_sha256"`
	outcome
}

func main() {
	var (
		name    = flag.String("workload", "all", "steady, storm, readers, replay, or all")
		seed    = flag.Int64("seed", 1, "input seed: same seed, same bytes on the wire")
		seconds = flag.Float64("seconds", 18, "timed-phase seconds per run, split over three fresh rexd processes")
		trace   = flag.Int("trace", 0, "1: traced run (daemon counters + in-process layer ladder) printing per-layer metrics")
		out     = flag.String("out", "", "directory for results.jsonl and <workload>.trace.json (default <repo>/bench/out)")
		compare = flag.Bool("compare", false, "compare two results.jsonl files given as arguments; exit 1 if any metric is outside its bound")
	)
	flag.Parse()
	if *compare {
		outside, err := runCompare(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if outside {
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, outDir string) error {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		return fmt.Errorf("needs /proc for cpu and rss: %w", err)
	}
	var todo []*workload
	if name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(name); w != nil {
		todo = append(todo, w)
	} else {
		return fmt.Errorf("unknown workload %q", name)
	}
	env, err := newEnv()
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.tmp)
	if outDir == "" {
		outDir = filepath.Join(env.root, "bench", "out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	ok := true
	for _, w := range todo {
		o, err := runWorkload(env, w, seed, seconds, traced, outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ok = ok && o.Correct
		line, _ := json.Marshal(o)
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

func runWorkload(env *env, w *workload, seed int64, seconds float64, traced bool, outDir string) (*outcome, error) {
	timedS := seconds / float64(env.rounds)
	in, err := genInput(w.table, w.events(timedS), w.over(timedS), seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%t table=%s routes=%d events=%d input_sha256=%s cpus=%d\n",
		w.name, seed, seconds, traced, in.table, in.baseline.n(), in.events.n(), in.sha, runtime.NumCPU())
	timed := timedSpan(timedS)
	var o *outcome
	if traced {
		o, err = tracedRun(env, w, in, timed, outDir)
	} else {
		o, err = plainRun(env, w, in, timed)
	}
	if err != nil {
		return nil, err
	}
	rec := record{Workload: w.name, Seed: seed, Seconds: seconds, SHA256: in.sha, outcome: *o}
	if traced {
		rec.Trace = 1
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	return o, nil
}

// plainRun is the untraced run: three rounds, end-to-end metrics.
func plainRun(env *env, w *workload, in *input, timed time.Duration) (*outcome, error) {
	var rs []*roundResult
	for i := 0; i < env.rounds; i++ {
		r, err := w.round(env, in, timed)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		rs = append(rs, r)
	}
	o := summarize(rs)
	printMetrics(endToEnd, o.Metrics)
	reportGenerator(rs, in)
	return o, nil
}

// summarize folds the rounds into the end-to-end metrics. The rounds are
// replicas — the same input against a fresh rexd — so every metric is
// the median of the rounds' own values: one slow round, which on a
// shared host is common, moves nothing. recover_s, which a round samples
// more than once, is the median of all the rounds' samples.
func summarize(rs []*roundResult) *outcome {
	o := &outcome{Correct: true, Metrics: map[string]value{}}
	per := map[string][]float64{}
	var recovers []float64
	for i, r := range rs {
		if r.opsPerS == 0 && r.timedS > 0 {
			r.opsPerS = r.ops / r.timedS
		}
		recovers = append(recovers, r.recoverS...)
		v := map[string]float64{
			"setup_s":          r.setupS,
			"recover_s":        median(r.recoverS),
			"latency_p50_ms":   quantile(r.latMs, 0.5),
			"throughput_per_s": r.opsPerS,
			"cpu_us_per_op":    r.cpuS / r.ops * 1e6,
			"rss_peak_mb":      r.rssMiB,
		}
		fmt.Printf("round %d:", i+1)
		for _, m := range endToEnd {
			per[m.name] = append(per[m.name], v[m.name])
			fmt.Printf(" %s=%.5g", m.name, v[m.name])
		}
		fmt.Printf(" latency_p90_ms=%.5g (%d latency samples, %.0f ops)", quantile(r.latMs, 0.9), len(r.latMs), r.ops)
		if r.crashStartS > 0 {
			fmt.Printf(" recover samples=%.4g, untimed first start after the crash=%.4g s", r.recoverS, r.crashStartS)
		}
		fmt.Println()
		o.Attempted += r.attempted
		o.Failed += r.failed
		for _, p := range r.problems {
			o.Correct = false
			fmt.Println("CHECK FAILED:", p)
		}
		if r.swapped > 0 {
			fmt.Printf("known defect: %d of %d bodies were the other document of the /api/snapshot ~ /api/picture.json cache-key collision (not counted as failed)\n", r.swapped, r.attempted)
		}
	}
	for _, m := range endToEnd {
		o.Metrics[m.name] = value{median(per[m.name]), m.unit}
	}
	o.Metrics["recover_s"] = value{median(recovers), "s"}
	if o.Attempted < 1 {
		o.Attempted = 1
		o.Correct = false
	}
	return o
}

// generatorAudit is the load generator's own validity numbers.
type generatorAudit struct {
	lateP90Ms float64 // -1 on closed-loop workloads
	cpuShare  float64
}

func auditGenerator(rs []*roundResult) generatorAudit {
	a := generatorAudit{lateP90Ms: -1}
	var late []float64
	var cpu, wall float64
	for _, r := range rs {
		for _, d := range r.late {
			late = append(late, d.Seconds()*1e3)
		}
		cpu += r.genCPUS
		wall += r.timedS
	}
	if len(late) > 0 {
		a.lateP90Ms = quantile(late, 0.9)
	}
	if wall > 0 {
		a.cpuShare = cpu / (wall * float64(runtime.NumCPU()))
	}
	return a
}

func reportGenerator(rs []*roundResult, in *input) {
	a := auditGenerator(rs)
	verdict := "valid"
	if a.lateP90Ms > 5 || a.cpuShare > 0.5 {
		verdict = "INVALID (generator late_p90 > 5 ms or cpu_share > 0.5: the numbers above measure the generator)"
	}
	fmt.Printf("generator: late_p90_ms=%.3f cpu_share=%.3f build_s=%.3f connections=2 %s\n", a.lateP90Ms, a.cpuShare, in.buildS, verdict)
}

func printMetrics(defs []metricDef, m map[string]value) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		fmt.Printf("%-40s %16.6g %s\n", n, v.Value, v.Unit)
	}
}
