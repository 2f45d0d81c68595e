package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary. A ladder span covers
// the calls one batch made into one layer (Calls of them): a span per
// call would cost as much as the calls it times. Spans of one batch
// share Batch; Parent is the index of the span that caused this one,
// -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, batch int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

func (t *tracer) end(id, calls int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Calls = calls
}

// layerRow is one line of the "where the time goes" table.
type layerRow struct {
	name           string
	calls          int
	busyMs, selfMs float64
}

// table folds spans by name. A span's self time is its duration minus
// its children's; spans of the table-load batches (negative batch
// numbers) are left out, as they are from every per-event metric.
func (t *tracer) table() []layerRow {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		if s.Batch < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.calls += s.Calls
		r.busyMs += float64(s.End-s.Start) / 1e6
		r.selfMs += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMs > out[j].selfMs })
	return out
}

func (t *tracer) printTable(workload string) {
	rows := t.table()
	total := 0.0
	for _, r := range rows {
		total += r.selfMs
	}
	fmt.Printf("where the time goes (%s, in-process ladder):\n", workload)
	fmt.Printf("| %-22s | %9s | %10s | %10s | %6s |\n", "layer", "calls", "busy ms", "self ms", "share")
	fmt.Println("|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Printf("| %-22s | %9d | %10.1f | %10.1f | %5.1f%% |\n", r.name, r.calls, r.busyMs, r.selfMs, r.selfMs/total*100)
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// headline is the end-to-end metric tracing overhead is judged on.
func headline(workload string) string {
	if workload == "storm" {
		return "throughput_per_s"
	}
	return "latency_p50_ms"
}

// tracedRun is -trace 1: one plain round and one round against a rexd
// that exposes /metrics.json (scraped either side of the timed phase),
// then the in-process ladder over the same input. It prints and returns
// the per-layer metrics.
func tracedRun(env *env, w *workload, in *input, timed time.Duration, outDir string) (*outcome, error) {
	plain, err := w.round(env, in, timed)
	if err != nil {
		return nil, fmt.Errorf("plain round: %w", err)
	}
	withMetrics := *env
	withMetrics.traced = true
	tr, err := w.round(&withMetrics, in, timed)
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	fmt.Println("one plain round, then one against rexd with -metrics-addr (traced; neither is the benchmark's numbers):")
	po, to := summarize([]*roundResult{plain}), summarize([]*roundResult{tr})
	printMetrics(endToEnd, to.Metrics)

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = absent
	}
	h := headline(w.name)
	m["trace.overhead_share"] = (to.Metrics[h].Value - po.Metrics[h].Value) / po.Metrics[h].Value
	a := auditGenerator([]*roundResult{plain, tr})
	m["gen.late_p90_ms"], m["gen.cpu_share"], m["gen.build_s"] = a.lateP90Ms, a.cpuShare, in.buildS
	m["serve.swapped_bodies"] = float64(plain.swapped + tr.swapped)
	m["e2e.latency_p90_ms"] = quantile(plain.latMs, 0.9)
	daemonMetrics(m, tr.daemon)

	t := newTracer()
	dir, err := os.MkdirTemp(env.tmp, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ladderEvents, err := runLadder(t, w, in, timed, dir, m)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	// How much of rexd's cost per event the ladder's calls add up to.
	busy := 0.0
	for _, r := range t.table() {
		busy += r.selfMs
	}
	if tr.cpuS > 0 && tr.ops > 0 && w.name != "readers" {
		m["ladder.coverage"] = (busy / 1e3 / float64(ladderEvents)) / (tr.cpuS / tr.ops)
	}
	t.printTable(w.name)
	if err := t.write(filepath.Join(outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}

	o := &outcome{
		Correct:   po.Correct && to.Correct,
		Attempted: po.Attempted + to.Attempted,
		Failed:    po.Failed + to.Failed,
		Metrics:   map[string]value{},
	}
	for _, d := range perLayer {
		o.Metrics[d.name] = value{m[d.name], d.unit}
	}
	printMetrics(perLayer, o.Metrics)
	fmt.Printf("(%d = not measured on this workload, or absent from /metrics.json)\n", absent)
	return o, nil
}

// absent is the value of a per-layer metric the workload does not
// exercise or rexd's /metrics.json no longer carries: every name is
// always printed, none is ever an error.
const absent = -1

// daemonMetrics maps rexd's own counters (deltas over the timed phase)
// to the daemon.* names. A counter rexd no longer exports stays absent.
func daemonMetrics(m map[string]float64, d map[string]float64) {
	direct := map[string]string{
		"daemon.updates":         "rex_collector_updates_total",
		"daemon.events":          "rex_pipeline_events_total",
		"daemon.journal_appends": "rex_journal_appends_total",
		"daemon.journal_fsyncs":  "rex_journal_fsyncs_total",
		"daemon.settle_s":        "rex_pipeline_settle_seconds.sum",
		"daemon.snapshot_s":      "rex_pipeline_snapshot_seconds.sum",
		"daemon.snapshots":       "rex_pipeline_snapshots_total",
		"daemon.renders":         "rex_serve_renders_total",
		"daemon.cache_hits":      "rex_serve_cache_hits_total",
		"daemon.not_modified":    "rex_serve_not_modified_total",
		"daemon.sse_dropped":     "rex_serve_sse_dropped_total",
		"daemon.shed":            "rex_serve_shed_total",
		"daemon.replays":         "rex_serve_replay_total",
		"daemon.replay_s":        "rex_serve_replay_seconds.sum",
	}
	for name, src := range direct {
		if v, ok := d[src]; ok {
			m[name] = v
		}
	}
	if b, ok := d["rex_intake_batches_total"]; ok && b > 0 {
		if e, ok := d["rex_intake_batch_events_total"]; ok {
			m["daemon.intake_batch_events_avg"] = e / b
		}
	}
}

// perLayer is every per-layer metric, in the order BENCHMARK.json lists
// them. The README maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"gen.late_p90_ms", "ms"}, {"gen.cpu_share", "ratio"}, {"gen.build_s", "s"},
	{"bgp.decode_ns_per_update", "ns"}, {"bgp.decode_allocs_per_update", "count"}, {"bgp.wire_bytes_per_event", "B"},
	{"rib.update_ns_per_event", "ns"},
	{"collector.ns_per_event", "ns"}, {"collector.self_ns_per_event", "ns"},
	{"event.encode_ns_per_event", "ns"}, {"event.decode_ns_per_event", "ns"}, {"event.record_bytes_per_event", "B"},
	{"journal.append_ns_per_event", "ns"}, {"journal.append_always_ns_per_event", "ns"}, {"journal.append_never_ns_per_event", "ns"},
	{"journal.bytes_per_event", "B"}, {"journal.scan_ns_per_event", "ns"},
	{"relay.transfer_ns_per_event", "ns"},
	{"pipeline.offer_ns_per_event", "ns"}, {"pipeline.ingest_ns_per_event", "ns"}, {"pipeline.self_ns_per_event", "ns"},
	{"pipeline.allocs_per_event", "count"}, {"pipeline.heap_bytes_per_event", "B"},
	{"stemming.add_ns_per_event", "ns"}, {"stemming.evict_ns_per_event", "ns"},
	{"stemming.snapshot_ms", "ms"}, {"stemming.window_events", "count"}, {"stemming.components", "count"},
	{"tamp.apply_ns_per_event", "ns"}, {"tamp.snapshot_ms", "ms"}, {"tamp.nodes", "count"}, {"tamp.edges", "count"},
	{"viz.svg_ms", "ms"}, {"viz.dot_ms", "ms"}, {"viz.json_ms", "ms"}, {"viz.svg_bytes", "B"}, {"viz.json_bytes", "B"},
	{"serve.publish_ms", "ms"}, {"serve.sse_deliver_ms", "ms"},
	{"serve.get_hit_us", "us"}, {"serve.get_304_us", "us"}, {"serve.get_miss_ms", "ms"},
	{"serve.swapped_bodies", "count"},
	{"daemon.updates", "count"}, {"daemon.events", "count"}, {"daemon.journal_appends", "count"}, {"daemon.journal_fsyncs", "count"},
	{"daemon.intake_batch_events_avg", "count"}, {"daemon.settle_s", "s"}, {"daemon.snapshot_s", "s"}, {"daemon.snapshots", "count"},
	{"daemon.renders", "count"}, {"daemon.cache_hits", "count"}, {"daemon.not_modified", "count"}, {"daemon.sse_dropped", "count"},
	{"daemon.shed", "count"}, {"daemon.replays", "count"}, {"daemon.replay_s", "s"},
	{"ladder.coverage", "ratio"}, {"trace.overhead_share", "ratio"}, {"e2e.latency_p90_ms", "ms"},
}
