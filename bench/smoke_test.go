package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// TestSmoke runs every workload end to end at a fiftieth of the
// recorded size — one round each, then the traced run with its ladder —
// and holds the bench to its manifest: the names it prints are exactly
// the names BENCHMARK.json declares, every one well-formed and with its
// unit, and every output check passes. It is also what notices when a
// call in layers.go no longer compiles against rexd's internals.
func TestSmoke(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc: the bench reads rexd's cpu and rss from it")
	}
	env, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(env.tmp)
	env.rounds = 1
	man, err := loadManifest(env.root)
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range man.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range man.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if len(man.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the bench has %d", len(man.Workloads), len(workloads))
	}
	const seconds = 18 * 0.02
	for _, mw := range man.Workloads {
		w := findWorkload(mw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json names workload %q, the bench has none", mw.Name)
			continue
		}
		for _, c := range []struct {
			mode   string
			traced bool
			want   []metricDef
		}{{"plain", false, e2e}, {"traced", true, layers}} {
			t.Run(w.name+"/"+c.mode, func(t *testing.T) {
				out := t.TempDir()
				o, err := runWorkload(env, w, 1, seconds, c.traced, out)
				if err != nil {
					t.Fatal(err)
				}
				if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", o.Correct, o.Attempted, o.Failed)
				}
				checkNames(t, o.Metrics, c.want)
				if c.traced {
					b, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
					var spans []span
					if err != nil || json.Unmarshal(b, &spans) != nil || len(spans) == 0 {
						t.Errorf("no spans in %s.trace.json (%v)", w.name, err)
					}
				}
			})
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func checkNames(t *testing.T, got map[string]value, want []metricDef) {
	t.Helper()
	var g, w []string
	for name, v := range got {
		g = append(g, name)
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
		if v.Unit == "" {
			t.Errorf("metric %s has no unit", name)
		}
	}
	units := map[string]string{}
	for _, d := range want {
		w = append(w, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("printed %d metrics %v, BENCHMARK.json declares %d %v", len(g), g, len(w), w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("printed metric %q where BENCHMARK.json declares %q", g[i], w[i])
		}
		if got[g[i]].Unit != units[g[i]] {
			t.Errorf("metric %s printed in %q, declared in %q", g[i], got[g[i]].Unit, units[g[i]])
		}
	}
}
