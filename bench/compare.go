package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifest is the part of BENCHMARK.json the bench reads back.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// loadResults reads a results.jsonl into workload → metric → values,
// untraced runs only.
func loadResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// runCompare prints, per workload and end-to-end metric, how much worse
// the second file's median is than the first's, against the metric's
// bound. A pair whose own run-to-run spread exceeds the bound cannot be
// judged and is unresolved; a resolved pair beyond the bound is
// outside, which the caller turns into exit code 1.
func runCompare(args []string) (anyOutside bool, err error) {
	if len(args) != 2 {
		return false, fmt.Errorf("-compare takes two results.jsonl files")
	}
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	man, err := loadManifest(root)
	if err != nil {
		return false, err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return false, err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return false, err
	}
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-8s %-18s %5s %14s %14s %8s %8s %8s %7s  %s\n", "workload", "metric", "runs", "median a", "median b", "spread a", "spread b", "worse", "bound", "verdict")
	for _, w := range names {
		for _, m := range man.EndToEnd {
			xa, xb := a[w][m.Name], b[w][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "agree"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "outside"
				anyOutside = true
			}
			fmt.Printf("%-8s %-18s %2d/%-2d %14.6g %14.6g %7.1f%% %7.1f%% %+7.1f%% %6.0f%%  %s\n",
				w, m.Name, len(xa), len(xb), ma, mb, sa*100, sb*100, worse*100, m.Bound*100, verdict)
		}
	}
	return anyOutside, nil
}
