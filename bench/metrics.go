package main

import (
	"encoding/json"
	"net/http"
	"time"
)

// scrapeMetrics reads rexd's /metrics.json and flattens it: a plain
// metric keeps its name, a labelled one is summed over its labels, a
// histogram becomes name.sum and name.count. A failed scrape is an
// empty map: every name is then reported absent.
func scrapeMetrics(addr string) map[string]float64 {
	out := map[string]float64{}
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	var raw map[string]any
	if json.NewDecoder(resp.Body).Decode(&raw) != nil {
		return out
	}
	for name, v := range raw {
		switch v := v.(type) {
		case float64:
			out[name] = v
		case map[string]any:
			if s, ok := v["sum"].(float64); ok {
				out[name+".sum"] = s
				if c, ok := v["count"].(float64); ok {
					out[name+".count"] = c
				}
				continue
			}
			t := 0.0
			for _, x := range v {
				if f, ok := x.(float64); ok {
					t += f
				}
			}
			out[name] = t
		}
	}
	return out
}

// metricDeltas is after minus before, for names present after.
func metricDeltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
