package pipeline

import (
	"net/netip"
	"testing"
	"time"

	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
)

// TestProcessSteadyStateAllocs pins the ingest side of the allocation
// diet: once the window's sequences are interned and the TAMP shadow has
// seen every (router, prefix) route, processing one more event — window
// add + evict, router-name lookup, RIB shadow and graph update
// — stays within a few allocations per event (the AS-path slice a fresh
// RouteEntry owns is the irreducible part). A regression back to
// per-event string rendering or per-tick scratch rebuilds trips this
// long before a benchmark run would.
func TestProcessSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is not worth it in -short")
	}
	cfg := Config{
		Window: 2 * time.Minute,
		SpikeK: -1, // no spike or tick snapshots: nothing may emit mid-measurement
		Site:   "berkeley",
	}.withDefaults()
	// The state is driven directly, exactly as the sequential run loop
	// would (Workers=1: no pool, shard ops apply inline).
	st := &state{
		p:       &Pipeline{cfg: cfg},
		win:     stemming.NewWindow(cfg.Stemming, cfg.Shards),
		shards:  make([]*analysisShard, cfg.Shards),
		routers: make(map[netip.Addr]string),
		graphs:  make([]*tamp.Graph, cfg.Shards),
	}
	for i := range st.shards {
		st.shards[i] = &analysisShard{
			g:       tamp.New(cfg.Site),
			rib:     make(map[routeKey]tamp.RouteEntry),
			pending: opsPool.Get().(*[]routeOp),
		}
	}

	events := churnStream(256, time.Second, 3)
	i := 0
	step := func() {
		e := events[i%len(events)]
		e.Time = t0.Add(time.Duration(i) * time.Second)
		st.process(e)
		i++
	}
	for n := 0; n < 2048; n++ {
		step()
	}
	avg := testing.AllocsPerRun(2000, step)
	t.Logf("steady-state process: %.2f allocs/event", avg)
	if avg > 4 {
		t.Errorf("steady-state process allocates %.2f/event, want <= 4", avg)
	}
}
