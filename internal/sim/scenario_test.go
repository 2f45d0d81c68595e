package sim

import (
	"testing"
	"time"

	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
	"rex/internal/event"
	"rex/internal/policy"
)

var scT0 = time.Date(2003, 12, 1, 0, 0, 0, 0, time.UTC)

func TestPeerLeakScenario(t *testing.T) {
	b := Berkeley(BerkeleyConfig{Misconfigured: true})
	sc := PeerLeakScenario(b, 2, scT0)
	if len(sc.MovedPrefixes) == 0 {
		t.Fatal("no moved prefixes")
	}
	if len(sc.Events) == 0 {
		t.Fatal("no events")
	}
	// Router 128.32.1.3 must WITHDRAW the moved prefixes (the community
	// filter interaction), while 128.32.1.200 re-announces them on the
	// leaked path.
	var withdrawsFrom3, announcesLeaked int
	for _, e := range sc.Events {
		if e.Type == event.Withdraw && e.Peer == BerkeleyRouter3 {
			withdrawsFrom3++
		}
		if e.Type == event.Announce && e.Peer == BerkeleyRouter200 && e.Attrs.ASPath.Contains(1909) {
			announcesLeaked++
		}
	}
	if withdrawsFrom3 == 0 {
		t.Error("no withdrawals from 128.32.1.3: community interaction missing")
	}
	if announcesLeaked == 0 {
		t.Error("no leaked-path announcements from 128.32.1.200")
	}
	// The leaked routes must carry no ISP community (CalREN only tags
	// QWest-heard routes) — that is what silences 128.32.1.3.
	for _, e := range sc.Events {
		if e.Type == event.Announce && e.Attrs.ASPath.Contains(1909) {
			if e.Attrs.HasCommunity(CommISPRoutes) {
				t.Fatal("leaked route carries the ISP community")
			}
		}
	}
	// Stemming localizes the leak at the deep end of the shared leaked
	// path.
	comp, ok := stemming.Top(sc.Events, stemming.Config{})
	if !ok {
		t.Fatal("stemming found nothing")
	}
	if comp.Stem.From.Kind != stemming.KindAS {
		t.Fatalf("stem = %v", comp.Stem)
	}
	// The stem must sit on the leaked path, not the baseline.
	leaked := map[uint32]bool{ASCalRENDC: true, 10927: true, 1909: true, 195: true, ASCENIC: true, ASLevel3: true}
	if !leaked[comp.Stem.From.AS] && !leaked[comp.Stem.To.AS] {
		t.Errorf("stem %v not on the leaked path", comp.Stem)
	}
}

func TestPeerLeakAnimationShowsMigration(t *testing.T) {
	b := Berkeley(BerkeleyConfig{Misconfigured: true})
	sc := PeerLeakScenario(b, 1, scT0)
	var base []tamp.RouteEntry
	for _, r := range sc.Baseline {
		base = append(base, r.TAMPEntry())
	}
	anim := tamp.Animate(b.Name, base, sc.Events, tamp.AnimationConfig{})
	// The CalREN->QWest edge must lose prefixes at some frame (blue) and
	// the leaked path edge must gain (green), as in Figure 7(b).
	qwestEdge := tamp.EdgeRef{From: tamp.ASNode(ASCalREN), To: tamp.ASNode(ASQwest)}
	leakEdge := tamp.EdgeRef{From: tamp.ASNode(ASCalRENDC), To: tamp.ASNode(10927)}
	var sawLoss, sawGain bool
	for _, f := range anim.Frames {
		for _, ch := range f.Changes {
			if ch.Edge == qwestEdge && (ch.Color == tamp.ColorBlue || ch.Downs > 0) {
				sawLoss = true
			}
			if ch.Edge == leakEdge && (ch.Color == tamp.ColorGreen || ch.Ups > 0) {
				sawGain = true
			}
		}
	}
	if !sawLoss {
		t.Error("CalREN->QWest never lost prefixes in the animation")
	}
	if !sawGain {
		t.Error("leaked path never gained prefixes in the animation")
	}
	// Series on the QWest edge dips and recovers.
	series := anim.EdgeSeries(qwestEdge)
	min, max := series[0], series[0]
	for _, v := range series {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min >= series[0] {
		t.Error("QWest edge series never dipped")
	}
	if series[len(series)-1] != series[0] {
		t.Errorf("QWest edge did not recover: start %d end %d", series[0], series[len(series)-1])
	}
}

func TestCustomerFlapScenario(t *testing.T) {
	is := ISPAnon(ISPAnonConfig{})
	flaps := 8
	sc := CustomerFlapScenario(is, flaps, time.Minute, scT0)
	perFlap := float64(len(sc.Events)) / float64(flaps)
	// The paper reports ~200 events per flap on the full 67-RR mesh; at
	// this fleet (4 PoPs x 2 RRs, 5 tier-1s) the same convergence shape
	// yields on the order of 100.
	if perFlap < 50 || perFlap > 300 {
		t.Errorf("events per flap = %.0f", perFlap)
	}
	// Every event concerns the customer prefix.
	for _, e := range sc.Events {
		if e.Prefix != FlapPrefix {
			t.Fatalf("unexpected prefix %v", e.Prefix)
		}
	}
	// Mixed into background noise over the same period, the flap is the
	// strongest long-window correlation (§IV-E: "the event rate is too
	// low for most tools... Stemming had no trouble").
	noise := NoiseStream(sc.Baseline, 3000, time.Duration(flaps)*time.Minute, scT0, 7)
	mixed := append(append(event.Stream{}, noise...), sc.Events...)
	mixed.SortByTime()
	comp, ok := stemming.Top(mixed, stemming.Config{})
	if !ok {
		t.Fatal("stemming found nothing")
	}
	if len(comp.Prefixes) != 1 || comp.Prefixes[0] != FlapPrefix {
		t.Errorf("top component prefixes = %v, want [%v]", comp.Prefixes, FlapPrefix)
	}
}

func TestMEDOscillationScenario(t *testing.T) {
	is := ISPAnon(ISPAnonConfig{})
	sc := MEDOscillationScenario(is, 50*time.Millisecond, 100*time.Microsecond, 10*time.Millisecond, scT0)
	if len(sc.Events) < 500 {
		t.Fatalf("events = %d", len(sc.Events))
	}
	// All on the MED prefix; MEDs present on AS2 routes.
	var withMED int
	for _, e := range sc.Events {
		if e.Prefix != MEDPrefix {
			t.Fatalf("unexpected prefix %v", e.Prefix)
		}
		if e.Attrs != nil && e.Attrs.HasMED {
			withMED++
		}
	}
	if withMED == 0 {
		t.Error("no MEDs in oscillation events")
	}
	// §IV-F: the oscillation dominates even a short window.
	comp, ok := stemming.Top(sc.Events, stemming.Config{})
	if !ok {
		t.Fatal("stemming found nothing")
	}
	if len(comp.Prefixes) != 1 || comp.Prefixes[0] != MEDPrefix {
		t.Errorf("component prefixes = %v", comp.Prefixes)
	}
	// The animation shows yellow (too fast to animate) on the fast edge,
	// as in Figure 3.
	var base []tamp.RouteEntry
	for _, r := range sc.Baseline {
		base = append(base, r.TAMPEntry())
	}
	anim := tamp.Animate(is.Name, base, sc.Events, tamp.AnimationConfig{})
	sawYellow := false
	for _, f := range anim.Frames {
		for _, ch := range f.Changes {
			if ch.Color == tamp.ColorYellow {
				sawYellow = true
			}
		}
	}
	if !sawYellow {
		t.Error("MED oscillation never rendered yellow")
	}
}

func TestSessionResetScenario(t *testing.T) {
	is := ISPAnon(ISPAnonConfig{})
	baseline := is.BaselineRoutes()
	neighbor := is.Tier1s[0]
	sc := SessionResetScenario(is.Site, baseline, neighbor, 30*time.Second, scT0)
	if len(sc.Events) == 0 || len(sc.Events)%2 != 0 {
		t.Fatalf("events = %d", len(sc.Events))
	}
	// Withdraw+announce per route.
	var w, a int
	for _, e := range sc.Events {
		switch e.Type {
		case event.Withdraw:
			w++
		case event.Announce:
			a++
		}
	}
	if w != a {
		t.Errorf("withdraws %d != announces %d", w, a)
	}
	comp, ok := stemming.Top(sc.Events, stemming.Config{})
	if !ok {
		t.Fatal("stemming found nothing")
	}
	// The reset neighbor appears in the strongest sub-sequence.
	found := false
	for _, tok := range comp.Subsequence {
		if tok.Kind == stemming.KindAS && tok.AS == neighbor {
			found = true
		}
	}
	if !found {
		t.Errorf("neighbor AS%d not in subsequence %v", neighbor, comp.Subsequence)
	}
}

func TestNoiseStream(t *testing.T) {
	is := ISPAnon(ISPAnonConfig{})
	baseline := is.BaselineRoutes()
	noise := NoiseStream(baseline, 1000, time.Hour, scT0, 3)
	if len(noise) != 1000 {
		t.Fatalf("noise events = %d", len(noise))
	}
	first, last, _ := noise.TimeRange()
	if last.Sub(first) < 30*time.Minute {
		t.Errorf("noise span = %v", last.Sub(first))
	}
	// Re-announces trail their withdraws by at most 2.5 s, so the
	// stream may overrun over by that much and no more.
	if first.Before(scT0) || !last.Before(scT0.Add(time.Hour+2500*time.Millisecond)) {
		t.Errorf("noise spans [%v, %v], want within [start, start+over+2.5s)", first, last)
	}
	// Sorted.
	for i := 1; i < len(noise); i++ {
		if noise[i].Time.Before(noise[i-1].Time) {
			t.Fatal("noise not sorted")
		}
	}
	if NoiseStream(nil, 10, time.Hour, scT0, 1) != nil {
		t.Error("noise from empty baseline")
	}
}

func TestISPAnonStructure(t *testing.T) {
	is := ISPAnon(ISPAnonConfig{})
	if len(is.RRs) != 4 || len(is.RRs[0]) != 2 {
		t.Fatalf("RR mesh = %v", is.RRs)
	}
	if is.RRs[0][0].Name != "core1-a" || is.RRs[1][1].Name != "core2-b" {
		t.Errorf("RR names = %v", is.RRs)
	}
	routes := is.BaselineRoutes()
	if len(routes) == 0 {
		t.Fatal("no baseline routes")
	}
	// Routes outnumber prefixes (multiple paths per prefix), as at any
	// multi-homed ISP.
	g := TAMPGraph(is.Name, routes)
	if len(routes) <= g.TotalPrefixes() {
		t.Errorf("routes %d <= prefixes %d", len(routes), g.TotalPrefixes())
	}
}

func TestHijackScenario(t *testing.T) {
	b := Berkeley(BerkeleyConfig{})
	sc := HijackScenario(b, 15, scT0)
	if len(sc.MovedPrefixes) == 0 || len(sc.Events) == 0 {
		t.Fatalf("events=%d moved=%d", len(sc.Events), len(sc.MovedPrefixes))
	}
	// Every hijack announcement originates at the attacker with a short
	// path.
	var hijacks int
	for _, e := range sc.Events {
		if e.Attrs.ASPath.OriginAS() == ASHijacker {
			hijacks++
			if e.Attrs.ASPath.Length() != 2 {
				t.Fatalf("hijack path %v", e.Attrs.ASPath)
			}
		}
	}
	if hijacks == 0 {
		t.Fatal("no hijack announcements")
	}
	// MOAS detection flags every victim prefix with both origins.
	conflicts := event.OriginConflicts(sc.Events)
	if len(conflicts) != 15 {
		t.Fatalf("conflicts = %d, want 15", len(conflicts))
	}
	for _, c := range conflicts {
		foundAttacker := false
		for _, o := range c.Origins {
			if o == ASHijacker {
				foundAttacker = true
			}
		}
		if !foundAttacker {
			t.Errorf("conflict %v missing attacker origin: %v", c.Prefix, c.Origins)
		}
	}
	// Stemming's strongest component captures the incident: its prefix
	// set covers the victims (the hijacker itself is pinned by the MOAS
	// check above — the component aggregates hijack + restore events).
	comp, ok := stemming.Top(sc.Events, stemming.Config{})
	if !ok {
		t.Fatal("no component")
	}
	victimSet := map[string]bool{}
	for _, p := range comp.Prefixes {
		victimSet[p.String()] = true
	}
	for _, p := range sc.MovedPrefixes {
		if !victimSet[p.String()] {
			t.Errorf("victim %v missing from top component", p)
		}
	}
}

func TestLeakPolicyCorrelationEndToEnd(t *testing.T) {
	// The paper's §III-D.1 loop: Stemming picks the leak component out of
	// the events; correlating its community tags with the router configs
	// pinpoints the LOCAL_PREF policies that explain the behaviour.
	b := Berkeley(BerkeleyConfig{Misconfigured: true})
	sc := PeerLeakScenario(b, 1, scT0)
	comps := stemming.Analyze(sc.Events, stemming.Config{MaxComponents: 4})
	if len(comps) == 0 {
		t.Fatal("no components")
	}
	configs := b.RouterConfigs()
	var all []policy.Finding
	for i := range comps {
		all = append(all, policy.Correlate(&comps[i], sc.Events, configs)...)
	}
	if len(all) == 0 {
		t.Fatal("no policy findings")
	}
	// The ISP community policy (LP 80 on edge-128-32-1-3 and LP 70 on
	// edge-128-32-1-200) must surface: the withdrawn routes carried
	// 11423:65350.
	var saw80, saw70 bool
	for _, f := range all {
		if f.Policy.Community == CommISPRoutes && f.Policy.LocalPref != nil {
			switch *f.Policy.LocalPref {
			case 80:
				saw80 = true
			case 70:
				saw70 = true
			}
		}
	}
	if !saw80 || !saw70 {
		t.Errorf("LP80/LP70 policies missing from findings: %v", all)
	}
}
