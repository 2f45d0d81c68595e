package sim

import (
	"math/rand"
	"net/netip"
	"time"

	"rex/internal/bgp"
	"rex/internal/event"
)

// Scenario is one generated incident: the site, the steady-state RIB
// before the incident, the event stream the collector would capture, and
// ground-truth labels for the detection tests.
type Scenario struct {
	Name     string
	Site     *Site
	Baseline []SiteRoute
	Events   event.Stream
	// MovedPrefixes are the prefixes the incident affects.
	MovedPrefixes []netip.Prefix
	// StemASFrom/StemASTo, when non-zero, give the AS-level problem
	// location Stemming should report.
	StemASFrom, StemASTo uint32
}

// BaselineEntries converts the baseline to TAMP input.
func (s *Scenario) BaselineEntries() []SiteRoute { return s.Baseline }

// announce and withdraw build events from a SiteRoute.
func announce(r SiteRoute, t time.Time) event.Event { return r.Event(t, event.Announce) }
func withdraw(r SiteRoute, t time.Time) event.Event { return r.Event(t, event.Withdraw) }

// PeerLeakScenario generates the paper's §IV-D incident at Berkeley:
// leaked routes from CalREN's peers pull commodity prefixes (the ones
// reached through Level3) onto a long leaked path
// 11423-11422-10927-1909-195-2152-3356. Because the leaked path is not
// heard from QWest, CalREN does not attach the ISP community, so router
// 128.32.1.3 stops announcing those prefixes entirely — the costly
// community-filter interaction. cycles repeats the move-and-recover (the
// paper observed the 30k prefixes move twice).
func PeerLeakScenario(b *BerkeleySite, cycles int, start time.Time) *Scenario {
	if cycles <= 0 {
		cycles = 2
	}
	baseline := b.BaselineRoutes()
	routing := b.Routing()

	// The leaked AS path inserted between CalREN and Level3 (Packet
	// Clearing House, Alpha NAP, SDSC, CENIC in the paper).
	leakCore := []uint32{ASCalREN, ASCalRENDC, 10927, 1909, 195, ASCENIC, ASLevel3}

	// Moved prefixes: commodity destinations whose normal path runs
	// through Level3.
	type movedRoute struct {
		before SiteRoute
		origin uint32
	}
	byAttachment := map[*Attachment][]movedRoute{}
	var moved []netip.Prefix
	seen := map[netip.Prefix]bool{}
	origins := map[netip.Prefix]uint32{}
	for _, op := range b.Topo.AllPrefixes() {
		origins[op.Prefix] = op.Origin
	}
	for _, r := range baseline {
		path := r.Attrs.ASPath.ASNs()
		viaLevel3 := false
		for i, asn := range path {
			if asn == ASQwest && i+1 < len(path) && contains(path[i+1:], ASLevel3) {
				viaLevel3 = true
				break
			}
		}
		if !viaLevel3 {
			continue
		}
		byAttachment[r.Attachment] = append(byAttachment[r.Attachment], movedRoute{before: r, origin: origins[r.Prefix]})
		if !seen[r.Prefix] {
			seen[r.Prefix] = true
			moved = append(moved, r.Prefix)
		}
	}

	sc := &Scenario{
		Name: "peer-leak", Site: b.Site, Baseline: baseline,
		MovedPrefixes: moved,
		StemASFrom:    ASCENIC, StemASTo: ASLevel3,
	}
	now := start
	step := func() time.Time { now = now.Add(50 * time.Millisecond); return now }
	for c := 0; c < cycles; c++ {
		// Leak appears.
		for _, att := range b.Attachments {
			for _, mr := range byAttachment[att] {
				leakPath := append(append([]uint32{}, leakCore...), pathTail(mr.before, mr.origin)...)
				after, ok := b.Site.routeWithPath(routing, att, mr.before.Prefix, leakPath)
				switch {
				case ok:
					// Exploration: a first, even longer transient path.
					transient := append(append([]uint32{}, leakCore[:4]...), leakPath[2:]...)
					if tr, trOK := b.Site.routeWithPath(routing, att, mr.before.Prefix, transient); trOK {
						sc.Events = append(sc.Events, announce(tr, step()))
					}
					sc.Events = append(sc.Events, announce(after, step()))
				default:
					// Policy now rejects the route: the router withdraws
					// (128.32.1.3's community filter).
					sc.Events = append(sc.Events, withdraw(mr.before, step()))
				}
			}
		}
		now = now.Add(30 * time.Second)
		// Leak fixed: everything returns to baseline.
		for _, att := range b.Attachments {
			for _, mr := range byAttachment[att] {
				sc.Events = append(sc.Events, announce(mr.before, step()))
			}
		}
		now = now.Add(2 * time.Minute)
	}
	return sc
}

// routeWithPath applies an attachment's policy to an explicitly given AS
// path (used by incident generators to inject non-baseline paths).
func (s *Site) routeWithPath(routing *Routing, att *Attachment, prefix netip.Prefix, path []uint32) (SiteRoute, bool) {
	attrs := &bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Sequence(path...),
		Nexthop: att.Nexthop,
	}
	if att.Policy != nil && !att.Policy(prefix, path, attrs) {
		return SiteRoute{}, false
	}
	return SiteRoute{Attachment: att, Prefix: prefix, Attrs: attrs}, true
}

// pathTail returns the portion of the route's AS path from Level3's
// successor to the origin (the destination-specific tail).
func pathTail(r SiteRoute, origin uint32) []uint32 {
	path := r.Attrs.ASPath.ASNs()
	for i, asn := range path {
		if asn == ASLevel3 {
			return path[i+1:]
		}
	}
	if len(path) > 0 && path[len(path)-1] == origin {
		return []uint32{origin}
	}
	return nil
}

func contains(path []uint32, asn uint32) bool {
	for _, a := range path {
		if a == asn {
			return true
		}
	}
	return false
}

// CustomerFlapScenario generates §IV-E: the customer session at 1.0.0.1
// drops and re-establishes every `period`; each flap fails the prefix
// over to three-hop alternates via the NAP announced independently by
// every PoP's route reflectors (~200 events/flap at the default fleet),
// then recovers.
func CustomerFlapScenario(is *ISPAnonSite, flaps int, period time.Duration, start time.Time) *Scenario {
	if flaps <= 0 {
		flaps = 10
	}
	if period <= 0 {
		period = time.Minute
	}
	baseline := is.BaselineRoutes()
	sc := &Scenario{
		Name: "customer-flap", Site: is.Site, Baseline: baseline,
		MovedPrefixes: []netip.Prefix{FlapPrefix},
		StemASFrom:    ASISPAnon, StemASTo: ASCustFlap,
	}
	directAttrs := &bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Sequence(ASCustFlap),
		Nexthop: netip.MustParseAddr("1.0.0.1"),
	}
	now := start
	for f := 0; f < flaps; f++ {
		flapStart := now
		// Session drops: the direct route is withdrawn at PoP 1.
		for _, att := range is.FlapAttachments {
			sc.Events = append(sc.Events, event.Event{
				Time: flapStart, Type: event.Withdraw,
				Peer: att.RouterAddr, Prefix: FlapPrefix, Attrs: directAttrs,
			})
		}
		// Convergence: every RR at every PoP explores alternates via the
		// NAP through each tier-1 (announce sequence = path exploration),
		// spread over ~20 seconds as in the paper.
		stepN := 0
		for round := 0; round < 2; round++ {
			for pop, rrs := range is.RRs {
				for _, rr := range rrs {
					for _, t1 := range is.Tier1s {
						stepN++
						sc.Events = append(sc.Events, event.Event{
							Time: flapStart.Add(time.Duration(stepN) * 90 * time.Millisecond),
							Type: event.Announce,
							Peer: rr.Addr, Prefix: FlapPrefix,
							Attrs: &bgp.PathAttrs{
								Origin:  bgp.OriginIGP,
								ASPath:  bgp.Sequence(t1, ASNAP, ASCustFlap),
								Nexthop: is.NAPNexthops[pop],
							},
						})
					}
				}
			}
		}
		// Session re-establishes: direct route comes back everywhere.
		recover := flapStart.Add(20 * time.Second)
		for _, att := range is.FlapAttachments {
			sc.Events = append(sc.Events, event.Event{
				Time: recover, Type: event.Announce,
				Peer: att.RouterAddr, Prefix: FlapPrefix, Attrs: directAttrs,
			})
		}
		for pop, rrs := range is.RRs {
			if pop == 0 {
				continue
			}
			for _, rr := range rrs {
				sc.Events = append(sc.Events, event.Event{
					Time: recover.Add(time.Second), Type: event.Withdraw,
					Peer: rr.Addr, Prefix: FlapPrefix,
					Attrs: &bgp.PathAttrs{
						Origin:  bgp.OriginIGP,
						ASPath:  bgp.Sequence(is.Tier1s[0], ASNAP, ASCustFlap),
						Nexthop: is.NAPNexthops[pop],
					},
				})
			}
		}
		now = now.Add(period)
	}
	return sc
}

// MEDOscillationScenario generates §IV-F: core2-a/b announce and withdraw
// their AS2 route for 4.5.0.0/16 every fastPeriod (10µs in the paper),
// driving core1-a/b to alternate between the AS1 and AS2 paths every
// slowPeriod (10ms in the paper). The event pattern is the RFC 3345
// oscillation cycle; the decision-process mechanism behind it (MED's lack
// of total ordering) is exercised directly in the rib package's tests.
func MEDOscillationScenario(is *ISPAnonSite, duration, fastPeriod, slowPeriod time.Duration, start time.Time) *Scenario {
	if duration <= 0 {
		duration = time.Second
	}
	if fastPeriod <= 0 {
		fastPeriod = 10 * time.Microsecond
	}
	if slowPeriod <= 0 {
		slowPeriod = 10 * time.Millisecond
	}
	baseline := is.BaselineRoutes()
	sc := &Scenario{
		Name: "med-oscillation", Site: is.Site, Baseline: baseline,
		MovedPrefixes: []netip.Prefix{MEDPrefix},
		StemASFrom:    ASISPAnon, StemASTo: ASMed2,
	}
	nhAS2 := netip.MustParseAddr("10.3.4.5")
	nhAS1 := netip.MustParseAddr("10.6.0.1")
	as2Attrs := func(med uint32) *bgp.PathAttrs {
		return &bgp.PathAttrs{
			Origin: bgp.OriginIGP, ASPath: bgp.Sequence(ASMed2, 65020),
			Nexthop: nhAS2, MED: med, HasMED: true,
		}
	}
	as1Attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, ASPath: bgp.Sequence(ASMed1, 65020), Nexthop: nhAS1,
	}
	core1 := is.RRs[0]
	core2 := is.RRs[1%len(is.RRs)]

	// Fast flap at core2-a/b.
	for tOff, i := time.Duration(0), 0; tOff < duration; tOff, i = tOff+fastPeriod, i+1 {
		for j, rr := range core2 {
			typ := event.Announce
			if (i+j)%2 == 1 {
				typ = event.Withdraw
			}
			sc.Events = append(sc.Events, event.Event{
				Time: start.Add(tOff), Type: typ,
				Peer: rr.Addr, Prefix: MEDPrefix, Attrs: as2Attrs(uint32(10 + j)),
			})
		}
	}
	// Slow alternation at core1-a/b between the AS1 and AS2 paths.
	for tOff, i := time.Duration(0), 0; tOff < duration; tOff, i = tOff+slowPeriod, i+1 {
		for _, rr := range core1 {
			attrs := as1Attrs
			if i%2 == 1 {
				attrs = as2Attrs(5)
			}
			sc.Events = append(sc.Events, event.Event{
				Time: start.Add(tOff), Type: event.Announce,
				Peer: rr.Addr, Prefix: MEDPrefix, Attrs: attrs,
			})
		}
	}
	sc.Events.SortByTime()
	return sc
}

// SessionResetScenario withdraws and re-announces every route of the
// given neighbor AS (a full peering reset): the spike pattern of the
// paper's Figure 8 and the short-timescale anomaly class of §III-B.
func SessionResetScenario(site *Site, baseline []SiteRoute, neighborAS uint32, downFor time.Duration, start time.Time) *Scenario {
	sc := &Scenario{Name: "session-reset", Site: site, Baseline: baseline}
	seen := map[netip.Prefix]bool{}
	now := start
	for _, r := range baseline {
		if r.Attachment.NeighborAS != neighborAS {
			continue
		}
		sc.Events = append(sc.Events, withdraw(r, now))
		now = now.Add(2 * time.Millisecond)
		if !seen[r.Prefix] {
			seen[r.Prefix] = true
			sc.MovedPrefixes = append(sc.MovedPrefixes, r.Prefix)
		}
	}
	reup := start.Add(downFor)
	for _, r := range baseline {
		if r.Attachment.NeighborAS != neighborAS {
			continue
		}
		sc.Events = append(sc.Events, announce(r, reup))
		reup = reup.Add(2 * time.Millisecond)
	}
	sc.StemASFrom = 0
	sc.StemASTo = neighborAS
	return sc
}

// NoiseStream spreads uncorrelated single-prefix churn (the "grass" of
// Figure 8) from start: random baseline routes get a withdraw/re-announce
// pair with a slightly perturbed path. Withdraws fall in
// [start, start+over); each re-announce follows its withdraw by
// 0.5–2.5 s, so the stream can run up to 2.5 s past start+over.
func NoiseStream(baseline []SiteRoute, n int, over time.Duration, start time.Time, seed int64) event.Stream {
	if len(baseline) == 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make(event.Stream, 0, n)
	for i := 0; i < n; i += 2 {
		r := baseline[rng.Intn(len(baseline))]
		at := start.Add(time.Duration(rng.Int63n(int64(over))))
		out = append(out, withdraw(r, at))
		if i+1 < n {
			out = append(out, announce(r, at.Add(time.Duration(rng.Intn(2000)+500)*time.Millisecond)))
		}
	}
	out.SortByTime()
	return out
}

// HijackScenario generates the introduction's route-hijacking anomaly: an
// attacker AS adjacent to CalREN announces `victims` prefixes it does not
// originate, with a shorter path that wins the decision process. The
// prefixes black-hole until the hijack is withdrawn. Ground truth: MOAS
// conflicts between the true origins and ASHijacker on every victim
// prefix.
func HijackScenario(b *BerkeleySite, victims int, start time.Time) *Scenario {
	if victims <= 0 {
		victims = 20
	}
	baseline := b.BaselineRoutes()
	routing := b.Routing()
	sc := &Scenario{
		Name: "hijack", Site: b.Site, Baseline: baseline,
		StemASFrom: ASCalREN, StemASTo: ASHijacker,
	}
	// Victims: commodity prefixes currently reached over long paths.
	seen := map[netip.Prefix]bool{}
	var targets []SiteRoute
	for _, r := range baseline {
		if len(targets) >= victims {
			break
		}
		if r.Attrs.ASPath.Length() >= 3 && !seen[r.Prefix] {
			seen[r.Prefix] = true
			targets = append(targets, r)
		}
	}
	now := start
	for _, att := range b.Attachments {
		for _, victim := range targets {
			hijacked, ok := b.Site.routeWithPath(routing, att, victim.Prefix,
				[]uint32{ASCalREN, ASHijacker})
			if !ok {
				continue
			}
			now = now.Add(20 * time.Millisecond)
			sc.Events = append(sc.Events, announce(hijacked, now))
			sc.MovedPrefixes = append(sc.MovedPrefixes, victim.Prefix)
		}
	}
	// The hijack is caught and withdrawn; originals return.
	now = now.Add(10 * time.Minute)
	for _, att := range b.Attachments {
		for _, victim := range targets {
			orig, ok := b.Site.routeVia(routing, att, OriginatedPrefix{
				Prefix: victim.Prefix, Origin: victim.Attrs.ASPath.OriginAS(),
			})
			if !ok {
				continue
			}
			now = now.Add(20 * time.Millisecond)
			sc.Events = append(sc.Events, announce(orig, now))
		}
	}
	return sc
}
