package experiments

import (
	"relmac/internal/fault"
)

// This file holds the fault-model sweeps: the paper evaluates on a
// collision-only channel, so these extend the study to lossy and bursty
// links. The reliable protocols should hold their delivery ratio by
// paying extra contention phases — graceful degradation — while the
// unreliable floor (802.11) loses receivers silently.

// FaultPERs are the i.i.d. per-link packet error rates swept by the
// fault study.
var FaultPERs = []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}

// FaultProtocols is the default comparison set for the fault sweeps:
// the per-receiver baseline and the two batch protocols, whose
// retransmission loops are what the impairments stress.
var FaultProtocols = []Protocol{BMW, BMMM, LAMM}

// faultPER sweeps the i.i.d. packet error rate and reports, per
// protocol, the fraction of intended receivers reached and the mean
// number of contention phases per message. Any impairment already in
// o.Fault (bursty links, crashes) is kept, with only the PER axis
// overridden per point.
func faultPER(o Options) ([]Output, error) {
	if len(o.Protocols) == 0 {
		o.Protocols = FaultProtocols
	}
	return sweepAxis(o, len(FaultPERs), func(p int, cfg *RunConfig) { cfg.Fault.PER = FaultPERs[p] },
		"PER", labels("%g", FaultPERs),
		plot{title: "Fault study: fraction of intended receivers reached vs packet error rate", value: reached,
			note: "reliable protocols hold delivery by retransmitting; the extra contention phases are the price"},
		plot{title: "Fault study: avg contention phases vs packet error rate", value: contentions})
}

// faultBurst compares each protocol on a clean channel, under i.i.d.
// loss, and under a Gilbert–Elliott bursty channel with the same
// long-run loss rate, isolating the effect of burstiness from the
// effect of loss. The GE chain uses p(G→B)=0.05, p(B→G)=0.45 (mean
// burst 2.2 slots, 10% of slots bad) with PER 1 in the bad state —
// long-run loss ≈ 10%, matching the i.i.d. column's PER 0.1.
func faultBurst(o Options) ([]Output, error) {
	if len(o.Protocols) == 0 {
		o.Protocols = FaultProtocols
	}
	channels := []string{"clean", "iid PER 0.1", "GE burst (10% bad)"}
	configs := []fault.Config{{}, {PER: 0.1}, {GE: fault.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.45, PERBad: 1}}}
	return sweepAxis(o, len(configs), func(p int, cfg *RunConfig) { cfg.Fault = configs[p] },
		"channel", labels("%s", channels),
		plot{title: "Fault study: receivers reached, i.i.d. vs bursty loss at equal rate", value: reached,
			note: "equal long-run loss; differences isolate burst correlation"})
}
