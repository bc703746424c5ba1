package experiments

import (
	"fmt"

	"relmac/internal/frames"
	"relmac/internal/metrics"
	"relmac/internal/report"
	"relmac/internal/traffic"
)

// This file holds the extension studies beyond the paper's evaluation:
// the mobility sweep (random waypoint; the paper is static-only), the
// LAMM location-error sweep (the paper assumes GPS accuracy suffices)
// and the §5 frame-overhead count. Like the paper's figures they are
// Sweeps over Run, so every Options field, the Watch and the progress
// meter included, reaches them.

// MobilitySpeeds are the node speeds swept by the mobility study, in
// unit-square units per slot. At the paper's scale (radius 0.2 ≈ 500 ft)
// 0.001/slot corresponds to crossing half a radio radius within a
// message's 100-slot lifetime.
var MobilitySpeeds = []float64{0, 0.0005, 0.001, 0.002, 0.004}

// GPSSigmas are the location-error standard deviations swept by the
// location-error study (unit-square units; the radio radius is 0.2).
var GPSSigmas = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2}

// mobilityStudy sweeps node speed (RunConfig.Speed) for every protocol and
// reports the successful delivery rate — the extension study of
// DESIGN.md §22. Speed 0 is the static Table 2 run; moving runs refresh
// the topology every beacon period (50 slots).
func mobilityStudy(o Options) ([]Output, error) {
	return sweepAxis(o, len(MobilitySpeeds), func(p int, cfg *RunConfig) { cfg.Speed = MobilitySpeeds[p] },
		"speed (units/slot)", labels("%g", MobilitySpeeds),
		plot{title: "Extension: successful delivery rate vs node speed (random waypoint)", value: successRate,
			note: fmt.Sprintf("beacon/topology refresh every %d slots; membership staleness dominates", beaconEvery)})
}

// locationError sweeps LAMM's GPS-error standard deviation
// (Fault.LocNoise) and reports the successful delivery rate and the
// fraction of intended receivers actually reached — the location-error
// study of DESIGN.md §20. The sweep owns the LocNoise axis; any other
// impairment in o.Fault rides along.
func locationError(o Options) ([]Output, error) {
	o.Protocols = []Protocol{LAMM}
	results, err := Sweep(o, len(GPSSigmas), func(p int, cfg *RunConfig) {
		cfg.Fault.LocNoise = GPSSigmas[p]
	}, false)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Extension: LAMM under GPS location error",
		"sigma", "sigma/radius", "delivery rate", "receivers reached")
	for pi, sg := range GPSSigmas {
		cell := &results[pi][0]
		tb.AddRow(fmt.Sprintf("%g", sg), fmt.Sprintf("%.0f%%", 100*sg/0.2),
			cell.SuccessRate.Mean(), cell.MeanDeliveredFraction.Mean())
	}
	tb.Note = "flat curves support the paper's claim that geolocation accuracy suffices"
	return []Output{{Table: tb}}, nil
}

// overhead measures the §5 claim that LAMM "significantly reduces the
// number of RTS, CTS, RAK and ACK frames" relative to BMMM: control and
// data frames transmitted per completed group message, under a pure
// multicast/broadcast workload (no unicast, so every frame counted
// belongs to group service).
func overhead(o Options) ([]Output, error) {
	o = o.normal()
	results, err := Sweep(o, 1, func(_ int, cfg *RunConfig) {
		cfg.Mix = traffic.Mix{Multicast: 0.5, Broadcast: 0.5}
	}, true)
	if err != nil {
		return nil, err
	}
	types := []frames.Type{frames.RTS, frames.CTS, frames.Data, frames.ACK, frames.RAK, frames.NAK}
	tb := report.NewTable("Extension: frames transmitted per completed group message",
		"protocol", "RTS", "CTS", "DATA", "ACK", "RAK", "NAK")
	for pr, p := range o.Protocols {
		cell := &results[0][pr]
		perMsg := make([]metrics.Sample, len(types))
		for _, col := range cell.Collectors {
			// CompletedCount does not depend on the threshold.
			done := float64(col.Summarize(1, metrics.GroupFilter(cell.Horizon)).CompletedCount)
			if done == 0 {
				continue
			}
			for i, t := range types {
				perMsg[i].Add(float64(col.FrameCount(t)) / done)
			}
		}
		row := []interface{}{string(p)}
		for i := range perMsg {
			row = append(row, perMsg[i].Mean())
		}
		tb.AddRow(row...)
	}
	tb.Note = "pure group workload (no unicast); paper §5 predicts LAMM ≪ BMMM on control frames"
	return []Output{{Table: tb}}, nil
}
