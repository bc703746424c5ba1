// Package traffic generates the workload of the paper's simulations
// (§7, Table 2): every node independently generates a message per slot
// with probability equal to the message generation rate (default
// 0.0005/node/slot), and each message is a unicast with probability 0.2,
// a multicast with probability 0.4 and a broadcast with probability 0.4.
// Messages carry an upper-layer timeout (default 100 slots).
//
// # Arrival sampling
//
// Generator samples that Bernoulli law as its equivalent renewal
// process: geometric inter-arrival gaps over the slot-major, node-minor
// lattice of (slot, node) points, drawn only when an arrival fires.
// Empty slots consume nothing, and NextArrival announces the next
// firing slot, which is what lets the engine's event clock
// (sim.EventSource) jump whole idle stretches in every run that has no
// per-slot hook.
//
// # Determinism
//
// A Generator draws only from the *rand.Rand it is built with, and
// nothing else may draw from that stream while it runs; the package
// never reads the clock or the engine PRNG. The arrival sequence is
// therefore a function of that stream alone: every protocol run against
// a generator seeded the same way sees the same requests, however the
// protocol consumes the engine PRNG. Arrival order within a slot is
// node-ID order.
//
// # Entry points
//
// NewGenerator builds the Table 2 workload on a topology; Script is the
// deterministic fixed-schedule source for tests and examples. Both
// implement sim.EventSource.
package traffic
