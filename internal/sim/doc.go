// Package sim implements the slotted wireless-LAN simulator the paper
// built to evaluate its protocols (§7): time advances in slots, every
// station runs a MAC state machine, and the radio channel resolves
// per-receiver reception, collisions, hidden terminals and (optionally)
// direct-sequence capture.
//
// # Channel model
//
// A transmission occupies a contiguous range of slots. In every slot the
// engine collects, for each station, the set of signals arriving from
// in-range transmitters:
//
//   - a station that is itself transmitting hears nothing (half duplex);
//   - exactly one arriving signal leaves the corresponding frame
//     decodable for that slot;
//   - two or more arriving signals collide: every overlapping frame is
//     corrupted at that receiver unless the capture model lets the
//     strongest (nearest) one survive.
//
// A frame is delivered to a receiver only if every slot of its airtime
// was decodable there, together with the receiver's role in it (Rx):
// addressed (Dst), a group member (Group), both or neither. The engine
// computes the role once per frame; a frame with no role for the
// receiver is a pure overhear, which only raises the receiver's NAV and
// never reaches its MAC, so it never wakes a sleeping station.
//
// Carrier sense is physical: a station senses the medium busy when a
// transmission that started in an *earlier* slot is still in the air
// within its range. Transmissions starting in the same slot are mutually
// invisible — the classic collision vulnerability window of CSMA. The
// engine also answers how long the medium has been idle at a station
// (Env.IdleFor, the DIFS rule), counting only the slots the station was
// up, so no MAC keeps its own channel history.
//
// Virtual carrier sense is the engine's too. Every clean frame that
// announces a Duration and is not directed at a station — not addressed
// to it, and not a DATA frame naming it in the group — raises that
// station's NAV, kept per exchange so that a station can tell another
// exchange's reservation (it refuses to answer, Figure 3) from the one of
// the exchange polling it (Env.Yielding, Env.YieldingToOther). Two
// entries per station make that exact: the reservation reaching
// furthest, and the furthest among the other exchanges. With
// Config.ExposedTerminal (the paper's §8 future work) an overheard RTS
// whose receivers are all out of the station's range reserves only the
// CTS turnaround.
//
// # Determinism
//
// The engine is deterministic for a fixed seed: stations are ticked in
// ID order and all engine randomness (MAC backoff, capture)
// flows from a single PRNG. Traffic sources own their randomness and
// never see it (Source). Everything on
// the slot loop is subject to the relmaclint serial-path checks
// (simsafe, determinism): no goroutines, no sync.Pool, no wall clocks.
//
// # Hot path
//
// The engine carries several optimizations that change no output bit:
//
//   - idle-station scheduling: MACs implementing Sleeper are skipped
//     while quiescent and find nothing to catch up on wake, since the
//     DIFS idle run is the engine's (Env.IdleFor); the awake worklist is
//     kept sorted incrementally (binary insert on wake, compaction as
//     stations fall asleep) instead of rebuilt;
//   - the event clock: Run jumps the slot counter straight to the next
//     slot at which anything can happen — the earliest scheduled
//     arrival (EventSource), wake obligation (a crash/recover
//     transition announced by Impairment.Crash) or run target — whenever
//     the whole network is asleep and the air is clear, instead of
//     ticking empty slots one by one;
//   - engine-owned crash state: each station's up/down state is an
//     array entry flipped at its announced transitions, so neither the
//     tick loop nor the receiver loop calls the impairment, and a
//     completed frame costs one Impairment.Erase call for all of its
//     receivers;
//   - a structure-of-arrays transmission table: the per-transmission
//     hot scalars (sender, start, end, generation) live in parallel
//     slices that resolveSlot, computeBusy and completeSlot stream
//     through, with corruption masks recycled in place of the former
//     record free-list.
//
// All of them are gated by Config.Reference, which forces the original
// naive path; the equivalence tests drive both paths to identical
// transcripts. Two more serve both paths alike, each pinned by a
// differential test against the naive computation it replaced: the
// receiver roles (one group-marking pass per frame instead of a group
// scan per receiver) and flat signal collection (a station's first
// signal of the slot sits in a per-station array; its signal slices
// are touched only from the second signal on). Skipped idle spans draw
// nothing from the PRNG and are reported to each slot subscriber as one
// EvIdleSpan event, exactly equivalent to the per-slot EvSlot events
// with no airing of the reference path.
//
// # Events
//
// Every engine event is an Event — an EventKind plus payload — handed
// to the one hook method, Observer.Observe. The 14 kinds fall into four
// groups: message events (submit, contention, frame-tx, data-rx, round,
// complete, abort), service detail (service-start, round-start,
// response-drop), channel state (slot, idle-span) and per-receiver
// outcomes (rx-ok, rx-lost). Config has one subscription list,
// Observers, and each entry declares the kinds it wants in
// Observer.Kinds, a KindSet. New reads the sets once and keeps one
// fan-out list per kind, in registration order. Every event goes out
// through one engine helper, emit: it copies the event into the
// engine's one scratch Event and ranges over its kind's list, passing
// each subscriber a pointer, charged to PhaseObserver, with no
// allocation, so a kind nobody subscribed to costs one length check.
// The event is valid only during the call and is read-only
// (hookpure-checked). A new event is a new EventKind, not a new
// interface. The Request every message event carries is the one record
// of the message: the engine numbers it at submission, whatever Source
// made it, and keeps its contention, round and residual counts there
// (see Request) for observers to read, never write (hookpure-checked).
//
// # Entry points
//
// New builds an Engine from a Config; SetMAC/AttachMACs install the
// per-station protocol state machines; Run/Step advance the clock. Env
// is the window a MAC sees; its Report* methods emit the events only a
// MAC can know. The instrumentation surfaces are the Observers list, one
// SlotHook and one Profiler; relmaclint's hookpure check
// holds every Observer and Profiler implementation to PRNG and
// engine-state neutrality. The SlotHook is exempt: its job is to move
// stations (mobility).
package sim
