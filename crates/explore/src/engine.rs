//! The layer-synchronous parallel BFS engine.
//!
//! States are admitted once into a pluggable [`StateStore`] arena;
//! everything else — the spanning-tree links, the frontier itself (a
//! contiguous id range per layer) — carries dense `u32` ids. The store
//! is frozen while workers expand a layer: membership for admitted
//! states is a read-only store lookup, and intra-layer discoveries are
//! coordinated through the lock-free [`LayerFilter`]. The store grows
//! only at the layer barrier, where the engine merges worker-local
//! overflow claims with the drained filter, sorts by minimal claim key,
//! and admits in that deterministic order.
//!
//! Each worker expands an edge in place: it steps one scratch copy of
//! the parent with [`Automaton::step_in_place`] (pick `i` is
//! `successors()[i]`), probes the store and the filter with the
//! *borrowed* result (the packed backend encodes into one reused
//! per-worker buffer), and puts the scratch back with
//! [`Automaton::restore`]. An owned representation is built only for a
//! state the filter publishes or overflows, and the worker that builds it
//! also evaluates the properties on the state it holds and records any
//! failure, so the barrier picks the first violator in claim-key order
//! without decoding anything. A steady-state expansion therefore
//! allocates only for genuinely new states, plus whatever the
//! automaton's own in-place steps allocate.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dl_obs::Stopwatch;
use ioa::Automaton;

use crate::property::{Invariant, Property, TraceProperty};
use crate::report::{ExploreReport, LayerStats, Truncation, Violation};
use crate::shard::{ClaimKey, Claimed, LayerFilter, PendingState};
use crate::store::{ExploreBackend, PackedBackend, PlainBackend, StateStore};

/// Root marker in the spanning-tree link arrays.
const NO_LINK: u32 = u32::MAX;

/// The claim representation a backend's store circulates.
type ReprOf<B, S> = <<B as ExploreBackend<S>>::Store as StateStore<S>>::Repr;

/// A new state some property fails on, as recorded by the worker that
/// built its representation: its hash, its representation and the
/// index of the first failing property. Equal states share a verdict,
/// so which claim recorded it does not matter.
struct Violator<R> {
    hash: u64,
    repr: R,
    property: usize,
}

/// What one worker hands back from a layer expansion: its local stats,
/// the claims the lock-free filter could not decide (merged at the
/// barrier), and the violators it found.
struct WorkerOutcome<R> {
    stats: WorkerStats,
    overflow: Vec<PendingState<R>>,
    violators: Vec<Violator<R>>,
}

#[derive(Default, Clone, Copy)]
struct WorkerStats {
    quiescent: usize,
    edges: u64,
    duplicates: u64,
}

impl WorkerStats {
    fn merge(self, other: WorkerStats) -> WorkerStats {
        WorkerStats {
            quiescent: self.quiescent + other.quiescent,
            edges: self.edges + other.edges,
            duplicates: self.duplicates + other.duplicates,
        }
    }
}

/// Parallel breadth-first explorer over an automaton's reachable states.
///
/// Drop-in generalization of [`ioa::Explorer`]: same constructor shape
/// (`automaton`, permitted-inputs closure, state and depth budgets), plus
/// [`threads`](ParallelExplorer::threads) /
/// [`shards`](ParallelExplorer::shards) controls, pluggable state
/// storage ([`packed`](ParallelExplorer::packed) swaps the struct arena
/// for bit-packed encodings), and multi-property search via
/// [`check_properties_from`](ParallelExplorer::check_properties_from).
pub struct ParallelExplorer<M, I, B = PlainBackend> {
    automaton: M,
    /// Environment inputs permitted in a given state.
    inputs: I,
    max_states: usize,
    max_depth: usize,
    threads: usize,
    shards: usize,
    backend: B,
}

impl<M, I> ParallelExplorer<M, I, PlainBackend> {
    /// Creates an explorer over the default plain (full-struct) storage.
    /// `inputs(state)` returns the environment input actions to consider
    /// from `state` (return an empty vector for a closed system). Thread
    /// count defaults to the machine's available parallelism.
    pub fn new(automaton: M, inputs: I, max_states: usize, max_depth: usize) -> Self {
        ParallelExplorer {
            automaton,
            inputs,
            max_states,
            max_depth,
            threads: 0,
            shards: 64,
            backend: PlainBackend,
        }
    }
}

impl<M, I, B> ParallelExplorer<M, I, B> {
    /// Sets the worker thread count; `0` means available parallelism.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the claim-filter segment count (rounded up to a power of
    /// two).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Swaps the state-storage backend, keeping every other setting.
    pub fn with_backend<B2>(self, backend: B2) -> ParallelExplorer<M, I, B2> {
        ParallelExplorer {
            automaton: self.automaton,
            inputs: self.inputs,
            max_states: self.max_states,
            max_depth: self.max_depth,
            threads: self.threads,
            shards: self.shards,
            backend,
        }
    }

    /// Stores states as packed canonical encodings ([`PackedBackend`]):
    /// same admitted states, same ids, same verdicts — a fraction of the
    /// arena bytes. Requires `M::State: PackedCodec`.
    pub fn packed(self) -> ParallelExplorer<M, I, PackedBackend> {
        self.with_backend(PackedBackend)
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

impl<M, I, B> ParallelExplorer<M, I, B>
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
    I: Fn(&M::State) -> Vec<M::Action> + Sync,
    B: ExploreBackend<M::State> + Sync,
{
    /// Explores breadth-first from the automaton's start states, checking
    /// `invariant` on every admitted state (start states included).
    pub fn check_invariant(
        &self,
        invariant: impl Fn(&M::State) -> bool + Sync,
    ) -> ExploreReport<M::Action, M::State> {
        self.check_invariant_from(self.automaton.start_states(), invariant)
    }

    /// Like [`check_invariant`](Self::check_invariant) but explores from
    /// the given states — useful when a fixed environment prefix (e.g.
    /// waking the media) should be applied before exploration begins.
    pub fn check_invariant_from(
        &self,
        starts: Vec<M::State>,
        invariant: impl Fn(&M::State) -> bool + Sync,
    ) -> ExploreReport<M::Action, M::State> {
        let invariant = Invariant::new("invariant", invariant);
        self.check_properties_from(starts, &[&invariant])
    }

    /// Counts reachable states (no properties), for sizing studies.
    pub fn reachable_states(&self) -> ExploreReport<M::Action, M::State> {
        self.check_properties_from(self.automaton.start_states(), &[])
    }

    /// Explores breadth-first from `starts`, checking every property on
    /// every admitted state. Stops at the end of the first layer
    /// containing a violation and reports the violating state with the
    /// minimal claim — both independent of the thread count.
    pub fn check_properties_from(
        &self,
        starts: Vec<M::State>,
        properties: &[&dyn Property<M::State>],
    ) -> ExploreReport<M::Action, M::State> {
        self.check_traced_from(starts, properties, &())
    }

    /// Like [`check_properties_from`](Self::check_properties_from), with a
    /// [`TraceProperty`] additionally threaded along the BFS spanning
    /// tree: each admitted state carries the monitor state of the
    /// deterministic minimal-claim path that reached it, and a monitor
    /// violation counts like a state-property violation (checked after
    /// the state properties on each admitted state, in the same
    /// deterministic order, so verdict, counterexample, and counts remain
    /// thread-count-independent).
    ///
    /// Trace violations found this way are genuine — the reported path
    /// replays them — but their *absence* is conclusive only for the
    /// spanning-tree paths, not all interleavings (see [`TraceProperty`]).
    pub fn check_traced_from<TP>(
        &self,
        starts: Vec<M::State>,
        properties: &[&dyn Property<M::State>],
        trace: &TP,
    ) -> ExploreReport<M::Action, M::State>
    where
        TP: TraceProperty<M::Action>,
    {
        let t0 = Instant::now();
        let threads = self.effective_threads();
        let mut store = self.backend.new_store();
        // Spanning-tree links, parallel to the arena: `parents[i]` /
        // `action_idx[i]` name the minimal claim that admitted state `i`
        // (`NO_LINK` for roots). Actions are never stored — the index
        // resolves against the parent's deterministic action list.
        let mut parents: Vec<u32> = Vec::new();
        let mut action_idx: Vec<u32> = Vec::new();
        // Trace-monitor states, parallel to the arena. Stepping happens
        // at admission time (single-threaded, between layers), so workers
        // never touch this.
        let mut tstates: Vec<TP::State> = Vec::new();

        // Admit the start states, then check them in admission order.
        let mut buf = Vec::new();
        let mut start_failed = Vec::new();
        for state in &starts {
            let (hash, key) = store.probe(state, &mut buf);
            if store.lookup(hash, key).is_none() {
                let repr = store.to_repr(key);
                store.intern_new(hash, repr);
                parents.push(NO_LINK);
                action_idx.push(NO_LINK);
                tstates.push(trace.start());
                start_failed.push(first_failing(properties, state));
            }
        }
        for (i, (failed, tstate)) in start_failed.into_iter().zip(&tstates).enumerate() {
            let failed = failed
                .map(|p| properties[p].name().to_string())
                .or_else(|| trace_violation(trace, tstate));
            if let Some(property) = failed {
                return ExploreReport {
                    states_visited: store.len(),
                    truncation: None,
                    violation: Some(Violation {
                        path: vec![],
                        state: store.load(i as u32).into_owned(),
                        property,
                    }),
                    quiescent_states: 0,
                    layers: vec![],
                    threads,
                    arena_bytes: store.approx_bytes(),
                    duration: t0.elapsed(),
                    barrier_nanos: 0,
                };
            }
        }

        let mut layers: Vec<LayerStats> = Vec::new();
        let mut quiescent = 0usize;
        // Wall-clock spent single-threaded at layer barriers (merging
        // claims, admitting states, checking properties) — the stall the
        // workers sit out. Zero (and free) without the `obs` feature.
        let mut barrier_nanos = 0u64;
        let mut truncation: Option<Truncation> = None;
        let mut violation: Option<Violation<M::Action, M::State>> = None;
        let mut layer_start = 0usize;
        let mut depth = 0usize;
        // Scratch for admission-time action resolution, reused across
        // layers (claims are sorted, so one rebuild per distinct parent).
        let mut cached_parent: u32;
        let mut parent_actions: Vec<M::Action> = Vec::new();

        loop {
            let layer_end = store.len();
            if layer_start == layer_end {
                break;
            }
            if depth >= self.max_depth {
                // Mirror the sequential explorer: a non-empty frontier at
                // the depth budget means the verdict is inconclusive.
                truncation = Some(Truncation::DepthBudget);
                break;
            }

            let frontier = layer_end - layer_start;
            // Thin layers are not worth fanning out: the spawn cost would
            // exceed the expansion work, and expansion order is
            // irrelevant to the result either way.
            let fan_out = if frontier < threads * 4 { 1 } else { threads };
            let counter = AtomicUsize::new(layer_start);
            let chunk = (frontier / (fan_out * 8)).max(1);
            // Fresh claim filter per layer, generously sized from the
            // frontier; undersizing is safe (claims overflow, the
            // barrier merge stays exact).
            let mut filter: LayerFilter<ReprOf<B, M::State>> =
                LayerFilter::new(frontier * 8 + 64, self.shards);
            let expand =
                || self.expand_worker(&store, layer_end, chunk, &counter, &filter, properties);

            let WorkerOutcome {
                stats,
                overflow,
                violators,
            } = if fan_out == 1 {
                expand()
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..fan_out).map(|_| scope.spawn(expand)).collect();
                    let mut all = WorkerOutcome {
                        stats: WorkerStats::default(),
                        overflow: Vec::new(),
                        violators: Vec::new(),
                    };
                    for handle in handles {
                        let mut one = handle.join().expect("explore worker panicked");
                        all.stats = all.stats.merge(one.stats);
                        all.overflow.append(&mut one.overflow);
                        all.violators.append(&mut one.violators);
                    }
                    all
                })
            };
            quiescent += stats.quiescent;

            let barrier_sw = Stopwatch::start();
            // Merge overflow claims into the drained filter entries. The
            // hash index is only ever *probed* (never iterated), and
            // min/set-union are order-independent, so the merged entry
            // set and keys do not depend on scheduling. Most layers have
            // no overflow, and then build no index either.
            let mut entries = filter.drain();
            let mut merged_dups = 0u64;
            if !overflow.is_empty() {
                let mut index: HashMap<u64, Vec<usize>> = HashMap::with_capacity(entries.len());
                for (i, entry) in entries.iter().enumerate() {
                    index.entry(entry.hash).or_default().push(i);
                }
                for pending in overflow {
                    let slots = index.entry(pending.hash).or_default();
                    let same = |&&i: &&usize| entries[i].repr.borrow() == pending.repr.borrow();
                    if let Some(&i) = slots.iter().find(same) {
                        merged_dups += 1;
                        if pending.key < entries[i].key {
                            entries[i].key = pending.key;
                        }
                    } else {
                        slots.push(entries.len());
                        entries.push(pending);
                    }
                }
            }
            // Claim keys are unique (one entry per distinct state, and
            // distinct states that share a parent differ in action or
            // successor index), so this order is total and deterministic.
            entries.sort_unstable_by_key(|entry| entry.key);
            let room = self.max_states.saturating_sub(store.len());
            if entries.len() > room {
                truncation = Some(Truncation::StateBudget);
                // The filter dies with the layer, so dropped states are
                // naturally rediscoverable later.
                entries.truncate(room);
            }
            layers.push(LayerStats {
                depth,
                frontier,
                discovered: entries.len(),
                edges: stats.edges,
                duplicates: stats.duplicates + merged_dups,
            });

            let admitted_start = store.len();
            let mut trace_violator: Option<(usize, String)> = None;
            cached_parent = NO_LINK;
            for PendingState { key, hash, repr } in entries {
                // Resolve the admitting action only when a real trace
                // property needs it: rebuild the parent's deterministic
                // action list once per parent (claims arrive
                // parent-grouped) and index it.
                let tstate = if trace.is_vacuous() {
                    trace.start()
                } else {
                    if key.parent != cached_parent {
                        cached_parent = key.parent;
                        self.enumerate_actions(&store.load(key.parent), &mut parent_actions);
                    }
                    trace.step(
                        &tstates[key.parent as usize],
                        &parent_actions[key.action as usize],
                    )
                };
                if trace_violator.is_none() {
                    trace_violator =
                        trace_violation(trace, &tstate).map(|name| (store.len(), name));
                }
                store.intern_new(hash, repr);
                parents.push(key.parent);
                action_idx.push(key.action);
                tstates.push(tstate);
            }

            // Ids follow claim-key order, so the violator with the least
            // id is the first one for every thread count. A state
            // property outranks the trace property on the same state. A
            // violator cut by the state budget has no id and is skipped,
            // like every state the budget cuts.
            let state_violator = violators
                .iter()
                .filter_map(|v| {
                    let id = store.lookup(v.hash, v.repr.borrow())?;
                    Some((id as usize, 0, v.property))
                })
                .min()
                .map(|(id, rank, p)| (id, rank, properties[p].name().to_string()));
            let first_violator = state_violator
                .into_iter()
                .chain(trace_violator.map(|(id, name)| (id, 1, name)))
                .min_by_key(|&(id, rank, _)| (id, rank));
            if let Some((idx, _, property)) = first_violator {
                violation = Some(Violation {
                    path: self.reconstruct_path(&store, &parents, &action_idx, idx),
                    state: store.load(idx as u32).into_owned(),
                    property,
                });
            }
            barrier_nanos += barrier_sw.elapsed_nanos();
            if violation.is_some() {
                break;
            }

            layer_start = admitted_start;
            depth += 1;
        }

        ExploreReport {
            states_visited: store.len(),
            truncation,
            violation,
            quiescent_states: quiescent,
            layers,
            threads,
            arena_bytes: store.approx_bytes(),
            duration: t0.elapsed(),
            barrier_nanos,
        }
    }

    /// One worker's share of a layer expansion: steal frontier chunks,
    /// enumerate each state's actions, and expand every edge in place —
    /// step a scratch copy of the parent by pick `i`, dedup the borrowed
    /// successor against the frozen store, claim genuinely new
    /// discoveries in the lock-free layer filter (building their owned
    /// representation and property verdict only then), and restore the
    /// scratch. Claims the filter cannot decide go to the returned
    /// overflow list, merged exactly at the barrier.
    fn expand_worker(
        &self,
        store: &B::Store,
        layer_end: usize,
        chunk: usize,
        counter: &AtomicUsize,
        filter: &LayerFilter<ReprOf<B, M::State>>,
        properties: &[&dyn Property<M::State>],
    ) -> WorkerOutcome<ReprOf<B, M::State>> {
        let mut stats = WorkerStats::default();
        let mut overflow = Vec::new();
        let mut violators = Vec::new();
        let mut actions: Vec<M::Action> = Vec::new();
        // The copy of the current parent every edge steps and restores,
        // and the packed backend's encoding buffer.
        let mut scratch: Option<M::State> = None;
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let begin = counter.fetch_add(chunk, Ordering::Relaxed);
            if begin >= layer_end {
                break;
            }
            let end = (begin + chunk).min(layer_end);
            for idx in begin..end {
                let parent = store.load(idx as u32);
                self.enumerate_actions(&parent, &mut actions);
                if actions.is_empty() {
                    stats.quiescent += 1;
                    continue;
                }
                match &mut scratch {
                    Some(s) => s.clone_from(&parent),
                    None => scratch = Some(M::State::clone(&parent)),
                }
                let work = scratch.as_mut().expect("scratch holds the parent");
                for (ai, action) in actions.iter().enumerate() {
                    // Pick `si` of `n` is `successors()[si]`; the count is
                    // learned from the first pick.
                    let (mut si, mut n) = (0usize, 1usize);
                    while si < n {
                        let stepped = self.automaton.step_in_place(work, action, &mut |count| {
                            n = count;
                            Some(si)
                        });
                        if !stepped {
                            break;
                        }
                        stats.edges += 1;
                        let key = ClaimKey {
                            parent: idx as u32,
                            action: ai as u32,
                            succ: si as u32,
                        };
                        let (hash, probe) = store.probe(work, &mut buf);
                        if store.lookup(hash, probe).is_some() {
                            stats.duplicates += 1;
                        } else {
                            let claimed = filter.claim(
                                hash,
                                key,
                                |r| r.borrow() == probe,
                                || {
                                    if let Some(property) = first_failing(properties, work) {
                                        violators.push(Violator {
                                            hash,
                                            repr: store.to_repr(probe),
                                            property,
                                        });
                                    }
                                    store.to_repr(probe)
                                },
                            );
                            match claimed {
                                Claimed::New => {}
                                Claimed::Duplicate => stats.duplicates += 1,
                                Claimed::Overflow(repr) => {
                                    overflow.push(PendingState { key, hash, repr });
                                }
                            }
                        }
                        self.automaton.restore(work, &parent, action);
                        si += 1;
                    }
                }
            }
        }
        WorkerOutcome {
            stats,
            overflow,
            violators,
        }
    }

    /// Fills `into` with `state`'s deterministic action list: the enabled
    /// locally controlled actions, then the permitted environment inputs.
    /// Claim keys, admission-time trace labels, and lazy counterexample
    /// reconstruction all index this one list.
    fn enumerate_actions(&self, state: &M::State, into: &mut Vec<M::Action>) {
        into.clear();
        let _ = self.automaton.for_each_enabled_local(state, &mut |a| {
            into.push(a);
            ControlFlow::Continue(())
        });
        into.extend((self.inputs)(state));
    }

    /// Follows spanning-tree links from `idx` back to a root, resolving
    /// each stored action *index* against the parent's re-enumerated
    /// action list — labels are materialized lazily, only for the one
    /// reported path, and identically to what the workers enumerated.
    fn reconstruct_path(
        &self,
        store: &B::Store,
        parents: &[u32],
        action_idx: &[u32],
        mut idx: usize,
    ) -> Vec<M::Action> {
        let mut path = Vec::new();
        let mut acts: Vec<M::Action> = Vec::new();
        while parents[idx] != NO_LINK {
            let parent = parents[idx] as usize;
            self.enumerate_actions(&store.load(parent as u32), &mut acts);
            path.push(acts.swap_remove(action_idx[idx] as usize));
            idx = parent;
        }
        path.reverse();
        path
    }
}

/// Index of the first property (in order) that `state` violates.
fn first_failing<S>(properties: &[&dyn Property<S>], state: &S) -> Option<usize> {
    properties.iter().position(|p| !p.holds(state))
}

/// The trace property's verdict on a threaded monitor state, labelled
/// `name: description` for the violation report.
fn trace_violation<A, TP: TraceProperty<A>>(trace: &TP, tstate: &TP::State) -> Option<String> {
    trace
        .violation(tstate)
        .map(|desc| format!("{}: {desc}", trace.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioa::{ActionClass, Explorer, TaskId};

    /// Counter modulo `n` with an input `Bump` and output `Tick` — the
    /// same model the sequential explorer's unit tests use.
    #[derive(Clone)]
    struct Counter {
        n: u8,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Bump,
        Tick,
    }

    impl Automaton for Counter {
        type Action = Act;
        type State = u8;

        fn start_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Some(match a {
                Act::Bump => ActionClass::Input,
                Act::Tick => ActionClass::Output,
            })
        }
        fn successors(&self, s: &u8, a: &Act) -> Vec<u8> {
            match a {
                Act::Bump => vec![(s + 1) % self.n],
                Act::Tick => {
                    if s.is_multiple_of(2) {
                        vec![(s + 2) % self.n]
                    } else {
                        vec![]
                    }
                }
            }
        }
        fn enabled_local(&self, s: &u8) -> Vec<Act> {
            if s.is_multiple_of(2) {
                vec![Act::Tick]
            } else {
                vec![]
            }
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    fn bump(_s: &u8) -> Vec<Act> {
        vec![Act::Bump]
    }

    #[test]
    fn finds_shortest_violation_path_every_thread_count() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100).threads(threads);
            let report = e.check_invariant(|s| *s != 3);
            let v = report.violation.expect("3 is reachable");
            assert_eq!(v.state, 3);
            assert_eq!(v.path.len(), 2, "Tick then Bump is shortest");
            // The deterministic claim order also pins the path itself.
            assert_eq!(v.path, vec![Act::Tick, Act::Bump]);
        }
    }

    #[test]
    fn exhaustive_hold_matches_sequential() {
        let seq = Explorer::new(Counter { n: 10 }, bump, 1000, 100).reachable_states();
        for threads in [1, 2, 4] {
            let par = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
                .threads(threads)
                .reachable_states();
            assert!(par.holds() && par.exhaustive());
            assert_eq!(par.states_visited, seq.states_visited);
            assert_eq!(par.quiescent_states, seq.quiescent_states);
        }
    }

    #[test]
    fn layer_stats_cover_the_search() {
        let e = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100).threads(2);
        let report = e.reachable_states();
        let discovered: usize = report.layers.iter().map(|l| l.discovered).sum();
        // Start state plus per-layer discoveries account for every state.
        assert_eq!(1 + discovered, report.states_visited);
        assert!(report.edges_expanded() > 0);
        assert!(report.layers.iter().all(|l| l.frontier > 0));
        // The interner reports a live footprint once states are admitted.
        assert!(report.arena_bytes > 0);
    }

    #[test]
    fn state_budget_truncates() {
        let e = ParallelExplorer::new(Counter { n: 100 }, bump, 5, 100).threads(2);
        let report = e.reachable_states();
        assert_eq!(report.truncation, Some(Truncation::StateBudget));
        assert!(!report.exhaustive());
        assert!(report.safe_within_budget());
        assert!(!report.holds());
        assert!(report.states_visited <= 5);
    }

    #[test]
    fn depth_budget_truncates() {
        let e = ParallelExplorer::new(Counter { n: 100 }, bump, 1000, 3).threads(2);
        let report = e.reachable_states();
        assert_eq!(report.truncation, Some(Truncation::DepthBudget));
        assert!(report.max_depth_reached() < 3);
        assert!(report.states_visited <= 8);
    }

    #[test]
    fn violated_start_state_gives_empty_path() {
        let e = ParallelExplorer::new(Counter { n: 10 }, |_s: &u8| vec![], 1000, 100);
        let report = e.check_invariant(|s| *s != 0);
        let v = report.violation.unwrap();
        assert!(v.path.is_empty());
        assert_eq!(v.state, 0);
        assert_eq!(v.property, "invariant");
    }

    #[test]
    fn multiple_properties_report_first_violated_in_order() {
        let even = Invariant::new("below-6", |s: &u8| *s < 6);
        let odd = Invariant::new("below-4", |s: &u8| *s < 4);
        let e = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100).threads(2);
        // Both properties eventually fail; 4 (violating "below-4") is at
        // depth 2, while 6 (violating "below-6") is at depth 3 — the
        // shallower violation must win.
        let report = e.check_properties_from(vec![0], &[&even, &odd]);
        let v = report.violation.unwrap();
        assert_eq!(v.state, 4);
        assert_eq!(v.property, "below-4");
        assert_eq!(v.path.len(), 2);
    }

    /// Diamond automaton: two different one-step actions reach the same
    /// state; the minimal claim (lower action index) must win the
    /// predecessor race under every thread count.
    #[derive(Clone)]
    struct Diamond;

    impl Automaton for Diamond {
        type Action = u8;
        type State = u8;

        fn start_states(&self) -> Vec<u8> {
            vec![0]
        }
        fn classify(&self, _a: &u8) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }
        fn successors(&self, s: &u8, a: &u8) -> Vec<u8> {
            match (s, a) {
                (0, 1) => vec![1],
                (0, 2) => vec![2],
                (1, 3) | (2, 4) => vec![3],
                _ => vec![],
            }
        }
        fn enabled_local(&self, s: &u8) -> Vec<u8> {
            match s {
                0 => vec![1, 2],
                1 => vec![3],
                2 => vec![4],
                _ => vec![],
            }
        }
        fn task_of(&self, _a: &u8) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn diamond_merge_picks_canonical_parent() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(threads);
            let report = e.check_invariant(|s| *s != 3);
            let v = report.violation.unwrap();
            // Both 1→3 and 2→4 paths have length 2; the canonical one
            // goes through state 1 (the lower-indexed parent).
            assert_eq!(v.path, vec![1, 3]);
        }
    }

    /// Trace property "action `0` has occurred on the path", for the
    /// trace-threading tests below.
    struct SawAction(u8);

    impl TraceProperty<u8> for SawAction {
        type State = bool;

        fn name(&self) -> &str {
            "saw-action"
        }

        fn start(&self) -> bool {
            false
        }

        fn step(&self, state: &bool, action: &u8) -> bool {
            *state || *action == self.0
        }

        fn violation(&self, state: &bool) -> Option<String> {
            state.then(|| format!("action {} occurred", self.0))
        }
    }

    #[test]
    fn null_trace_property_changes_nothing() {
        let plain = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .reachable_states();
        let traced = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .check_traced_from(vec![0], &[], &());
        assert!(traced.holds());
        assert_eq!(traced.states_visited, plain.states_visited);
        assert_eq!(traced.quiescent_states, plain.quiescent_states);
    }

    #[test]
    fn trace_violation_reports_canonical_path_every_thread_count() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(threads);
            let report = e.check_traced_from(vec![0], &[], &SawAction(1));
            let v = report.violation.expect("action 1 is on a canonical path");
            assert_eq!(v.path, vec![1]);
            assert_eq!(v.state, 1);
            assert_eq!(v.property, "saw-action: action 1 occurred");
        }
    }

    /// The documented incompleteness: action `4` occurs only on the
    /// 0→2→3 branch of the diamond, but state 3's canonical (minimal
    /// claim) path goes through state 1, so the threaded monitor never
    /// sees `4` — the search reports a hold even though a real execution
    /// violates the trace property. Conclusive absence needs an observer
    /// automaton composed into the system instead.
    #[test]
    fn trace_dedup_can_hide_noncanonical_paths() {
        let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(2);
        let report = e.check_traced_from(vec![0], &[], &SawAction(4));
        assert!(report.holds(), "spanning-tree monitor misses the 2→4 path");
    }

    #[test]
    fn state_properties_outrank_trace_property_on_the_same_state() {
        let below = Invariant::new("below-1", |s: &u8| *s < 1);
        let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(2);
        // Both fail first at state 1 (depth 1); the state property wins.
        let report = e.check_traced_from(vec![0], &[&below], &SawAction(1));
        let v = report.violation.unwrap();
        assert_eq!(v.state, 1);
        assert_eq!(v.property, "below-1");
    }

    #[test]
    fn dedup_hits_are_counted() {
        // The 10-state counter cycle revisits states constantly.
        let report = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .reachable_states();
        assert!(report.dedup_hits() > 0);
        assert_eq!(
            report.dedup_hits(),
            report.layers.iter().map(|l| l.duplicates).sum::<u64>()
        );
    }

    #[test]
    fn packed_backend_matches_plain_verdicts_and_counts() {
        let plain = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .reachable_states();
        for threads in [1, 2, 4] {
            let packed = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
                .threads(threads)
                .packed()
                .reachable_states();
            assert!(packed.holds() && packed.exhaustive());
            assert_eq!(packed.states_visited, plain.states_visited);
            assert_eq!(packed.quiescent_states, plain.quiescent_states);
            assert_eq!(packed.dedup_hits(), plain.dedup_hits());
            assert_eq!(packed.layers.len(), plain.layers.len());
            for (p, q) in packed.layers.iter().zip(&plain.layers) {
                assert_eq!(
                    (p.frontier, p.discovered, p.edges),
                    (q.frontier, q.discovered, q.edges)
                );
            }
        }
    }

    #[test]
    fn packed_backend_reports_identical_counterexamples() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100)
                .threads(threads)
                .packed();
            let report = e.check_invariant(|s| *s != 3);
            let v = report.violation.unwrap();
            assert_eq!(v.path, vec![1, 3]);
            assert_eq!(v.state, 3);
        }
    }

    /// Sixteen roots `ROOT + r`, each fanning out by action `0` to the
    /// 5000 states `1000·r + 1 ..= 1000·r + 5000`: neighbouring fans
    /// overlap, so most states are claimed from several parents.
    /// Successor indices from 4096 on do not fit a packed claim key, so
    /// those claims always overflow; the rest mostly overflow a filter
    /// sized for a 16-state frontier.
    #[derive(Clone)]
    struct Fans;

    const ROOT: u32 = 1_000_000;

    impl Automaton for Fans {
        type Action = u8;
        type State = u32;

        fn start_states(&self) -> Vec<u32> {
            (0..16).map(|r| ROOT + r).collect()
        }
        fn classify(&self, _a: &u8) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }
        fn successors(&self, s: &u32, _a: &u8) -> Vec<u32> {
            match s.checked_sub(ROOT) {
                Some(r) => (1..=5000).map(|i| 1000 * r + i).collect(),
                None => vec![],
            }
        }
        fn step_in_place(
            &self,
            s: &mut u32,
            _a: &u8,
            choose: &mut dyn FnMut(usize) -> Option<usize>,
        ) -> bool {
            let Some(r) = s.checked_sub(ROOT) else {
                return false;
            };
            match choose(5000) {
                Some(i) => {
                    *s = 1000 * r + i as u32 + 1;
                    true
                }
                None => false,
            }
        }
        fn enabled_local(&self, s: &u32) -> Vec<u8> {
            if *s >= ROOT {
                vec![0]
            } else {
                vec![]
            }
        }
        fn task_of(&self, _a: &u8) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn worker_verdicts_survive_the_overflow_path() {
        // Both properties first fail on 4100, claimed first from root 0
        // at successor index 4099 (unpackable, so through the overflow
        // list) and again from roots 1–4 — the merged claim must keep
        // root 0 and the verdict recorded by whichever worker built it.
        let below = Invariant::new("below-4100", |s: &u32| *s < 4100 || *s >= ROOT);
        let round = Invariant::new("no-round-past-4000", |s: &u32| {
            *s <= 4000 || !s.is_multiple_of(100) || *s >= ROOT
        });
        let starts = Fans.start_states();
        let seq = Explorer::new(Fans, |_s: &u32| vec![], 100_000, 10)
            .check_invariant_from(starts.clone(), |s| below.holds(s) && round.holds(s));
        let (seq_path, seq_state) = seq.violation.expect("4100 is reachable");
        assert_eq!((seq_state, seq_path.len()), (4100, 1));

        let check = |threads: usize, packed: bool, order: [&dyn Property<u32>; 2]| {
            let e = ParallelExplorer::new(Fans, |_s: &u32| vec![], 100_000, 10)
                .threads(threads)
                .shards(1);
            let report = if packed {
                e.packed().check_properties_from(starts.clone(), &order)
            } else {
                e.check_properties_from(starts.clone(), &order)
            };
            assert!(
                report.dedup_hits() > 0,
                "overlapping fans must merge claims"
            );
            report.violation.expect("both properties fail")
        };
        for threads in [1, 2, 4] {
            for packed in [false, true] {
                for (order, name) in [
                    ([&below as &dyn Property<u32>, &round], "below-4100"),
                    ([&round as &dyn Property<u32>, &below], "no-round-past-4000"),
                ] {
                    let v = check(threads, packed, order);
                    let leg = format!("{threads} threads, packed {packed}");
                    assert_eq!(v.state, seq_state, "{leg}");
                    assert_eq!(v.path, seq_path, "{leg}");
                    assert_eq!(v.property, name, "{leg}");
                }
            }
        }
    }

    #[test]
    fn tiny_filters_stay_exact_through_the_overflow_path() {
        // One segment and a frontier-derived size that the branching
        // factor of the bumping counter overwhelms: correctness must
        // come from the barrier merge, not filter capacity.
        let seq = Explorer::new(Counter { n: 100 }, bump, 1000, 200).reachable_states();
        for threads in [1, 2, 4] {
            let par = ParallelExplorer::new(Counter { n: 100 }, bump, 1000, 200)
                .threads(threads)
                .shards(1)
                .reachable_states();
            assert_eq!(par.states_visited, seq.states_visited);
            assert_eq!(par.quiescent_states, seq.quiescent_states);
        }
    }
}
