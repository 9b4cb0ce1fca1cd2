//! The [`Automaton`] trait: explicit-state I/O automata (paper §2.2).

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::ControlFlow;

use crate::action::{ActionClass, Signature};

/// Identifier of an equivalence class of the task partition `part(A)`.
///
/// The partition groups the locally-controlled actions of an automaton into
/// at most countably many classes; a *fair* execution gives fair turns to
/// each class (paper §2.2). `TaskId(i)` names the `i`-th class,
/// `0 <= i < task_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// An input/output automaton over a shared action universe.
///
/// This mirrors the five components of the paper's definition (§2.2):
///
/// 1. the action signature, via [`classify`](Automaton::classify);
/// 2. the (implicit) state set, the associated type [`State`](Automaton::State);
/// 3. the start states, [`start_states`](Automaton::start_states);
/// 4. the transition relation, [`successors`](Automaton::successors);
/// 5. the task partition, [`task_of`](Automaton::task_of) /
///    [`task_count`](Automaton::task_count).
///
/// # Input-enabledness
///
/// The model requires that *every input action is enabled in every state*.
/// Implementations must therefore return a non-empty successor list from
/// [`successors`](Automaton::successors) whenever the action classifies as
/// [`ActionClass::Input`]. [`check_input_enabled`](Automaton::check_input_enabled)
/// spot-checks this on given states and is exercised by this workspace's
/// property tests.
///
/// # Nondeterminism
///
/// `successors` returns *all* post-states of the step `(s, a, s')`. Executors
/// resolve the choice (randomly, or deliberately — the impossibility-proof
/// engines pick specific successors, as the paper's constructions do).
pub trait Automaton {
    /// The action universe this automaton's signature draws from.
    type Action: Clone + Eq + Debug;
    /// Automaton states. Cloneable so executions can be recorded, and
    /// hashable so every execution layer — explorer visited sets,
    /// [`StateTable`](crate::intern::StateTable) arenas,
    /// [`InternedSeq`](crate::intern::InternedSeq) recordings — can intern
    /// states instead of storing copies.
    type State: Clone + Eq + Hash + Debug;

    /// The set `start(A)` of start states; must be non-empty.
    fn start_states(&self) -> Vec<Self::State>;

    /// Classifies `action` within this automaton's signature, or `None` if
    /// the action is not in the signature at all.
    fn classify(&self, action: &Self::Action) -> Option<ActionClass>;

    /// All states `s'` with `(state, action, s') ∈ steps(A)`.
    ///
    /// Empty means the action is not enabled in `state` — which is only
    /// permitted for locally-controlled actions (inputs are always enabled).
    fn successors(&self, state: &Self::State, action: &Self::Action) -> Vec<Self::State>;

    /// The locally-controlled actions enabled in `state`.
    ///
    /// Every action returned must classify as output or internal and have at
    /// least one successor from `state`.
    fn enabled_local(&self, state: &Self::State) -> Vec<Self::Action>;

    /// The task-partition class of a locally-controlled action.
    ///
    /// Only called for actions that classify as output or internal; the
    /// returned id must be `< task_count()`. Actions related by the
    /// partition share a `TaskId`.
    fn task_of(&self, action: &Self::Action) -> TaskId;

    /// Number of classes in the task partition.
    fn task_count(&self) -> usize;

    /// Visits every successor of `(state, action)` in the same order
    /// [`successors`](Automaton::successors) would return them, stopping
    /// early when `f` breaks. Returns whatever the last `f` call returned.
    ///
    /// This is the **single override point** for allocation-free
    /// successor enumeration: [`successors_into`](Automaton::successors_into),
    /// [`is_enabled`](Automaton::is_enabled) and
    /// [`step_first`](Automaton::step_first) are all derived from it, so an
    /// automaton that overrides it (the protocol zoo, the channels, and
    /// [`Compose2`](crate::composition::Compose2) do) gets a Vec-free hot
    /// path everywhere at once. Overrides must enumerate **exactly** the
    /// `successors` list — same states, same order — since executors pick
    /// successors by position.
    fn try_for_each_successor(
        &self,
        state: &Self::State,
        action: &Self::Action,
        f: &mut dyn FnMut(Self::State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for s in self.successors(state, action) {
            f(s)?;
        }
        ControlFlow::Continue(())
    }

    /// Appends all successors of `(state, action)` to `out` — the
    /// buffer-reuse form of [`successors`](Automaton::successors). Callers
    /// own the buffer lifecycle (typically `clear()` + `successors_into` in
    /// a loop), so steady-state stepping performs no allocation once the
    /// buffer has grown to its high-water mark.
    fn successors_into(
        &self,
        state: &Self::State,
        action: &Self::Action,
        out: &mut Vec<Self::State>,
    ) {
        let _ = self.try_for_each_successor(state, action, &mut |s| {
            out.push(s);
            ControlFlow::Continue(())
        });
    }

    /// Takes one step in place: replaces `state` with the successor of
    /// `(state, action)` that `choose` picks.
    ///
    /// The contract every override keeps:
    ///
    /// * `choose` is called at most once, with the successor count
    ///   `n ≥ 1`, **before** anything is mutated; it returns an index
    ///   `< n` (the position in [`successors`](Automaton::successors)
    ///   order) or `None` to decline the step.
    /// * When the action is disabled (`choose` is never called) or
    ///   `choose` declines, the method returns `false` and `state` is
    ///   left bit-identical.
    /// * Otherwise `state` becomes `successors(state, action)[i]` and the
    ///   method returns `true`.
    ///
    /// This default goes through `successors`, so every automaton gets
    /// the method for free; executors that resolve one successor per step
    /// (the session runner) and the explorer, which steps a scratch copy
    /// of each parent through every pick and back with
    /// [`restore`](Automaton::restore), call it so that an override — the
    /// channels, the WDL observer, the protocol zoo and
    /// [`Compose2`](crate::composition::Compose2) — can mutate only the
    /// components the action touches instead of rebuilding the whole
    /// state by value.
    fn step_in_place(
        &self,
        state: &mut Self::State,
        action: &Self::Action,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        let mut succs = self.successors(state, action);
        if succs.is_empty() {
            return false;
        }
        match choose(succs.len()) {
            Some(i) => {
                *state = succs.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Undoes a [`step_in_place`](Automaton::step_in_place): after
    /// `step_in_place(state, action, _)` from a state equal to `from`
    /// (taken, declined or disabled alike), makes `state == from` again.
    ///
    /// The default copies `from` back with `clone_from`. Overrides put
    /// back only what `action` can change —
    /// [`Compose2`](crate::composition::Compose2) restores just the
    /// components in the action's signature — so an explorer can step one
    /// scratch copy of a parent through each of its successors in turn
    /// without rebuilding the untouched components every time.
    fn restore(&self, state: &mut Self::State, from: &Self::State, action: &Self::Action) {
        let _ = action;
        state.clone_from(from);
    }

    /// Visits every enabled locally-controlled action in the same order
    /// [`enabled_local`](Automaton::enabled_local) would return them,
    /// stopping early when `f` breaks — the allocation-free form of
    /// `enabled_local` for automata that override it.
    fn for_each_enabled_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for a in self.enabled_local(state) {
            f(a)?;
        }
        ControlFlow::Continue(())
    }

    /// Convenience: `true` if some locally-controlled action is enabled —
    /// the quiescence test, without materializing the enabled set.
    fn has_enabled_local(&self, state: &Self::State) -> bool {
        self.for_each_enabled_local(state, &mut |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Convenience: `true` if the action is in the signature.
    fn in_signature(&self, action: &Self::Action) -> bool {
        self.classify(action).is_some()
    }

    /// Convenience: `true` if `action` has at least one successor from
    /// `state`. Short-circuits on the first successor found instead of
    /// materializing the full list.
    fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
        self.try_for_each_successor(state, action, &mut |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Takes one step, resolving nondeterminism by picking the first
    /// successor. Returns `None` if the action is not enabled. Stops
    /// enumerating after the first successor.
    ///
    /// Deterministic automata (one successor per step, one start state) can
    /// be driven entirely through `step_first`.
    fn step_first(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        let mut first = None;
        let _ = self.try_for_each_successor(state, action, &mut |s| {
            first = Some(s);
            ControlFlow::Break(())
        });
        first
    }

    /// Spot-checks determinism: a unique start state and at most one
    /// successor for every `(state, action)` pair in the given samples.
    /// Returns the first nondeterministic pair found, or `Err(())` if the
    /// start state is not unique.
    ///
    /// The impossibility engines assume deterministic protocols (they
    /// replay recorded executions); this audit lets callers fail early
    /// with a clear message instead of diverging mid-replay.
    ///
    /// # Errors
    ///
    /// `Err(())` when `start_states().len() != 1`.
    #[allow(clippy::result_unit_err, clippy::type_complexity)]
    fn check_deterministic<'a>(
        &self,
        states: &'a [Self::State],
        actions: &'a [Self::Action],
    ) -> Result<Option<(&'a Self::State, &'a Self::Action)>, ()> {
        if self.start_states().len() != 1 {
            return Err(());
        }
        for s in states {
            for a in actions {
                // Stop enumerating at the second successor — the audit
                // only needs to know whether more than one exists.
                let mut seen = 0u32;
                let two = self
                    .try_for_each_successor(s, a, &mut |_| {
                        seen += 1;
                        if seen > 1 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    })
                    .is_break();
                if two {
                    return Ok(Some((s, a)));
                }
            }
        }
        Ok(None)
    }

    /// Spot-checks input-enabledness: every action of `inputs` that
    /// classifies as an input must be enabled in every state of `states`.
    /// Returns the first violation as `(state, action)`.
    fn check_input_enabled<'a>(
        &self,
        states: &'a [Self::State],
        inputs: &'a [Self::Action],
    ) -> Option<(&'a Self::State, &'a Self::Action)> {
        for s in states {
            for a in inputs {
                if self.classify(a) == Some(ActionClass::Input) && !self.is_enabled(s, a) {
                    return Some((s, a));
                }
            }
        }
        None
    }

    /// This automaton's signature as a detached [`Signature`] value.
    fn signature(&self) -> Signature<Self::Action>
    where
        Self: Sized + Clone + Send + Sync + 'static,
        Self::Action: 'static,
    {
        let this = self.clone();
        Signature::new(move |a| this.classify(a))
    }
}

/// Blanket impl so `&A` can be used wherever an automaton is consumed by
/// value (executors take `&A` internally; this keeps APIs flexible).
impl<A: Automaton + ?Sized> Automaton for &A {
    type Action = A::Action;
    type State = A::State;

    fn start_states(&self) -> Vec<Self::State> {
        (**self).start_states()
    }
    fn classify(&self, action: &Self::Action) -> Option<ActionClass> {
        (**self).classify(action)
    }
    fn successors(&self, state: &Self::State, action: &Self::Action) -> Vec<Self::State> {
        (**self).successors(state, action)
    }
    fn enabled_local(&self, state: &Self::State) -> Vec<Self::Action> {
        (**self).enabled_local(state)
    }
    fn task_of(&self, action: &Self::Action) -> TaskId {
        (**self).task_of(action)
    }
    fn task_count(&self) -> usize {
        (**self).task_count()
    }
    // Forward the hot-path defaults explicitly so a reference does not
    // silently fall back to the allocating defaults when the underlying
    // automaton overrides them.
    fn try_for_each_successor(
        &self,
        state: &Self::State,
        action: &Self::Action,
        f: &mut dyn FnMut(Self::State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        (**self).try_for_each_successor(state, action, f)
    }
    fn successors_into(
        &self,
        state: &Self::State,
        action: &Self::Action,
        out: &mut Vec<Self::State>,
    ) {
        (**self).successors_into(state, action, out);
    }
    fn step_in_place(
        &self,
        state: &mut Self::State,
        action: &Self::Action,
        choose: &mut dyn FnMut(usize) -> Option<usize>,
    ) -> bool {
        (**self).step_in_place(state, action, choose)
    }
    fn restore(&self, state: &mut Self::State, from: &Self::State, action: &Self::Action) {
        (**self).restore(state, from, action);
    }
    fn for_each_enabled_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        (**self).for_each_enabled_local(state, f)
    }
    fn has_enabled_local(&self, state: &Self::State) -> bool {
        (**self).has_enabled_local(state)
    }
    fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
        (**self).is_enabled(state, action)
    }
    fn step_first(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        (**self).step_first(state, action)
    }
    fn in_signature(&self, action: &Self::Action) -> bool {
        (**self).in_signature(action)
    }
}

/// A state paired with a hash requirement, for algorithms that deduplicate
/// states (reachability searches in tests).
pub trait HashState: Automaton
where
    Self::State: Hash,
{
}
impl<A: Automaton> HashState for A where A::State: Hash {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Modulo-3 counter. Input `Reset`, output `Tick`.
    #[derive(Clone)]
    struct Counter;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Reset,
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
                Act::Reset => ActionClass::Input,
                Act::Tick => ActionClass::Output,
            })
        }
        fn successors(&self, s: &u8, a: &Act) -> Vec<u8> {
            match a {
                Act::Reset => vec![0],
                Act::Tick => vec![(s + 1) % 3],
            }
        }
        fn enabled_local(&self, _s: &u8) -> Vec<Act> {
            vec![Act::Tick]
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn stepping() {
        let c = Counter;
        let s0 = c.start_states()[0];
        let s1 = c.step_first(&s0, &Act::Tick).unwrap();
        assert_eq!(s1, 1);
        let s2 = c.step_first(&s1, &Act::Reset).unwrap();
        assert_eq!(s2, 0);
    }

    #[test]
    fn default_step_in_place_follows_the_contract() {
        let c = Counter;
        let mut s = 1u8;
        let mut asked = Vec::new();
        assert!(c.step_in_place(&mut s, &Act::Tick, &mut |n| {
            asked.push(n);
            Some(0)
        }));
        assert_eq!((s, asked), (2, vec![1]));
        // Declining leaves the state alone.
        assert!(!c.step_in_place(&mut s, &Act::Tick, &mut |_| None));
        assert_eq!(s, 2);
        // So does forwarding through a reference.
        assert!(<&Counter as Automaton>::step_in_place(
            &&c,
            &mut s,
            &Act::Reset,
            &mut |_| Some(0)
        ));
        assert_eq!(s, 0);
        // Restoring undoes the step, directly or through a reference.
        c.restore(&mut s, &2, &Act::Reset);
        assert_eq!(s, 2);
        <&Counter as Automaton>::restore(&&c, &mut s, &1, &Act::Tick);
        assert_eq!(s, 1);
    }

    #[test]
    fn input_enabled_check_passes() {
        let c = Counter;
        assert!(c
            .check_input_enabled(&[0, 1, 2], &[Act::Reset, Act::Tick])
            .is_none());
    }

    #[test]
    fn enabledness() {
        let c = Counter;
        assert!(c.is_enabled(&0, &Act::Tick));
        assert!(c.in_signature(&Act::Reset));
    }

    #[test]
    fn reference_automaton_delegates() {
        let c = Counter;
        let r = &c;
        assert_eq!(r.start_states(), vec![0]);
        assert_eq!(r.task_count(), 1);
        assert_eq!(r.step_first(&0, &Act::Tick), Some(1));
        assert_eq!(r.classify(&Act::Tick), Some(ActionClass::Output));
        assert_eq!(r.enabled_local(&2), vec![Act::Tick]);
        assert_eq!(r.task_of(&Act::Tick), TaskId(0));
    }

    #[test]
    fn determinism_audit() {
        let c = Counter;
        assert_eq!(
            c.check_deterministic(&[0, 1, 2], &[Act::Reset, Act::Tick]),
            Ok(None)
        );

        /// Coin: two successors for Flip.
        #[derive(Clone)]
        struct Coin;
        impl Automaton for Coin {
            type Action = Act;
            type State = u8;
            fn start_states(&self) -> Vec<u8> {
                vec![0]
            }
            fn classify(&self, _a: &Act) -> Option<ActionClass> {
                Some(ActionClass::Input)
            }
            fn successors(&self, _s: &u8, _a: &Act) -> Vec<u8> {
                vec![0, 1]
            }
            fn enabled_local(&self, _s: &u8) -> Vec<Act> {
                vec![]
            }
            fn task_of(&self, _a: &Act) -> TaskId {
                TaskId(0)
            }
            fn task_count(&self) -> usize {
                1
            }
        }
        let found = Coin.check_deterministic(&[0], &[Act::Reset]).unwrap();
        assert!(found.is_some());
    }

    #[test]
    fn buffer_reuse_and_callback_defaults_match_vec_apis() {
        let c = Counter;
        let mut buf = Vec::new();
        c.successors_into(&1, &Act::Tick, &mut buf);
        assert_eq!(buf, c.successors(&1, &Act::Tick));
        // Append semantics: the caller owns clearing.
        c.successors_into(&1, &Act::Reset, &mut buf);
        assert_eq!(buf, vec![2, 0]);

        let mut seen = Vec::new();
        let flow = c.for_each_enabled_local(&0, &mut |a| {
            seen.push(a);
            ControlFlow::Continue(())
        });
        assert_eq!(flow, ControlFlow::Continue(()));
        assert_eq!(seen, c.enabled_local(&0));
        assert!(c.has_enabled_local(&0));
    }

    #[test]
    fn is_enabled_short_circuits_enumeration() {
        /// Two successors; counts how many the visitor materialized.
        #[derive(Clone)]
        struct Pair2(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Automaton for Pair2 {
            type Action = Act;
            type State = u8;
            fn start_states(&self) -> Vec<u8> {
                vec![0]
            }
            fn classify(&self, _a: &Act) -> Option<ActionClass> {
                Some(ActionClass::Input)
            }
            fn successors(&self, _s: &u8, _a: &Act) -> Vec<u8> {
                vec![0, 1]
            }
            fn try_for_each_successor(
                &self,
                _s: &u8,
                _a: &Act,
                f: &mut dyn FnMut(u8) -> ControlFlow<()>,
            ) -> ControlFlow<()> {
                for s in [0u8, 1] {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    f(s)?;
                }
                ControlFlow::Continue(())
            }
            fn enabled_local(&self, _s: &u8) -> Vec<Act> {
                vec![]
            }
            fn task_of(&self, _a: &Act) -> TaskId {
                TaskId(0)
            }
            fn task_count(&self) -> usize {
                1
            }
        }

        let made = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let p = Pair2(std::sync::Arc::clone(&made));
        assert!(p.is_enabled(&0, &Act::Reset));
        assert_eq!(
            made.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "is_enabled must stop at the first successor"
        );
        assert_eq!(p.step_first(&0, &Act::Reset), Some(0));
        assert_eq!(
            made.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "step_first must stop at the first successor"
        );
    }

    #[test]
    fn detached_signature() {
        let sig = Counter.signature();
        assert_eq!(sig.classify(&Act::Reset), Some(ActionClass::Input));
        assert!(sig.is_external(&Act::Tick));
    }
}
