//! Per-layer attribution from outside the engines.
//!
//! [`Timed<A>`] wraps one component automaton and forwards every
//! [`Automaton`] method to it unchanged. Its `State` *is* the inner
//! state, so hashing, packed encodings and every engine count stay
//! identical to the unwrapped system. The hot methods (transition
//! enumeration and enabled-action enumeration) additionally switch a
//! thread-local clock to the wrapper's [`Layer`]; a successor callback
//! handed down by the caller switches back to the caller's layer while
//! it runs, so every nanosecond is charged to exactly one layer: the
//! component's *self* time.
//!
//! Cheap signature queries (`classify`, `task_of`, …) are forwarded
//! without timing; their cost lands in the calling layer.
//!
//! Each thread accumulates into its own [`Totals`]; a thread's totals
//! move into a process-wide pool when it exits (the explorer spawns its
//! workers per BFS layer), and [`take_totals`] collects the pool plus
//! the calling thread's share.

use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::Mutex;
use std::time::Instant;

use ioa::{ActionClass, Automaton, TaskId};

/// A layer time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Whatever runs the components: the explorer or the session runner.
    Engine = 0,
    /// The composed system's own dispatch, outside its leaves.
    Compose = 1,
    /// Transmitter and receiver automata.
    Protocol = 2,
    /// Channel automata.
    Channel = 3,
    /// The WDL observer and the explorer's invariant and inputs closures.
    Observer = 4,
}

const LAYERS: usize = 5;

/// Accumulated self time and entry counts per layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Self nanoseconds per layer, indexed by `Layer as usize`.
    pub nanos: [u64; LAYERS],
    /// Timed entries per layer.
    pub calls: [u64; LAYERS],
    /// Engine self nanoseconds bracketed on both sides by expansion
    /// events (see [`Event`]): on the explorer, the encode, hash, claim
    /// and frontier work of a worker between two component calls.
    pub admit_nanos: u64,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        for i in 0..LAYERS {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
        self.admit_nanos += other.admit_nanos;
    }

    /// Self seconds charged to `layer`.
    #[must_use]
    pub fn secs(&self, layer: Layer) -> f64 {
        self.nanos[layer as usize] as f64 * 1e-9
    }

    /// Timed entries into `layer`.
    #[must_use]
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Nanoseconds charged to the components of a session system.
    #[must_use]
    pub fn system_nanos(&self) -> u64 {
        self.nanos[Layer::Compose as usize]
            + self.nanos[Layer::Protocol as usize]
            + self.nanos[Layer::Channel as usize]
            + self.nanos[Layer::Observer as usize]
    }
}

/// Whether a clock switch happens while an engine expands states (a
/// component call or a successor callback) or elsewhere (the explorer's
/// invariant, which runs only at the layer barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A component call or callback during expansion.
    Expansion,
    /// Anything else.
    Other,
}

struct Clock {
    layer: Layer,
    since: Option<Instant>,
    engine_from_expansion: bool,
    totals: Totals,
}

impl Drop for Clock {
    fn drop(&mut self) {
        if let Ok(mut pool) = POOL.lock() {
            pool.add(&self.totals);
        }
    }
}

static POOL: Mutex<Totals> = Mutex::new(Totals {
    nanos: [0; LAYERS],
    calls: [0; LAYERS],
    admit_nanos: 0,
});

thread_local! {
    static CLOCK: RefCell<Clock> = const {
        RefCell::new(Clock {
            layer: Layer::Engine,
            since: None,
            engine_from_expansion: false,
            totals: Totals { nanos: [0; LAYERS], calls: [0; LAYERS], admit_nanos: 0 },
        })
    };
}

/// Switches the calling thread's clock to `to`, charging the elapsed
/// segment to the layer being left; returns that layer.
#[inline]
fn switch(to: Layer, event: Event) -> Layer {
    let now = Instant::now();
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        let from = c.layer;
        if let Some(since) = c.since {
            let seg = now.duration_since(since).as_nanos() as u64;
            c.totals.nanos[from as usize] += seg;
            if from == Layer::Engine && c.engine_from_expansion && event == Event::Expansion {
                c.totals.admit_nanos += seg;
            }
        }
        if to == Layer::Engine {
            c.engine_from_expansion = event == Event::Expansion;
        }
        c.layer = to;
        c.since = Some(now);
        from
    })
}

/// Enters `layer` (counting one call); returns the layer to resume.
#[inline]
fn enter(layer: Layer, event: Event) -> Layer {
    CLOCK.with(|c| c.borrow_mut().totals.calls[layer as usize] += 1);
    switch(layer, event)
}

/// The calling thread's totals so far (its open segment excluded).
#[must_use]
pub fn local_totals() -> Totals {
    CLOCK.with(|c| c.borrow().totals)
}

/// Clears the calling thread's clock and the pool of exited threads.
pub fn reset() {
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        c.totals = Totals::default();
        c.layer = Layer::Engine;
        c.since = None;
        c.engine_from_expansion = false;
    });
    *POOL.lock().expect("timing pool lock poisoned") = Totals::default();
}

/// The pool of exited threads plus the calling thread's totals.
#[must_use]
pub fn take_totals() -> Totals {
    let mut all = *POOL.lock().expect("timing pool lock poisoned");
    all.add(&local_totals());
    all
}

/// Runs `f` charged to `layer`, as one timed call.
#[inline]
pub fn timed<T>(layer: Layer, event: Event, f: impl FnOnce() -> T) -> T {
    let back = enter(layer, event);
    let out = f();
    switch(back, event);
    out
}

/// A component automaton whose hot methods are charged to one layer.
#[derive(Debug, Clone)]
pub struct Timed<A> {
    inner: A,
    layer: Layer,
}

impl<A> Timed<A> {
    /// Wraps `inner`, charging its self time to `layer`.
    pub fn new(inner: A, layer: Layer) -> Self {
        Timed { inner, layer }
    }
}

impl<A: Automaton> Automaton for Timed<A> {
    type Action = A::Action;
    type State = A::State;

    fn start_states(&self) -> Vec<Self::State> {
        self.inner.start_states()
    }

    fn classify(&self, action: &Self::Action) -> Option<ActionClass> {
        self.inner.classify(action)
    }

    fn successors(&self, state: &Self::State, action: &Self::Action) -> Vec<Self::State> {
        timed(self.layer, Event::Expansion, || {
            self.inner.successors(state, action)
        })
    }

    fn enabled_local(&self, state: &Self::State) -> Vec<Self::Action> {
        timed(self.layer, Event::Expansion, || {
            self.inner.enabled_local(state)
        })
    }

    fn task_of(&self, action: &Self::Action) -> TaskId {
        self.inner.task_of(action)
    }

    fn task_count(&self) -> usize {
        self.inner.task_count()
    }

    fn try_for_each_successor(
        &self,
        state: &Self::State,
        action: &Self::Action,
        f: &mut dyn FnMut(Self::State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let caller = enter(self.layer, Event::Expansion);
        let out = self.inner.try_for_each_successor(state, action, &mut |s| {
            switch(caller, Event::Expansion);
            let flow = f(s);
            switch(self.layer, Event::Expansion);
            flow
        });
        switch(caller, Event::Expansion);
        out
    }

    fn successors_into(
        &self,
        state: &Self::State,
        action: &Self::Action,
        out: &mut Vec<Self::State>,
    ) {
        timed(self.layer, Event::Expansion, || {
            self.inner.successors_into(state, action, out);
        });
    }

    fn for_each_enabled_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let caller = enter(self.layer, Event::Expansion);
        let out = self.inner.for_each_enabled_local(state, &mut |a| {
            switch(caller, Event::Expansion);
            let flow = f(a);
            switch(self.layer, Event::Expansion);
            flow
        });
        switch(caller, Event::Expansion);
        out
    }

    fn has_enabled_local(&self, state: &Self::State) -> bool {
        timed(self.layer, Event::Expansion, || {
            self.inner.has_enabled_local(state)
        })
    }

    fn in_signature(&self, action: &Self::Action) -> bool {
        self.inner.in_signature(action)
    }

    fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
        timed(self.layer, Event::Expansion, || {
            self.inner.is_enabled(state, action)
        })
    }

    fn step_first(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        timed(self.layer, Event::Expansion, || {
            self.inner.step_first(state, action)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < u128::from(micros) {}
    }

    #[test]
    fn nested_calls_charge_self_time_only() {
        reset();
        timed(Layer::Protocol, Event::Expansion, || {
            spin(2_000);
            timed(Layer::Channel, Event::Expansion, || spin(4_000));
        });
        let t = local_totals();
        assert_eq!(t.calls(Layer::Protocol), 1);
        assert_eq!(t.calls(Layer::Channel), 1);
        assert!(t.secs(Layer::Channel) >= 0.004);
        assert!(t.secs(Layer::Protocol) >= 0.002);
        assert!(
            t.secs(Layer::Protocol) < 0.004,
            "the nested call is not self time"
        );
    }

    #[test]
    fn engine_time_between_expansion_events_is_admit_time() {
        reset();
        timed(Layer::Protocol, Event::Expansion, || {});
        spin(2_000);
        timed(Layer::Protocol, Event::Expansion, || {});
        spin(30_000);
        timed(Layer::Observer, Event::Other, || {});
        let t = local_totals();
        assert!(t.admit_nanos >= 2_000_000);
        assert!(
            t.admit_nanos < 30_000_000,
            "a gap ending at a barrier event is not admit time"
        );
    }
}
