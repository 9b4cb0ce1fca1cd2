//! One fleet session: a protocol of the zoo composed with two
//! fault-injected channels, driven incrementally through `dl-sim`'s
//! [`SessionStep`].
//!
//! The state split the fleet depends on lives here: the *automaton*
//! values (protocol machines, channel configurations) are small immutable
//! tables, while everything mutable — the composed state, scratch
//! buffers, RNG stream, script cursor, monitor — is owned by the
//! [`SessionStep`], built **lean** so no execution trace is retained.
//! A session core's resident cost is therefore ≈5 kB (see
//! [`SessionOutcome::resident_bytes`], a lower bound about 1 kB short of
//! the live heap) no matter how long it runs; the
//! online monitor's value tables come on top, reported separately
//! ([`SessionOutcome::monitor_bytes`], ≈300 kB at peak), since they grow
//! with the distinct packet values a session sends.
//! The one exception is the stabilizing variant, which records its trace
//! (suffix-mode judgment needs the whole behavior) and therefore pays
//! trace-proportional memory — the corrupted-start fault class buys its
//! eventual-correctness verdicts with that footprint.
//!
//! Monitoring posture mirrors `dl-fuzz`: `monitor_pl = false` (the
//! duplication fault knob violates PL3 *by design*), `full_dl = false`,
//! online abort on a `WDL` safety conclusion, and — for sessions that
//! quiesce crash-free with the script fully consumed — a complete-trace
//! `WDL` verdict from the streaming monitor, which adds DL8 liveness
//! without ever materializing the trace.

use ioa::schedule_module::{TraceKind, Verdict};

use dl_channels::{CorruptChannel, FaultyChannel};
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::stabilize::SuffixMonitor;
use dl_obs::Histogram;
use dl_sim::{link_system, ConformancePolicy, LinkSystem, Runner, SessionStep};
use ioa::automaton::Automaton;

use crate::spec::{FleetSpec, ProtocolKind, SessionConfig};

/// The composed per-session system: `hide_Φ(protocol ∥ FaultyChannel²)`.
pub type FleetSystem<T, R> = LinkSystem<T, R, FaultyChannel, FaultyChannel>;

/// The stabilizing session's system: the self-stabilizing protocol over
/// bounded-capacity, non-FIFO, possibly ghost-loaded [`CorruptChannel`]s.
pub type StabilizeSystem = LinkSystem<
    dl_protocols::StabTransmitter,
    dl_protocols::StabReceiver,
    CorruptChannel,
    CorruptChannel,
>;

type Step<T, R> = SessionStep<FleetSystem<T, R>>;

/// A live session of any protocol in the zoo, monomorphized per kind so
/// the hot stepping loop is static-dispatched.
pub enum ZooSession {
    /// Alternating bit.
    Abp(Step<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver>),
    /// Go-back-N sliding window (any window).
    SlidingWindow(Step<dl_protocols::SwTransmitter, dl_protocols::SwReceiver>),
    /// Selective repeat.
    SelectiveRepeat(Step<dl_protocols::SrTransmitter, dl_protocols::SrReceiver>),
    /// Fragmenting.
    Fragmenting(Step<dl_protocols::FragTransmitter, dl_protocols::FragReceiver>),
    /// Parity.
    Parity(Step<dl_protocols::ParityTransmitter, dl_protocols::ParityReceiver>),
    /// Stenning.
    Stenning(Step<dl_protocols::StenningTransmitter, dl_protocols::StenningReceiver>),
    /// Non-volatile epoch protocol.
    Nonvolatile(Step<dl_protocols::NvTransmitter, dl_protocols::NvReceiver>),
    /// The deliberately message-dependent negative control.
    Quirky(Step<dl_protocols::QuirkyTransmitter, dl_protocols::QuirkyReceiver>),
    /// The self-stabilizing protocol, possibly from a corrupted initial
    /// configuration. Unlike every other variant this one *records* its
    /// trace (no online monitor — a corrupted start is supposed to
    /// misbehave for a prefix) and is judged in suffix mode at teardown.
    Stabilizing(SessionStep<StabilizeSystem>),
}

/// Runs `$body` with `$s` bound to the inner [`SessionStep`], whatever
/// the protocol.
macro_rules! with_session {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            ZooSession::Abp($s) => $body,
            ZooSession::SlidingWindow($s) => $body,
            ZooSession::SelectiveRepeat($s) => $body,
            ZooSession::Fragmenting($s) => $body,
            ZooSession::Parity($s) => $body,
            ZooSession::Stenning($s) => $body,
            ZooSession::Nonvolatile($s) => $body,
            ZooSession::Quirky($s) => $body,
            ZooSession::Stabilizing($s) => $body,
        }
    };
}

/// The fleet's online monitoring policy (see the module docs).
#[must_use]
pub fn fleet_policy() -> ConformancePolicy {
    ConformancePolicy {
        full_dl: false,
        complete: false,
        fifo_channels: false,
        monitor_pl: false,
        patience: None,
    }
}

fn lean_step<T, R>(
    protocol: DataLinkProtocol<T, R>,
    cfg: &SessionConfig,
    spec: &FleetSpec,
) -> Step<T, R>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let mut runner = Runner::new(cfg.seed, spec.max_steps);
    if spec.monitor {
        runner = runner.with_online_conformance(fleet_policy());
    }
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, cfg.faults[0]),
        FaultyChannel::new(Dir::RT, cfg.faults[1]),
    );
    SessionStep::lean(runner, system, cfg.script.clone())
}

/// Builds session `cfg` as a lean, incrementally-steppable [`ZooSession`].
#[must_use]
pub fn build_session(cfg: &SessionConfig, spec: &FleetSpec) -> ZooSession {
    match cfg.protocol {
        ProtocolKind::Abp => ZooSession::Abp(lean_step(dl_protocols::abp::protocol(), cfg, spec)),
        ProtocolKind::GoBack2 => ZooSession::SlidingWindow(lean_step(
            dl_protocols::sliding_window::protocol(2),
            cfg,
            spec,
        )),
        ProtocolKind::GoBack8 => ZooSession::SlidingWindow(lean_step(
            dl_protocols::sliding_window::protocol(8),
            cfg,
            spec,
        )),
        ProtocolKind::SelectiveRepeat4 => ZooSession::SelectiveRepeat(lean_step(
            dl_protocols::selective_repeat::protocol(4),
            cfg,
            spec,
        )),
        ProtocolKind::Fragmenting => {
            ZooSession::Fragmenting(lean_step(dl_protocols::fragmenting::protocol(), cfg, spec))
        }
        ProtocolKind::Parity => {
            ZooSession::Parity(lean_step(dl_protocols::parity::protocol(), cfg, spec))
        }
        ProtocolKind::Stenning => {
            ZooSession::Stenning(lean_step(dl_protocols::stenning::protocol(), cfg, spec))
        }
        ProtocolKind::Nonvolatile => {
            ZooSession::Nonvolatile(lean_step(dl_protocols::nonvolatile::protocol(), cfg, spec))
        }
        ProtocolKind::Quirky => {
            ZooSession::Quirky(lean_step(dl_protocols::quirky::protocol(), cfg, spec))
        }
        ProtocolKind::Stabilizing => {
            let corruption = cfg
                .corruption
                .expect("stabilizing session configs carry a corruption spec");
            let protocol = dl_protocols::stabilizing::corrupted(
                u64::from(corruption.channels[0].capacity),
                corruption.tx_seq,
                corruption.rx_expected,
            );
            // No online conformance: the divergent prefix would trip it.
            // Recording (not lean): the suffix monitor judges the full
            // behavior at teardown.
            let runner = Runner::new(cfg.seed, spec.max_steps);
            let system = link_system(
                protocol.transmitter,
                protocol.receiver,
                CorruptChannel::new(Dir::TR, corruption.channels[0]),
                CorruptChannel::new(Dir::RT, corruption.channels[1]),
            );
            ZooSession::Stabilizing(SessionStep::new(runner, system, cfg.script.clone()))
        }
    }
}

impl ZooSession {
    /// Takes up to `budget` actions; returns how many were taken.
    pub fn advance_batch(&mut self, budget: usize) -> usize {
        with_session!(self, s => s.advance_batch(budget))
    }

    /// `true` once the session's run is over.
    #[must_use]
    pub fn is_done(&self) -> bool {
        with_session!(self, s => s.is_done())
    }

    /// Tears the finished session down into its compact outcome, folding
    /// its step count and per-message latencies into the worker-local
    /// histograms.
    #[must_use]
    pub fn finish(
        self,
        cfg: &SessionConfig,
        steps_hist: &mut Histogram,
        latency_hist: &mut Histogram,
    ) -> SessionOutcome {
        if let ZooSession::Stabilizing(s) = self {
            return finish_stabilizing(s, cfg, steps_hist, latency_hist);
        }
        with_session!(self, s => {
            let quiescent = s.quiescent();
            // Online safety conclusion first; quiescent crash-free runs
            // additionally get the complete-trace WDL verdict (adds DL8)
            // straight from the streaming monitor — no retained trace.
            let mut violation = s.online_violation().map(|v| v.property);
            if violation.is_none() && quiescent && !cfg.crashed {
                if let Some(monitor) = s.monitor() {
                    if let Verdict::Violated(v) = monitor.dl_verdict(true, TraceKind::Complete) {
                        violation = Some(v.property);
                    }
                }
            }
            let metrics = s.metrics();
            steps_hist.record(metrics.steps);
            for latency in &metrics.latencies {
                latency_hist.record(*latency);
            }
            SessionOutcome {
                id: cfg.id,
                protocol: cfg.protocol,
                steps: metrics.steps,
                digest: s.digest(),
                quiescent,
                crashed: cfg.crashed,
                violation,
                msgs_sent: metrics.msgs_sent,
                msgs_delivered: metrics.msgs_received,
                resident_bytes: s.resident_bytes(),
                monitor_bytes: s.monitor_bytes(),
                convergence: None,
            }
        })
    }
}

/// Tears a stabilizing session down: suffix-mode conformance over the
/// recorded behavior, plus the corruption-budget liveness check (the
/// convergence climb may consume [`CorruptionSpec::budget`] messages —
/// losing one more means the protocol failed to stabilize).
///
/// [`CorruptionSpec::budget`]: crate::spec::CorruptionSpec::budget
fn finish_stabilizing(
    s: SessionStep<StabilizeSystem>,
    cfg: &SessionConfig,
    steps_hist: &mut Histogram,
    latency_hist: &mut Histogram,
) -> SessionOutcome {
    let corruption = cfg
        .corruption
        .expect("stabilizing session configs carry a corruption spec");
    let quiescent = s.quiescent();
    let digest = s.digest();
    let resident_bytes = s.resident_bytes();
    let monitor_bytes = s.monitor_bytes();
    let (_, report) = s.into_report();
    steps_hist.record(report.metrics.steps);
    for latency in &report.metrics.latencies {
        latency_hist.record(*latency);
    }
    let mut violation = None;
    let mut convergence = None;
    if quiescent {
        let suffix = SuffixMonitor::scan(&report.behavior, false);
        let lost = report
            .metrics
            .msgs_sent
            .saturating_sub(report.metrics.msgs_received);
        match suffix.violation {
            Some("DL8") | None if lost > corruption.budget() => {
                violation = Some("DL8");
            }
            Some(property) if property != "DL8" => violation = Some(property),
            _ => convergence = Some(suffix.convergence_index as u64),
        }
    }
    SessionOutcome {
        id: cfg.id,
        protocol: cfg.protocol,
        steps: report.metrics.steps,
        digest,
        quiescent,
        crashed: cfg.crashed,
        violation,
        msgs_sent: report.metrics.msgs_sent,
        msgs_delivered: report.metrics.msgs_received,
        resident_bytes,
        monitor_bytes,
        convergence,
    }
}

/// What one session left behind: a compact, `Copy` record (tens of
/// bytes), so even a 10⁶-session fleet's outcome vector stays modest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The session id.
    pub id: u64,
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// Actions taken.
    pub steps: u64,
    /// Rolling schedule digest (see [`dl_sim::schedule_digest`]).
    pub digest: u64,
    /// `true` if the run quiesced with the script fully consumed.
    pub quiescent: bool,
    /// `true` if the script included a station crash.
    pub crashed: bool,
    /// Violated property name, if the monitor concluded one (online
    /// safety, or complete-trace `WDL` on quiescent crash-free runs).
    pub violation: Option<&'static str>,
    /// `send_msg` events.
    pub msgs_sent: u64,
    /// `receive_msg` events.
    pub msgs_delivered: u64,
    /// Resident-footprint estimate at teardown (see
    /// [`SessionStep::resident_bytes`]).
    pub resident_bytes: u64,
    /// The online monitor's footprint at teardown (see
    /// [`SessionStep::monitor_bytes`]); 0 when unmonitored.
    pub monitor_bytes: u64,
    /// For stabilizing sessions that converged: the convergence index —
    /// the behavior position where the conforming suffix begins, i.e.
    /// the stabilization time in actions (0 = conformant from the
    /// start). `None` for every other kind, for truncated runs, and for
    /// stabilizing sessions that failed to converge.
    pub convergence: Option<u64>,
}
