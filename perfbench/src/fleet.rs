//! `fleet-mixed` and `fleet-stabilize`: single-worker fleets run by
//! `dl_fleet::run_fleet`, checked against pins (default seed) and
//! against a session-by-session replay through the fleet's public API.
//!
//! Three passes exist:
//!
//! * **untraced** — `run_fleet(&spec)`, the measured engine call;
//! * **public** — the same sessions driven through `build_session`,
//!   `ZooSession::advance_batch` and `ZooSession::finish`, with the same
//!   chunked round-robin pacing as the engine, each call timed (the
//!   `fleet.*` layer metrics). It is also the reference the untraced
//!   outcomes must equal;
//! * **components** — bench-built sessions whose transmitter, receiver,
//!   channels and composed system are [`Timed`], run once with monitors
//!   on and once with them off (the `protocols`, `channels`, `ioa`,
//!   `sim` and `core.monitor` metrics).

use std::time::SystemTime;

use ioa::schedule_module::{TraceKind, Verdict};

use dl_channels::{CorruptChannel, FaultyChannel};
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::stabilize::SuffixMonitor;
use dl_fleet::{
    build_session, fleet_policy, run_fleet, session_config, FleetReport, FleetSpec, ProtocolKind,
    SessionConfig, SessionOutcome, VerdictShard,
};
use dl_obs::Histogram;
use dl_sim::{link_system, LinkSystem, Runner, SessionStep};
use ioa::Automaton;

use crate::report::{self, median, Checks, Metrics};
use crate::timed::{self, Layer, Timed};
use crate::Run;

/// Which fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The classic nine protocols with monitors on and crashes.
    Mixed,
    /// Stabilizing-only sessions from corrupted configurations.
    Stabilize,
}

impl Kind {
    /// The fleet seed the pins were taken at.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::Mixed => 13,
            Kind::Stabilize => 14,
        }
    }
}

/// Pinned answers of one fleet at its default seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Actions across the fleet.
    pub actions: u64,
    /// Delivered messages across the fleet.
    pub msgs_delivered: u64,
    /// Per-property violation tallies `(property, sessions)`.
    pub violations: Vec<(&'static str, u64)>,
    /// Order-sensitive fold of the per-session schedule digests.
    pub digest_fold: u64,
    /// Stabilizing sessions that converged.
    pub converged: u64,
    /// The exact `convergence_actions` histogram, as
    /// `(count, sum, min, max, buckets)`.
    pub convergence: (u64, u64, u64, u64, Vec<(u8, u64)>),
}

impl Summary {
    fn of(outcomes: &[SessionOutcome], verdicts: &VerdictShard) -> Summary {
        let hist = verdicts.convergence_hist.snapshot();
        Summary {
            actions: outcomes.iter().map(|o| o.steps).sum(),
            msgs_delivered: outcomes.iter().map(|o| o.msgs_delivered).sum(),
            violations: verdicts
                .tallies()
                .iter()
                .map(|t| (t.property, t.sessions))
                .collect(),
            digest_fold: outcomes.iter().fold(0xcbf2_9ce4_8422_2325, |h, o| {
                (h ^ o.digest).wrapping_mul(0x0000_0100_0000_01b3)
            }),
            converged: verdicts.converged,
            convergence: (hist.count, hist.sum, hist.min, hist.max, hist.buckets),
        }
    }

    fn check(&self, label: &str, want: &Summary, sessions: u64, kind: Kind, checks: &mut Checks) {
        checks.expect(&format!("{label} actions"), self.actions, want.actions);
        checks.expect(
            &format!("{label} msgs_delivered"),
            self.msgs_delivered,
            want.msgs_delivered,
        );
        checks.expect(
            &format!("{label} digest fold"),
            self.digest_fold,
            want.digest_fold,
        );
        match kind {
            Kind::Mixed => checks.expect(
                &format!("{label} violation tallies"),
                &self.violations,
                &want.violations,
            ),
            Kind::Stabilize => {
                checks.expect(&format!("{label} converged"), self.converged, sessions);
                checks.expect(
                    &format!("{label} convergence_actions"),
                    &self.convergence,
                    &want.convergence,
                );
            }
        }
    }
}

/// The fleet spec of `kind` at `seed` with `sessions` sessions.
#[must_use]
fn spec(kind: Kind, seed: u64, sessions: u64) -> FleetSpec {
    match kind {
        Kind::Mixed => FleetSpec {
            seed,
            sessions,
            crash_per256: 32,
            workers: 1,
            ..FleetSpec::default()
        },
        Kind::Stabilize => FleetSpec {
            seed,
            sessions,
            protocols: vec![ProtocolKind::Stabilizing],
            corruption_per256: 255,
            workers: 1,
            ..FleetSpec::default()
        },
    }
}

/// The spec and every session's configuration, which the replay
/// passes consume.
fn setup(kind: Kind, seed: u64, sessions: u64) -> (FleetSpec, Vec<SessionConfig>) {
    let spec = spec(kind, seed, sessions);
    let configs = (0..sessions).map(|id| session_config(&spec, id)).collect();
    (spec, configs)
}

/// The untraced verdict: the engine call and its summary.
fn untraced(spec: &FleetSpec) -> (f64, FleetReport, Summary) {
    let (secs, (report, summary)) = report::time(|| {
        let report = run_fleet(spec);
        let summary = Summary::of(&report.outcomes, &report.verdicts);
        (report, summary)
    });
    (secs, report, summary)
}

/// Drives sessions with the engine's pacing: `spec.chunk` live sessions
/// at a time, stepped round-robin `spec.batch` actions per turn.
fn drive<S>(
    spec: &FleetSpec,
    configs: &[SessionConfig],
    mut build: impl FnMut(&SessionConfig) -> S,
    mut advance: impl FnMut(&mut S, usize, usize) -> usize,
    mut finish: impl FnMut(S, &SessionConfig) -> SessionOutcome,
) -> Vec<SessionOutcome> {
    let mut outcomes = Vec::with_capacity(configs.len());
    for chunk in configs.chunks(spec.chunk.max(1)) {
        let mut live: Vec<S> = chunk.iter().map(&mut build).collect();
        loop {
            let mut progressed = false;
            for (i, session) in live.iter_mut().enumerate() {
                progressed |= advance(session, outcomes.len() + i, spec.batch.max(1)) > 0;
            }
            if !progressed {
                break;
            }
        }
        for (session, cfg) in live.into_iter().zip(chunk) {
            outcomes.push(finish(session, cfg));
        }
    }
    outcomes
}

/// The public pass: seconds in `build_session`, `advance_batch` and
/// `finish`, with the outcomes.
struct Public {
    build_s: f64,
    advance_s: f64,
    finish_s: f64,
    outcomes: Vec<SessionOutcome>,
}

fn public_pass(spec: &FleetSpec, configs: &[SessionConfig]) -> Public {
    let (mut build_s, mut advance_s, mut finish_s) = (0.0, 0.0, 0.0);
    let (mut steps, mut latency) = (Histogram::new(), Histogram::new());
    let outcomes = drive(
        spec,
        configs,
        |cfg| {
            let (s, session) = report::time(|| build_session(cfg, spec));
            build_s += s;
            session
        },
        |session, _, budget| {
            let (s, n) = report::time(|| session.advance_batch(budget));
            advance_s += s;
            n
        },
        |session, cfg| {
            let (s, o) = report::time(|| session.finish(cfg, &mut steps, &mut latency));
            finish_s += s;
            o
        },
    );
    Public {
        build_s,
        advance_s,
        finish_s,
        outcomes,
    }
}

/// A bench-built session whose components are [`Timed`].
trait TimedSession {
    fn advance_batch(&mut self, budget: usize) -> usize;
    fn finish(self: Box<Self>, cfg: &SessionConfig) -> SessionOutcome;
}

type TimedSystem<T, R, C> = Timed<LinkSystem<Timed<T>, Timed<R>, Timed<C>, Timed<C>>>;

fn timed_system<T, R, C>(p: DataLinkProtocol<T, R>, tr: C, rt: C) -> TimedSystem<T, R, C>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
    C: Automaton<Action = DlAction>,
{
    Timed::new(
        link_system(
            Timed::new(p.transmitter, Layer::Protocol),
            Timed::new(p.receiver, Layer::Protocol),
            Timed::new(tr, Layer::Channel),
            Timed::new(rt, Layer::Channel),
        ),
        Layer::Compose,
    )
}

struct Lean<T, R>(SessionStep<TimedSystem<T, R, FaultyChannel>>)
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>;

impl<T, R> TimedSession for Lean<T, R>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    fn advance_batch(&mut self, budget: usize) -> usize {
        self.0.advance_batch(budget)
    }

    /// `ZooSession::finish` for a lean session.
    fn finish(self: Box<Self>, cfg: &SessionConfig) -> SessionOutcome {
        let s = &self.0;
        let quiescent = s.quiescent();
        let mut violation = s.online_violation().map(|v| v.property);
        if violation.is_none() && quiescent && !cfg.crashed {
            if let Some(Verdict::Violated(v)) =
                s.monitor().map(|m| m.dl_verdict(true, TraceKind::Complete))
            {
                violation = Some(v.property);
            }
        }
        let metrics = s.metrics();
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
    }
}

fn lean<T, R>(
    p: DataLinkProtocol<T, R>,
    cfg: &SessionConfig,
    spec: &FleetSpec,
) -> Box<dyn TimedSession>
where
    T: Automaton<Action = DlAction> + 'static,
    R: Automaton<Action = DlAction> + 'static,
{
    let mut runner = Runner::new(cfg.seed, spec.max_steps);
    if spec.monitor {
        runner = runner.with_online_conformance(fleet_policy());
    }
    let system = timed_system(
        p,
        FaultyChannel::new(Dir::TR, cfg.faults[0]),
        FaultyChannel::new(Dir::RT, cfg.faults[1]),
    );
    Box::new(Lean(SessionStep::lean(runner, system, cfg.script.clone())))
}

struct Stabilizing(
    SessionStep<
        TimedSystem<dl_protocols::StabTransmitter, dl_protocols::StabReceiver, CorruptChannel>,
    >,
);

impl TimedSession for Stabilizing {
    fn advance_batch(&mut self, budget: usize) -> usize {
        self.0.advance_batch(budget)
    }

    /// The fleet's stabilizing teardown: suffix-mode judgment plus the
    /// corruption-budget liveness check.
    fn finish(self: Box<Self>, cfg: &SessionConfig) -> SessionOutcome {
        let corruption = cfg
            .corruption
            .expect("stabilizing session configs carry a corruption spec");
        let s = self.0;
        let quiescent = s.quiescent();
        let digest = s.digest();
        let resident_bytes = s.resident_bytes();
        let monitor_bytes = s.monitor_bytes();
        let (_, report) = s.into_report();
        let mut violation = None;
        let mut convergence = None;
        if quiescent {
            let suffix = SuffixMonitor::scan(&report.behavior, false);
            let lost = report
                .metrics
                .msgs_sent
                .saturating_sub(report.metrics.msgs_received);
            match suffix.violation {
                Some("DL8") | None if lost > corruption.budget() => violation = Some("DL8"),
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
}

/// `build_session` with every component [`Timed`].
fn build_timed(cfg: &SessionConfig, spec: &FleetSpec) -> Box<dyn TimedSession> {
    use dl_protocols as p;
    match cfg.protocol {
        ProtocolKind::Abp => lean(p::abp::protocol(), cfg, spec),
        ProtocolKind::GoBack2 => lean(p::sliding_window::protocol(2), cfg, spec),
        ProtocolKind::GoBack8 => lean(p::sliding_window::protocol(8), cfg, spec),
        ProtocolKind::SelectiveRepeat4 => lean(p::selective_repeat::protocol(4), cfg, spec),
        ProtocolKind::Fragmenting => lean(p::fragmenting::protocol(), cfg, spec),
        ProtocolKind::Parity => lean(p::parity::protocol(), cfg, spec),
        ProtocolKind::Stenning => lean(p::stenning::protocol(), cfg, spec),
        ProtocolKind::Nonvolatile => lean(p::nonvolatile::protocol(), cfg, spec),
        ProtocolKind::Quirky => lean(p::quirky::protocol(), cfg, spec),
        ProtocolKind::Stabilizing => {
            let c = cfg
                .corruption
                .expect("stabilizing session configs carry a corruption spec");
            let protocol = p::stabilizing::corrupted(
                u64::from(c.channels[0].capacity),
                c.tx_seq,
                c.rx_expected,
            );
            let system = timed_system(
                protocol,
                CorruptChannel::new(Dir::TR, c.channels[0]),
                CorruptChannel::new(Dir::RT, c.channels[1]),
            );
            let runner = Runner::new(cfg.seed, spec.max_steps);
            Box::new(Stabilizing(SessionStep::new(
                runner,
                system,
                cfg.script.clone(),
            )))
        }
    }
}

/// The components pass: layer totals, per-session runner self time
/// (`advance_batch` minus the components' time), and the outcomes.
struct Components {
    wall_s: f64,
    build_s: f64,
    advance_s: f64,
    finish_s: f64,
    totals: timed::Totals,
    runner_ns: Vec<u64>,
    outcomes: Vec<SessionOutcome>,
}

fn components_pass(spec: &FleetSpec, configs: &[SessionConfig]) -> Components {
    let mut runner_ns = vec![0u64; configs.len()];
    let (mut build_s, mut advance_s, mut finish_s) = (0.0, 0.0, 0.0);
    timed::reset();
    let (wall_s, outcomes) = report::time(|| {
        drive(
            spec,
            configs,
            |cfg| {
                let (s, session) = report::time(|| build_timed(cfg, spec));
                build_s += s;
                session
            },
            |session, idx, budget| {
                let before = timed::local_totals().system_nanos();
                let (s, n) = report::time(|| session.advance_batch(budget));
                let system = timed::local_totals().system_nanos() - before;
                advance_s += s;
                runner_ns[idx] += ((s * 1e9) as u64).saturating_sub(system);
                n
            },
            |session, cfg| {
                let (s, o) = report::time(|| session.finish(cfg));
                finish_s += s;
                o
            },
        )
    });
    Components {
        wall_s,
        build_s,
        advance_s,
        finish_s,
        totals: timed::take_totals(),
        runner_ns,
        outcomes,
    }
}

/// `(digest, steps, violation)` of every session.
fn decisions(outcomes: &[SessionOutcome]) -> Vec<(u64, u64, Option<&'static str>)> {
    outcomes
        .iter()
        .map(|o| (o.digest, o.steps, o.violation))
        .collect()
}

/// The pinned summary at the workload's default seed, perturbed when
/// `wrong_pin` asks for a deliberately wrong pin.
fn pinned(kind: Kind, seed: u64, sessions: u64, wrong_pin: bool) -> Option<Summary> {
    let mut pin = crate::pins::fleet(kind, sessions).filter(|_| seed == kind.default_seed())?;
    if wrong_pin {
        pin.actions += 1;
    }
    Some(pin)
}

/// One end-to-end verdict (in a fresh process): the wall clock at the
/// engine call, the verdict seconds and the summary, for comparison
/// across processes and with [`reference`].
pub fn verdict(
    kind: Kind,
    seed: u64,
    sessions: u64,
    wrong_pin: bool,
    checks: &mut Checks,
) -> (SystemTime, f64, String) {
    let spec = spec(kind, seed, sessions);
    let at = SystemTime::now();
    let (secs, _, summary) = untraced(&spec);
    if let Some(want) = pinned(kind, seed, sessions, wrong_pin) {
        summary.check("pinned", &want, sessions, kind, checks);
    }
    (at, secs, format!("{summary:?}"))
}

/// The replay through the public API: the reference every end-to-end
/// verdict must equal, on every seed (and the only one on a seed
/// without pins).
#[must_use]
pub fn reference(kind: Kind, seed: u64, sessions: u64) -> String {
    let (spec, configs) = setup(kind, seed, sessions);
    let public = public_pass(&spec, &configs);
    let shard = VerdictShard::from_outcomes(&public.outcomes);
    format!("{:?}", Summary::of(&public.outcomes, &shard))
}

/// The traced run: untraced, public and component passes alternating
/// for `run.seconds`, reported as per-layer medians.
pub fn traced_run(
    run: &Run,
    kind: Kind,
    sessions: u64,
    wrong_pin: bool,
    checks: &mut Checks,
) -> Metrics {
    let mut m = Metrics::default();
    let pinned = pinned(kind, run.seed, sessions, wrong_pin);
    let check_untraced = |summary: &Summary, checks: &mut Checks| {
        if let Some(want) = &pinned {
            summary.check("pinned", want, sessions, kind, checks);
        }
    };
    let (spec, configs) = setup(kind, run.seed, sessions);
    let spec_off = FleetSpec {
        monitor: false,
        ..spec.clone()
    };
    let mut plain = Vec::new();
    let mut publics = Vec::new();
    let mut ons = Vec::new();
    let mut monitor_s = Vec::new();
    let mut monitor_actions = 0;
    let mut peaks = (0, 0);
    report::repeat(run.seconds, || {
        let (secs, report, summary) = untraced(&spec);
        check_untraced(&summary, checks);
        plain.push(secs);
        peaks = (report.peak_session_bytes, report.peak_monitor_bytes);

        let public = public_pass(&spec, &configs);
        let shard = VerdictShard::from_outcomes(&public.outcomes);
        Summary::of(&public.outcomes, &shard).check("traced", &summary, sessions, kind, checks);
        checks.expect(
            "traced outcomes equal run_fleet's",
            public.outcomes == report.outcomes,
            true,
        );

        let on = components_pass(&spec, &configs);
        checks.expect(
            "timed sessions match run_fleet's (digest, steps, violation)",
            decisions(&on.outcomes) == decisions(&report.outcomes),
            true,
        );
        let off = components_pass(&spec_off, &configs);
        let (mut delta, mut actions) = (0i64, 0u64);
        for (i, (a, b)) in on.outcomes.iter().zip(&off.outcomes).enumerate() {
            if a.digest == b.digest {
                delta += on.runner_ns[i] as i64 - off.runner_ns[i] as i64;
                actions += a.steps;
            }
        }
        monitor_s.push(delta as f64 * 1e-9);
        monitor_actions = actions;
        publics.push(public);
        ons.push(on);
    });

    let med_p = |f: &dyn Fn(&Public) -> f64| median(&publics.iter().map(f).collect::<Vec<_>>());
    let med_c = |f: &dyn Fn(&Components) -> f64| median(&ons.iter().map(f).collect::<Vec<_>>());
    let calls = |l: Layer| ons[0].totals.calls(l) as f64;
    m.push(
        "protocols.transition_s",
        med_c(&|c| c.totals.secs(Layer::Protocol)),
        "s",
    );
    m.push(
        "protocols.transition_calls",
        calls(Layer::Protocol),
        "count",
    );
    m.push(
        "channels.step_s",
        med_c(&|c| c.totals.secs(Layer::Channel)),
        "s",
    );
    m.push("channels.step_calls", calls(Layer::Channel), "count");
    m.push(
        "ioa.compose_s",
        med_c(&|c| c.totals.secs(Layer::Compose)),
        "s",
    );
    m.push("fleet.build_s", med_p(&|p| p.build_s), "s");
    m.push("fleet.advance_s", med_p(&|p| p.advance_s), "s");
    m.push("fleet.finish_s", med_p(&|p| p.finish_s), "s");
    m.push(
        "sim.runner_s",
        med_c(&|c| c.runner_ns.iter().sum::<u64>() as f64 * 1e-9),
        "s",
    );
    m.push("core.monitor_s", median(&monitor_s), "s");
    m.push("core.monitor_actions", monitor_actions as f64, "count");
    m.push("fleet.peak_session_bytes", peaks.0 as f64, "bytes");
    m.push("fleet.peak_monitor_bytes", peaks.1 as f64, "bytes");
    m.push(
        "trace.overhead_ratio",
        med_c(&|c| c.wall_s) / median(&plain),
        "ratio",
    );
    m.push(
        "trace.unattributed_share",
        med_c(&|c| 1.0 - (c.build_s + c.advance_s + c.finish_s) / c.wall_s),
        "ratio",
    );
    m
}
