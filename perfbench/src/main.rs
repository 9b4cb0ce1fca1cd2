//! The repository benchmark: one command that runs a workload, checks
//! its verdicts and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <explore-deep|fleet-mixed|fleet-stabilize>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale <full|smoke>] [--wrong-pin]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics: the untraced
//! engine call is repeated until `--seconds` have passed and medians
//! are reported. With `--trace 1` it alternates untraced and traced
//! passes for `--seconds` and reports the per-layer metrics. `--scale
//! smoke` runs scaled-down instances through the same code;
//! `--wrong-pin` perturbs one pinned answer so the check must fail.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! any check failed. See `README.md` for the metric table.

mod explore;
mod fleet;
mod pins;
mod report;
mod timed;

use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use report::{median, Checks, Metrics};

/// End-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order, with their units.
/// A workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocols.transition_s", "s"),
    ("protocols.transition_calls", "count"),
    ("channels.step_s", "s"),
    ("channels.step_calls", "count"),
    ("ioa.compose_s", "s"),
    ("core.observer_s", "s"),
    ("explore.barrier_s", "s"),
    ("explore.admit_s", "s"),
    ("explore.states", "count"),
    ("explore.edges", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.arena_bytes", "bytes"),
    ("fleet.build_s", "s"),
    ("fleet.advance_s", "s"),
    ("fleet.finish_s", "s"),
    ("sim.runner_s", "s"),
    ("core.monitor_s", "s"),
    ("core.monitor_actions", "count"),
    ("fleet.peak_session_bytes", "bytes"),
    ("fleet.peak_monitor_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Instance sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured instances.
    Full,
    /// Scaled-down instances for the smoke test.
    Smoke,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    workload: Workload,
    /// Fleet seed (the explorer has no random input).
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    scale: Scale,
    wrong_pin: bool,
    /// Set in a verdict child: when its parent spawned it, in
    /// nanoseconds since the Unix epoch.
    spawned_at: Option<u128>,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ExploreDeep,
    Fleet(fleet::Kind),
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "explore-deep" => Some(Workload::ExploreDeep),
            "fleet-mixed" => Some(Workload::Fleet(fleet::Kind::Mixed)),
            "fleet-stabilize" => Some(Workload::Fleet(fleet::Kind::Stabilize)),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ExploreDeep => "explore-deep",
            Workload::Fleet(fleet::Kind::Mixed) => "fleet-mixed",
            Workload::Fleet(fleet::Kind::Stabilize) => "fleet-stabilize",
        }
    }
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut run = Run {
        workload: Workload::ExploreDeep,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        wrong_pin: false,
        spawned_at: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--wrong-pin" {
            run.wrong_pin = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds.is_finite() && run.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                run.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--spawned-at" => run.spawned_at = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    if let Workload::Fleet(kind) = run.workload {
        if run.wrong_pin && run.seed != kind.default_seed() {
            return Err("--wrong-pin needs the workload's default seed".into());
        }
    }
    Ok(run)
}

fn explore_point(run: &Run) -> explore::Point {
    let mut point = match run.scale {
        Scale::Full => explore::FULL,
        Scale::Smoke => explore::SMOKE,
    };
    if run.wrong_pin {
        point.states += 1;
    }
    point
}

/// The instance sizes, for the host fingerprint.
fn instance(run: &Run) -> String {
    match run.workload {
        Workload::ExploreDeep => {
            let p = explore_point(run);
            format!("cap={},msgs={},threads={}", p.cap, p.msgs, explore::THREADS)
        }
        Workload::Fleet(kind) => format!(
            "sessions={},seed={},workers=1",
            pins::sessions(kind, run.scale),
            run.seed
        ),
    }
}

fn unix_nanos(t: SystemTime) -> u128 {
    t.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos())
}

/// A verdict child: one set-up and one checked engine call in this
/// fresh process, reported on one line as `child <verdict_s> <setup_s>
/// <peak_rss_mib> <attempted> <failed> <answers>`.
fn child(run: &Run, spawned_at: u128) {
    let mut checks = Checks::default();
    let (at, verdict_s, answers) = match run.workload {
        Workload::ExploreDeep => explore::verdict(explore_point(run), &mut checks),
        Workload::Fleet(kind) => fleet::verdict(
            kind,
            run.seed,
            pins::sessions(kind, run.scale),
            run.wrong_pin,
            &mut checks,
        ),
    };
    let setup_s = unix_nanos(at).saturating_sub(spawned_at) as f64 * 1e-9;
    for note in &checks.notes {
        eprintln!("perfbench: wrong answer: {note}");
    }
    println!(
        "child {verdict_s} {setup_s} {} {} {} {answers}",
        report::peak_rss_mib(),
        checks.attempted,
        checks.failed
    );
}

/// One child's report.
struct ChildReport {
    verdict_s: f64,
    setup_s: f64,
    rss_mib: f64,
    answers: String,
}

/// Spawns one verdict child and folds its answers into `checks`.
fn spawn_child(run: &Run, checks: &mut Checks) -> Option<ChildReport> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", run.workload.name()])
        .args(["--seed", &run.seed.to_string()])
        .args([
            "--scale",
            if run.scale == Scale::Smoke {
                "smoke"
            } else {
                "full"
            },
        ])
        .stderr(Stdio::inherit());
    if run.wrong_pin {
        cmd.arg("--wrong-pin");
    }
    cmd.args(["--spawned-at", &unix_nanos(SystemTime::now()).to_string()]);
    let parsed = cmd.output().ok().and_then(|out| {
        let text = String::from_utf8(out.stdout).ok()?;
        let line = text.lines().last()?.strip_prefix("child ")?;
        let f: Vec<&str> = line.splitn(6, ' ').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        let count = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok());
        let report = ChildReport {
            verdict_s: num(0)?,
            setup_s: num(1)?,
            rss_mib: num(2)?,
            answers: (*f.get(5)?).to_string(),
        };
        Some((report, count(3)?, count(4)?, out.status.success()))
    });
    match parsed {
        Some((report, attempted, failed, true)) => {
            checks.attempted += attempted;
            checks.failed += failed;
            Some(report)
        }
        _ => {
            checks.expect("verdict child reported", false, true);
            None
        }
    }
}

/// The end-to-end run: fresh verdict children until `run.seconds` have
/// passed, medians of their figures, and every child's answers equal.
fn end_to_end(run: &Run, checks: &mut Checks) -> Metrics {
    let children: Vec<ChildReport> = report::repeat(run.seconds, || spawn_child(run, checks))
        .into_iter()
        .flatten()
        .collect();
    let mut m = Metrics::default();
    let Some(first) = children.first() else {
        return m;
    };
    for c in &children[1..] {
        checks.expect("answers equal across processes", &c.answers, &first.answers);
    }
    if let Workload::Fleet(kind) = run.workload {
        let sessions = pins::sessions(kind, run.scale);
        let reference = fleet::reference(kind, run.seed, sessions);
        checks.expect(
            "run_fleet equals the public-API replay",
            &first.answers,
            &reference,
        );
    }
    let med = |f: fn(&ChildReport) -> f64| median(&children.iter().map(f).collect::<Vec<_>>());
    m.push("verdict_s", med(|c| c.verdict_s), "s");
    m.push("setup_s", med(|c| c.setup_s), "s");
    m.push("peak_rss_mib", med(|c| c.rss_mib), "MiB");
    m
}

/// Keeps exactly the metrics of the selected list, in its order; a
/// layer the workload does not exercise reads 0.
fn normalize(trace: bool, got: &Metrics) -> Metrics {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut out = Metrics::default();
    for &(name, unit) in list {
        let value = got
            .0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        out.push(name, value, unit);
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(spawned_at) = run.spawned_at {
        child(&run, spawned_at);
        return;
    }
    let mut checks = Checks::default();
    let metrics = match (run.trace, run.workload) {
        (false, _) => end_to_end(&run, &mut checks),
        (true, Workload::ExploreDeep) => {
            explore::traced_run(&run, explore_point(&run), &mut checks)
        }
        (true, Workload::Fleet(kind)) => fleet::traced_run(
            &run,
            kind,
            pins::sessions(kind, run.scale),
            run.wrong_pin,
            &mut checks,
        ),
    };
    let metrics = normalize(run.trace, &metrics);

    println!("# {}", report::host_fingerprint(&instance(&run)));
    println!(
        "# workload={} seed={} trace={}",
        run.workload.name(),
        run.seed,
        u8::from(run.trace)
    );
    for m in &metrics.0 {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# {:<28} {:>16.6} share ({} of {} answers wrong)",
        "wrong_verdict_share",
        checks.wrong_verdict_share(),
        checks.failed,
        checks.attempted
    );
    for note in &checks.notes {
        eprintln!("perfbench: wrong answer: {note}");
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!("{}", report::result_line(correct, &checks, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
