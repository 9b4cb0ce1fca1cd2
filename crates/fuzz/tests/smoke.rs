//! Bounded, deterministic fuzz smoke: the check.sh gate.
//!
//! Cold-start rediscovery of the two seeded violations — the `quirky`
//! protocol's crash-forgets-everything duplicate delivery (experiment E9)
//! and the ABP crash pump (experiment E4) — under a fixed seed and a small
//! execution budget, with byte-identical replay of every emitted
//! counterexample. Entirely offline and wall-clock independent: budgets
//! are execution counts, never time.

use dl_core::action::Station;
use dl_fuzz::{fuzz, target, ExecConfig, FuzzConfig, Gene};

fn smoke_cfg() -> FuzzConfig {
    FuzzConfig {
        seed: 42,
        workers: 1,
        max_execs: 400,
        max_steps: 400,
        stop_on_violation: false,
        ..FuzzConfig::default()
    }
}

#[test]
fn rediscovers_quirky_duplicate_delivery_and_replays_it() {
    let t = target("quirky").expect("quirky is registered");
    let report = fuzz(t, &smoke_cfg());
    let c = report
        .counterexample("DL4")
        .expect("quirky DL4 within the smoke budget");
    assert!(c.replay_verified, "shrunk counterexample must replay");
    assert!(c.found_at_exec <= 400);
    // The violation needs the receiver's volatile `seen` set wiped.
    assert!(
        c.genome
            .genes
            .iter()
            .any(|g| matches!(g, Gene::Crash(Station::R))),
        "shrunk genome kept a receiver crash: {:?}",
        c.genome.genes
    );
    // Byte-identical reproduction from the (seed, genome) pair alone.
    let cfg = ExecConfig {
        max_steps: 400,
        full_dl: false,
    };
    let rerun = (t.run)(&c.genome, &cfg);
    assert_eq!(rerun.schedule, c.trace, "replay diverged from the report");
    assert_eq!(
        rerun.violation.as_ref().map(|v| v.property),
        Some("DL4"),
        "replay lost the violation"
    );
}

#[test]
fn rediscovers_abp_crash_pump_and_replays_it() {
    let t = target("abp").expect("abp is registered");
    let report = fuzz(t, &smoke_cfg());
    assert!(
        !report.counterexamples.is_empty(),
        "the ABP crash pump must fall within the smoke budget"
    );
    for c in &report.counterexamples {
        assert!(
            ["DL4", "DL5", "DL8"].contains(&c.violation.property),
            "unexpected property {}",
            c.violation.property
        );
        assert!(c.replay_verified, "{} failed replay", c.violation.property);
        // Theorem 7.5's mechanism: no violation without a crash.
        assert!(
            c.genome.genes.iter().any(|g| matches!(g, Gene::Crash(_))),
            "shrunk genome lost its crash: {:?}",
            c.genome.genes
        );
        // Shrinking produced a small witness.
        assert!(
            c.genome.genes.len() <= 8,
            "shrunk genome still has {} genes",
            c.genome.genes.len()
        );
        let cfg = ExecConfig {
            max_steps: 400,
            full_dl: false,
        };
        let rerun = (t.run)(&c.genome, &cfg);
        assert_eq!(rerun.schedule, c.trace);
    }
}

#[test]
fn nonvolatile_survives_the_same_budget() {
    // The Theorem 7.5 tightness control: the protocol with non-volatile
    // memory endures the identical fault regime without a violation.
    let report = fuzz(target("nonvolatile").expect("registered"), &smoke_cfg());
    assert_eq!(report.executions, 400);
    assert!(
        report.counterexamples.is_empty(),
        "nonvolatile should survive: {:?}",
        report
            .counterexamples
            .iter()
            .map(|c| c.violation.property)
            .collect::<Vec<_>>()
    );
    assert!(report.coverage_points > 0);
}

#[test]
fn smoke_campaign_is_deterministic() {
    let t = target("quirky").expect("registered");
    let a = fuzz(t, &smoke_cfg());
    let b = fuzz(t, &smoke_cfg());
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.coverage_points, b.coverage_points);
    assert_eq!(a.counterexamples.len(), b.counterexamples.len());
    for (x, y) in a.counterexamples.iter().zip(&b.counterexamples) {
        assert_eq!(x.violation.property, y.violation.property);
        assert_eq!(x.genome, y.genome);
        assert_eq!(x.trace, y.trace);
        assert_eq!(x.found_at_exec, y.found_at_exec);
    }
}

/// EXPERIMENTS E12's rediscovery sweep: seed 7, one worker, at most 600
/// executions of at most 400 steps, stopping at the first violation.
/// Each row is `(target, property, found at exec, shrunk genes, genes
/// before shrinking, trace actions)`; every witness keeps a crash gene
/// and replays, and the two crash-tolerant targets find nothing.
#[test]
fn rediscovery_sweep_table() {
    let cfg = FuzzConfig {
        seed: 7,
        workers: 1,
        max_execs: 600,
        max_steps: 400,
        ..FuzzConfig::default()
    };
    let expected = [
        ("abp", "DL4", 11, 4, 22, 15),
        ("go-back-2", "DL4", 11, 4, 22, 15),
        ("go-back-8", "DL8", 62, 4, 9, 15),
        ("selective-repeat-4", "DL8", 62, 4, 9, 15),
        ("fragmenting", "DL8", 16, 4, 17, 27),
        ("parity", "DL4", 11, 4, 22, 15),
        ("stenning", "DL4", 11, 4, 22, 15),
        ("quirky", "DL4", 11, 4, 22, 15),
    ];
    let mut found = 0;
    for t in dl_fuzz::all_targets() {
        let report = fuzz(t, &cfg);
        let row = report.counterexamples.first().map(|c| {
            assert!(c.replay_verified, "{}: replay failed", t.name);
            assert!(
                c.genome.genes.iter().any(|g| matches!(g, Gene::Crash(_))),
                "{}: witness lost its crash",
                t.name
            );
            (
                t.name,
                c.violation.property,
                c.found_at_exec,
                c.genome.genes.len(),
                c.original_genes,
                c.trace.len(),
            )
        });
        let want = expected.iter().find(|r| r.0 == t.name).copied();
        assert_eq!(row, want, "{}", t.name);
        match want {
            Some(_) => found += 1,
            None => assert_eq!(report.executions, 600, "{}", t.name),
        }
    }
    assert_eq!(found, expected.len(), "a sweep target went missing");
}
