//! Pinned answers of the fleet workloads at their default seeds
//! (fleet-mixed 13, fleet-stabilize 14).

use crate::fleet::{Kind, Summary};
use crate::Scale;

/// Sessions per fleet at each scale.
#[must_use]
pub fn sessions(kind: Kind, scale: Scale) -> u64 {
    match (kind, scale) {
        (Kind::Mixed, Scale::Full) => 20_000,
        (Kind::Mixed, Scale::Smoke) => 300,
        (Kind::Stabilize, Scale::Full) => 10_000,
        (Kind::Stabilize, Scale::Smoke) => 200,
    }
}

/// The pinned summary of `kind` with `sessions` sessions at its default
/// seed, if one was taken.
#[must_use]
pub fn fleet(kind: Kind, sessions: u64) -> Option<Summary> {
    let none = (0, 0, 0, 0, vec![]);
    Some(match (kind, sessions) {
        (Kind::Mixed, 20_000) => Summary {
            actions: 1_871_356,
            msgs_delivered: 76_125,
            violations: vec![("DL4", 549), ("DL8", 77)],
            digest_fold: 1_891_304_992_278_217_738,
            converged: 0,
            convergence: none,
        },
        (Kind::Mixed, 300) => Summary {
            actions: 30_087,
            msgs_delivered: 1_144,
            violations: vec![("DL4", 9)],
            digest_fold: 6_934_333_524_738_203_644,
            converged: 0,
            convergence: none,
        },
        (Kind::Stabilize, 10_000) => Summary {
            actions: 1_120_658,
            msgs_delivered: 12_732,
            violations: vec![],
            digest_fold: 17_541_652_223_860_703_313,
            converged: 10_000,
            convergence: (
                10_000,
                15_210,
                0,
                5,
                vec![(0, 6_189), (2, 1_268), (3, 2_543)],
            ),
        },
        (Kind::Stabilize, 200) => Summary {
            actions: 22_118,
            msgs_delivered: 231,
            violations: vec![],
            digest_fold: 9_978_023_013_011_002_266,
            converged: 200,
            convergence: (200, 289, 0, 5, vec![(0, 126), (2, 27), (3, 47)]),
        },
        _ => return None,
    })
}
