//! The `dl-fuzz` command line: run coverage-guided fuzzing campaigns
//! against the protocol zoo and print shrunk, replayable counterexamples.

use std::process::ExitCode;
use std::time::Duration;

use dl_fuzz::{all_targets, fuzz, target, FuzzConfig};

const USAGE: &str = "\
dl-fuzz: coverage-guided schedule fuzzer for data link protocols

USAGE:
    dl-fuzz [OPTIONS]

OPTIONS:
    --target NAME     fuzz one target (default: all; see --list)
    --seed N          base seed (default 0)
    --execs N         execution budget per target (default 2000)
    --workers N       worker threads (default 1; 1 = fully deterministic)
    --time-ms N       wall-clock budget per target in milliseconds
    --max-steps N     step bound per execution (default 800)
    --max-genes N     gene bound per genome (default 24)
    --full-dl         judge against full DL instead of weak WDL
    --keep-going      do not stop at the first violation
    --corrupt-starts  generate corrupted-initial-configuration genes for
                      every target, not just the stabilizing one
    --list            list targets and exit
    --help            this text
";

#[derive(Debug)]
struct Args {
    targets: Vec<&'static str>,
    cfg: FuzzConfig,
}

/// Parses the options after the program name; `Ok(None)` when `--help`
/// or `--list` already printed everything asked for.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut cfg = FuzzConfig::default();
    let mut targets: Vec<&'static str> = Vec::new();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "--list" => {
                for t in all_targets() {
                    println!("{}", t.name);
                }
                return Ok(None);
            }
            "--target" => {
                let name = value("--target")?;
                let t =
                    target(&name).ok_or_else(|| format!("unknown target {name:?} (see --list)"))?;
                targets.push(t.name);
            }
            "--seed" => cfg.seed = parse_num(&value("--seed")?)?,
            "--execs" => cfg.max_execs = parse_num(&value("--execs")?)?,
            "--workers" => cfg.workers = parse_num(&value("--workers")?)? as usize,
            "--time-ms" => {
                cfg.time_budget = Some(Duration::from_millis(parse_num(&value("--time-ms")?)?));
            }
            "--max-steps" => cfg.max_steps = parse_num(&value("--max-steps")?)? as usize,
            "--max-genes" => cfg.max_genes = parse_num(&value("--max-genes")?)? as usize,
            "--full-dl" => cfg.full_dl = true,
            "--keep-going" => cfg.stop_on_violation = false,
            "--corrupt-starts" => cfg.corrupt_starts = true,
            other => return Err(format!("unknown option {other:?} (try --help)")),
        }
    }
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if cfg.max_genes == 0 {
        return Err("--max-genes must be at least 1".into());
    }
    if targets.is_empty() {
        targets = all_targets().iter().map(|t| t.name).collect();
    }
    Ok(Some(Args { targets, cfg }))
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("not a number: {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dl-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut unverified = false;
    for name in &args.targets {
        let t = target(name).expect("validated above");
        let report = fuzz(t, &args.cfg);
        println!("{report}");
        unverified |= report.counterexamples.iter().any(|c| !c.replay_verified);
    }
    // Finding violations is the tool doing its job; a counterexample that
    // fails replay verification is the only failure mode.
    if unverified {
        eprintln!("dl-fuzz: a counterexample failed replay verification");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(ToString::to_string))
            .map(|args| args.expect("neither --help nor --list"))
    }

    #[test]
    fn options_reach_the_config() {
        let args = parsed(&["--target", "abp", "--workers", "2", "--max-genes", "5"]).unwrap();
        assert_eq!(args.targets, ["abp"]);
        assert_eq!((args.cfg.workers, args.cfg.max_genes), (2, 5));
        assert_eq!(parsed(&[]).unwrap().targets.len(), all_targets().len());
    }

    #[test]
    fn bad_values_are_rejected() {
        for (args, error) in [
            (&["--workers", "0"][..], "--workers must be at least 1"),
            (&["--max-genes", "0"], "--max-genes must be at least 1"),
            (&["--workers"], "--workers needs a value"),
            (&["--seed", "x"], "not a number"),
            (&["--target", "nope"], "unknown target"),
        ] {
            let err = parsed(args).unwrap_err();
            assert!(err.contains(error), "{args:?}: unclear error {err:?}");
        }
    }
}
