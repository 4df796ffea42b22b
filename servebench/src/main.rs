//! Command line: `servebench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints human-readable lines, then one JSON result as
//! the last line of standard output.

use std::path::PathBuf;
use std::process::ExitCode;

use servebench::{run, Outcome, Phase, RunConfig, UNGATED_WORKLOADS, WORKLOADS};

const USAGE: &str = "usage: servebench --workload <ledger-mpt|wiki-history|kv-zipf> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 5;
/// Untimed ops before the measured phase, so caches fill first.
const WARMUP_SECONDS: f64 = 1.0;
/// Length of the race probe after the measured phase (`ledger-mpt` only).
const PROBE_SECONDS: f64 = 2.0;

fn parse() -> Result<RunConfig, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().chain(&UNGATED_WORKLOADS).any(|w| *w == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let data_dir =
        PathBuf::from(".servebench-data").join(format!("{workload}-{}", std::process::id()));
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        phase: Phase::Seconds(seconds.ok_or("--seconds is required")?),
        warmup: Phase::Seconds(WARMUP_SECONDS),
        probe: Phase::Seconds(PROBE_SECONDS),
        trace: trace.unwrap_or(false),
        tiny: false,
        setups: SETUPS,
        data_dir,
    })
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // Pin what the environment would otherwise change: every SIRI_*
    // override (SHA-256 backend, shards, commit attempts, store) is
    // cleared before the library reads it.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SIRI_") {
            std::env::remove_var(key);
        }
    }
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    // The parent goes too once no other run is using it.
    if let Some(parent) = cfg.data_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            println!("{}", json(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("servebench: {why}");
            ExitCode::FAILURE
        }
    }
}
