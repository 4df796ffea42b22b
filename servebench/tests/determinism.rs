//! Two traced runs with the same seed, at a tiny scale and with op-counted
//! phases, must count exactly the same work in every layer.

use std::path::PathBuf;

use servebench::{run, Phase, RunConfig};

/// Per-layer metrics that are exact counts (not times or ratios of
/// times), so they must repeat bit for bit.
fn is_count(name: &str) -> bool {
    [
        "index.pages_read.",
        "index.pages_written.",
        "index.bytes_written.",
        "server.bytes_in.",
        "server.bytes_out.",
        "client.round_trips.",
        "crypto.bytes_hashed.",
        "client.proof_bytes",
        "store.new_pages.",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

fn counts(workload: &str, seed: u64, tag: &str) -> Vec<(String, f64)> {
    let cfg = RunConfig {
        workload: workload.into(),
        seed,
        phase: Phase::Ops(600),
        warmup: Phase::Ops(50),
        probe: Phase::Ops(50),
        trace: true,
        tiny: true,
        setups: 1,
        data_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("determinism-{workload}-{tag}")),
    };
    let outcome = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
    outcome.metrics.into_iter().filter(|m| is_count(&m.name)).map(|m| (m.name, m.value)).collect()
}

fn assert_repeats(workload: &str) {
    let a = counts(workload, 7, "a");
    let b = counts(workload, 7, "b");
    assert!(a.len() > 20, "{workload}: too few count metrics: {a:?}");
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{workload}: {name} differs between same-seed runs ({x} vs {y})"
        );
    }
    assert!(
        a.iter().any(|(n, v)| n == "index.pages_written.commit" && *v > 0.0),
        "{workload}: no commit was traced"
    );
}

#[test]
fn kv_zipf_counts_repeat() {
    assert_repeats("kv-zipf");
}

#[test]
fn wiki_history_counts_repeat() {
    assert_repeats("wiki-history");
}
