//! One benchmark run: set up, warm up, measure, check, report.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use siri::{
    Entry, FileStore, FileStoreOptions, FsyncPolicy, Hash, NodeStore, PageSet, RemoteSession,
    SharedStore, SiriIndex, StoreStats, WriteBatch, DEFAULT_SEGMENT_BYTES,
};

use crate::drive::{replay, Budget, DriveOpts, OpTrace, Record};
use crate::kv_zipf::{KvZipf, KvZipfScale};
use crate::ledger::{Ledger, LedgerScale};
use crate::ops::{head, Exec, Op, Verb, MASTER};
use crate::rig::{pin_cpus, Rig};
use crate::stats::{median, Samples, Tail};
use crate::wiki::{WikiHistory, WikiScale};
use crate::workload::Workload;

/// The workloads `BENCHMARK.json` names.
pub const WORKLOADS: [&str; 2] = ["ledger-mpt", "wiki-history"];
/// Runnable by name but left out of `BENCHMARK.json`: `kv-zipf`'s
/// microsecond wire latencies moved by up to 1.45x with the host's load
/// for seconds at a time, so no run length kept two sets of runs within
/// the largest bound. Its exact per-layer counts are still checked by
/// the determinism test.
pub const UNGATED_WORKLOADS: [&str; 1] = ["kv-zipf"];

/// How long a phase runs: wall-clock seconds, or a fixed op count (the
/// determinism test uses counts so two runs do identical work).
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    Seconds(f64),
    Ops(u64),
}

impl Phase {
    fn budget(self) -> Budget {
        match self {
            Phase::Seconds(s) => Budget::seconds(s),
            Phase::Ops(n) => Budget::ops(n),
        }
    }

    fn quarter(self) -> Phase {
        match self {
            Phase::Seconds(s) => Phase::Seconds(s / 4.0),
            Phase::Ops(n) => Phase::Ops(n.div_ceil(4)),
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub phase: Phase,
    pub warmup: Phase,
    /// Length of the race probe of a workload with a concurrent writer.
    pub probe: Phase,
    pub trace: bool,
    /// Small inputs, for tests.
    pub tiny: bool,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Scratch directory for file stores; removed afterwards.
    pub data_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Dedup is measured on this many evenly spaced `master` versions.
const DEDUP_SAMPLE: usize = 5;

/// The end-to-end metrics of the result, in report order, with their
/// units. The `{verb}_tail_us` figures are printed beside them but left
/// out: on a shared two-vCPU host they moved by 30-44% between batches of
/// runs of one build (host CPU steal), beyond the largest bound a gate
/// may use, while the p50s stayed within 20%.
pub fn end_to_end_metrics() -> Vec<(String, &'static str)> {
    let mut m = Vec::new();
    for v in [Verb::Get, Verb::VerifiedGet, Verb::Scan, Verb::Commit] {
        m.push((format!("{}_p50_us", v.name()), "us"));
    }
    m.push(("diff_p50_us".into(), "us"));
    m.push(("merge_p50_us".into(), "us"));
    m.push(("ops_per_s".into(), "1/s"));
    m.push(("stored_bytes_per_user_byte".into(), "ratio"));
    m.push(("dedup_ratio".into(), "ratio"));
    m.push(("setup_s".into(), "s"));
    m
}

/// The per-layer metrics of the traced run, in report order, with their
/// units. Index-crate metrics carry the `index.` prefix; the stamp line
/// names the crate.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let wire = Verb::WIRE;
    for v in wire {
        m.push((format!("client.call_us.{}", v.name()), "us"));
    }
    m.push(("client.verify_us".into(), "us"));
    for v in wire {
        m.push((format!("client.round_trips.{}", v.name()), "count"));
    }
    m.push(("client.proof_bytes".into(), "bytes"));
    m.push(("server.rtt_us".into(), "us"));
    for v in wire {
        m.push((format!("server.bytes_in.{}", v.name()), "bytes"));
        m.push((format!("server.bytes_out.{}", v.name()), "bytes"));
    }
    m.push(("server.scan_useful_ratio".into(), "ratio"));
    for v in wire {
        m.push((format!("server.self_us.{}", v.name()), "us"));
    }
    for v in [Verb::Get, Verb::VerifiedGet, Verb::Scan, Verb::Commit, Verb::Merge] {
        m.push((format!("forkbase.call_us.{}", v.name()), "us"));
    }
    m.push(("forkbase.page_cache_hit_ratio".into(), "ratio"));
    m.push(("forkbase.conflicts".into(), "count"));
    for v in Verb::ALL {
        m.push((format!("index.self_us.{}", v.name()), "us"));
    }
    for v in Verb::ALL {
        m.push((format!("index.pages_read.{}", v.name()), "count"));
    }
    m.push(("index.pages_written.commit".into(), "count"));
    m.push(("index.bytes_written.commit".into(), "bytes"));
    for v in Verb::ALL {
        m.push((format!("store.get_us.{}", v.name()), "us"));
    }
    m.push(("store.put_us.commit".into(), "us"));
    m.push(("store.fsync_us".into(), "us"));
    m.push(("store.dedup_hit_ratio".into(), "ratio"));
    m.push(("store.new_pages.commit".into(), "count"));
    for v in Verb::ALL {
        m.push((format!("crypto.bytes_hashed.{}", v.name()), "bytes"));
    }
    m.push(("crypto.sha256_mb_per_s".into(), "MB/s"));
    m.push(("trace.overhead_pct".into(), "%"));
    m
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let seed = cfg.seed;
    match cfg.workload.as_str() {
        "kv-zipf" => run_workload(
            KvZipf::new(seed, if cfg.tiny { KvZipfScale::TINY } else { KvZipfScale::FULL }),
            cfg,
        ),
        "ledger-mpt" => run_workload(
            Ledger::new(seed, if cfg.tiny { LedgerScale::TINY } else { LedgerScale::FULL }),
            cfg,
        ),
        "wiki-history" => run_workload(
            WikiHistory::new(seed, if cfg.tiny { WikiScale::TINY } else { WikiScale::FULL }),
            cfg,
        ),
        other => Err(format!(
            "unknown workload `{other}` (one of {}, {})",
            WORKLOADS.join(", "),
            UNGATED_WORKLOADS.join(", ")
        )),
    }
}

/// A set-up system: the rig and its open connections (dropped first).
struct Served<F: siri::IndexFactory> {
    conns: Vec<(RemoteSession, u64)>,
    rig: Rig<F>,
}

fn set_up<W: Workload>(w: &mut W, dir: PathBuf) -> Result<Served<W::F>, String> {
    let mut rig =
        Rig::open(w.factory(), w.store_kind(), dir).map_err(|e| format!("open store: {e}"))?;
    w.load(&rig)?;
    rig.serve().map_err(|e| format!("serve: {e}"))?;
    let conns = (0..w.connections())
        .map(|_| rig.connect())
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(Served { conns, rig })
}

/// Attempted, failed and mismatched ops across every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
}

impl Tally {
    fn add(&mut self, r: &Record) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.mismatches += r.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch.clone_from(&r.first_mismatch);
        }
    }
}

fn run_workload<W: Workload>(mut w: W, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let factory = w.factory();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus = pin_cpus(w.connections());
    out.notes.push(format!(
        "# servebench workload={} seed={} trace={} nproc={nproc} cpus={cpus} sha256={} index={} store={} shards=single chunker=buzhash fsync={}",
        w.name(),
        cfg.seed,
        u8::from(cfg.trace),
        siri::crypto::active_backend().name(),
        siri::IndexFactory::name(&factory),
        w.store_kind().name(),
        w.store_kind().fsync_policy(),
    ));

    let mut setup_s = Vec::new();
    let mut served = None;
    for k in 0..cfg.setups.max(1) {
        drop(served.take());
        let started = Instant::now();
        served = Some(set_up(&mut w, cfg.data_dir.join(format!("setup-{k}")))?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let Some(Served { conns, rig }) = served else { return Err("no set-up ran".into()) };

    let mut tally = Tally::default();
    let warm = w.run(
        &rig,
        &conns,
        cfg.warmup.budget(),
        DriveOpts { keep_log: cfg.trace, ..DriveOpts::default() },
    );
    tally.add(&warm);

    let fsync_errors = if cfg.trace {
        traced_run(&mut w, cfg, rig, conns, &warm.log, &mut tally, &mut out)?
    } else {
        let before = rig.inner.stats();
        let rec = w.run(&rig, &conns, cfg.phase.budget(), DriveOpts::default());
        let after = rig.inner.stats();
        tally.add(&rec);
        let dedup = dedup_ratio(&rig, &rec.master_roots)?;
        if let Some(probe) = w.race_probe(&rig, &conns, cfg.probe.budget()) {
            race_probe_note(&probe, &mut tally, &mut out);
        }
        structural_check(&w, &rig, &cfg.data_dir.join("fresh"), &mut tally, &mut out)?;
        end_to_end(&rec, &before, &after, dedup, &setup_s, &mut out);
        rig.tap.fsync_errors()
    };

    out.attempted = tally.attempted;
    out.failed = tally.failed + fsync_errors;
    out.correct = tally.mismatches == 0;
    out.notes.push(format!(
        "# ops attempted={} failed={} error_ratio={:.6} model_mismatches={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        tally.mismatches
    ));
    if let Some(why) = tally.first_mismatch {
        out.notes.push(format!("# first mismatch: {why}"));
    }
    Ok(out)
}

/// Fold a race probe into the tally, except its rejected verified reads:
/// those are the known digest-then-prove race of
/// `RemoteSession::verified_get`, reported on a line of their own so that
/// the gated phases' `failed` count stays repeatable. Model mismatches
/// and any other failure count as usual.
fn race_probe_note(probe: &Record, tally: &mut Tally, out: &mut Outcome) {
    tally.attempted += probe.attempted - probe.rejected;
    tally.failed += probe.failed - probe.rejected;
    tally.mismatches += probe.mismatches;
    if tally.first_mismatch.is_none() {
        tally.first_mismatch.clone_from(&probe.first_mismatch);
    }
    let verified = probe.samples[Verb::VerifiedGet.index()].len() as u64 + probe.rejected;
    out.notes.push(format!(
        "# race probe: {} of {verified} verified reads beside the writer rejected (digest-then-prove race of RemoteSession::verified_get; not in failed)",
        probe.rejected
    ));
}

/// For the structurally invariant indexes, `master`'s digest must equal
/// a fresh in-process build of the model's contents.
fn structural_check<W: Workload>(
    w: &W,
    rig: &Rig<W::F>,
    dir: &Path,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<(), String> {
    let Some(contents) = w.final_contents() else {
        out.notes.push(
            "# structural invariance: not checked (MVMB+ is not structurally invariant)".into(),
        );
        return Ok(());
    };
    let opts =
        FileStoreOptions { max_segment_bytes: DEFAULT_SEGMENT_BYTES, fsync: FsyncPolicy::Never };
    let (fs, _) = FileStore::open_with(dir, opts).map_err(|e| format!("open fresh store: {e}"))?;
    let store: SharedStore = Arc::new(fs);
    let mut fresh = siri::IndexFactory::empty(&rig.factory, store);
    let mut chunk: Vec<Entry> = Vec::new();
    let mut commit = |chunk: &mut Vec<Entry>| {
        fresh.commit(WriteBatch::from_entries(std::mem::take(chunk))).map(drop)
    };
    for e in contents {
        chunk.push(e);
        if chunk.len() == FRESH_CHUNK {
            commit(&mut chunk).map_err(|e| e.to_string())?;
        }
    }
    commit(&mut chunk).map_err(|e| e.to_string())?;
    let want = fresh.root();
    let got = rig.engine.branch_digest(MASTER).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(dir);
    if got == want {
        out.notes.push(
            "# structural invariance: master digest equals a fresh build of the model".into(),
        );
    } else {
        tally.mismatches += 1;
        tally.first_mismatch.get_or_insert_with(|| {
            format!("master digest {got} differs from a fresh build {want}")
        });
    }
    Ok(())
}

/// Entries per commit of the fresh build (bounds its memory).
const FRESH_CHUNK: usize = 100_000;

/// The paper's dedup measure over a fixed, evenly spaced sample of the
/// versions `master` published: unique bytes of the sample's page sets
/// over the sum of each set's bytes (lower is better).
fn dedup_ratio<F>(rig: &Rig<F>, roots: &[Hash]) -> Result<f64, String>
where
    F: siri::IndexFactory<Index: Send + Sync> + Send + Sync + 'static,
{
    if roots.is_empty() {
        return Err("no version of master was committed".into());
    }
    let h = head(&rig.engine, MASTER).map_err(|e| e.to_string())?;
    let n = DEDUP_SAMPLE.min(roots.len());
    let sets: Vec<PageSet> = (0..n)
        .map(|i| roots[if n == 1 { 0 } else { i * (roots.len() - 1) / (n - 1) }])
        .map(|r| h.at_root(r).page_set())
        .collect();
    let sum: u64 = sets.iter().map(PageSet::byte_size).sum();
    Ok(PageSet::union_of(&sets).byte_size() as f64 / sum.max(1) as f64)
}

fn push(out: &mut Outcome, name: &str, value: f64, unit: &'static str) {
    out.metrics.push(Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    });
}

/// Median over the phase's windows of `f` applied to one verb's samples
/// in each window (windows without samples are skipped).
fn over_windows(rec: &Record, v: Verb, f: impl Fn(&Samples) -> Option<f64>) -> f64 {
    median(&rec.windows.iter().filter_map(|w| f(&w[v.index()])).collect::<Vec<_>>())
}

/// The tail of one verb: the percentile is chosen over the whole phase
/// (the highest of p99 and p90 with at least ten samples beyond it), then
/// taken in as many equal runs of consecutive windows as hold ten samples
/// beyond it on average, and the median over those runs is reported. A
/// burst of interference then moves one run of windows, not the result.
fn windowed_tail(rec: &Record, v: Verb) -> Option<(Tail, usize)> {
    let overall = rec.samples[v.index()].tail()?;
    let beyond = |p: f64| (10.0 / (1.0 - p)).round() as usize;
    let groups = if overall.p < 1.0 { overall.samples / beyond(overall.p) } else { 1 };
    let groups = groups.clamp(1, rec.windows.len().max(1));
    if groups == 1 {
        return Some((overall, 1));
    }
    let w = rec.windows.len();
    let per_group: Vec<f64> = (0..groups)
        .filter_map(|g| {
            let mut s = Samples::default();
            for win in &rec.windows[g * w / groups..(g + 1) * w / groups] {
                s.extend(&win[v.index()]);
            }
            s.percentile_us(overall.p)
        })
        .collect();
    Some((Tail { us: median(&per_group), ..overall }, groups))
}

fn end_to_end(
    rec: &Record,
    before: &StoreStats,
    after: &StoreStats,
    dedup: f64,
    setup_s: &[f64],
    out: &mut Outcome,
) {
    for v in Verb::ALL {
        let s = &rec.samples[v.index()];
        if matches!(v, Verb::Diff | Verb::Merge) {
            // Few per run and dominated by work: one p50 over the phase.
            let p50 = s.p50_us().unwrap_or(0.0);
            push(out, &format!("{}_p50_us", v.name()), p50, "us");
            out.notes.push(format!("{}_p50_us {p50:.1} us (n={})", v.name(), s.len()));
            continue;
        }
        let p50 = over_windows(rec, v, Samples::p50_us);
        let (tail, groups) = windowed_tail(rec, v)
            .unwrap_or((Tail { label: "none", p: 1.0, us: 0.0, samples: 0 }, 0));
        let (label, tail) = (tail.label, tail.us);
        push(out, &format!("{}_p50_us", v.name()), p50, "us");
        out.notes.push(format!(
            "{}_p50_us {p50:.1} us; {}_tail_us {tail:.1} us ({label}, n={}, median over {groups} runs of windows)",
            v.name(),
            v.name(),
            s.len(),
        ));
    }
    let ops_per_s = rec.completed as f64 / rec.elapsed_s.max(1e-9);
    let written = after.bytes_written.saturating_sub(before.bytes_written);
    let stored = written as f64 / rec.user_bytes.max(1) as f64;
    let setup = median(setup_s);
    push(out, "ops_per_s", ops_per_s, "1/s");
    push(out, "stored_bytes_per_user_byte", stored, "ratio");
    push(out, "dedup_ratio", dedup, "ratio");
    push(out, "setup_s", setup, "s");
    out.notes.push(format!(
        "ops_per_s {ops_per_s:.1} 1/s ({} ops in {:.2} s)",
        rec.completed, rec.elapsed_s
    ));
    out.notes.push(format!(
        "stored_bytes_per_user_byte {stored:.4} ({written} store bytes / {} user bytes)",
        rec.user_bytes
    ));
    out.notes.push(format!(
        "dedup_ratio {dedup:.4} (unique / summed page-set bytes of {} sampled versions of {})",
        DEDUP_SAMPLE.min(rec.master_roots.len()),
        rec.master_roots.len()
    ));
    out.notes.push(format!("setup_s {setup:.4} s (median of {:?})", setup_s));
    for (kind, n) in &rec.errors {
        out.notes.push(format!("# failed {n}x {kind}"));
    }
}

/// SHA-256 throughput of the active backend over 4 KiB pages.
fn sha256_mb_per_s() -> f64 {
    let page = vec![0xa5u8; 4096];
    let rounds = 8_192;
    let started = Instant::now();
    let mut acc = 0u8;
    for i in 0..rounds {
        let mut p = page.clone();
        p[0] = i as u8;
        acc ^= siri::crypto::sha256(&p).as_bytes()[0];
    }
    std::hint::black_box(acc);
    (rounds * page.len()) as f64 / 1e6 / started.elapsed().as_secs_f64()
}

/// The traced run: a traced pass over the wire, an untraced pass for the
/// overhead, the final checks, then the warm-up's and the traced pass's
/// ops replayed in process on a fresh set-up for the engine-side split
/// (only the traced pass's replay is traced). Returns the failed fsync
/// count.
fn traced_run<W: Workload>(
    w: &mut W,
    cfg: &RunConfig,
    rig: Rig<W::F>,
    conns: Vec<(RemoteSession, u64)>,
    warm_log: &[(Instant, Op)],
    tally: &mut Tally,
    out: &mut Outcome,
) -> Result<u64, String> {
    let sha = sha256_mb_per_s();
    rig.tap.clear();
    rig.tap.set_tracing(true);
    let engine0 = rig.engine.engine_stats();
    let cache0 = rig.engine.client_stats();
    let store0 = rig.inner.stats();
    let traced = w.run(
        &rig,
        &conns,
        cfg.phase.budget(),
        DriveOpts { traced: true, keep_log: true, rtt_every: 16 },
    );
    rig.tap.set_tracing(false);
    let engine1 = rig.engine.engine_stats();
    let cache1 = rig.engine.client_stats();
    let store1 = rig.inner.stats();
    tally.add(&traced);

    let plain = w.run(&rig, &conns, cfg.phase.quarter().budget(), DriveOpts::default());
    tally.add(&plain);
    structural_check(&*w, &rig, &cfg.data_dir.join("fresh"), tally, out)?;
    let fsync_errors = rig.tap.fsync_errors();
    drop(conns);
    drop(rig);

    let replay_rig = Rig::open(w.factory(), w.store_kind(), cfg.data_dir.join("replay"))
        .map_err(|e| format!("open store: {e}"))?;
    w.load(&replay_rig)?;
    let mut exec = Exec::new(&replay_rig, &*replay_rig.engine, None);
    replay(&mut exec, warm_log, false);
    replay_rig.tap.clear();
    let replayed = replay(&mut exec, &traced.log, true);

    let per_op = |r: &Record| r.elapsed_s / r.completed.max(1) as f64;
    let overhead = 100.0 * (per_op(&traced) / per_op(&plain) - 1.0);
    let hits = cache1.0 - cache0.0;
    let fetches = cache1.1 - cache0.1;
    let ctx = LayerCtx {
        wire: &traced.traces,
        local: &replayed.traces,
        rtt: &traced.rtt,
        cache_hit_ratio: hits as f64 / (hits + fetches).max(1) as f64,
        conflicts: engine1.conflicts - engine0.conflicts,
        dedup_hits: (store1.shared_puts - store0.shared_puts) as f64
            / (store1.puts - store0.puts).max(1) as f64,
        sha,
        overhead,
    };
    per_layer(&ctx, out);
    out.notes.push(format!(
        "# traced pass: {} ops in {:.2} s; untraced pass: {} ops in {:.2} s; replayed in process: {} ops",
        traced.completed, traced.elapsed_s, plain.completed, plain.elapsed_s, replayed.completed
    ));
    for v in Verb::ALL {
        let (t, p) = (&traced.samples[v.index()], &plain.samples[v.index()]);
        out.notes.push(format!(
            "# {} p50 traced {:.1} us (n={}) vs untraced {:.1} us (n={})",
            v.name(),
            t.p50_us().unwrap_or(0.0),
            t.len(),
            p.p50_us().unwrap_or(0.0),
            p.len()
        ));
    }
    Ok(fsync_errors)
}

struct LayerCtx<'a> {
    /// Ops of the traced pass over the wire.
    wire: &'a [OpTrace],
    /// The same ops replayed in process.
    local: &'a [OpTrace],
    rtt: &'a Samples,
    cache_hit_ratio: f64,
    conflicts: u64,
    dedup_hits: f64,
    sha: f64,
    overhead: f64,
}

fn of(traces: &[OpTrace], v: Verb) -> impl Iterator<Item = &OpTrace> {
    traces.iter().filter(move |t| t.verb == v)
}

fn mean(traces: &[OpTrace], v: Verb, f: impl Fn(&OpTrace) -> f64) -> f64 {
    let (n, sum) = of(traces, v).fold((0u64, 0.0), |(n, s), t| (n + 1, s + f(t)));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn med(traces: &[OpTrace], v: Verb, f: impl Fn(&OpTrace) -> f64) -> f64 {
    median(&of(traces, v).map(f).collect::<Vec<_>>())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn per_layer(c: &LayerCtx<'_>, out: &mut Outcome) {
    let (w, l) = (c.wire, c.local);
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: String, v: f64| values.push((name, v));
    for v in Verb::WIRE {
        put(format!("client.call_us.{}", v.name()), med(w, v, |t| us(t.call_ns)));
    }
    put("client.verify_us".into(), med(w, Verb::VerifiedGet, |t| us(t.verify.verify_ns)));
    for v in Verb::WIRE {
        put(format!("client.round_trips.{}", v.name()), mean(w, v, |t| t.requests as f64));
    }
    put("client.proof_bytes".into(), mean(w, Verb::VerifiedGet, |t| t.verify.proof_bytes as f64));
    put("server.rtt_us".into(), c.rtt.p50_us().unwrap_or(0.0));
    for v in Verb::WIRE {
        put(format!("server.bytes_in.{}", v.name()), mean(w, v, |t| t.bytes_in as f64));
        put(format!("server.bytes_out.{}", v.name()), mean(w, v, |t| t.bytes_out as f64));
    }
    let (useful, shipped) =
        of(w, Verb::Scan).fold((0u64, 0u64), |(u, s), t| (u + t.useful_bytes, s + t.bytes_out));
    put("server.scan_useful_ratio".into(), useful as f64 / shipped.max(1) as f64);
    for v in Verb::WIRE {
        // Client time minus engine time, less the commit hook's fsync.
        let client = med(w, v, |t| us(t.call_ns));
        let engine = med(l, v, |t| us(t.call_ns));
        put(
            format!("server.self_us.{}", v.name()),
            client - engine - mean(w, v, |t| us(t.store.fsync_ns)),
        );
    }
    for v in [Verb::Get, Verb::VerifiedGet, Verb::Scan, Verb::Commit, Verb::Merge] {
        put(format!("forkbase.call_us.{}", v.name()), med(l, v, |t| us(t.call_ns)));
    }
    put("forkbase.page_cache_hit_ratio".into(), c.cache_hit_ratio);
    put("forkbase.conflicts".into(), c.conflicts as f64);
    for v in Verb::ALL {
        put(
            format!("index.self_us.{}", v.name()),
            med(l, v, |t| us(t.call_ns.saturating_sub(t.store.busy_ns()))),
        );
    }
    for v in Verb::ALL {
        put(format!("index.pages_read.{}", v.name()), mean(w, v, |t| t.store.gets as f64));
    }
    put("index.pages_written.commit".into(), mean(w, Verb::Commit, |t| t.store.puts as f64));
    put("index.bytes_written.commit".into(), mean(w, Verb::Commit, |t| t.store.put_bytes as f64));
    for v in Verb::ALL {
        put(format!("store.get_us.{}", v.name()), mean(w, v, |t| us(t.store.get_ns)));
    }
    put("store.put_us.commit".into(), mean(w, Verb::Commit, |t| us(t.store.put_ns)));
    put("store.fsync_us".into(), mean(w, Verb::Commit, |t| us(t.store.fsync_ns)));
    put("store.dedup_hit_ratio".into(), c.dedup_hits);
    put("store.new_pages.commit".into(), mean(w, Verb::Commit, |t| t.store.new_pages as f64));
    for v in Verb::ALL {
        put(
            format!("crypto.bytes_hashed.{}", v.name()),
            mean(w, v, |t| (t.store.put_bytes + t.verify.proof_bytes * t.verify.walks) as f64),
        );
    }
    put("crypto.sha256_mb_per_s".into(), c.sha);
    put("trace.overhead_pct".into(), c.overhead);

    let units = per_layer_metrics();
    for ((name, value), (want, unit)) in values.into_iter().zip(units) {
        debug_assert_eq!(name, want);
        push(out, &name, value, unit);
        let from =
            if name.starts_with("forkbase.call") || name.starts_with("index.self") { l } else { w };
        let detail = match verb_of(&name) {
            // Exact counts beside the ratios, so wasted work shows without
            // a timer.
            Some(v) if name.starts_with("client.round_trips") => {
                format!(
                    " (requests={} over ops={})",
                    of(w, v).map(|t| t.requests).sum::<u64>(),
                    of(w, v).count()
                )
            }
            Some(v) => format!(" (ops={})", of(from, v).count()),
            None if name == "server.scan_useful_ratio" => {
                format!(" (useful={useful} bytes of shipped={shipped} bytes)")
            }
            None => String::new(),
        };
        out.notes.push(format!("{name} {value:.4} {unit}{detail}"));
    }
}

/// The verb a per-layer metric name ends in, if any.
fn verb_of(name: &str) -> Option<Verb> {
    Verb::ALL.into_iter().find(|v| name.ends_with(&format!(".{}", v.name())))
}
