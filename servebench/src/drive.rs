//! The closed loop: one caller issues an op, waits for its reply, checks
//! it against the workload's model, and records what it cost.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use siri::proto::{Request, Response};
use siri::{Hash, IndexError, IndexFactory, RemoteSession};

use crate::ops::{Exec, Op, Reply, Verb, VerifyWork, MASTER};
use crate::rig::Rig;
use crate::stats::Samples;
use crate::tap::{conn_slot, StoreWork};

/// A workload's op generator together with its model of what was
/// committed.
pub trait Stream<F: IndexFactory> {
    fn next_op(&mut self) -> Op;

    /// Check a successful reply against the model and fold it in.
    fn settle(&mut self, rig: &Rig<F>, op: &Op, reply: Reply) -> Result<(), String>;

    /// A lock `op` holds while it runs, taken before its timer starts, so
    /// that ops of two lanes which must not overlap never do.
    fn gate(&self, _op: &Op) -> Option<Arc<Mutex<()>>> {
        None
    }
}

/// One op's spans and counts in a traced run. Every field is measured
/// around one call, so the op id ties the client span, the server's
/// counters and the store spans (taken on the handler thread) together.
#[derive(Debug, Clone, Copy)]
pub struct OpTrace {
    pub id: u64,
    pub verb: Verb,
    pub call_ns: u64,
    pub requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub store: StoreWork,
    pub verify: VerifyWork,
    /// Key and value bytes of the entries a scan returned.
    pub useful_bytes: u64,
}

/// Timed phases are cut into this many equal windows; the report takes
/// medians over windows, so a burst of interference on the machine moves
/// one window, not the result.
pub const WINDOWS: usize = 20;

/// When a lane stops.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub start: Instant,
    pub until: Option<Instant>,
    pub ops: Option<u64>,
    /// Window length of a timed phase; an op-counted phase is one window.
    pub window_s: Option<f64>,
}

impl Budget {
    pub fn seconds(s: f64) -> Self {
        let start = Instant::now();
        let until = Some(start + std::time::Duration::from_secs_f64(s));
        Budget { start, until, ops: None, window_s: Some(s / WINDOWS as f64) }
    }

    pub fn ops(n: u64) -> Self {
        Budget { start: Instant::now(), until: None, ops: Some(n), window_s: None }
    }

    fn done(&self, issued: u64) -> bool {
        self.ops.is_some_and(|n| issued >= n) || self.until.is_some_and(|t| Instant::now() >= t)
    }

    fn window(&self, at: Instant) -> usize {
        self.window_s.map_or(0, |w| ((at - self.start).as_secs_f64() / w) as usize).min(WINDOWS - 1)
    }
}

/// Everything one lane measured.
#[derive(Debug, Default)]
pub struct Record {
    pub samples: [Samples; 6],
    /// Latencies per verb, per window of the phase.
    pub windows: Vec<[Samples; 6]>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed verified reads whose proof the client rejected.
    pub rejected: u64,
    pub completed: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    pub errors: BTreeMap<String, u64>,
    /// Key plus value bytes of every committed entry.
    pub user_bytes: u64,
    /// `master` digests in publication order.
    pub master_roots: Vec<Hash>,
    pub traces: Vec<OpTrace>,
    /// Ops with their completion time, for the in-process replay.
    pub log: Vec<(Instant, Op)>,
    /// `branch_digest` round trips, timed between ops of a traced run.
    pub rtt: Samples,
    pub elapsed_s: f64,
}

impl Record {
    pub fn absorb(&mut self, o: Record) {
        for (a, b) in self.samples.iter_mut().zip(o.samples.iter()) {
            a.extend(b);
        }
        if self.windows.len() < o.windows.len() {
            self.windows.resize(o.windows.len(), Default::default());
        }
        for (a, b) in self.windows.iter_mut().zip(o.windows.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                x.extend(y);
            }
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.rejected += o.rejected;
        self.completed += o.completed;
        self.mismatches += o.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch = o.first_mismatch;
        }
        for (k, v) in o.errors {
            *self.errors.entry(k).or_default() += v;
        }
        self.user_bytes += o.user_bytes;
        self.master_roots.extend(o.master_roots);
        self.traces.extend(o.traces);
        self.log.extend(o.log);
        self.rtt.extend(&o.rtt);
        self.elapsed_s = self.elapsed_s.max(o.elapsed_s);
    }
}

/// One connection's server counters, read through the `Stats` verb on
/// that connection. The handler serves `Stats` only after it has tallied
/// its previous response, so unlike `ServerHandle::stats` (which races
/// the tally of a response the client has already read) the counters are
/// exact up to the last op.
#[derive(Debug, Clone, Copy)]
struct Mark {
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    /// Frame size of the `Stats` reply itself, tallied after the mark.
    reply_bytes: u64,
}

fn frame_len(payload: Vec<u8>) -> u64 {
    4 + payload.len() as u64
}

fn mark(remote: Option<&RemoteSession>, conn: u64) -> Option<Mark> {
    let stats = remote?.server_stats().ok()?;
    let row = stats.conns.iter().find(|c| c.id == conn)?.clone();
    let reply_bytes = frame_len(Response::Stats(stats).encode());
    Some(Mark {
        requests: row.requests,
        bytes_in: row.bytes_in,
        bytes_out: row.bytes_out,
        reply_bytes,
    })
}

/// Wire traffic of the op between two marks: (requests, bytes in, bytes
/// out), less the second mark's own `Stats` request.
fn wire_delta(before: Option<Mark>, after: Option<Mark>) -> (u64, u64, u64) {
    let (Some(b), Some(a)) = (before, after) else { return (0, 0, 0) };
    let stats_request = frame_len(Request::Stats.encode());
    (
        a.requests.saturating_sub(b.requests + 1),
        a.bytes_in.saturating_sub(b.bytes_in + stats_request),
        a.bytes_out.saturating_sub(b.bytes_out + b.reply_bytes),
    )
}

#[derive(Debug, Clone, Copy, Default)]
pub struct DriveOpts {
    pub traced: bool,
    pub keep_log: bool,
    /// Time one `branch_digest` round trip after every this many ops (0:
    /// never).
    pub rtt_every: u64,
}

/// Run ops from `stream` on `exec` until `budget` is spent. `conn` is the
/// session's server connection id, 0 for in process.
pub fn drive<F, S>(
    exec: &mut Exec<'_, F>,
    conn: u64,
    stream: &mut S,
    budget: Budget,
    opts: DriveOpts,
) -> Record
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
    S: Stream<F>,
{
    let rig = exec.rig;
    let mut rec = Record {
        windows: vec![Default::default(); if budget.window_s.is_some() { WINDOWS } else { 1 }],
        ..Record::default()
    };
    let started = Instant::now();
    let mut issued = 0u64;
    let mut next_id = 1u64;
    let mut last_mark = None;
    while !budget.done(issued) {
        let op = stream.next_op();
        issued += 1;
        let verb = op.verb();
        // Diff and merge run on this thread even when the session is
        // remote.
        let in_process = conn == 0 || matches!(op, Op::Diff | Op::Merge);
        let slot = if in_process { 0 } else { conn_slot(conn) };
        if opts.traced {
            rig.tap.take(slot);
            if last_mark.is_none() {
                last_mark = mark(exec.remote, conn);
            }
        }
        let gate = stream.gate(&op);
        let held = gate.as_deref().map(|g| g.lock().unwrap_or_else(|p| p.into_inner()));
        let t = Instant::now();
        let result = exec.run(&op);
        let call_ns = t.elapsed().as_nanos() as u64;
        drop(held);
        rec.attempted += 1;
        match result {
            Ok(reply) => {
                rec.completed += 1;
                if let Some(v) = verb {
                    rec.samples[v.index()].push(call_ns);
                    rec.windows[budget.window(t)][v.index()].push(call_ns);
                }
                if let Op::Commit { entries, .. } = &op {
                    rec.user_bytes +=
                        entries.iter().map(|e| (e.key.len() + e.value.len()) as u64).sum::<u64>();
                }
                match (&op, &reply) {
                    (Op::Commit { branch: MASTER, .. }, Reply::Committed(root)) => {
                        rec.master_roots.push(*root)
                    }
                    (Op::Merge, Reply::Merged { after, .. }) => rec.master_roots.push(*after),
                    _ => {}
                }
                let before = last_mark;
                if opts.traced {
                    last_mark = mark(exec.remote, conn);
                }
                if let (true, Some(verb)) = (opts.traced, verb) {
                    let (requests, bytes_in, bytes_out) = wire_delta(before, last_mark);
                    let useful_bytes = match &reply {
                        Reply::Entries(es) => {
                            es.iter().map(|e| (e.key.len() + e.value.len()) as u64).sum()
                        }
                        _ => 0,
                    };
                    rec.traces.push(OpTrace {
                        id: next_id,
                        verb,
                        call_ns,
                        requests,
                        bytes_in,
                        bytes_out,
                        store: rig.tap.take(slot),
                        verify: if verb == Verb::VerifiedGet {
                            exec.last_verify
                        } else {
                            VerifyWork::default()
                        },
                        useful_bytes,
                    });
                    next_id += 1;
                }
                if let Err(why) = stream.settle(rig, &op, reply) {
                    rec.mismatches += 1;
                    rec.first_mismatch.get_or_insert(why);
                }
            }
            Err(e) => {
                last_mark = None;
                rec.failed += 1;
                if matches!(e, IndexError::ProofRejected(_)) {
                    rec.rejected += 1;
                }
                let kind = format!("{}: {e}", verb.map_or("branch-op", Verb::name));
                *rec.errors.entry(kind).or_default() += 1;
            }
        }
        if opts.keep_log {
            rec.log.push((Instant::now(), op));
        }
        if opts.rtt_every > 0 && issued.is_multiple_of(opts.rtt_every) {
            let t = Instant::now();
            if exec.session.branch_digest(MASTER).is_ok() {
                rec.rtt.push(t.elapsed().as_nanos() as u64);
            }
            last_mark = None;
        }
    }
    rec.elapsed_s = started.elapsed().as_secs_f64();
    rec
}

/// Replay logged ops in process, without model checks.
pub fn replay<F>(exec: &mut Exec<'_, F>, log: &[(Instant, Op)], traced: bool) -> Record
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    struct Replay<'a> {
        ops: std::slice::Iter<'a, (Instant, Op)>,
    }
    impl<F: IndexFactory> Stream<F> for Replay<'_> {
        fn next_op(&mut self) -> Op {
            self.ops.next().map(|(_, op)| op.clone()).unwrap_or(Op::Fork)
        }
        fn settle(&mut self, _: &Rig<F>, _: &Op, _: Reply) -> Result<(), String> {
            Ok(())
        }
    }
    let mut stream = Replay { ops: log.iter() };
    exec.rig.tap.set_tracing(traced);
    let rec = drive(
        exec,
        0,
        &mut stream,
        Budget::ops(log.len() as u64),
        DriveOpts { traced, ..DriveOpts::default() },
    );
    exec.rig.tap.set_tracing(false);
    rec
}
