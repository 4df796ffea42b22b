//! `wiki-history`: a wiki dump on POS-Tree over an fsynced `FileStore`,
//! far larger than the engine's caches. Each version commits one large
//! delta, then reads it back with uniform point reads and one scan; every
//! Nth version runs a branch round, which carries the diff and merge
//! metrics.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siri::workloads::wiki::WikiConfig;
use siri::{ChunkerKind, Entry, PosFactory, PosParams, RemoteSession, WriteBatch};

use crate::drive::{drive, Budget, DriveOpts, Record, Stream};
use crate::model::Model;
use crate::ops::{Exec, Op, Reply, MASTER};
use crate::rig::{Rig, StoreKind};
use crate::workload::{push_round, Workload};

#[derive(Debug, Clone, Copy)]
pub struct WikiScale {
    pub pages: usize,
    /// A branch round after every this many versions.
    pub round_every: u32,
}

impl WikiScale {
    pub const FULL: WikiScale = WikiScale { pages: 200_000, round_every: 10 };
    pub const TINY: WikiScale = WikiScale { pages: 5_000, round_every: 3 };
}

/// Reads per version: point reads (every tenth verified), then one scan.
const READS_PER_VERSION: usize = 50;
const SCAN_LIMIT: usize = 100;

pub struct WikiHistory {
    scale: WikiScale,
    seed: u64,
    cfg: WikiConfig,
    dump: Vec<Entry>,
    rng: StdRng,
    /// The next version number to commit (branch rounds use some).
    next_version: u32,
    /// Versions committed by the main loop, not counting branch rounds.
    versions: u32,
    model: Model,
    queue: VecDeque<Op>,
}

/// The POS-Tree parameters, with the Buzhash chunker set explicitly.
pub fn pos_params() -> PosParams {
    PosParams { chunker: ChunkerKind::Buzhash, ..PosParams::default() }
}

impl WikiHistory {
    pub fn new(seed: u64, scale: WikiScale) -> Self {
        let cfg = WikiConfig { pages: scale.pages, seed, ..WikiConfig::default() };
        WikiHistory {
            scale,
            seed,
            cfg,
            dump: cfg.initial_dump(),
            rng: StdRng::seed_from_u64(seed ^ 0x7769),
            next_version: 1,
            versions: 0,
            model: Model::default(),
            queue: VecDeque::new(),
        }
    }

    fn delta(&mut self) -> Vec<Entry> {
        let v = self.next_version;
        self.next_version += 1;
        self.cfg.version_delta(v)
    }

    /// Pages that exist before version `v` is committed.
    fn pages_before(&self, v: u32) -> u64 {
        (self.cfg.pages + (v as usize - 1) * self.cfg.new_pages_per_version) as u64
    }

    fn queue_version(&mut self) {
        let v = self.next_version;
        let entries = self.delta();
        self.queue.push_back(Op::Commit { branch: MASTER, entries });
        let pages = self.pages_before(v);
        for i in 0..READS_PER_VERSION {
            let key = self.cfg.url(self.rng.gen_range(0..pages));
            self.queue.push_back(if i % 10 == 9 { Op::VerifiedGet(key) } else { Op::Get(key) });
        }
        let start = self.cfg.url(self.rng.gen_range(0..pages));
        self.queue.push_back(Op::Scan { start, limit: SCAN_LIMIT });
        self.versions += 1;
        if self.versions.is_multiple_of(self.scale.round_every) {
            let mut batches = Vec::new();
            for _ in 0..3 {
                let (edit, master) = (self.delta(), self.delta());
                batches.push((edit, master));
            }
            push_round(&mut self.queue, batches);
        }
    }
}

impl Stream<PosFactory> for WikiHistory {
    fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.queue.pop_front() {
                return op;
            }
            self.queue_version();
        }
    }

    fn settle(&mut self, rig: &Rig<PosFactory>, op: &Op, reply: Reply) -> Result<(), String> {
        self.model.settle(rig, op, reply)
    }
}

impl Workload for WikiHistory {
    type F = PosFactory;

    fn name(&self) -> &'static str {
        "wiki-history"
    }

    fn factory(&self) -> PosFactory {
        PosFactory(pos_params())
    }

    fn store_kind(&self) -> StoreKind {
        StoreKind::File
    }

    fn connections(&self) -> usize {
        1
    }

    fn load(&mut self, rig: &Rig<PosFactory>) -> Result<(), String> {
        rig.engine
            .commit(MASTER, WriteBatch::from_entries(self.dump.clone()))
            .map_err(|e| e.to_string())?;
        rig.note_commit();
        self.model = Model::load(&self.dump);
        self.rng = StdRng::seed_from_u64(self.seed ^ 0x7769);
        self.next_version = 1;
        self.versions = 0;
        self.queue.clear();
        Ok(())
    }

    fn run(
        &mut self,
        rig: &Rig<PosFactory>,
        conns: &[(RemoteSession, u64)],
        budget: Budget,
        opts: DriveOpts,
    ) -> Record {
        let (session, conn) = &conns[0];
        let mut exec = Exec::new(rig, session, Some(session));
        exec.split_verify = opts.traced;
        drive(&mut exec, *conn, self, budget, opts)
    }

    fn final_contents(&self) -> Option<Box<dyn Iterator<Item = Entry> + '_>> {
        Some(Box::new(
            self.model.master.iter().map(|(k, v)| Entry { key: k.clone(), value: v.clone() }),
        ))
    }
}
