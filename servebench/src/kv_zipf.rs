//! `kv-zipf`: YCSB records on MVMB+ over `MemStore`, small enough to stay
//! in the engine's caches, read and written by one connection under a
//! Zipf θ=0.9 key choice. The wire dominates each op.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siri::workloads::zipf::Zipfian;
use siri::workloads::YcsbConfig;
use siri::{Entry, MvmbFactory, MvmbParams, RemoteSession, WriteBatch};

use crate::drive::{drive, Budget, DriveOpts, Record, Stream};
use crate::model::Model;
use crate::ops::{Exec, Op, Reply, MASTER};
use crate::rig::{Rig, StoreKind};
use crate::workload::{push_round, Workload};

#[derive(Debug, Clone, Copy)]
pub struct KvZipfScale {
    pub records: usize,
    /// A branch round after every this many ops.
    pub round_every: u64,
}

impl KvZipfScale {
    pub const FULL: KvZipfScale = KvZipfScale { records: 20_000, round_every: 10_000 };
    pub const TINY: KvZipfScale = KvZipfScale { records: 2_000, round_every: 500 };
}

pub struct KvZipf {
    scale: KvZipfScale,
    seed: u64,
    ycsb: YcsbConfig,
    dataset: Vec<Entry>,
    zipf: Zipfian,
    rng: StdRng,
    /// Write version per record, so every put changes real bytes.
    versions: Vec<u32>,
    model: Model,
    issued: u64,
    queue: VecDeque<Op>,
}

impl KvZipf {
    pub fn new(seed: u64, scale: KvZipfScale) -> Self {
        let ycsb = YcsbConfig { seed, ..YcsbConfig::default() };
        KvZipf {
            scale,
            seed,
            ycsb,
            dataset: ycsb.dataset(scale.records),
            zipf: Zipfian::new(scale.records, 0.9),
            rng: StdRng::seed_from_u64(seed ^ 0x6b76),
            versions: vec![0; scale.records],
            model: Model::default(),
            issued: 0,
            queue: VecDeque::new(),
        }
    }

    fn put(&mut self, id: usize) -> Vec<Entry> {
        self.versions[id] += 1;
        vec![self.ycsb.entry(id as u64, self.versions[id])]
    }
}

impl Stream<MvmbFactory> for KvZipf {
    fn next_op(&mut self) -> Op {
        if let Some(op) = self.queue.pop_front() {
            return op;
        }
        self.issued += 1;
        let id = self.zipf.next(&mut self.rng);
        if self.issued.is_multiple_of(self.scale.round_every) {
            let mut batches = Vec::new();
            for _ in 0..3 {
                let (a, b) = (self.zipf.next(&mut self.rng), self.zipf.next(&mut self.rng));
                batches.push((self.put(a), self.put(b)));
            }
            push_round(&mut self.queue, batches);
            return self.next_op();
        }
        let key = self.ycsb.key(id as u64);
        match self.rng.gen_range(0..100u32) {
            0..=69 => Op::Get(key),
            70..=79 => Op::VerifiedGet(key),
            80..=89 => Op::Scan { start: key, limit: 10 },
            _ => Op::Commit { branch: MASTER, entries: self.put(id) },
        }
    }

    fn settle(&mut self, rig: &Rig<MvmbFactory>, op: &Op, reply: Reply) -> Result<(), String> {
        self.model.settle(rig, op, reply)
    }
}

impl Workload for KvZipf {
    type F = MvmbFactory;

    fn name(&self) -> &'static str {
        "kv-zipf"
    }

    fn factory(&self) -> MvmbFactory {
        MvmbFactory(MvmbParams::default())
    }

    fn store_kind(&self) -> StoreKind {
        StoreKind::Mem
    }

    fn connections(&self) -> usize {
        1
    }

    fn load(&mut self, rig: &Rig<MvmbFactory>) -> Result<(), String> {
        rig.engine
            .commit(MASTER, WriteBatch::from_entries(self.dataset.clone()))
            .map_err(|e| e.to_string())?;
        self.model = Model::load(&self.dataset);
        self.rng = StdRng::seed_from_u64(self.seed ^ 0x6b76);
        self.versions.fill(0);
        self.issued = 0;
        self.queue.clear();
        Ok(())
    }

    fn run(
        &mut self,
        rig: &Rig<MvmbFactory>,
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
        None
    }
}
