//! `ledger-mpt`: Ethereum-style blocks on MPT over an fsynced `FileStore`.
//! Connection 1 commits 150-transaction blocks back to back; connection 2
//! is a light client reading transactions already committed. Its `get`s
//! and scans run beside the writer's commits; its verified reads are taken
//! between blocks, as a light client checks a proof against a finished
//! block. Every Nth block the writer also runs a branch round: a side
//! block on `edit`, the next block on `master`, diff, and a merge that
//! brings the side block into `master`.
//!
//! `RemoteSession::verified_get` reads the branch digest and the proof in
//! two round trips, so a block published between them makes the client
//! reject a sound proof. A race probe runs the light client with the gate
//! open and counts those rejections apart from the gated phases.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use siri::workloads::eth::EthConfig;
use siri::{Bytes, Entry, MptFactory, RemoteSession, WriteBatch};

use crate::drive::{drive, Budget, DriveOpts, Record, Stream};
use crate::ops::{merge_changes, Exec, Op, Reply, Verb, EDIT, MASTER};
use crate::rig::{Rig, StoreKind};
use crate::workload::{push_round, Workload};

#[derive(Debug, Clone, Copy)]
pub struct LedgerScale {
    /// Blocks committed during set-up.
    pub preload_blocks: u64,
    pub txs_per_block: usize,
    /// A branch round after every this many blocks.
    pub round_every: u64,
}

impl LedgerScale {
    pub const FULL: LedgerScale =
        LedgerScale { preload_blocks: 100, txs_per_block: 150, round_every: 20 };
    pub const TINY: LedgerScale =
        LedgerScale { preload_blocks: 5, txs_per_block: 20, round_every: 4 };
}

/// Where a transaction came from: main chain or side chain, block, index.
#[derive(Debug, Clone, Copy)]
struct TxId {
    side: bool,
    block: u64,
    idx: u32,
    /// Commit sequence number; a scan must show every transaction
    /// committed before it started.
    seq: u64,
}

/// What the writer has committed to `master`, shared with the reader.
struct Chain {
    main: EthConfig,
    side: EthConfig,
    keys: Vec<Bytes>,
    index: BTreeMap<Bytes, TxId>,
    /// Transactions the writer is publishing right now: a reader may see
    /// them before the writer's reply arrives.
    pending: HashMap<Bytes, TxId>,
    seq: u64,
}

impl Chain {
    fn value(&self, id: &TxId) -> Bytes {
        let cfg = if id.side { &self.side } else { &self.main };
        Bytes::from(cfg.transaction(id.block, id.idx).rlp_encode())
    }

    fn publish(&mut self, ids: Vec<(Bytes, TxId)>) {
        self.seq += 1;
        for (k, mut id) in ids {
            self.pending.remove(&k);
            id.seq = self.seq;
            self.keys.push(k.clone());
            self.index.insert(k, id);
        }
    }
}

/// One block's entries and the ids the model keeps for them.
type Block = (Vec<Entry>, Vec<(Bytes, TxId)>);

fn block(cfg: EthConfig, side: bool, block: u64) -> Block {
    let entries = cfg.block_entries(block);
    let ids = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (e.key.clone(), TxId { side, block, idx: i as u32, seq: 0 }))
        .collect();
    (entries, ids)
}

fn lock(chain: &Mutex<Chain>) -> MutexGuard<'_, Chain> {
    chain.lock().unwrap_or_else(|p| p.into_inner())
}

pub struct Ledger {
    scale: LedgerScale,
    seed: u64,
    preload: Vec<Block>,
    chain: Arc<Mutex<Chain>>,
    writer: Writer,
    reader: Reader,
    /// Held by each `master` commit and merge and by each verified read.
    gate: Arc<Mutex<()>>,
}

impl Ledger {
    pub fn new(seed: u64, scale: LedgerScale) -> Self {
        let fresh = Self::fresh_chain(seed, scale);
        let preload = (0..scale.preload_blocks).map(|b| block(fresh.main, false, b)).collect();
        let chain = Arc::new(Mutex::new(fresh));
        Ledger {
            scale,
            seed,
            preload,
            writer: Writer::new(chain.clone(), scale),
            reader: Reader::new(chain.clone(), seed),
            chain,
            gate: Arc::default(),
        }
    }

    fn run_lanes(
        &mut self,
        rig: &Rig<MptFactory>,
        conns: &[(RemoteSession, u64)],
        budget: Budget,
        opts: DriveOpts,
        gated: bool,
    ) -> Record {
        let gate = gated.then(|| self.gate.clone());
        self.writer.gate.clone_from(&gate);
        self.reader.gate = gate;
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let mut rec = std::thread::scope(|s| {
            let w = s.spawn(|| {
                let (session, conn) = &conns[0];
                let mut exec = Exec::new(rig, session, Some(session));
                exec.split_verify = opts.traced;
                drive(&mut exec, *conn, writer, budget, opts)
            });
            let (session, conn) = &conns[1];
            let mut exec = Exec::new(rig, session, Some(session));
            exec.split_verify = opts.traced;
            let mut rec =
                drive(&mut exec, *conn, reader, budget, DriveOpts { rtt_every: 0, ..opts });
            match w.join() {
                Ok(w) => rec.absorb(w),
                Err(_) => {
                    rec.mismatches += 1;
                    rec.first_mismatch.get_or_insert_with(|| "writer lane panicked".into());
                }
            }
            rec
        });
        rec.log.sort_by_key(|(t, _)| *t);
        rec
    }

    fn fresh_chain(seed: u64, scale: LedgerScale) -> Chain {
        Chain {
            main: EthConfig { txs_per_block: scale.txs_per_block, seed },
            side: EthConfig { txs_per_block: scale.txs_per_block, seed: seed ^ 0x5_1de },
            keys: Vec::new(),
            index: BTreeMap::new(),
            pending: HashMap::new(),
            seq: 0,
        }
    }
}

/// Connection 1: blocks back to back, and the branch rounds.
struct Writer {
    chain: Arc<Mutex<Chain>>,
    scale: LedgerScale,
    next_block: u64,
    next_side: u64,
    queue: VecDeque<Op>,
    /// Transaction ids of each queued `master` commit, in queue order.
    staged: VecDeque<Vec<(Bytes, TxId)>>,
    /// Ids of the `master` commit in flight.
    in_flight: Vec<(Bytes, TxId)>,
    side_ids: Vec<(Bytes, TxId)>,
    gate: Option<Arc<Mutex<()>>>,
}

impl Writer {
    fn new(chain: Arc<Mutex<Chain>>, scale: LedgerScale) -> Self {
        Writer {
            chain,
            scale,
            next_block: scale.preload_blocks,
            next_side: 0,
            queue: VecDeque::new(),
            staged: VecDeque::new(),
            in_flight: Vec::new(),
            side_ids: Vec::new(),
            gate: None,
        }
    }

    fn main_block(&mut self) -> Vec<Entry> {
        let cfg = lock(&self.chain).main;
        let (entries, ids) = block(cfg, false, self.next_block);
        self.next_block += 1;
        self.staged.push_back(ids);
        entries
    }
}

impl Stream<MptFactory> for Writer {
    fn next_op(&mut self) -> Op {
        if self.queue.is_empty() {
            if self.next_block.is_multiple_of(self.scale.round_every) {
                let cfg = lock(&self.chain).side;
                let (side, ids) = block(cfg, true, self.next_side);
                self.next_side += 1;
                self.side_ids = ids;
                let main = self.main_block();
                push_round(&mut self.queue, vec![(side, main)]);
            } else {
                let entries = self.main_block();
                self.queue.push_back(Op::Commit { branch: MASTER, entries });
            }
        }
        let op = self.queue.pop_front().unwrap_or(Op::Fork);
        let mut chain = lock(&self.chain);
        match &op {
            Op::Commit { branch: MASTER, .. } => {
                self.in_flight = self.staged.pop_front().unwrap_or_default();
                chain.pending.extend(self.in_flight.iter().cloned());
            }
            Op::Merge => chain.pending.extend(self.side_ids.iter().cloned()),
            _ => {}
        }
        op
    }

    fn settle(&mut self, rig: &Rig<MptFactory>, op: &Op, reply: Reply) -> Result<(), String> {
        match (op, reply) {
            (Op::Commit { branch: MASTER, .. }, Reply::Committed(_)) => {
                lock(&self.chain).publish(std::mem::take(&mut self.in_flight));
                Ok(())
            }
            (Op::Commit { branch: EDIT, .. }, Reply::Committed(_))
            | (Op::Fork | Op::DropEdit, Reply::Done) => Ok(()),
            (Op::Diff, Reply::DiffLen(n)) => {
                // Both sides add fresh transactions: every key differs.
                let want = 2 * self.scale.txs_per_block;
                if n == want {
                    Ok(())
                } else {
                    Err(format!("diff found {n} differing keys, expected {want}"))
                }
            }
            (Op::Merge, Reply::Merged { before, after }) => {
                let got = merge_changes(rig, before, after).map_err(|e| e.to_string())?;
                let ids = std::mem::take(&mut self.side_ids);
                let mut chain = lock(&self.chain);
                let ok = got.len() == ids.len()
                    && got.iter().all(|(k, v)| {
                        let id = ids.iter().find(|(key, _)| key == k).map(|(_, id)| *id);
                        id.is_some_and(|id| v.as_ref() == Some(&chain.value(&id)))
                    });
                chain.publish(ids);
                if ok {
                    Ok(())
                } else {
                    Err(format!("merge changed {} keys unlike the side block", got.len()))
                }
            }
            (op, reply) => Err(format!("unexpected reply {reply:?} to {op:?}")),
        }
    }

    /// Every op that moves `master`'s digest.
    fn gate(&self, op: &Op) -> Option<Arc<Mutex<()>>> {
        match op {
            Op::Commit { branch: MASTER, .. } | Op::Merge => self.gate.clone(),
            _ => None,
        }
    }
}

/// Connection 2: a light client reading committed transactions.
struct Reader {
    chain: Arc<Mutex<Chain>>,
    rng: StdRng,
    issued: u64,
    /// The commit sequence number when the current scan was issued.
    scan_seq: u64,
    gate: Option<Arc<Mutex<()>>>,
}

impl Reader {
    fn new(chain: Arc<Mutex<Chain>>, seed: u64) -> Self {
        Reader {
            chain,
            rng: StdRng::seed_from_u64(seed ^ 0x11c),
            issued: 0,
            scan_seq: 0,
            gate: None,
        }
    }

    fn check_scan(&self, start: &Bytes, limit: usize, got: &[Entry]) -> Result<(), String> {
        let chain = lock(&self.chain);
        let mut prev: Option<&Bytes> = None;
        for e in got {
            if e.key < *start || prev.is_some_and(|p| e.key <= *p) {
                return Err("scan returned keys out of order".into());
            }
            prev = Some(&e.key);
            let id = chain.index.get(&e.key).or_else(|| chain.pending.get(&e.key));
            if id.map(|id| chain.value(id)) != Some(e.value.clone()) {
                return Err(format!("scan returned {:?} unlike the chain", e.key));
            }
        }
        // Completeness: every transaction committed before the scan and
        // inside the window it covered must be there.
        let end = match (got.len() < limit, got.last()) {
            (false, Some(last)) => Bound::Included(last.key.clone()),
            _ => Bound::Unbounded,
        };
        let shown = |k: &Bytes| got.iter().any(|e| e.key == *k);
        let missing = chain
            .index
            .range::<Bytes, _>((Bound::Included(start.clone()), end))
            .filter(|(k, id)| id.seq <= self.scan_seq && !shown(k))
            .count();
        if missing == 0 {
            Ok(())
        } else {
            Err(format!("scan from {start:?} skipped {missing} committed transactions"))
        }
    }
}

impl Stream<MptFactory> for Reader {
    fn next_op(&mut self) -> Op {
        let chain = lock(&self.chain);
        let key = chain.keys[self.rng.gen_range(0..chain.keys.len())].clone();
        self.issued += 1;
        if self.issued.is_multiple_of(10) {
            self.scan_seq = chain.seq;
            Op::Scan { start: key, limit: 10 }
        } else if self.issued.is_multiple_of(2) {
            Op::VerifiedGet(key)
        } else {
            Op::Get(key)
        }
    }

    fn settle(&mut self, _: &Rig<MptFactory>, op: &Op, reply: Reply) -> Result<(), String> {
        match (op, reply) {
            (Op::Get(key) | Op::VerifiedGet(key), Reply::Value(got)) => {
                let chain = lock(&self.chain);
                let want = chain.index.get(key).map(|id| chain.value(id));
                if got == want {
                    Ok(())
                } else {
                    Err(format!("read of {key:?} disagrees with the chain"))
                }
            }
            (Op::Scan { start, limit }, Reply::Entries(got)) => {
                self.check_scan(start, *limit, &got)
            }
            (op, reply) => Err(format!("unexpected reply {reply:?} to {op:?}")),
        }
    }

    fn gate(&self, op: &Op) -> Option<Arc<Mutex<()>>> {
        match op.verb() {
            Some(Verb::VerifiedGet) => self.gate.clone(),
            _ => None,
        }
    }
}

impl Workload for Ledger {
    type F = MptFactory;

    fn name(&self) -> &'static str {
        "ledger-mpt"
    }

    fn factory(&self) -> MptFactory {
        MptFactory
    }

    fn store_kind(&self) -> StoreKind {
        StoreKind::File
    }

    fn connections(&self) -> usize {
        2
    }

    fn load(&mut self, rig: &Rig<MptFactory>) -> Result<(), String> {
        *lock(&self.chain) = Self::fresh_chain(self.seed, self.scale);
        self.writer = Writer::new(self.chain.clone(), self.scale);
        self.reader = Reader::new(self.chain.clone(), self.seed);
        for (entries, ids) in &self.preload {
            rig.engine
                .commit(MASTER, WriteBatch::from_entries(entries.clone()))
                .map_err(|e| e.to_string())?;
            rig.note_commit();
            lock(&self.chain).publish(ids.clone());
        }
        Ok(())
    }

    fn run(
        &mut self,
        rig: &Rig<MptFactory>,
        conns: &[(RemoteSession, u64)],
        budget: Budget,
        opts: DriveOpts,
    ) -> Record {
        self.run_lanes(rig, conns, budget, opts, true)
    }

    fn race_probe(
        &mut self,
        rig: &Rig<MptFactory>,
        conns: &[(RemoteSession, u64)],
        budget: Budget,
    ) -> Option<Record> {
        Some(self.run_lanes(rig, conns, budget, DriveOpts::default(), false))
    }

    fn final_contents(&self) -> Option<Box<dyn Iterator<Item = Entry> + '_>> {
        // Values are regenerated as the fresh build consumes them.
        let chain = lock(&self.chain);
        let (index, main, side) = (chain.index.clone(), chain.main, chain.side);
        Some(Box::new(index.into_iter().map(move |(key, id)| {
            let cfg = if id.side { side } else { main };
            Entry { key, value: Bytes::from(cfg.transaction(id.block, id.idx).rlp_encode()) }
        })))
    }
}
