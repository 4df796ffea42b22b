//! The operations a workload issues and the executor that runs them
//! against a served engine (through a `RemoteSession`) or in process
//! (through `Forkbase`'s own `Session` impl).

use std::ops::Bound;
use std::time::Instant;

use siri::{
    verify_anchored_membership, Bytes, Entry, Hash, IndexError, IndexFactory, MergeStrategy,
    ProofVerdict, RemoteSession, Result, Session, SiriIndex, WriteBatch,
};

use crate::rig::Rig;

pub const MASTER: &str = "master";
pub const EDIT: &str = "edit";

/// The verbs the report times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Get,
    VerifiedGet,
    Scan,
    Commit,
    Diff,
    Merge,
}

impl Verb {
    pub const ALL: [Verb; 6] =
        [Verb::Get, Verb::VerifiedGet, Verb::Scan, Verb::Commit, Verb::Diff, Verb::Merge];
    /// Verbs that cross the wire (diff and merge have no wire verb: they
    /// run in process on the server's engine).
    pub const WIRE: [Verb; 4] = [Verb::Get, Verb::VerifiedGet, Verb::Scan, Verb::Commit];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Get => "get",
            Verb::VerifiedGet => "verified_get",
            Verb::Scan => "scan",
            Verb::Commit => "commit",
            Verb::Diff => "diff",
            Verb::Merge => "merge",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone)]
pub enum Op {
    Get(Bytes),
    VerifiedGet(Bytes),
    Scan {
        start: Bytes,
        limit: usize,
    },
    Commit {
        branch: &'static str,
        entries: Vec<Entry>,
    },
    /// Fork `edit` off `master` (bookkeeping for diff and merge).
    Fork,
    /// `SiriIndex::diff` of the `master` and `edit` heads.
    Diff,
    /// Three-way merge of `edit` into `master` from the fork point.
    Merge,
    /// Delete `edit` after its merge.
    DropEdit,
}

impl Op {
    pub fn verb(&self) -> Option<Verb> {
        match self {
            Op::Get(_) => Some(Verb::Get),
            Op::VerifiedGet(_) => Some(Verb::VerifiedGet),
            Op::Scan { .. } => Some(Verb::Scan),
            Op::Commit { .. } => Some(Verb::Commit),
            Op::Diff => Some(Verb::Diff),
            Op::Merge => Some(Verb::Merge),
            Op::Fork | Op::DropEdit => None,
        }
    }
}

/// What an op returned, for the model check.
#[derive(Debug, Clone)]
pub enum Reply {
    Value(Option<Bytes>),
    Entries(Vec<Entry>),
    Committed(Hash),
    DiffLen(usize),
    /// `master`'s digest before and after the merge.
    Merged {
        before: Hash,
        after: Hash,
    },
    Done,
}

/// Client-side work of the last verified read, for the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct VerifyWork {
    pub verify_ns: u64,
    pub proof_bytes: u64,
    /// Verification walks over the proof (each hashes every page once).
    pub walks: u64,
}

pub struct Exec<'a, F: IndexFactory> {
    pub rig: &'a Rig<F>,
    pub session: &'a dyn Session,
    /// Set when `session` is the wire: untraced verified reads then go
    /// through `RemoteSession::verified_get` itself.
    pub remote: Option<&'a RemoteSession>,
    /// Split verified reads into `Session::prove` plus a timed
    /// `verify_anchored_membership` — the calls `verified_get` makes.
    pub split_verify: bool,
    pub last_verify: VerifyWork,
}

impl<'a, F> Exec<'a, F>
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    pub fn new(
        rig: &'a Rig<F>,
        session: &'a dyn Session,
        remote: Option<&'a RemoteSession>,
    ) -> Self {
        Exec { rig, session, remote, split_verify: false, last_verify: VerifyWork::default() }
    }

    pub fn run(&mut self, op: &Op) -> Result<Reply> {
        let engine = &self.rig.engine;
        match op {
            Op::Get(key) => self.session.get(MASTER, key).map(Reply::Value),
            Op::VerifiedGet(key) => self.verified_get(key).map(Reply::Value),
            Op::Scan { start, limit } => {
                let cursor =
                    self.session.range(MASTER, Bound::Included(start), Bound::Unbounded)?;
                cursor.take(*limit).collect::<Result<Vec<Entry>>>().map(Reply::Entries)
            }
            Op::Commit { branch, entries } => self
                .session
                .commit(branch, WriteBatch::from_entries(entries.clone()))
                .map(|info| Reply::Committed(info.root)),
            Op::Fork => {
                self.session.fork(MASTER, EDIT)?;
                *self.rig.fork_base.lock().unwrap_or_else(|p| p.into_inner()) =
                    engine.branch_digest(EDIT)?;
                Ok(Reply::Done)
            }
            Op::Diff => {
                let (a, b) = (head(engine, MASTER)?, head(engine, EDIT)?);
                a.diff(&b).map(|d| Reply::DiffLen(d.len()))
            }
            Op::Merge => {
                let before = engine.branch_digest(MASTER)?;
                let base = *self.rig.fork_base.lock().unwrap_or_else(|p| p.into_inner());
                engine.merge_branches_with_base(MASTER, EDIT, base, MergeStrategy::PreferRight)?;
                self.rig.note_commit();
                Ok(Reply::Merged { before, after: engine.branch_digest(MASTER)? })
            }
            Op::DropEdit => self.session.delete_branch(EDIT).map(|()| Reply::Done),
        }
    }

    fn verified_get(&mut self, key: &[u8]) -> Result<Option<Bytes>> {
        if let (Some(remote), false) = (self.remote, self.split_verify) {
            return remote.verified_get(MASTER, key);
        }
        let (digest, proof) = self.session.prove(MASTER, key)?;
        let started = Instant::now();
        let verdict = verify_anchored_membership(self.rig.factory.scheme(), digest, key, &proof);
        self.last_verify = VerifyWork {
            verify_ns: started.elapsed().as_nanos() as u64,
            proof_bytes: proof.byte_size() as u64,
            // RemoteSession::prove verifies once before returning.
            walks: if self.remote.is_some() { 2 } else { 1 },
        };
        match verdict {
            ProofVerdict::Present(v) => Ok(Some(v)),
            ProofVerdict::Absent => Ok(None),
            ProofVerdict::Invalid(why) => Err(IndexError::ProofRejected(why)),
        }
    }
}

/// A branch head handle, or an error naming the missing branch.
pub fn head<F: IndexFactory>(engine: &siri::Forkbase<F>, branch: &str) -> Result<F::Index> {
    engine.head(branch).ok_or(IndexError::Unsupported("unknown branch"))
}

/// The changes a merge made to `master`, as `(key, new value)` pairs.
pub fn merge_changes<F: IndexFactory>(
    rig: &Rig<F>,
    before: Hash,
    after: Hash,
) -> Result<Vec<(Bytes, Option<Bytes>)>> {
    let h = head(&rig.engine, MASTER)?;
    let mut diff = h.at_root(before).diff(&h.at_root(after))?;
    diff.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(diff.into_iter().map(|d| (d.key, d.right)).collect())
}
