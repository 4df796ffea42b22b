//! What the orchestrator needs from a workload, and the branch round all
//! three share.

use std::collections::VecDeque;

use siri::{Entry, IndexFactory, RemoteSession};

use crate::drive::{Budget, DriveOpts, Record};
use crate::ops::{Op, EDIT, MASTER};
use crate::rig::{Rig, StoreKind};

pub trait Workload {
    type F: IndexFactory<Index: Send + Sync> + Send + Sync + 'static;

    fn name(&self) -> &'static str;
    fn factory(&self) -> Self::F;
    fn store_kind(&self) -> StoreKind;
    /// Client connections the closed loop uses.
    fn connections(&self) -> usize;
    /// Load the initial contents in process and reset the model to them.
    fn load(&mut self, rig: &Rig<Self::F>) -> Result<(), String>;
    /// Run the closed loop on `conns` (each a session and its server id)
    /// until `budget` is spent.
    fn run(
        &mut self,
        rig: &Rig<Self::F>,
        conns: &[(RemoteSession, u64)],
        budget: Budget,
        opts: DriveOpts,
    ) -> Record;
    /// Run the closed loop again for `budget` with verified reads free to
    /// race a concurrent writer, and return what it recorded; `None` for a
    /// workload without a concurrent writer.
    fn race_probe(
        &mut self,
        _rig: &Rig<Self::F>,
        _conns: &[(RemoteSession, u64)],
        _budget: Budget,
    ) -> Option<Record> {
        None
    }
    /// `master`'s contents per the model, for the structural-invariance
    /// check; `None` for MVMB+, whose shape depends on history.
    fn final_contents(&self) -> Option<Box<dyn Iterator<Item = Entry> + '_>>;
}

/// Queue one branch round: fork `edit`, commit each `(edit, master)` pair
/// of batches on the two branches, diff the heads, merge `edit` back into
/// `master` from the fork point, and drop `edit`.
pub fn push_round(queue: &mut VecDeque<Op>, batches: Vec<(Vec<Entry>, Vec<Entry>)>) {
    queue.push_back(Op::Fork);
    for (edit, master) in batches {
        queue.push_back(Op::Commit { branch: EDIT, entries: edit });
        queue.push_back(Op::Commit { branch: MASTER, entries: master });
    }
    queue.push_back(Op::Diff);
    queue.push_back(Op::Merge);
    queue.push_back(Op::DropEdit);
}
