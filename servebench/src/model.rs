//! The model of committed contents that `kv-zipf` and `wiki-history`
//! check every reply against.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use siri::{Bytes, Entry, IndexFactory};

use crate::ops::{merge_changes, Op, Reply, EDIT, MASTER};
use crate::rig::Rig;

/// `edit`'s contents while a branch round is open.
#[derive(Debug, Default)]
struct Round {
    edit: BTreeMap<Bytes, Bytes>,
    /// Keys written on either branch since the fork.
    touched: BTreeSet<Bytes>,
    /// Keys written on `edit` since the fork.
    edit_touched: BTreeSet<Bytes>,
    /// Fork-point values of the keys written on either branch.
    base: BTreeMap<Bytes, Option<Bytes>>,
}

impl Round {
    /// Note keys about to be written on a branch whose contents are
    /// `branch`; a key's first write records its fork-point value.
    fn touch(&mut self, branch: &BTreeMap<Bytes, Bytes>, entries: &[Entry], on_edit: bool) {
        for e in entries {
            self.base.entry(e.key.clone()).or_insert_with(|| branch.get(&e.key).cloned());
            self.touched.insert(e.key.clone());
            if on_edit {
                self.edit_touched.insert(e.key.clone());
            }
        }
    }
}

#[derive(Debug, Default)]
pub struct Model {
    pub master: BTreeMap<Bytes, Bytes>,
    round: Option<Round>,
}

impl Model {
    pub fn load(entries: &[Entry]) -> Self {
        let master = entries.iter().map(|e| (e.key.clone(), e.value.clone())).collect();
        Model { master, round: None }
    }

    fn check_value(&self, key: &Bytes, got: &Option<Bytes>) -> Result<(), String> {
        if self.master.get(key) == got.as_ref() {
            Ok(())
        } else {
            Err(format!(
                "read of {:?} returned {:?} bytes, model has {:?}",
                key,
                got.as_ref().map(Bytes::len),
                self.master.get(key).map(Bytes::len)
            ))
        }
    }

    fn check_scan(&self, start: &Bytes, limit: usize, got: &[Entry]) -> Result<(), String> {
        let want =
            self.master.range::<Bytes, _>((Bound::Included(start), Bound::Unbounded)).take(limit);
        let same = got.len() == want.clone().count()
            && got.iter().zip(want).all(|(e, (k, v))| e.key == *k && e.value == *v);
        if same {
            Ok(())
        } else {
            Err(format!("scan from {start:?} returned {} entries unlike the model", got.len()))
        }
    }

    /// The diff size the model predicts: keys whose values differ between
    /// the two branches (only keys written since the fork can).
    fn expected_diff(&self) -> usize {
        let Some(r) = &self.round else { return 0 };
        r.touched.iter().filter(|k| self.master.get(*k) != r.edit.get(*k)).count()
    }

    /// What a merge must change on `master`: each key `edit` changed since
    /// the fork and whose value differs on `master` takes `edit`'s value
    /// (conflicts prefer `edit`). A write that left the fork-point value in
    /// place is no change.
    fn expected_merge(&self) -> Vec<(Bytes, Option<Bytes>)> {
        let Some(r) = &self.round else { return Vec::new() };
        r.edit_touched
            .iter()
            .filter(|k| r.base.get(*k).is_some_and(|b| b.as_ref() != r.edit.get(*k)))
            .filter(|k| self.master.get(*k) != r.edit.get(*k))
            .map(|k| (k.clone(), r.edit.get(k).cloned()))
            .collect()
    }

    /// Check a reply of any op against the model and fold it in.
    pub fn settle<F>(&mut self, rig: &Rig<F>, op: &Op, reply: Reply) -> Result<(), String>
    where
        F: IndexFactory + Send + Sync + 'static,
        F::Index: Send + Sync,
    {
        match (op, reply) {
            (Op::Get(key) | Op::VerifiedGet(key), Reply::Value(got)) => self.check_value(key, &got),
            (Op::Scan { start, limit }, Reply::Entries(got)) => {
                self.check_scan(start, *limit, &got)
            }
            (Op::Commit { branch, entries }, Reply::Committed(_)) => {
                let round = self.round.as_mut();
                let map = match (*branch, round) {
                    (MASTER, round) => {
                        if let Some(r) = round {
                            r.touch(&self.master, entries, false);
                        }
                        &mut self.master
                    }
                    (EDIT, Some(r)) => {
                        let edit = std::mem::take(&mut r.edit);
                        r.touch(&edit, entries, true);
                        r.edit = edit;
                        &mut r.edit
                    }
                    _ => return Err(format!("commit to {branch} outside a branch round")),
                };
                for e in entries {
                    map.insert(e.key.clone(), e.value.clone());
                }
                Ok(())
            }
            (Op::Fork, Reply::Done) => {
                self.round = Some(Round { edit: self.master.clone(), ..Round::default() });
                Ok(())
            }
            (Op::Diff, Reply::DiffLen(n)) => {
                let want = self.expected_diff();
                if n == want {
                    Ok(())
                } else {
                    Err(format!("diff found {n} differing keys, model predicts {want}"))
                }
            }
            (Op::Merge, Reply::Merged { before, after }) => {
                let want = self.expected_merge();
                let got = merge_changes(rig, before, after).map_err(|e| e.to_string())?;
                for (k, v) in &want {
                    match v {
                        Some(v) => self.master.insert(k.clone(), v.clone()),
                        None => self.master.remove(k),
                    };
                }
                if got == want {
                    Ok(())
                } else {
                    Err(format!("merge changed {} keys, model predicts {}", got.len(), want.len()))
                }
            }
            (Op::DropEdit, Reply::Done) => {
                self.round = None;
                Ok(())
            }
            (op, reply) => Err(format!("unexpected reply {reply:?} to {op:?}")),
        }
    }
}
