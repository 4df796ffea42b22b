//! One served system under test: a store, the timing decorator, a
//! `Forkbase` engine pinned to one shard, and a loopback `siri-server`.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use siri::{
    ClientOptions, FileStore, FileStoreOptions, Forkbase, FsyncPolicy, Hash, IndexFactory,
    MemStore, RemoteSession, ServerHandle, ServerOptions, ShardingPolicy, SharedStore,
    DEFAULT_SEGMENT_BYTES,
};

use crate::tap::{StoreTap, TimedStore};

/// Which store backs the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    Mem,
    /// A `FileStore` fsynced once per acknowledged commit.
    File,
}

impl StoreKind {
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Mem => "mem",
            StoreKind::File => "file",
        }
    }

    pub fn fsync_policy(self) -> &'static str {
        match self {
            StoreKind::Mem => "none (in-memory store)",
            StoreKind::File => "on-commit (CommitHook -> FileStore::note_commit)",
        }
    }
}

pub struct Rig<F: IndexFactory> {
    pub factory: F,
    pub engine: Arc<Forkbase<F>>,
    pub tap: Arc<StoreTap>,
    /// The real store under the decorator (its counters are the ground
    /// truth for bytes written and page sharing).
    pub inner: SharedStore,
    /// Where `edit` was forked from `master`: the base of the next merge.
    /// Kept here, not in an executor, because a branch round may span
    /// two phases of a run.
    pub fork_base: Mutex<Hash>,
    file: Option<Arc<FileStore>>,
    server: Option<ServerHandle<F>>,
    dir: Option<PathBuf>,
}

impl<F> Rig<F>
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    /// A fresh engine over a fresh store. A file store lives in `dir`,
    /// which must not exist yet and is removed when the rig drops.
    pub fn open(factory: F, kind: StoreKind, dir: PathBuf) -> std::io::Result<Self> {
        let tap = Arc::new(StoreTap::default());
        let (inner, file, dir): (SharedStore, _, _) = match kind {
            StoreKind::Mem => (Arc::new(MemStore::new()), None, None),
            StoreKind::File => {
                let opts = FileStoreOptions {
                    max_segment_bytes: DEFAULT_SEGMENT_BYTES,
                    fsync: FsyncPolicy::OnCommit,
                };
                let (fs, _) = FileStore::open_with(&dir, opts)?;
                let fs = Arc::new(fs);
                (fs.clone(), Some(fs), Some(dir))
            }
        };
        let timed: SharedStore = Arc::new(TimedStore::new(inner.clone(), tap.clone()));
        // Sharding pinned to one range regardless of SIRI_SHARDS; the
        // client cache's modelled fetch cost is unused here.
        let engine =
            Arc::new(Forkbase::with_sharding(factory.clone(), timed, ShardingPolicy::single(), 0));
        Ok(Rig {
            factory,
            engine,
            tap,
            inner,
            fork_base: Mutex::new(Hash::ZERO),
            file,
            server: None,
            dir,
        })
    }

    /// Apply the store's fsync policy after one logical commit, timed
    /// into the calling thread's slot — what the server's commit hook
    /// runs, and what in-process merges run after publishing. An
    /// in-memory store has nothing to flush; the hook is still timed.
    pub fn note_commit(&self) {
        durability_step(self.file.as_deref(), &self.tap);
    }

    /// Start the loopback server; commits fsync through its hook.
    pub fn serve(&mut self) -> std::io::Result<()> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let (file, tap) = (self.file.clone(), self.tap.clone());
        let hook: siri::server::CommitHook =
            Box::new(move |_: &str, _| durability_step(file.as_deref(), &tap));
        let opts = ServerOptions {
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(120)),
            ..ServerOptions::default()
        };
        self.server = Some(siri::serve(self.engine.clone(), listener, opts, Some(hook))?);
        Ok(())
    }

    /// Open one client connection; returns it with its server-side id.
    pub fn connect(&self) -> std::io::Result<(RemoteSession, u64)> {
        let server = self.server.as_ref().ok_or_else(|| std::io::Error::other("not serving"))?;
        let opts = ClientOptions {
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(120)),
            scheme: self.factory.scheme(),
            ..ClientOptions::default()
        };
        let session = RemoteSession::connect_with(server.addr(), opts)?;
        let id = server.stats().conns.iter().map(|c| c.id).max().unwrap_or(0);
        Ok((session, id))
    }
}

fn durability_step(file: Option<&FileStore>, tap: &StoreTap) {
    let started = Instant::now();
    let ok = file.is_none_or(|fs| fs.note_commit().is_ok());
    tap.record_fsync(started, ok);
}

/// Pin the calling thread, and so every thread it starts afterwards, to
/// the first `n` CPUs it may run on; returns the CPU list it runs on.
///
/// On a small VM a loopback round trip between two idle vCPUs waits for
/// the host to wake the other vCPU, and that wait swung `kv-zipf`'s get
/// p50 between 24 and 54 us with host load; with client and server
/// threads on one CPU the same runs repeated within 2%. A workload gets
/// one CPU per connection. Without `taskset` the thread stays unpinned.
pub fn pin_cpus(n: usize) -> String {
    let tid = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|t| t.to_string_lossy().into_owned()));
    let Some(tid) = tid else { return "unpinned".into() };
    let taskset = |args: &[&str]| {
        std::process::Command::new("taskset")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
    };
    let Some(current) = taskset(&["-cp", &tid]) else { return "unpinned".into() };
    let list = current.rsplit(':').next().unwrap_or("").trim().to_string();
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    if cpus.len() <= n {
        return list;
    }
    let chosen: Vec<String> = cpus[..n].iter().map(usize::to_string).collect();
    let chosen = chosen.join(",");
    match taskset(&["-cp", &chosen, &tid]) {
        Some(_) => chosen,
        None => list,
    }
}

impl<F: IndexFactory> Drop for Rig<F> {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
