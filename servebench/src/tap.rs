//! The store layer's spans: a timing [`NodeStore`] decorator that sits
//! between the engine and the real store.
//!
//! Every store call made while tracing is on is timed and counted into a
//! slot chosen by the calling thread. A server handler thread is named
//! `siri-server-conn-N`, so work it does lands in connection N's slot;
//! every other thread (the benchmark's own, running in-process diff,
//! merge and replay) lands in slot 0. Each connection has at most one
//! request in flight, so draining a slot after an op yields exactly that
//! op's store work. With tracing off the decorator only forwards.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use siri::{Bytes, Hash, NodeStore, SharedStore, StoreResult, StoreStats};

/// Attribution slots: 0 for benchmark threads, 1.. for connections.
pub const SLOTS: usize = 8;

/// The slot a server connection's store work is counted in.
pub fn conn_slot(conn_id: u64) -> usize {
    1 + (conn_id.saturating_sub(1) as usize) % (SLOTS - 1)
}

fn thread_slot() -> usize {
    thread_local! {
        static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
    }
    SLOT.with(|cell| {
        if let Some(s) = cell.get() {
            return s;
        }
        let slot = std::thread::current()
            .name()
            .and_then(|n| n.strip_prefix("siri-server-conn-"))
            .and_then(|id| id.parse::<u64>().ok())
            .map_or(0, conn_slot);
        cell.set(Some(slot));
        slot
    })
}

/// Store work of one op (or one slot since its last drain).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreWork {
    pub gets: u64,
    pub get_ns: u64,
    pub puts: u64,
    pub put_bytes: u64,
    pub put_ns: u64,
    pub new_pages: u64,
    pub fsync_ns: u64,
}

impl StoreWork {
    /// Time the op spent inside the store layer, fsync included.
    pub fn busy_ns(&self) -> u64 {
        self.get_ns + self.put_ns + self.fsync_ns
    }
}

#[derive(Default)]
struct Slot {
    gets: AtomicU64,
    get_ns: AtomicU64,
    puts: AtomicU64,
    put_bytes: AtomicU64,
    put_ns: AtomicU64,
    new_pages: AtomicU64,
    fsync_ns: AtomicU64,
}

fn bump(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn drain(c: &AtomicU64) -> u64 {
    c.swap(0, Ordering::Relaxed)
}

/// Per-slot store counters shared by the decorator and the benchmark.
#[derive(Default)]
pub struct StoreTap {
    on: AtomicBool,
    slots: [Slot; SLOTS],
    fsync_errors: AtomicU64,
}

impl StoreTap {
    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn tracing(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Take and reset one slot's counters.
    pub fn take(&self, slot: usize) -> StoreWork {
        let s = &self.slots[slot];
        StoreWork {
            gets: drain(&s.gets),
            get_ns: drain(&s.get_ns),
            puts: drain(&s.puts),
            put_bytes: drain(&s.put_bytes),
            put_ns: drain(&s.put_ns),
            new_pages: drain(&s.new_pages),
            fsync_ns: drain(&s.fsync_ns),
        }
    }

    /// Reset every slot (start of a traced pass).
    pub fn clear(&self) {
        for slot in 0..SLOTS {
            self.take(slot);
        }
    }

    /// Record one commit's durability step made on the current thread.
    pub fn record_fsync(&self, started: Instant, ok: bool) {
        if !ok {
            self.fsync_errors.fetch_add(1, Ordering::Relaxed);
        }
        if self.tracing() {
            let s = &self.slots[thread_slot()];
            bump(&s.fsync_ns, started.elapsed().as_nanos() as u64);
        }
    }

    /// Failed fsyncs: commits acknowledged to the client but not made
    /// durable. Counted as failed ops.
    pub fn fsync_errors(&self) -> u64 {
        self.fsync_errors.load(Ordering::Relaxed)
    }
}

/// The timing decorator handed to `Forkbase::with_sharding` in place of
/// the real store.
pub struct TimedStore {
    inner: SharedStore,
    tap: Arc<StoreTap>,
}

impl TimedStore {
    pub fn new(inner: SharedStore, tap: Arc<StoreTap>) -> Self {
        TimedStore { inner, tap }
    }

    fn timed_put<T>(
        &self,
        pages: u64,
        bytes: u64,
        put: impl FnOnce() -> StoreResult<T>,
    ) -> StoreResult<T> {
        if !self.tap.tracing() {
            return put();
        }
        // Only one thread writes at a time in every workload, so the
        // store-wide page count moves by exactly this call's new pages.
        let before = self.inner.stats().unique_pages;
        let started = Instant::now();
        let out = put();
        let ns = started.elapsed().as_nanos() as u64;
        let after = self.inner.stats().unique_pages;
        let s = &self.tap.slots[thread_slot()];
        bump(&s.puts, pages);
        bump(&s.put_bytes, bytes);
        bump(&s.put_ns, ns);
        bump(&s.new_pages, after.saturating_sub(before));
        out
    }
}

impl NodeStore for TimedStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        let len = page.len() as u64;
        self.timed_put(1, len, || self.inner.try_put(page))
    }

    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        if !self.tap.tracing() {
            return self.inner.try_get(hash);
        }
        let started = Instant::now();
        let out = self.inner.try_get(hash);
        let s = &self.tap.slots[thread_slot()];
        bump(&s.gets, 1);
        bump(&s.get_ns, started.elapsed().as_nanos() as u64);
        out
    }

    fn try_put_raw(&self, page: &[u8]) -> StoreResult<Hash> {
        self.timed_put(1, page.len() as u64, || self.inner.try_put_raw(page))
    }

    fn try_put_many(&self, pages: &[Bytes]) -> StoreResult<Vec<Hash>> {
        let bytes = pages.iter().map(|p| p.len() as u64).sum();
        self.timed_put(pages.len() as u64, bytes, || self.inner.try_put_many(pages))
    }

    fn contains(&self, hash: &Hash) -> bool {
        self.inner.contains(hash)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
