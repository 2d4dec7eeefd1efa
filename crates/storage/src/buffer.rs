//! Buffer pool: caches disk pages in a bounded set of frames with LRU
//! replacement and write-back of dirty pages.
//!
//! The access API is closure-based (`with_page` / `with_page_mut`): a page is
//! pinned for the duration of the closure and unpinned afterwards, which makes
//! pin leaks impossible and keeps the executor free of guard lifetimes.
//!
//! Concurrency: the frame *map* (page table, pin counts, LRU metadata) is
//! sharded by page id — each shard behind its own short mutex — and page
//! *contents* are guarded by a per-frame `RwLock`. A reader resolves and
//! pins its frame under its shard's lock, then releases the shard and
//! reads the page under the frame's shared lock — so any number of
//! sessions scan pages in parallel and concurrent resolutions only collide
//! when they hash to the same shard. Pinned frames are never evicted,
//! which is what makes the resolve-then-lock handoff safe. Eviction is
//! shard-local (each shard owns `capacity / SHARDS` frames).
//!
//! Pin pressure: when every frame of a shard is pinned, a thread that
//! holds no pin of its own waits on the shard's condvar until an unpin
//! frees one. A pin is only ever held for the duration of one closure, and
//! a pinless waiter blocks no closure, so every pin it waits on is released
//! by a thread that is making progress: the wait cannot deadlock. A thread
//! that already holds a pin (a nested access) must not wait — two such
//! threads could wait on each other — so it gets
//! [`StorageError::BufferPoolExhausted`]: the pool is smaller than one
//! operation's simultaneous pins.
//!
//! Durability: when the pool carries a [`Wal`] handle, every write-back of
//! a dirty page — eviction, [`BufferPool::flush_all`], or
//! [`BufferPool::clear`] — first flushes the log up to the page's
//! `page_lsn` (**WAL-before-data**): a page image never reaches disk ahead
//! of the log records that produced it. Heap code appends those records
//! *inside* `with_page_mut` closures, while the frame is pinned — and
//! pinned frames are never evicted, so the stamp cannot race the flush.

use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::disk::{DiskManager, PageId};
use crate::error::{Result, StorageError};
use crate::page::Page;
use crate::wal::Wal;

/// Buffer pool statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
}

/// Page contents + dirty flag, guarded by a per-frame RwLock.
struct Frame {
    page: Page,
    dirty: bool,
}

/// Map-side metadata of one frame slot.
struct Slot {
    page_id: PageId,
    frame: Arc<RwLock<Frame>>,
    pin_count: u32,
    last_used: u64,
}

struct Inner {
    slots: Vec<Slot>,
    page_table: HashMap<PageId, usize>,
    tick: u64,
    stats: BufferStats,
    /// Threads waiting on [`Shard::unpinned`] for a frame to free up.
    waiters: usize,
}

/// One map shard: its frames' metadata and the condvar pinless threads
/// wait on while every frame of the shard is pinned. Both are `std::sync`
/// types, so the condvar always accepts the mutex's guard.
struct Shard {
    inner: Mutex<Inner>,
    unpinned: Condvar,
}

impl Shard {
    /// Lock the shard's metadata; a poisoned lock is recovered, as the
    /// workspace's other locks do.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

thread_local! {
    /// Frames this thread holds pinned, across every pool. Only a thread
    /// holding none may wait for a frame (see the module docs).
    static PINS_HELD: Cell<usize> = const { Cell::new(0) };
}

/// Maximum number of independent map shards.
const MAX_SHARDS: usize = 16;

/// A bounded page cache in front of the [`DiskManager`].
pub struct BufferPool {
    disk: Arc<DiskManager>,
    wal: Option<Arc<Wal>>,
    capacity: usize,
    /// Per-shard frame capacity (`>= 1`).
    shard_capacity: usize,
    shards: Vec<Shard>,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        Self::build(disk, capacity, None)
    }

    /// Create a pool that enforces WAL-before-data against `wal` on every
    /// dirty-page write-back.
    pub fn with_wal(disk: Arc<DiskManager>, capacity: usize, wal: Arc<Wal>) -> Self {
        Self::build(disk, capacity, Some(wal))
    }

    fn build(disk: Arc<DiskManager>, capacity: usize, wal: Option<Arc<Wal>>) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        // Tiny pools (tests, experiments) keep one frame per shard so the
        // total stays at the requested capacity and eviction still bites.
        // Floor division keeps the total frame count ≤ `capacity` (slight
        // undershoot when it doesn't divide evenly — never overshoot).
        let shard_count = capacity.min(MAX_SHARDS);
        BufferPool {
            disk,
            wal,
            capacity,
            shard_capacity: (capacity / shard_count).max(1),
            shards: (0..shard_count)
                .map(|_| Shard {
                    inner: Mutex::new(Inner {
                        slots: Vec::new(),
                        page_table: HashMap::new(),
                        tick: 0,
                        stats: BufferStats::default(),
                        waiters: 0,
                    }),
                    unpinned: Condvar::new(),
                })
                .collect(),
        }
    }

    /// The WAL this pool enforces WAL-before-data against, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Write a dirty page back to disk, flushing the log up to the page's
    /// LSN first. Every write-back path (eviction, flush, clear) funnels
    /// through here so the WAL-before-data invariant has a single choke
    /// point.
    fn write_back(&self, id: PageId, page: &Page) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.flush_to(page.lsn())?;
            debug_assert!(
                wal.durable_lsn() >= page.lsn(),
                "WAL-before-data violated: page {id} has lsn {} but log is only \
                 durable to {}",
                page.lsn(),
                wal.durable_lsn()
            );
        }
        self.disk.write(id, page)
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[(id as usize) % self.shards.len()]
    }

    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.dirty_writebacks += s.dirty_writebacks;
        }
        total
    }

    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.lock().stats = BufferStats::default();
        }
    }

    /// Resolve `id` to a pinned frame (loading from disk on a miss) and
    /// return its index + content lock.
    fn pin(&self, id: PageId) -> Result<(usize, Arc<RwLock<Frame>>)> {
        let shard = self.shard(id);
        let mut inner = shard.lock();
        let idx = loop {
            if let Some(idx) = Self::lookup(&mut inner, id) {
                break idx;
            }
            if Self::has_free_frame(&inner, self.shard_capacity) {
                inner.stats.misses += 1;
                let page = self.disk.read(id)?;
                break self.grab_frame(&mut inner, id, page)?;
            }
            // The page may have been loaded while this thread waited.
            inner = Self::wait_for_unpin(shard, inner)?;
        };
        Ok(Self::pin_slot(&mut inner, idx))
    }

    /// Count a pin of slot `idx` against the slot and the calling thread.
    fn pin_slot(inner: &mut Inner, idx: usize) -> (usize, Arc<RwLock<Frame>>) {
        inner.slots[idx].pin_count += 1;
        PINS_HELD.set(PINS_HELD.get() + 1);
        (idx, Arc::clone(&inner.slots[idx].frame))
    }

    fn unpin(&self, id: PageId, idx: usize) {
        PINS_HELD.set(PINS_HELD.get() - 1);
        let shard = self.shard(id);
        let mut inner = shard.lock();
        let slot = &mut inner.slots[idx];
        slot.pin_count -= 1;
        if slot.pin_count == 0 && inner.waiters > 0 {
            shard.unpinned.notify_all();
        }
    }

    /// Can the shard take one more page: a frame still unallocated, or an
    /// unpinned one to evict?
    fn has_free_frame(inner: &Inner, capacity: usize) -> bool {
        inner.slots.len() < capacity || inner.slots.iter().any(|s| s.pin_count == 0)
    }

    /// Every frame of the shard is pinned: wait for an unpin if this thread
    /// holds no pin, else fail (see the module docs).
    fn wait_for_unpin<'a>(
        shard: &'a Shard,
        mut inner: MutexGuard<'a, Inner>,
    ) -> Result<MutexGuard<'a, Inner>> {
        if PINS_HELD.get() > 0 {
            return Err(StorageError::BufferPoolExhausted);
        }
        inner.waiters += 1;
        let mut inner = shard
            .unpinned
            .wait(inner)
            .unwrap_or_else(|e| e.into_inner());
        inner.waiters -= 1;
        Ok(inner)
    }

    /// Allocate a brand-new page (on disk and in the pool) and initialize it
    /// through `init`, which receives the new page's id (so heap code can
    /// log the allocation and first insert while the frame is pinned).
    /// Returns the new page id.
    pub fn new_page<R>(&self, init: impl FnOnce(PageId, &mut Page) -> R) -> Result<(PageId, R)> {
        let id = self.disk.allocate();
        let (idx, frame) = {
            let shard = self.shard(id);
            let mut inner = shard.lock();
            while !Self::has_free_frame(&inner, self.shard_capacity) {
                inner = Self::wait_for_unpin(shard, inner)?;
            }
            let idx = self.grab_frame(&mut inner, id, Page::new())?;
            Self::pin_slot(&mut inner, idx)
        };
        let r = {
            let mut guard = frame.write();
            guard.dirty = true;
            init(id, &mut guard.page)
        };
        self.unpin(id, idx);
        Ok((id, r))
    }

    /// Run `f` with shared access to the page. Concurrent readers of the
    /// same (or different) pages proceed in parallel.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let (idx, frame) = self.pin(id)?;
        let r = {
            let guard = frame.read();
            f(&guard.page)
        };
        self.unpin(id, idx);
        Ok(r)
    }

    /// Run `f` with exclusive access to the page and mark it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let (idx, frame) = self.pin(id)?;
        let r = {
            let mut guard = frame.write();
            guard.dirty = true;
            f(&mut guard.page)
        };
        self.unpin(id, idx);
        Ok(r)
    }

    /// Write all dirty pages back to disk, one batch per shard (log-first:
    /// the WAL is flushed past the highest dirty LSN before any page
    /// touches the disk).
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let mut inner = shard.lock();
            self.flush_shard(&mut inner)?;
        }
        Ok(())
    }

    /// Flush one shard's dirty frames as a single disk batch: write guards
    /// for every dirty frame are collected first, the WAL is flushed past
    /// the highest page LSN among them, then the whole set goes through one
    /// [`DiskManager::write_batch`] — with double-write enabled that is one
    /// DW append + fsync for the shard instead of one per page. Dirty flags
    /// drop only after the batch succeeds, so a failed flush leaves every
    /// page queued for retry.
    fn flush_shard(&self, inner: &mut Inner) -> Result<()> {
        let mut guards = Vec::new();
        for slot in inner.slots.iter() {
            let frame = slot.frame.write();
            if frame.dirty {
                guards.push((slot.page_id, frame));
            }
        }
        if guards.is_empty() {
            return Ok(());
        }
        if let Some(wal) = &self.wal {
            let max_lsn = guards.iter().map(|(_, g)| g.page.lsn()).max().unwrap_or(0);
            wal.flush_to(max_lsn)?;
            debug_assert!(wal.durable_lsn() >= max_lsn, "WAL-before-data violated");
        }
        let batch: Vec<(PageId, &Page)> = guards.iter().map(|(id, g)| (*id, &g.page)).collect();
        self.disk.write_batch(&batch)?;
        drop(batch);
        let writes = guards.len() as u64;
        for (_, mut g) in guards {
            g.dirty = false;
        }
        inner.stats.dirty_writebacks += writes;
        Ok(())
    }

    /// Drop every cached page (flushing dirty ones). Used by experiments to
    /// measure cold-cache behaviour. A shard with a pinned frame (an
    /// in-flight reader holds a slot index into it) is flushed but not
    /// dropped — clearing it would invalidate the reader's unpin index.
    pub fn clear(&self) -> Result<()> {
        for shard in &self.shards {
            let mut inner = shard.lock();
            let any_pinned = inner.slots.iter().any(|s| s.pin_count > 0);
            self.flush_shard(&mut inner)?;
            if !any_pinned {
                inner.slots.clear();
                inner.page_table.clear();
            }
        }
        Ok(())
    }

    /// The slot caching `id`, if any (a hit).
    fn lookup(inner: &mut Inner, id: PageId) -> Option<usize> {
        inner.tick += 1;
        let idx = *inner.page_table.get(&id)?;
        inner.stats.hits += 1;
        inner.slots[idx].last_used = inner.tick;
        Some(idx)
    }

    /// Find a slot for `page` (growing up to capacity, otherwise evicting
    /// the least-recently-used unpinned frame) and install it. Callers
    /// check [`BufferPool::has_free_frame`] first.
    fn grab_frame(&self, inner: &mut Inner, id: PageId, page: Page) -> Result<usize> {
        let capacity = self.shard_capacity;
        inner.tick += 1;
        let tick = inner.tick;
        let idx = if inner.slots.len() < capacity {
            inner.slots.push(Slot {
                page_id: id,
                frame: Arc::new(RwLock::new(Frame { page, dirty: false })),
                pin_count: 0,
                last_used: tick,
            });
            inner.slots.len() - 1
        } else {
            let victim = inner
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.pin_count == 0)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .ok_or(StorageError::BufferPoolExhausted)?;
            {
                // Unpinned ⇒ no in-flight closure holds the frame lock.
                let old = inner.slots[victim].frame.read();
                if old.dirty {
                    self.write_back(inner.slots[victim].page_id, &old.page)?;
                    inner.stats.dirty_writebacks += 1;
                }
            }
            inner.stats.evictions += 1;
            let old_id = inner.slots[victim].page_id;
            inner.page_table.remove(&old_id);
            inner.slots[victim] = Slot {
                page_id: id,
                frame: Arc::new(RwLock::new(Frame { page, dirty: false })),
                pin_count: 0,
                last_used: tick,
            };
            victim
        };
        inner.page_table.insert(id, idx);
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Arc::new(DiskManager::new()), frames)
    }

    #[test]
    fn new_page_and_read_back() {
        let bp = pool(4);
        let (id, slot) = bp.new_page(|_, p| p.insert(b"x").unwrap()).unwrap();
        let data = bp.with_page(id, |p| p.get(slot).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"x");
    }

    #[test]
    fn eviction_writes_dirty_pages() {
        let bp = pool(2);
        let mut ids = vec![];
        for i in 0..4u8 {
            let (id, _) = bp.new_page(|_, p| p.insert(&[i]).unwrap()).unwrap();
            ids.push(id);
        }
        // All four pages must still be readable (older ones via disk).
        for (i, id) in ids.iter().enumerate() {
            let v = bp.with_page(*id, |p| p.get(0).unwrap().to_vec()).unwrap();
            assert_eq!(v, vec![i as u8]);
        }
        assert!(bp.stats().evictions >= 2);
    }

    #[test]
    fn hits_and_misses_counted() {
        let bp = pool(2);
        let (id, _) = bp.new_page(|_, p| p.insert(b"a").unwrap()).unwrap();
        bp.with_page(id, |_| ()).unwrap();
        bp.with_page(id, |_| ()).unwrap();
        let s = bp.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn clear_then_reload_counts_miss() {
        let bp = pool(2);
        let (id, _) = bp.new_page(|_, p| p.insert(b"a").unwrap()).unwrap();
        bp.clear().unwrap();
        bp.with_page(id, |p| assert_eq!(p.get(0).unwrap(), b"a"))
            .unwrap();
        assert_eq!(bp.stats().misses, 1);
    }

    #[test]
    fn pinless_request_waits_for_a_pinned_shard() {
        // Two shards of one frame each; pages 0 and 2 share shard 0.
        let bp = pool(2);
        for i in 0..3u8 {
            bp.new_page(|_, p| p.insert(&[i]).unwrap()).unwrap();
        }
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                bp.with_page(0, |_| {
                    pinned_tx.send(()).unwrap();
                    // Hold the pin until the other thread waits for it (or
                    // has given up).
                    while bp.shards[0].lock().waiters == 0
                        && !done.load(std::sync::atomic::Ordering::SeqCst)
                    {
                        std::thread::yield_now();
                    }
                })
                .unwrap();
            });
            pinned_rx.recv().unwrap();
            // Shard 0's only frame is pinned by the holder; this thread
            // holds no pin, so it waits for the unpin instead of failing.
            let got = bp.with_page(2, |p| p.get(0).unwrap().to_vec());
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            assert_eq!(got.unwrap(), vec![2]);
        });
    }

    #[test]
    fn pin_holder_gets_exhausted_instead_of_waiting() {
        let bp = pool(1);
        let (a, _) = bp.new_page(|_, p| p.insert(b"a").unwrap()).unwrap();
        let (b, _) = bp.new_page(|_, p| p.insert(b"b").unwrap()).unwrap();
        // The only frame holds `a`, pinned by this very thread: waiting for
        // it to free up would never end.
        let nested = bp.with_page(a, |_| bp.with_page(b, |_| ())).unwrap();
        let err = nested.unwrap_err();
        assert!(matches!(err, StorageError::BufferPoolExhausted));
        assert!(err
            .to_string()
            .contains("smaller than one operation's simultaneous pins"));
        // The failed request left no pin behind.
        assert_eq!(
            bp.with_page(b, |p| p.get(0).unwrap().to_vec()).unwrap(),
            b"b"
        );
    }

    #[test]
    fn parallel_readers_share_pages() {
        let bp = Arc::new(pool(8));
        let (id, _) = bp.new_page(|_, p| p.insert(b"shared").unwrap()).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let bp = Arc::clone(&bp);
                s.spawn(move || {
                    for _ in 0..1000 {
                        let v = bp.with_page(id, |p| p.get(0).unwrap().to_vec()).unwrap();
                        assert_eq!(v, b"shared");
                    }
                });
            }
        });
    }
}
