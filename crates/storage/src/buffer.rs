//! Buffer pool: caches disk pages in a bounded set of frames, with
//! write-back of dirty pages.
//!
//! Replacement is LRU over a per-shard tick, with one exception for
//! sequential scans (after DBMIN's rule for looping-sequential references):
//! a page that [`BufferPool::with_scan_page`] brings in enters its shard
//! *cold*, as the next victim, and only a later hit warms it. A scan of a
//! table larger than the pool then cycles through about one frame per
//! shard, and the rest of the pool keeps what it held — including the
//! pages of that table the previous pass left warm, so every pass after
//! the first hits a stable share of it instead of missing every page.
//!
//! A miss refills its victim's frame in place: the frame's lock and 8 KiB
//! page buffer are reused, the disk manager reads straight into them, and
//! a read that fails leaves the frame empty rather than mapped to either
//! page.
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
    /// The page the frame holds; `None` while it is empty (a refill whose
    /// read failed). An empty slot is never dirty and is the first victim.
    page_id: Option<PageId>,
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

    /// Resolve `id` to a pinned frame (loading from disk on a miss, `cold`
    /// for a scan read) and return its index + content lock.
    fn pin(&self, id: PageId, cold: bool) -> Result<(usize, Arc<RwLock<Frame>>)> {
        let shard = self.shard(id);
        let mut inner = shard.lock();
        let idx = loop {
            if let Some(idx) = Self::lookup(&mut inner, id) {
                break idx;
            }
            if Self::has_free_frame(&inner, self.shard_capacity) {
                inner.stats.misses += 1;
                break self
                    .grab_frame(&mut inner, id, cold, |page| self.disk.read_into(id, page))?;
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
            let idx = self.grab_frame(&mut inner, id, false, |page| {
                page.reset();
                Ok(())
            })?;
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
        self.read_page(id, false, f)
    }

    /// [`BufferPool::with_page`] for one page of a sequential scan: a page
    /// this read brings in enters its shard cold, as the next victim (see
    /// the module docs). A hit behaves as in `with_page`.
    pub fn with_scan_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        self.read_page(id, true, f)
    }

    fn read_page<R>(&self, id: PageId, cold: bool, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let (idx, frame) = self.pin(id, cold)?;
        let r = {
            let guard = frame.read();
            f(&guard.page)
        };
        self.unpin(id, idx);
        Ok(r)
    }

    /// Run `f` with exclusive access to the page and mark it dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let (idx, frame) = self.pin(id, false)?;
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
            if let (true, Some(id)) = (frame.dirty, slot.page_id) {
                guards.push((id, frame));
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

    /// Give `id` a frame and fill its page through `fill`, in place. The
    /// frame is a new one while the shard grows to capacity, else an empty
    /// one, else the least-recently-used unpinned one, written back first
    /// when dirty; its lock and page buffer are reused, never reallocated.
    /// A `cold` page enters with `last_used = 0`, the shard's next victim
    /// until a hit warms it. If `fill` fails the frame is left empty: it
    /// maps neither its previous page nor `id`. Callers check
    /// [`BufferPool::has_free_frame`] first.
    fn grab_frame(
        &self,
        inner: &mut Inner,
        id: PageId,
        cold: bool,
        fill: impl FnOnce(&mut Page) -> Result<()>,
    ) -> Result<usize> {
        let idx = if inner.slots.len() < self.shard_capacity {
            inner.slots.push(Slot {
                page_id: None,
                frame: Arc::new(RwLock::new(Frame {
                    page: Page::new(),
                    dirty: false,
                })),
                pin_count: 0,
                last_used: 0,
            });
            inner.slots.len() - 1
        } else {
            let victim = inner
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.pin_count == 0)
                .min_by_key(|(_, s)| (s.page_id.is_some(), s.last_used))
                .map(|(i, _)| i)
                .ok_or(StorageError::BufferPoolExhausted)?;
            if let Some(old_id) = inner.slots[victim].page_id {
                // Unpinned ⇒ no in-flight closure holds the frame lock.
                let mut old = inner.slots[victim].frame.write();
                if old.dirty {
                    self.write_back(old_id, &old.page)?;
                    old.dirty = false;
                    inner.stats.dirty_writebacks += 1;
                }
                drop(old);
                inner.stats.evictions += 1;
                inner.page_table.remove(&old_id);
                inner.slots[victim].page_id = None;
            }
            victim
        };
        fill(&mut inner.slots[idx].frame.write().page)?;
        inner.tick += 1;
        let slot = &mut inner.slots[idx];
        slot.page_id = Some(id);
        slot.last_used = if cold { 0 } else { inner.tick };
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

    /// `pages` pages whose one record is the page's own id.
    fn pool_with_pages(frames: usize, pages: u64) -> BufferPool {
        let bp = pool(frames);
        for i in 0..pages {
            let (id, _) = bp
                .new_page(|_, p| p.insert(&i.to_le_bytes()).unwrap())
                .unwrap();
            assert_eq!(id, i);
        }
        bp
    }

    fn holds_id(p: &Page, id: PageId) -> bool {
        p.get(0).unwrap() == id.to_le_bytes()
    }

    /// Misses of one pass over pages `0..pages`, read as a scan or not.
    fn pass_misses(bp: &BufferPool, pages: u64, scan: bool) -> u64 {
        let before = bp.stats().misses;
        for id in 0..pages {
            let holds = |p: &Page| holds_id(p, id);
            let read = if scan {
                bp.with_scan_page(id, holds)
            } else {
                bp.with_page(id, holds)
            };
            assert!(read.unwrap());
        }
        bp.stats().misses - before
    }

    #[test]
    fn looping_scan_keeps_a_stable_share_of_a_table_three_times_the_pool() {
        // 16 shards of 4 frames, 12 pages per shard. Scan reads cycle
        // through one frame per shard; the other three keep pages the
        // previous pass warmed, so each pass after the first misses
        // 192 - 16 * 3 pages.
        let bp = pool_with_pages(64, 192);
        pass_misses(&bp, 192, true);
        for _ in 0..3 {
            assert_eq!(pass_misses(&bp, 192, true), 144);
        }
        // The same loop through plain LRU reads is its worst case: every
        // page misses on every pass.
        pass_misses(&bp, 192, false);
        for _ in 0..2 {
            assert_eq!(pass_misses(&bp, 192, false), 192);
        }
    }

    #[test]
    fn refilled_victim_serves_the_new_page_and_the_old_one_rereads() {
        let bp = pool(1);
        let frame = || Arc::as_ptr(&bp.shards[0].lock().slots[0].frame);
        let (a, _) = bp.new_page(|_, p| p.insert(b"a").unwrap()).unwrap();
        let first = frame();
        // `b` takes `a`'s frame: `a` is written back, the frame refilled.
        let (b, _) = bp.new_page(|_, p| p.insert(b"b").unwrap()).unwrap();
        assert_eq!(frame(), first);
        assert_eq!(
            bp.with_page(b, |p| p.get(0).unwrap().to_vec()).unwrap(),
            b"b"
        );
        // `a` re-reads from disk into the same frame, over `b`.
        assert_eq!(
            bp.with_page(a, |p| p.get(0).unwrap().to_vec()).unwrap(),
            b"a"
        );
        assert_eq!(frame(), first);
        let s = bp.stats();
        assert_eq!((s.misses, s.evictions, s.dirty_writebacks), (1, 2, 2));
        assert_eq!(
            bp.with_page(b, |p| p.get(0).unwrap().to_vec()).unwrap(),
            b"b"
        );
    }

    #[test]
    fn failed_read_leaves_neither_page_mapped() {
        let bp = pool(1);
        let (a, _) = bp.new_page(|_, p| p.insert(b"a").unwrap()).unwrap();
        let (b, _) = bp.new_page(|_, p| p.insert(b"b").unwrap()).unwrap();
        bp.with_page_mut(a, |p| p.insert(b"a2").unwrap()).unwrap();
        // The victim (dirty `a`) is written back, then the read fails.
        let err = bp.with_page(99, |_| ()).unwrap_err();
        assert_eq!(err, StorageError::PageOutOfRange(99));
        {
            let inner = bp.shards[0].lock();
            assert!(inner.page_table.is_empty());
            assert_eq!(inner.slots[0].page_id, None);
        }
        let read = |id| {
            bp.with_page(id, |p| {
                p.iter().map(|(_, r)| r.to_vec()).collect::<Vec<_>>()
            })
            .unwrap()
        };
        assert_eq!(read(a), [b"a".to_vec(), b"a2".to_vec()]);
        assert_eq!(read(b), [b"b".to_vec()]);
        assert_eq!(read(a), [b"a".to_vec(), b"a2".to_vec()]);
        assert!(matches!(
            bp.with_page(99, |_| ()),
            Err(StorageError::PageOutOfRange(99))
        ));
        assert_eq!(read(b), [b"b".to_vec()]);
    }

    #[test]
    fn parallel_scanners_miss_concurrently_and_read_every_page() {
        // 64 pages over 16 frames: every pass misses, and concurrent
        // misses refill frames of the same shards.
        let bp = pool_with_pages(16, 64);
        bp.reset_stats();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let bp = &bp;
                s.spawn(move || {
                    for pass in 0..20 {
                        for k in 0..64 {
                            let id = (k + t * 16 + pass) % 64;
                            assert!(bp.with_scan_page(id, |p| holds_id(p, id)).unwrap());
                        }
                    }
                });
            }
        });
        let s = bp.stats();
        assert_eq!(s.hits + s.misses, 4 * 20 * 64);
        assert!(s.misses > 64);
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
