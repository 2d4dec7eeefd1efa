//! Disk manager: the page store underneath the buffer pool.
//!
//! Two backends share one interface:
//!
//! - **memory** ([`DiskManager::new`]) — a growable array of page frames
//!   with precise read/write accounting. The paper's measurements depend on
//!   I/O *behaviour* (clustering, pathlength reduction, buffer hits), not on
//!   a physical spindle, so experiments and most tests run here;
//! - **file** ([`DiskManager::open_file`]) — a real page file on disk
//!   (`pages.db` under the database's data directory). Pages are read and
//!   written at `page_id * PAGE_SIZE` offsets; [`DiskManager::sync`] flushes
//!   OS buffers so checkpoints can bound redo work, and the write-ahead log
//!   ([`crate::wal`]) is flushed before any dirty page reaches this layer
//!   (WAL-before-data, enforced by the buffer pool).
//!
//! # Torn-page protection (file backend)
//!
//! A crash can land *inside* an 8 KiB page write, leaving a half-old,
//! half-new image that ARIES redo would silently mis-handle (the page LSN
//! may claim the new state while the body holds the old). Two mechanisms
//! close this hole:
//!
//! - **Page trailer.** Every write-back stamps the page's last 12 bytes
//!   with an LSN echo + CRC32 ([`crate::page::stamp_trailer`]); every read
//!   verifies it and raises [`StorageError::TornPage`] on mismatch — a torn
//!   image is never served as data. An all-zero page (allocated but never
//!   written) is exempt.
//! - **Double-write buffer** ([`DiskManager::open_file_dw`]). Each
//!   write-back batch is appended to `doublewrite.db` and fsynced *before*
//!   any in-place write touches `pages.db`. A crash can therefore tear the
//!   DW copy (in-place copy still intact) or the in-place copy (DW copy
//!   durable) — never both. On the next open, [`DiskManager`] scans the DW
//!   file, drops entries that fail their own checksum, and restores any
//!   page whose in-place image fails verification. [`DiskManager::sync`]
//!   (the checkpoint fsync) truncates the spent DW batch.
//!
//! [`FaultPlan`] injects deterministic crashes (torn writes, dropped
//! fsyncs) so tests cover every torn-page shape, not just the ones SIGKILL
//! timing happens to hit.
//!
//! Both backends keep identical I/O counters so the cost model and the
//! benchmarks see the same accounting either way.

use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Result, StorageError};
use crate::page::{stamp_trailer, trailer_matches, Page, PAGE_SIZE};

/// Identifies a page within the single database "file".
pub type PageId = u64;

/// I/O counters exposed by the disk manager.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    pub reads: u64,
    pub writes: u64,
    pub allocations: u64,
    /// Page reads whose trailer checksum was verified (file backend only).
    pub pages_verified: u64,
    /// Torn in-place pages restored from the double-write buffer at open.
    pub torn_pages_repaired: u64,
    /// Double-write batches fsynced ahead of their in-place writes.
    pub dw_batches: u64,
}

/// Deterministic fault-injection plan for crash testing (file backend).
/// Installed with [`DiskManager::set_fault_plan`]; counters restart at
/// zero each time a plan is installed.
#[derive(Debug, Default, Clone, Copy)]
pub struct FaultPlan {
    /// Tear the N-th page-image write (0-based, counted across double-write
    /// appends and in-place writes alike): persist only the first B bytes
    /// of the 8 KiB image, then take the "disk" offline — every subsequent
    /// write or fsync fails, simulating a machine crash mid-write.
    pub tear_write: Option<(u64, usize)>,
    /// Silently drop the K-th fsync (0-based, counted across the
    /// double-write file and the page file): the call reports success but
    /// durability is not established, simulating a lying disk cache.
    pub drop_fsync: Option<u64>,
}

#[derive(Default)]
struct FaultState {
    plan: FaultPlan,
    write_idx: u64,
    fsync_idx: u64,
    /// Set after an injected tear: the process's view of the disk is dead.
    failed: bool,
}

enum Backend {
    /// In-memory array of page frames; readers copy out concurrently.
    Mem(RwLock<Vec<Box<[u8; PAGE_SIZE]>>>),
    /// A page file; `len` caches the allocated page count.
    File { file: Mutex<File>, len: AtomicU64 },
}

/// The page store: fixed-size pages addressed by [`PageId`], in memory or
/// backed by a file, with I/O counters, optional double-write protection
/// and fault injection.
pub struct DiskManager {
    backend: Backend,
    /// Double-write buffer file, when torn-page protection is enabled.
    /// Lock order: `dw` before the backend `file` (both `sync` and
    /// `write_batch` follow it), so a checkpoint can never truncate DW
    /// entries whose in-place writes are still in flight.
    dw: Option<Mutex<File>>,
    fault: Mutex<FaultState>,
    /// Stranded pages returned by recovery, reused before growing the file.
    free_pages: Mutex<Vec<PageId>>,
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    pages_verified: AtomicU64,
    torn_repaired: AtomicU64,
    dw_batches: AtomicU64,
}

impl Default for DiskManager {
    fn default() -> Self {
        Self::new()
    }
}

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

const DW_ENTRY: usize = 8 + PAGE_SIZE;

impl DiskManager {
    fn build(backend: Backend, dw: Option<Mutex<File>>) -> Self {
        DiskManager {
            backend,
            dw,
            fault: Mutex::new(FaultState::default()),
            free_pages: Mutex::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            pages_verified: AtomicU64::new(0),
            torn_repaired: AtomicU64::new(0),
            dw_batches: AtomicU64::new(0),
        }
    }

    /// An in-memory disk (volatile; no durability).
    pub fn new() -> Self {
        Self::build(Backend::Mem(RwLock::new(Vec::new())), None)
    }

    /// Open (or create) a file-backed page store at `path`. An existing
    /// file's pages become immediately addressable; a partial trailing page
    /// (from a torn write) is ignored.
    pub fn open_file(path: &Path) -> Result<Self> {
        let file = open_rw(path)?;
        let len = file.metadata().map_err(io_err)?.len() / PAGE_SIZE as u64;
        Ok(Self::build(
            Backend::File {
                file: Mutex::new(file),
                len: AtomicU64::new(len),
            },
            None,
        ))
    }

    /// Open a file-backed page store with double-write torn-page
    /// protection. Before returning, any batch left in `dw_path` by a
    /// crash is replayed: entries failing their own checksum are dropped
    /// (the in-place copy is intact), and pages whose in-place image fails
    /// verification are restored from their durable DW copy.
    pub fn open_file_dw(path: &Path, dw_path: &Path) -> Result<Self> {
        let file = open_rw(path)?;
        let len = file.metadata().map_err(io_err)?.len() / PAGE_SIZE as u64;
        let dw = open_rw(dw_path)?;
        let disk = Self::build(
            Backend::File {
                file: Mutex::new(file),
                len: AtomicU64::new(len),
            },
            Some(Mutex::new(dw)),
        );
        disk.dw_restore()?;
        Ok(disk)
    }

    /// Replay the double-write buffer at open: keep the last self-valid DW
    /// image per page, restore it wherever the in-place copy is torn, then
    /// fsync the page file and truncate the spent buffer.
    fn dw_restore(&self) -> Result<()> {
        let (Backend::File { file, len }, Some(dw)) = (&self.backend, &self.dw) else {
            return Ok(());
        };
        let mut dwf = dw.lock();
        let mut bytes = Vec::new();
        dwf.seek(SeekFrom::Start(0)).map_err(io_err)?;
        dwf.read_to_end(&mut bytes).map_err(io_err)?;
        // Last valid image per page id; torn DW entries (including a
        // partial trailing one) fail their own checksum and are skipped —
        // their batch never started its in-place writes.
        let mut latest: BTreeMap<PageId, usize> = BTreeMap::new();
        let mut off = 0;
        while off + DW_ENTRY <= bytes.len() {
            let id = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            let img: &[u8; PAGE_SIZE] = bytes[off + 8..off + DW_ENTRY].try_into().unwrap();
            if trailer_matches(img) && !img.iter().all(|&b| b == 0) {
                latest.insert(id, off + 8);
            }
            off += DW_ENTRY;
        }
        let mut f = file.lock();
        for (id, img_off) in latest {
            let img: &[u8; PAGE_SIZE] = bytes[img_off..img_off + PAGE_SIZE].try_into().unwrap();
            let n = len.load(Ordering::Relaxed);
            let in_place_ok = if id < n {
                let mut cur = [0u8; PAGE_SIZE];
                f.seek(SeekFrom::Start(id * PAGE_SIZE as u64))
                    .map_err(io_err)?;
                f.read_exact(&mut cur).map_err(io_err)?;
                trailer_matches(&cur)
            } else {
                // Allocated (DW proves it) but the file extension itself
                // was lost with the crash: re-extend and restore.
                false
            };
            if !in_place_ok {
                if id >= n {
                    f.set_len((id + 1) * PAGE_SIZE as u64).map_err(io_err)?;
                    len.store(id + 1, Ordering::Relaxed);
                }
                f.seek(SeekFrom::Start(id * PAGE_SIZE as u64))
                    .map_err(io_err)?;
                f.write_all(img).map_err(io_err)?;
                self.torn_repaired.fetch_add(1, Ordering::Relaxed);
            }
        }
        f.sync_data().map_err(io_err)?;
        drop(f);
        dwf.set_len(0).map_err(io_err)?;
        dwf.sync_data().map_err(io_err)?;
        Ok(())
    }

    /// True when pages live in a real file (and survive process death).
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backend, Backend::File { .. })
    }

    /// True when write-backs run the double-write protocol.
    pub fn doublewrite_enabled(&self) -> bool {
        self.dw.is_some()
    }

    /// Install a fault-injection plan (and reset its write/fsync counters).
    /// Only the file backend consults the plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock() = FaultState {
            plan,
            ..FaultState::default()
        };
    }

    /// Write one 8 KiB image at the file's current position, honouring the
    /// fault plan: a matching tear persists only a prefix and takes the
    /// disk offline for the rest of the process's lifetime.
    fn faulted_image_write(&self, file: &mut File, image: &[u8; PAGE_SIZE]) -> Result<()> {
        let mut st = self.fault.lock();
        if st.failed {
            return Err(StorageError::Io("injected crash: disk offline".into()));
        }
        let idx = st.write_idx;
        st.write_idx += 1;
        if let Some((n, torn_at)) = st.plan.tear_write {
            if idx == n {
                st.failed = true;
                drop(st);
                file.write_all(&image[..torn_at]).map_err(io_err)?;
                return Err(StorageError::Io(format!(
                    "injected crash: page-image write {idx} torn at byte {torn_at}"
                )));
            }
        }
        drop(st);
        file.write_all(&image[..]).map_err(io_err)
    }

    fn faulted_sync(&self, file: &File) -> Result<()> {
        let mut st = self.fault.lock();
        if st.failed {
            return Err(StorageError::Io("injected crash: disk offline".into()));
        }
        let idx = st.fsync_idx;
        st.fsync_idx += 1;
        if st.plan.drop_fsync == Some(idx) {
            // Lying disk: report success without establishing durability.
            return Ok(());
        }
        drop(st);
        file.sync_data().map_err(io_err)
    }

    /// Grow the backend by one zeroed page (never consults the free list).
    fn grow(&self) -> PageId {
        match &self.backend {
            Backend::Mem(pages) => {
                let mut pages = pages.write();
                let id = pages.len() as PageId;
                pages.push(Box::new([0u8; PAGE_SIZE]));
                id
            }
            Backend::File { file, len } => {
                let file = file.lock();
                let id = len.load(Ordering::Relaxed);
                // Extend the file so the page is addressable; contents are
                // zero until first write-back.
                file.set_len((id + 1) * PAGE_SIZE as u64)
                    .expect("extend page file");
                len.store(id + 1, Ordering::Relaxed);
                id
            }
        }
    }

    /// Allocate a fresh page and return its id: a reclaimed (stranded)
    /// page when one is free, otherwise a new zeroed page at the end.
    pub fn allocate(&self) -> PageId {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        if let Some(id) = self.free_pages.lock().pop() {
            return id;
        }
        self.grow()
    }

    /// Make sure pages `0..=id` exist (recovery replays allocations that
    /// may never have reached the file before the crash). Extend-only:
    /// never consumes the free list. Idempotent.
    pub fn ensure_allocated(&self, id: PageId) -> Result<()> {
        while self.page_count() <= id {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.grow();
        }
        Ok(())
    }

    /// Return stranded pages (allocated before a crash but reachable from
    /// no heap extent) to the free list so later allocations reuse them
    /// instead of growing the file. Recovery calls this after reconciling
    /// the page file against logged extents.
    pub fn reclaim(&self, pages: &[PageId]) {
        if pages.is_empty() {
            return;
        }
        let mut free = self.free_pages.lock();
        free.extend_from_slice(pages);
        // Descending order: `pop` hands out the lowest id first.
        free.sort_unstable_by(|a, b| b.cmp(a));
        free.dedup();
    }

    /// Pages currently parked on the free list.
    pub fn free_page_count(&self) -> usize {
        self.free_pages.lock().len()
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        match &self.backend {
            Backend::Mem(pages) => pages.read().len() as u64,
            Backend::File { len, .. } => len.load(Ordering::Relaxed),
        }
    }

    /// Read page `id` from disk into `page`, overwriting it in place: one
    /// copy, no allocation. File-backed reads land straight in `page` and
    /// verify the torn-page trailer there: a mismatch raises
    /// [`StorageError::TornPage`]. On any error `page` holds no image the
    /// caller may serve.
    pub fn read_into(&self, id: PageId, page: &mut Page) -> Result<()> {
        match &self.backend {
            Backend::Mem(pages) => {
                let pages = pages.read();
                let buf = pages
                    .get(id as usize)
                    .ok_or(StorageError::PageOutOfRange(id))?;
                page.bytes_mut().copy_from_slice(&buf[..]);
                self.reads.fetch_add(1, Ordering::Relaxed);
            }
            Backend::File { file, len } => {
                if id >= len.load(Ordering::Relaxed) {
                    return Err(StorageError::PageOutOfRange(id));
                }
                let buf = page.bytes_mut();
                let mut file = file.lock();
                file.seek(SeekFrom::Start(id * PAGE_SIZE as u64))
                    .map_err(io_err)?;
                file.read_exact(buf).map_err(io_err)?;
                drop(file);
                self.reads.fetch_add(1, Ordering::Relaxed);
                self.pages_verified.fetch_add(1, Ordering::Relaxed);
                if !trailer_matches(buf) {
                    return Err(StorageError::TornPage { page: id });
                }
            }
        }
        Ok(())
    }

    /// Write a page back to disk (a one-entry [`DiskManager::write_batch`]).
    pub fn write(&self, id: PageId, page: &Page) -> Result<()> {
        self.write_batch(&[(id, page)])
    }

    /// Write a batch of pages back to disk. With double-write enabled the
    /// whole batch is appended to the DW file and fsynced *before* the
    /// first in-place write, so a crash at any point leaves every page
    /// recoverable: either its in-place image is intact, or its DW copy is
    /// durable and restores it at the next open.
    pub fn write_batch(&self, batch: &[(PageId, &Page)]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        match &self.backend {
            Backend::Mem(pages) => {
                let mut pages = pages.write();
                for (id, page) in batch {
                    let buf = pages
                        .get_mut(*id as usize)
                        .ok_or(StorageError::PageOutOfRange(*id))?;
                    buf.copy_from_slice(page.as_bytes());
                }
            }
            Backend::File { file, len } => {
                let n = len.load(Ordering::Relaxed);
                for (id, _) in batch {
                    if *id >= n {
                        return Err(StorageError::PageOutOfRange(*id));
                    }
                }
                // Stamp each image once; the identical bytes go to the DW
                // buffer and the in-place slot.
                let mut images: Vec<(PageId, Box<[u8; PAGE_SIZE]>)> =
                    Vec::with_capacity(batch.len());
                for (id, page) in batch {
                    let mut img = Box::new([0u8; PAGE_SIZE]);
                    img.copy_from_slice(page.as_bytes());
                    stamp_trailer(&mut img);
                    images.push((*id, img));
                }
                // Lock order dw -> file (matches `sync`), and the DW guard
                // is held across the in-place writes so a concurrent
                // checkpoint cannot truncate this batch mid-flight.
                let dw_guard = match &self.dw {
                    Some(dw) => {
                        let mut dwf = dw.lock();
                        dwf.seek(SeekFrom::End(0)).map_err(io_err)?;
                        for (id, img) in &images {
                            dwf.write_all(&id.to_le_bytes()).map_err(io_err)?;
                            self.faulted_image_write(&mut dwf, img)?;
                        }
                        self.faulted_sync(&dwf)?;
                        self.dw_batches.fetch_add(1, Ordering::Relaxed);
                        Some(dwf)
                    }
                    None => None,
                };
                let mut f = file.lock();
                for (id, img) in &images {
                    f.seek(SeekFrom::Start(*id * PAGE_SIZE as u64))
                        .map_err(io_err)?;
                    self.faulted_image_write(&mut f, img)?;
                }
                drop(f);
                drop(dw_guard);
            }
        }
        self.writes.fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Flush OS buffers for the page file (no-op for the memory backend).
    /// Called by checkpoints after [`crate::buffer::BufferPool::flush_all`].
    /// With double-write enabled, a successful data fsync makes every
    /// in-place image durable, so the spent DW batch is truncated here.
    pub fn sync(&self) -> Result<()> {
        if let Backend::File { file, .. } = &self.backend {
            match &self.dw {
                Some(dw) => {
                    let dwf = dw.lock();
                    let f = file.lock();
                    self.faulted_sync(&f)?;
                    drop(f);
                    dwf.set_len(0).map_err(io_err)?;
                    dwf.sync_data().map_err(io_err)?;
                }
                None => self.faulted_sync(&file.lock())?,
            }
        }
        Ok(())
    }

    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            pages_verified: self.pages_verified.load(Ordering::Relaxed),
            torn_pages_repaired: self.torn_repaired.load(Ordering::Relaxed),
            dw_batches: self.dw_batches.load(Ordering::Relaxed),
        }
    }

    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.allocations.store(0, Ordering::Relaxed);
        self.pages_verified.store(0, Ordering::Relaxed);
        self.torn_repaired.store(0, Ordering::Relaxed);
        self.dw_batches.store(0, Ordering::Relaxed);
    }
}

fn open_rw(path: &Path) -> Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    /// Read `id` into a fresh page.
    fn read(disk: &DiskManager, id: PageId) -> Result<Page> {
        let mut page = Page::new();
        disk.read_into(id, &mut page).map(|()| page)
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let disk = DiskManager::new();
        let id = disk.allocate();
        let mut page = Page::new();
        page.insert(b"data").unwrap();
        disk.write(id, &page).unwrap();
        let back = read(&disk, id).unwrap();
        assert_eq!(back.get(0).unwrap(), b"data");
        let s = disk.stats();
        assert_eq!((s.reads, s.writes, s.allocations), (1, 1, 1));
    }

    #[test]
    fn out_of_range_read_fails() {
        let disk = DiskManager::new();
        assert!(matches!(
            read(&disk, 3),
            Err(StorageError::PageOutOfRange(3))
        ));
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let disk = DiskManager::new();
        disk.allocate();
        disk.reset_stats();
        assert_eq!(disk.stats(), DiskStats::default());
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = TempDir::new("disk");
        let path = dir.path().join("data.pages");

        let disk = DiskManager::open_file(&path).unwrap();
        assert!(disk.is_file_backed());
        let a = disk.allocate();
        let b = disk.allocate();
        let mut page = Page::new();
        page.insert(b"persistent").unwrap();
        disk.write(b, &page).unwrap();
        disk.sync().unwrap();
        // Fresh page reads back zeroed (slot_count == 0).
        assert_eq!(read(&disk, a).unwrap().slot_count(), 0);
        drop(disk);

        // Reopen: contents survive.
        let disk = DiskManager::open_file(&path).unwrap();
        assert_eq!(disk.page_count(), 2);
        assert_eq!(read(&disk, b).unwrap().get(0).unwrap(), b"persistent");
        assert!(matches!(
            read(&disk, 9),
            Err(StorageError::PageOutOfRange(9))
        ));
    }

    #[test]
    fn ensure_allocated_is_idempotent() {
        let dir = TempDir::new("disk-ensure");
        let disk = DiskManager::open_file(&dir.path().join("data.pages")).unwrap();
        disk.ensure_allocated(4).unwrap();
        assert_eq!(disk.page_count(), 5);
        disk.ensure_allocated(2).unwrap();
        assert_eq!(disk.page_count(), 5);
    }

    #[test]
    fn file_reads_verify_checksums_and_detect_corruption() {
        let dir = TempDir::new("disk-crc");
        let path = dir.path().join("data.pages");
        let disk = DiskManager::open_file(&path).unwrap();
        let id = disk.allocate();
        let mut page = Page::new();
        page.insert(b"verified").unwrap();
        disk.write(id, &page).unwrap();
        assert_eq!(read(&disk, id).unwrap().get(0).unwrap(), b"verified");
        assert!(disk.stats().pages_verified >= 1);
        drop(disk);

        // Flip one byte mid-page: the read must fail typed, not serve it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let disk = DiskManager::open_file(&path).unwrap();
        assert_eq!(
            read(&disk, id).unwrap_err(),
            StorageError::TornPage { page: id }
        );
    }

    #[test]
    fn doublewrite_repairs_a_torn_in_place_write() {
        let dir = TempDir::new("disk-dw");
        let path = dir.path().join("data.pages");
        let dw_path = dir.path().join("dw.db");
        let disk = DiskManager::open_file_dw(&path, &dw_path).unwrap();
        assert!(disk.doublewrite_enabled());
        let id = disk.allocate();
        let mut page = Page::new();
        page.insert(b"protected").unwrap();
        // Image write 0 is the DW append, write 1 the in-place copy: tear
        // the in-place copy halfway through.
        disk.set_fault_plan(FaultPlan {
            tear_write: Some((1, 4096)),
            drop_fsync: None,
        });
        assert!(disk.write(id, &page).is_err());
        drop(disk);

        // Reopen: the DW batch is durable and restores the torn page.
        let disk = DiskManager::open_file_dw(&path, &dw_path).unwrap();
        assert_eq!(disk.stats().torn_pages_repaired, 1);
        assert_eq!(read(&disk, id).unwrap().get(0).unwrap(), b"protected");
        // The spent buffer is truncated after restore.
        assert_eq!(std::fs::metadata(&dw_path).unwrap().len(), 0);
    }

    #[test]
    fn torn_dw_entry_is_skipped_and_in_place_copy_survives() {
        let dir = TempDir::new("disk-dw-torn");
        let path = dir.path().join("data.pages");
        let dw_path = dir.path().join("dw.db");
        let disk = DiskManager::open_file_dw(&path, &dw_path).unwrap();
        let id = disk.allocate();
        let mut page = Page::new();
        page.insert(b"old image").unwrap();
        disk.write(id, &page).unwrap();
        disk.sync().unwrap();
        // Now tear the *DW append* of the next write: the in-place old
        // image is never touched.
        page.insert(b"new image").unwrap();
        disk.set_fault_plan(FaultPlan {
            tear_write: Some((0, 100)),
            drop_fsync: None,
        });
        assert!(disk.write(id, &page).is_err());
        drop(disk);

        let disk = DiskManager::open_file_dw(&path, &dw_path).unwrap();
        assert_eq!(disk.stats().torn_pages_repaired, 0);
        let back = read(&disk, id).unwrap();
        assert_eq!(back.get(0).unwrap(), b"old image");
        assert!(back.get(1).is_none(), "torn batch must not apply");
    }

    #[test]
    fn reclaimed_pages_are_reused_before_growth() {
        let disk = DiskManager::new();
        let a = disk.allocate();
        let b = disk.allocate();
        let c = disk.allocate();
        assert_eq!((a, b, c), (0, 1, 2));
        disk.reclaim(&[2, 1]);
        assert_eq!(disk.free_page_count(), 2);
        assert_eq!(disk.allocate(), 1, "lowest stranded id first");
        assert_eq!(disk.allocate(), 2);
        assert_eq!(disk.allocate(), 3, "free list exhausted: grow");
        assert_eq!(disk.page_count(), 4);
    }
}
