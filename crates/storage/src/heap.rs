//! Heap files: unordered collections of versioned tuples addressed by
//! [`Rid`].
//!
//! A heap file owns a list of page ids plus a coarse free-space map. Every
//! stored record is a [`VersionHdr`] (the creating/deleting transaction
//! ids, see [`crate::txn`]) followed by the encoded tuple. RIDs are stable
//! for the lifetime of a version: MVCC writers never overwrite a version in
//! place — an update marks the old version dead and inserts a new one —
//! so concurrent readers at older snapshots keep resolving their RIDs.
//!
//! Reads come in two flavours: *snapshot* reads (`*_snapshot`) filter
//! versions through an explicit [`Snapshot`], and plain reads filter
//! through a fresh latest-committed snapshot (what autocommit statements
//! and maintenance code see). Physical `delete`/`update` bypass versioning
//! and are reserved for unversioned ("frozen") storage such as
//! materialized-view backing tables and rollback's undo.
//!
//! Durability: a heap created with [`HeapFile::create_logged`] appends a
//! WAL record for every page mutation *inside* the `with_page_mut` closure
//! (the frame is pinned there, so the page cannot be evicted between the
//! append and the `page_lsn` stamp), then stamps the page with the
//! record's LSN. The `redo_*` / `undo_*` methods are the recovery
//! primitives: idempotent absolute operations, LSN-guarded for redo and
//! slot-tolerant for undo.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::catalog::TableId;
use crate::disk::PageId;
use crate::error::{Result, StorageError};
use crate::index::Key;
use crate::page::Page;
use crate::tuple::{decode_cols_into, decode_gated_into, Gate, GateScratch, Rid, Tuple};
use crate::txn::{Snapshot, TxnId, TxnManager, VersionHdr};
use crate::value::Value;
use crate::wal::{Wal, WalRecord};

/// The counts of one page of a snapshot read
/// ([`HeapFile::scan_page_snapshot`], or [`HeapFile::read_postings`] for one
/// page's run of index postings); the rows themselves went to the caller's
/// buffer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VisiblePage {
    /// The visible rows the gate accepted (every visible row when there is
    /// no gate), appended in slot order.
    pub rows: usize,
    /// Their width: every record the read appended has it (0 when it
    /// appended none).
    pub width: usize,
    /// Versions the snapshot sees, whether the gate accepted them or not.
    pub visible: u64,
    /// Versions the visibility check skipped.
    pub skipped: u64,
}

impl VisiblePage {
    /// Count one appended row of `width` values, and keep its RID when
    /// `rids` collects them. The rows of one read must share a width.
    fn appended(&mut self, width: usize, rid: Rid, rids: &mut Option<&mut Vec<Rid>>) -> Result<()> {
        if self.rows > 0 && width != self.width {
            return Err(StorageError::Corrupt(
                "records of different widths on one page",
            ));
        }
        self.rows += 1;
        self.width = width;
        if let Some(rids) = rids {
            rids.push(rid);
        }
        Ok(())
    }
}

/// The postings of some keys in one index ([`crate::Table::gather_postings`])
/// and how far [`HeapFile::read_postings`] has read them.
#[derive(Debug)]
pub struct Postings {
    pub(crate) keys: Vec<Key>,
    /// `(rid, position of its key in keys)` in heap scan order; a RID
    /// posted under several keys has its entries together, in key order.
    pub(crate) entries: Vec<(Rid, usize)>,
    /// The first entry not read yet.
    pub(crate) next: usize,
}

/// The order a full scan visits RIDs: by the page's position in the heap's
/// page list, then by slot. Index probes sort their postings with it, so a
/// probe returns rows in the order the scan it replaces would.
#[derive(Clone, Default)]
pub struct ScanOrder {
    /// Page id → position in the page list; `None` while page ids ascend
    /// with position (the page list only ever grew by fresh allocations).
    positions: Option<Arc<HashMap<PageId, usize>>>,
}

impl ScanOrder {
    /// The order of the page list `pages`.
    fn of(pages: &[PageId]) -> ScanOrder {
        if pages.windows(2).all(|w| w[0] < w[1]) {
            return ScanOrder { positions: None };
        }
        ScanOrder {
            positions: Some(Arc::new(
                pages.iter().enumerate().map(|(i, &p)| (p, i)).collect(),
            )),
        }
    }

    /// Follow `pages` having just grown by its last id. O(1), except once
    /// when the ids stop ascending (a page id re-used after recovery).
    fn pushed(&mut self, pages: &[PageId]) {
        let Some((&last, rest)) = pages.split_last() else {
            return;
        };
        match &mut self.positions {
            Some(map) => {
                Arc::make_mut(map).insert(last, rest.len());
            }
            None if rest.last().is_none_or(|&prev| prev < last) => {}
            None => *self = ScanOrder::of(pages),
        }
    }

    /// Sort key of `rid`. Pages missing from the list (allocated after the
    /// order was taken) sort last.
    pub fn key(&self, rid: Rid) -> (usize, PageId, u16) {
        let pos = match &self.positions {
            None => 0,
            Some(p) => p.get(&rid.page).copied().unwrap_or(usize::MAX),
        };
        (pos, rid.page, rid.slot)
    }
}

/// A heap file of encoded, versioned tuples.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    txns: Arc<TxnManager>,
    /// All pages of this heap, in allocation order.
    pages: RwLock<Vec<PageId>>,
    /// The scan order of `pages`, kept current by every change to it
    /// (always taken after `pages`' write lock), so a probe need not walk
    /// the list.
    order: RwLock<ScanOrder>,
    /// Approximate free bytes per page (parallel to `pages`).
    free: RwLock<Vec<u16>>,
    /// Identity of the owning table in WAL records.
    table_id: TableId,
    /// When set, every page mutation is logged (see module docs).
    wal: Option<Arc<Wal>>,
}

/// Encode a version header + tuple into one heap record.
fn encode_record(hdr: VersionHdr, tuple: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(VersionHdr::SIZE + tuple.byte_size() + tuple.len() + 2);
    hdr.encode(&mut out);
    tuple.encode_into(&mut out);
    out
}

/// Split one heap record into its version header and encoded tuple.
fn split_record(bytes: &[u8]) -> Result<(VersionHdr, &[u8])> {
    VersionHdr::decode(bytes).ok_or(StorageError::Corrupt("truncated version header"))
}

/// Decode one heap record into its header and tuple.
fn decode_record(bytes: &[u8]) -> Result<(VersionHdr, Tuple)> {
    let (hdr, rest) = split_record(bytes)?;
    Ok((hdr, Tuple::decode(rest)?))
}

/// The last creator whose live version a page read asked `sees` about, and
/// the answer. A live version (`xmax == 0`) is visible exactly when its
/// creator is, so rows one transaction wrote in a run cost one stamp
/// lookup between them. Valid for one page-latch hold only.
type CreatorMemo = Option<(TxnId, bool)>;

/// The one visibility check: decode `bytes`' header, ask `snap` whether
/// it sees the version, and only then hand back the encoded tuple. Must
/// run under the page latch the record was read under (see
/// [`HeapFile::scan_page_snapshot`]), with a `memo` that lives no longer.
fn visible_tuple<'b>(
    bytes: &'b [u8],
    snap: &Snapshot,
    memo: &mut CreatorMemo,
) -> Result<Option<&'b [u8]>> {
    let (hdr, rest) = split_record(bytes)?;
    let visible = match *memo {
        Some((xmin, seen)) if hdr.xmax == 0 && xmin == hdr.xmin => seen,
        _ => {
            let seen = snap.sees(&hdr);
            if hdr.xmax == 0 {
                *memo = Some((hdr.xmin, seen));
            }
            seen
        }
    };
    Ok(visible.then_some(rest))
}

/// Does `row` hold `key` in the index columns `columns`?
fn carries(columns: &[usize], row: &[Value], key: &[Value]) -> bool {
    columns.iter().zip(key).all(|(&c, k)| row.get(c) == Some(k))
}

/// Cut the `width`-wide rows a read appended to `values`, their RIDs in
/// `rids`, into calls of `f`, draining both; `false` once `f` asks to stop.
pub(crate) fn each_row(
    values: &mut Vec<Value>,
    rids: &mut Vec<Rid>,
    width: usize,
    mut f: impl FnMut(Rid, Tuple) -> Result<bool>,
) -> Result<bool> {
    let mut values = values.drain(..);
    for rid in rids.drain(..) {
        let tuple = Tuple::new(values.by_ref().take(width).collect());
        if !f(rid, tuple)? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl HeapFile {
    /// Create an empty heap file backed by `pool`, with visibility decided
    /// through `txns`. Mutations are not logged (volatile storage,
    /// materialized-view backing tables).
    pub fn create(pool: Arc<BufferPool>, txns: Arc<TxnManager>) -> Self {
        Self::create_logged(pool, txns, 0, None)
    }

    /// Create an empty heap file whose page mutations are logged to `wal`
    /// under `table_id` (pass `None` to keep it unlogged).
    pub fn create_logged(
        pool: Arc<BufferPool>,
        txns: Arc<TxnManager>,
        table_id: TableId,
        wal: Option<Arc<Wal>>,
    ) -> Self {
        HeapFile {
            pool,
            txns,
            pages: RwLock::new(Vec::new()),
            order: RwLock::default(),
            free: RwLock::new(Vec::new()),
            table_id,
            wal,
        }
    }

    /// Append a WAL record for a mutation of `page` and stamp the page
    /// with the record's LSN. Must be called while the page's frame lock is
    /// held (inside `with_page_mut` / `new_page` closures).
    fn log(&self, page: &mut Page, rec: WalRecord) {
        if let Some(wal) = &self.wal {
            if wal.logging() {
                let lsn = wal.append(&rec);
                page.set_lsn(lsn);
            }
        }
    }

    pub fn page_count(&self) -> usize {
        self.pages.read().len()
    }

    pub fn pages(&self) -> Vec<PageId> {
        self.pages.read().clone()
    }

    /// The order a full scan visits this heap's RIDs right now (O(1)).
    pub fn scan_order(&self) -> ScanOrder {
        self.order.read().clone()
    }

    /// Append `pid` to the page list (and the free map, at `free`).
    fn push_page(&self, pid: PageId, free: u16) {
        {
            let mut pages = self.pages.write();
            pages.push(pid);
            self.order.write().pushed(&pages);
        }
        self.free.write().push(free);
    }

    /// The transaction manager deciding visibility for this heap.
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// Insert a frozen (always-visible) tuple, returning its new RID.
    pub fn insert(&self, tuple: &Tuple) -> Result<Rid> {
        self.insert_version(tuple, crate::txn::FROZEN)
    }

    /// Insert a tuple version created by transaction `xmin`.
    pub fn insert_version(&self, tuple: &Tuple, xmin: TxnId) -> Result<Rid> {
        let record = encode_record(VersionHdr { xmin, xmax: 0 }, tuple);
        if record.len() > Page::max_record_size() {
            return Err(StorageError::TupleTooLarge(record.len()));
        }
        // Fast path: try the last page with enough estimated space.
        let candidate = {
            let pages = self.pages.read();
            let free = self.free.read();
            free.iter()
                .enumerate()
                .rev()
                .find(|(_, f)| **f as usize >= record.len() + 8)
                .map(|(i, _)| (i, pages[i]))
        };
        if let Some((idx, pid)) = candidate {
            let slot = self.pool.with_page_mut(pid, |p| {
                let r = if p.fits(record.len()) {
                    match p.insert(&record) {
                        Ok(slot) => {
                            self.log(
                                p,
                                WalRecord::Install {
                                    table: self.table_id,
                                    rid: Rid::new(pid, slot),
                                    record: record.clone(),
                                },
                            );
                            Ok(Some(slot))
                        }
                        Err(e) => Err(e),
                    }
                } else {
                    Ok(None)
                };
                (r, p.free_space() as u16)
            })?;
            let (res, new_free) = slot;
            self.free.write()[idx] = new_free;
            if let Some(slot) = res? {
                return Ok(Rid::new(pid, slot));
            }
        }
        // Slow path: allocate a new page.
        let (pid, slot) = self.pool.new_page(|pid, p| {
            self.log(
                p,
                WalRecord::HeapPage {
                    table: self.table_id,
                    page: pid,
                },
            );
            let slot = p.insert(&record)?;
            self.log(
                p,
                WalRecord::Install {
                    table: self.table_id,
                    rid: Rid::new(pid, slot),
                    record: record.clone(),
                },
            );
            Ok::<u16, StorageError>(slot)
        })?;
        let slot = slot?;
        let free_now = self.pool.with_page(pid, |p| p.free_space() as u16)?;
        self.push_page(pid, free_now);
        Ok(Rid::new(pid, slot))
    }

    /// Fetch the raw tuple at `rid`, whatever its version state. Snapshot
    /// readers go through [`HeapFile::scan_page_snapshot`] or, from index
    /// postings, [`HeapFile::read_postings`].
    pub fn get(&self, rid: Rid) -> Result<Tuple> {
        Ok(self.get_versioned(rid)?.1)
    }

    /// Fetch the version header and tuple at `rid`.
    pub fn get_versioned(&self, rid: Rid) -> Result<(VersionHdr, Tuple)> {
        let missing = StorageError::InvalidRid {
            page: rid.page,
            slot: rid.slot,
        };
        self.pool.with_page(rid.page, |p| {
            p.get(rid.slot).ok_or(missing).and_then(decode_record)
        })?
    }

    /// Set the delete mark (`xmax = xid`) on the version at `rid`.
    /// First-writer-wins: fails with [`StorageError::WriteConflict`] when
    /// another transaction (committed or in flight) already marked it.
    /// Returns the tuple image for undo/delta capture.
    pub fn mark_delete(&self, rid: Rid, xid: TxnId) -> Result<Tuple> {
        self.pool.with_page_mut(rid.page, |p| {
            let bytes = p.get(rid.slot).ok_or(StorageError::InvalidRid {
                page: rid.page,
                slot: rid.slot,
            })?;
            let (hdr, tuple) = decode_record(bytes)?;
            if hdr.xmax != 0 {
                return Err(StorageError::WriteConflict {
                    table: String::new(),
                });
            }
            let record = encode_record(
                VersionHdr {
                    xmin: hdr.xmin,
                    xmax: xid,
                },
                &tuple,
            );
            // Same record size: the in-place update cannot fail to fit.
            if !p.update(rid.slot, &record)? {
                return Err(StorageError::Corrupt("same-size header update did not fit"));
            }
            self.log(
                p,
                WalRecord::Mark {
                    xid,
                    table: self.table_id,
                    rid,
                },
            );
            Ok(tuple)
        })?
    }

    /// Clear a delete mark set by `xid` (rollback). A mark set by a
    /// different transaction is left alone.
    pub fn clear_delete_mark(&self, rid: Rid, xid: TxnId) -> Result<()> {
        self.pool.with_page_mut(rid.page, |p| {
            let bytes = p.get(rid.slot).ok_or(StorageError::InvalidRid {
                page: rid.page,
                slot: rid.slot,
            })?;
            let (hdr, tuple) = decode_record(bytes)?;
            if hdr.xmax != xid {
                return Ok(());
            }
            let record = encode_record(
                VersionHdr {
                    xmin: hdr.xmin,
                    xmax: 0,
                },
                &tuple,
            );
            if !p.update(rid.slot, &record)? {
                return Err(StorageError::Corrupt("same-size header update did not fit"));
            }
            self.log(
                p,
                WalRecord::Unmark {
                    table: self.table_id,
                    rid,
                },
            );
            Ok(())
        })?
    }

    /// Physically delete a record. Returns the old tuple (for index
    /// maintenance). Rollback and vacuum-style removal only.
    pub fn delete(&self, rid: Rid) -> Result<Tuple> {
        let old = self.get(rid)?;
        let freed = self.pool.with_page_mut(rid.page, |p| {
            let ok = p.delete(rid.slot);
            if ok {
                self.log(
                    p,
                    WalRecord::Tombstone {
                        table: self.table_id,
                        rid,
                    },
                );
            }
            (ok, p.free_space() as u16)
        })?;
        let (ok, _free) = freed;
        if !ok {
            return Err(StorageError::InvalidRid {
                page: rid.page,
                slot: rid.slot,
            });
        }
        Ok(old)
    }

    /// Scan every tuple visible to the latest-committed snapshot. The
    /// closure receives `(rid, tuple)` and may return `false` to stop early.
    pub fn for_each(&self, f: impl FnMut(Rid, Tuple) -> Result<bool>) -> Result<()> {
        self.for_each_snapshot(&self.txns.snapshot_latest(), f)
    }

    /// Scan every tuple visible to `snap`, page by page through
    /// [`HeapFile::scan_page_snapshot`].
    pub fn for_each_snapshot(
        &self,
        snap: &Snapshot,
        mut f: impl FnMut(Rid, Tuple) -> Result<bool>,
    ) -> Result<()> {
        let (mut values, mut rids) = (Vec::new(), Vec::new());
        let mut idx = 0;
        while let Some(page) =
            self.scan_page_snapshot(idx, snap, None, None, &mut values, Some(&mut rids))?
        {
            if !each_row(&mut values, &mut rids, page.width, &mut f)? {
                return Ok(());
            }
            idx += 1;
        }
        Ok(())
    }

    /// Scan every stored version, including dead and uncommitted ones
    /// (index backfill needs entries for all versions old snapshots may
    /// still read).
    pub fn for_each_version(
        &self,
        mut f: impl FnMut(Rid, VersionHdr, Tuple) -> Result<bool>,
    ) -> Result<()> {
        let pages = self.pages.read().clone();
        for pid in pages {
            let batch: Vec<(u16, VersionHdr, Tuple)> = self.pool.with_page(pid, |p| {
                p.iter()
                    .map(|(slot, rec)| decode_record(rec).map(|(h, t)| (slot, h, t)))
                    .collect::<Result<Vec<_>>>()
            })??;
            for (slot, h, t) in batch {
                if !f(Rid::new(pid, slot), h, t)? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Decode the live tuples of the `idx`-th page of this heap (by
    /// position in the allocation-ordered page list) that are visible to
    /// `snap` and that `gate` accepts, appending each one's values to `out`
    /// (row after row, a flat row-major buffer) and, when `rids` is given,
    /// its RID to `rids`. Returns how many rows were appended and their
    /// width, with the number of versions `snap` sees and the number the
    /// visibility check skipped, or `None` once `idx` runs past the end.
    /// This is the streaming unit batch scans pull on demand, so a scan
    /// holds at most one page's tuples at a time, and a scan decodes them
    /// straight into the batch it is filling: no record becomes a
    /// [`Tuple`] of its own. It reads through
    /// [`BufferPool::with_scan_page`]: a page it brings in enters the pool
    /// cold, so a table larger than the pool does not flush it.
    ///
    /// Each record's header is checked before its tuple is decoded, so an
    /// invisible version costs no decode; a run of live versions from one
    /// creator costs one `sees` call. Only the columns at the ascending
    /// positions `cols` become values (`None` keeps all): every other
    /// column reads as `NULL` in its own slot, and its bytes are still
    /// validated. The appended records must share one width; a page whose
    /// records differ fails as [`StorageError::Corrupt`].
    ///
    /// A [`Gate`] decides each visible record before it is materialized:
    /// one walk validates every column, the gate's columns are decoded into
    /// the record's own slot at the tail of `out`, and the gate decides on
    /// that slot. A rejected record allocated nothing and still counts in
    /// `visible`; the next record reuses its slot, and the read truncates
    /// the last one away. An accepted record fills in the rest of `cols`
    /// from the same walk, so nothing is decoded twice. With `gate = None`
    /// every visible record is decoded straight into `out`.
    ///
    /// Visibility is checked *while the page latch is held*. That ordering
    /// is what makes GC freezing sound: vacuum rewrites a header to the
    /// frozen sentinel under the page's write latch and only prunes the
    /// commit stamp afterwards, so a reader that saw the pre-freeze header
    /// is guaranteed to still find the stamp — a header copy checked after
    /// releasing the latch could race the freeze-then-prune sequence and
    /// wrongly read "uncommitted". Stamp-table lookups nest a read lock
    /// inside the page latch; nothing takes page latches while holding the
    /// stamp lock, so the order is deadlock-free. The creator memo is
    /// dropped with the latch; so is the gate's scratch.
    pub fn scan_page_snapshot(
        &self,
        idx: usize,
        snap: &Snapshot,
        cols: Option<&[usize]>,
        mut gate: Option<Gate<'_>>,
        out: &mut Vec<Value>,
        mut rids: Option<&mut Vec<Rid>>,
    ) -> Result<Option<VisiblePage>> {
        let pid = match self.pages.read().get(idx) {
            Some(pid) => *pid,
            None => return Ok(None),
        };
        let page = self.pool.with_scan_page(pid, |p| {
            let mut page = VisiblePage::default();
            let mut memo = None;
            let mut scratch = GateScratch::default();
            for (slot, rec) in p.iter() {
                let Some(bytes) = visible_tuple(rec, snap, &mut memo)? else {
                    page.skipped += 1;
                    continue;
                };
                page.visible += 1;
                let width = match gate.as_mut() {
                    None => decode_cols_into(bytes, cols, out)?,
                    Some(gate) => match decode_gated_into(bytes, cols, gate, &mut scratch, out)? {
                        Some(width) => width,
                        None => continue,
                    },
                };
                page.appended(width, Rid::new(pid, slot), &mut rids)?;
            }
            scratch.close(out);
            Ok::<VisiblePage, StorageError>(page)
        })??;
        Ok(Some(page))
    }

    /// Read the next run of `postings`, their entries on one page, under
    /// one pin: each RID whose slot holds a version `snap` sees that still
    /// carries one of the keys it was posted under (in the index columns
    /// `columns`), and that `gate` accepts, is appended to `out` once, in
    /// posting order, as [`HeapFile::scan_page_snapshot`] appends a record
    /// (behind a gate, the key columns are decoded with the gate's and the
    /// key is checked first). `None` once every posting is read. This is
    /// the one way postings become rows: they are gathered with no lock
    /// coupling to the heap, so a rollback or vacuum may have reclaimed a
    /// slot since, and an insert reused it; the checks run here, under the
    /// page latch. `visible` counts the RIDs that resolved to a row;
    /// `skipped` the postings that resolved to nothing, up to a RID's first
    /// one that resolved.
    pub fn read_postings(
        &self,
        columns: &[usize],
        postings: &mut Postings,
        snap: &Snapshot,
        mut gate: Option<Gate<'_>>,
        out: &mut Vec<Value>,
        mut rids: Option<&mut Vec<Rid>>,
    ) -> Result<Option<VisiblePage>> {
        let rest = &postings.entries[postings.next..];
        let Some(&(first, _)) = rest.first() else {
            return Ok(None);
        };
        let n = rest
            .iter()
            .take_while(|(r, _)| r.page == first.page)
            .count();
        let run = &rest[..n];
        postings.next += n;
        let mut keyed_cols: Vec<usize> = gate
            .iter()
            .flat_map(|g| columns.iter().chain(g.cols))
            .copied()
            .collect();
        keyed_cols.sort_unstable();
        keyed_cols.dedup();
        let keys = &postings.keys;
        let page = self.pool.with_page(first.page, |p| {
            let (mut page, mut memo, mut scratch) =
                (VisiblePage::default(), None, GateScratch::default());
            for group in run.chunk_by(|a, b| a.0 == b.0) {
                let bytes = match p.get(group[0].0.slot) {
                    Some(rec) => visible_tuple(rec, snap, &mut memo)?,
                    None => None,
                };
                // The first of the RID's postings whose key the row carries.
                let carried = |row: &[Value]| {
                    group
                        .iter()
                        .position(|&(_, k)| carries(columns, row, &keys[k]))
                };
                let (hit, width) = match (bytes, gate.as_mut()) {
                    (None, _) => (None, None),
                    (Some(bytes), None) => {
                        let start = out.len();
                        let width = decode_cols_into(bytes, None, out)?;
                        let hit = carried(&out[start..]);
                        if hit.is_none() {
                            out.truncate(start);
                        }
                        (hit, Some(width))
                    }
                    (Some(bytes), Some(gate)) => {
                        let mut hit = None;
                        let mut accept = |row: &[Value]| {
                            hit = carried(row);
                            hit.is_some() && (gate.accept)(row)
                        };
                        let mut keyed = Gate {
                            cols: &keyed_cols,
                            accept: &mut accept,
                        };
                        let width = decode_gated_into(bytes, None, &mut keyed, &mut scratch, out)?;
                        (hit, width)
                    }
                };
                page.skipped += hit.unwrap_or(group.len()) as u64;
                page.visible += u64::from(hit.is_some());
                if let (Some(_), Some(width)) = (hit, width) {
                    page.appended(width, group[0].0, &mut rids)?;
                }
            }
            scratch.close(out);
            Ok::<VisiblePage, StorageError>(page)
        })??;
        Ok(Some(page))
    }

    /// Number of visible tuples under the latest-committed snapshot (full
    /// scan; used by ANALYZE).
    pub fn count(&self) -> Result<usize> {
        self.count_snapshot(&self.txns.snapshot_latest())
    }

    /// Number of tuples visible to `snap`.
    pub fn count_snapshot(&self, snap: &Snapshot) -> Result<usize> {
        let mut n = 0;
        self.for_each_snapshot(snap, |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    // -- recovery primitives ------------------------------------------------
    //
    // Redo ops are absolute and LSN-guarded: a page whose `page_lsn` is at
    // or past the record's LSN already reflects it (it was flushed later)
    // and is skipped; otherwise the page is exactly at the historical state
    // the record was logged against, so the operation applies verbatim.
    // Undo ops are slot-tolerant (a runtime rollback may have already
    // reverted the op before the crash) and never LSN-guarded — they run
    // after redo, against the reconstructed end-of-log state.

    /// Restore the page list (and a fresh free-space map) from a checkpoint
    /// snapshot. The free estimates are refreshed by
    /// [`HeapFile::refresh_free_map`] once redo completes.
    pub fn restore_pages(&self, pages: Vec<PageId>) {
        let mut free = self.free.write();
        let mut my_pages = self.pages.write();
        free.clear();
        free.resize(pages.len(), 0);
        *self.order.write() = ScanOrder::of(&pages);
        *my_pages = pages;
    }

    /// Redo of [`WalRecord::HeapPage`]: make sure `pid` is allocated on
    /// disk and part of this heap's extent. Idempotent.
    pub fn redo_add_page(&self, pid: PageId) -> Result<()> {
        self.pool.disk().ensure_allocated(pid)?;
        let mut pages = self.pages.write();
        if !pages.contains(&pid) {
            pages.push(pid);
            self.order.write().pushed(&pages);
            self.free.write().push(0);
        }
        Ok(())
    }

    /// Apply `f` to the page at `rid` unless the page already reflects the
    /// record (`page_lsn >= lsn`); stamps the page on application. Returns
    /// whether the record was applied.
    fn redo_page(
        &self,
        pid: PageId,
        lsn: u64,
        f: impl FnOnce(&mut Page) -> Result<()>,
    ) -> Result<bool> {
        self.pool.with_page_mut(pid, |p| {
            if p.lsn() >= lsn {
                return Ok(false);
            }
            f(p)?;
            p.set_lsn(lsn);
            Ok(true)
        })?
    }

    /// Redo of [`WalRecord::Install`].
    pub fn redo_install(&self, rid: Rid, record: &[u8], lsn: u64) -> Result<bool> {
        self.redo_page(rid.page, lsn, |p| p.install(rid.slot, record))
    }

    /// Redo of [`WalRecord::Mark`] (absolute: sets `xmax = xid`).
    pub fn redo_mark(&self, rid: Rid, xid: TxnId, lsn: u64) -> Result<bool> {
        self.redo_set_hdr(rid, lsn, |hdr| hdr.xmax = xid)
    }

    /// Redo of [`WalRecord::Unmark`] (absolute: clears `xmax`).
    pub fn redo_unmark(&self, rid: Rid, lsn: u64) -> Result<bool> {
        self.redo_set_hdr(rid, lsn, |hdr| hdr.xmax = 0)
    }

    /// Redo of [`WalRecord::Freeze`] (absolute: `xmin = FROZEN`).
    pub fn redo_freeze(&self, rid: Rid, lsn: u64) -> Result<bool> {
        self.redo_set_hdr(rid, lsn, |hdr| hdr.xmin = crate::txn::FROZEN)
    }

    fn redo_set_hdr(&self, rid: Rid, lsn: u64, f: impl FnOnce(&mut VersionHdr)) -> Result<bool> {
        self.redo_page(rid.page, lsn, |p| {
            let Some(bytes) = p.get(rid.slot) else {
                // The slot is gone (e.g. a later vacuum reclaim was flushed
                // but this page image predates the version): nothing to do.
                return Ok(());
            };
            let (mut hdr, tuple) = decode_record(bytes)?;
            f(&mut hdr);
            let record = encode_record(hdr, &tuple);
            if !p.update(rid.slot, &record)? {
                return Err(StorageError::Corrupt("same-size redo update did not fit"));
            }
            Ok(())
        })
    }

    /// Redo of [`WalRecord::Tombstone`].
    pub fn redo_tombstone(&self, rid: Rid, lsn: u64) -> Result<bool> {
        self.redo_page(rid.page, lsn, |p| {
            p.delete(rid.slot);
            Ok(())
        })
    }

    /// Undo of a loser's [`WalRecord::Install`]: physically reclaim the
    /// version — but only if the slot still holds the loser's version
    /// (`xmin == xid`). A runtime rollback may already have tombstoned it,
    /// and a *later* insert may then have legally reused the slot for a
    /// committed row; deleting blindly would destroy that row.
    pub fn undo_install(&self, rid: Rid, xid: TxnId) -> Result<()> {
        self.pool.with_page_mut(rid.page, |p| {
            let Some(bytes) = p.get(rid.slot) else {
                return Ok(());
            };
            let (hdr, _) = decode_record(bytes)?;
            if hdr.xmin == xid {
                p.delete(rid.slot);
            }
            Ok(())
        })?
    }

    /// Undo of a loser's [`WalRecord::Mark`]: clear the delete mark if it
    /// is still the loser's. Tolerates missing slots and foreign marks.
    pub fn undo_mark(&self, rid: Rid, xid: TxnId) -> Result<()> {
        self.pool.with_page_mut(rid.page, |p| {
            let Some(bytes) = p.get(rid.slot) else {
                return Ok(());
            };
            let (hdr, tuple) = decode_record(bytes)?;
            if hdr.xmax != xid {
                return Ok(());
            }
            let record = encode_record(
                VersionHdr {
                    xmin: hdr.xmin,
                    xmax: 0,
                },
                &tuple,
            );
            if !p.update(rid.slot, &record)? {
                return Err(StorageError::Corrupt("same-size undo update did not fit"));
            }
            Ok(())
        })?
    }

    /// Recompute the free-space map from the pages themselves (after redo
    /// and undo rewrote them).
    pub fn refresh_free_map(&self) -> Result<()> {
        let pages = self.pages.read().clone();
        let mut free = Vec::with_capacity(pages.len());
        for pid in pages {
            free.push(self.pool.with_page(pid, |p| p.free_space() as u16)?);
        }
        *self.free.write() = free;
        Ok(())
    }

    // -- garbage collection -------------------------------------------------

    /// One vacuum pass over this heap against the GC low-watermark (see
    /// [`crate::vacuum`]). Reclaims every version whose deleter committed
    /// at or below `watermark` (tombstoning its slot for reuse and
    /// compacting the page), freezes surviving versions whose creator
    /// committed at or below it, and refreshes the free-space map so the
    /// reclaimed space is found by later inserts.
    ///
    /// The caller must hold the owning table's write latch: the pass reads
    /// headers, classifies them against the commit-stamp table outside the
    /// page locks, then applies — which is only race-free because writers
    /// (the only mutators of headers) are excluded for the duration.
    /// Readers are unaffected: they either scan pages (one page lock at a
    /// time, reclaimed versions were invisible to every live snapshot by
    /// the watermark's definition) or re-verify stale index postings in
    /// [`HeapFile::read_postings`].
    pub fn vacuum(&self, watermark: u64) -> Result<HeapVacuum> {
        let mut out = HeapVacuum::default();
        let pages = self.pages.read().clone();
        for (idx, &pid) in pages.iter().enumerate() {
            // `dead_bytes` covers space reclaimable only by compaction that
            // no version classification will find: records tombstoned by
            // rollback or physical deletes, and slack from shrunken
            // in-place updates. Only headers are decoded here: a tuple is
            // decoded only when its version is reclaimed.
            let (headers, dead_bytes): (Vec<(u16, VersionHdr)>, usize) =
                self.pool.with_page(pid, |p| {
                    let headers = p
                        .iter()
                        .map(|(slot, rec)| split_record(rec).map(|(h, _)| (slot, h)))
                        .collect::<Result<Vec<_>>>()?;
                    Ok::<_, StorageError>((headers, p.dead_space()))
                })??;

            // Classify outside the page lock (stamp lookups never nest
            // inside a page latch).
            let mut remove: Vec<u16> = Vec::new();
            let mut freeze: Vec<(u16, VersionHdr)> = Vec::new();
            for (slot, hdr) in headers {
                let ended = hdr.xmax != 0
                    && self
                        .txns
                        .commit_stamp(hdr.xmax)
                        .map(|d| d <= watermark)
                        .unwrap_or(false);
                if ended {
                    // Dead to every live and future snapshot: reclaim.
                    remove.push(slot);
                    continue;
                }
                let xmin_frozen = match hdr.xmin {
                    crate::txn::FROZEN => true,
                    x => match self.txns.commit_stamp(x) {
                        Some(c) if c <= watermark => {
                            freeze.push((slot, hdr));
                            true
                        }
                        // Uncommitted, or committed above the watermark:
                        // some snapshot may still need the stamp lookup.
                        _ => false,
                    },
                };
                if !xmin_frozen || hdr.xmax != 0 {
                    out.remaining_unfrozen += 1;
                }
                if hdr.xmax != 0 {
                    out.remaining_dead += 1;
                }
            }

            let compact = !remove.is_empty() || dead_bytes > 0;
            if !compact && freeze.is_empty() {
                continue;
            }
            out.frozen += freeze.len() as u64;
            let new_free = self.pool.with_page_mut(pid, |p| {
                for &slot in &remove {
                    let rec = p
                        .get(slot)
                        .ok_or(StorageError::InvalidRid { page: pid, slot })?;
                    let (_, tuple) = decode_record(rec)?;
                    if p.delete(slot) {
                        self.log(
                            p,
                            WalRecord::Tombstone {
                                table: self.table_id,
                                rid: Rid::new(pid, slot),
                            },
                        );
                    }
                    out.removed.push((Rid::new(pid, slot), tuple));
                }
                for (slot, hdr) in &freeze {
                    let mut rec = p
                        .get(*slot)
                        .ok_or(StorageError::InvalidRid {
                            page: pid,
                            slot: *slot,
                        })?
                        .to_vec();
                    let mut frozen = Vec::with_capacity(VersionHdr::SIZE);
                    VersionHdr {
                        xmin: crate::txn::FROZEN,
                        xmax: hdr.xmax,
                    }
                    .encode(&mut frozen);
                    rec[..VersionHdr::SIZE].copy_from_slice(&frozen);
                    // Same record size (the header is fixed-width): the
                    // in-place rewrite cannot fail to fit.
                    if !p.update(*slot, &rec)? {
                        return Err(StorageError::Corrupt("same-size freeze did not fit"));
                    }
                    self.log(
                        p,
                        WalRecord::Freeze {
                            table: self.table_id,
                            rid: Rid::new(pid, *slot),
                        },
                    );
                }
                if compact {
                    p.compact();
                }
                Ok(p.free_space() as u16)
            })??;
            if compact {
                out.pages_compacted += 1;
                self.free.write()[idx] = new_free;
            }
        }
        Ok(out)
    }

    /// Count every stored version by state (diagnostic full scan).
    pub fn version_census(&self) -> Result<crate::vacuum::VersionCensus> {
        let mut census = crate::vacuum::VersionCensus::default();
        self.for_each_version(|_, hdr, _| {
            census.total_versions += 1;
            if hdr.xmax == 0 {
                census.live += 1;
                if hdr.xmin == crate::txn::FROZEN {
                    census.frozen += 1;
                }
            } else {
                census.dead += 1;
            }
            Ok(true)
        })?;
        Ok(census)
    }
}

/// Outcome of one [`HeapFile::vacuum`] pass.
#[derive(Debug, Default)]
pub struct HeapVacuum {
    /// The reclaimed versions, for index-posting removal by the caller.
    pub removed: Vec<(Rid, Tuple)>,
    /// Versions whose header was rewritten to the frozen sentinel.
    pub frozen: u64,
    /// Pages compacted after reclaiming.
    pub pages_compacted: u64,
    /// Headers left that still reference a transaction id (unfrozen
    /// `xmin`, or any set `xmax`).
    pub remaining_unfrozen: u64,
    /// Versions left carrying a delete mark the pass could not reclaim.
    pub remaining_dead: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::value::Value;

    fn heap() -> HeapFile {
        let disk = Arc::new(DiskManager::new());
        HeapFile::create(
            Arc::new(BufferPool::new(disk, 8)),
            Arc::new(TxnManager::new()),
        )
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("name-{i}"))])
    }

    /// Every row visible to the latest-committed snapshot.
    fn all_rows(h: &HeapFile) -> Vec<(Rid, Tuple)> {
        let mut rows = Vec::new();
        h.for_each(|rid, t| {
            rows.push((rid, t));
            Ok(true)
        })
        .unwrap();
        rows
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap();
        let rid = h.insert(&row(1)).unwrap();
        assert_eq!(h.get(rid).unwrap(), row(1));
        let (hdr, _) = h.get_versioned(rid).unwrap();
        assert_eq!(hdr, VersionHdr::frozen());
    }

    #[test]
    fn spans_multiple_pages() {
        let h = heap();
        let mut rids = vec![];
        for i in 0..2000 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        assert!(h.page_count() > 1, "2000 rows should span pages");
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap()[0], Value::Int(i as i64));
        }
        assert_eq!(h.count().unwrap(), 2000);
    }

    #[test]
    fn scan_order_follows_the_page_list() {
        let rid = Rid::new;
        // Ascending ids need no position map, however the list grows.
        let mut order = ScanOrder::of(&[1, 4, 9]);
        order.pushed(&[1, 4, 9, 12]);
        assert!(order.positions.is_none());
        // A re-used id out of order switches to positions, which then
        // follow further pushes.
        order.pushed(&[1, 4, 9, 12, 2]);
        order.pushed(&[1, 4, 9, 12, 2, 11]);
        order.pushed(&[1, 4, 9, 12, 2, 11, 3]);
        let mut rids = vec![
            rid(3, 0),
            rid(2, 1),
            rid(11, 0),
            rid(12, 0),
            rid(1, 5),
            rid(2, 0),
        ];
        rids.sort_by_key(|&r| order.key(r));
        assert_eq!(
            rids,
            vec![
                rid(1, 5),
                rid(12, 0),
                rid(2, 0),
                rid(2, 1),
                rid(11, 0),
                rid(3, 0)
            ]
        );

        // A heap whose restored page list runs backwards: its scan order is
        // the list's, and a page it allocates afterwards sorts last.
        let h = heap();
        for i in 0..600 {
            h.insert(&row(i)).unwrap();
        }
        let mut pages = h.pages();
        assert!(pages.len() > 2, "600 rows should span pages");
        pages.reverse();
        h.restore_pages(pages.clone());
        h.refresh_free_map().unwrap();
        while h.page_count() == pages.len() {
            h.insert(&row(-1)).unwrap();
        }
        let fresh = *h.pages().last().unwrap();
        assert!(!pages.contains(&fresh));
        let order = h.scan_order();
        let mut firsts: Vec<Rid> = pages.iter().map(|&p| rid(p, 0)).collect();
        firsts.push(rid(fresh, 0));
        let mut sorted = firsts.clone();
        sorted.reverse();
        sorted.sort_by_key(|&r| order.key(r));
        assert_eq!(sorted, firsts);
    }

    #[test]
    fn delete_then_get_fails() {
        let h = heap();
        let rid = h.insert(&row(5)).unwrap();
        let old = h.delete(rid).unwrap();
        assert_eq!(old, row(5));
        assert!(h.get(rid).is_err());
        assert_eq!(h.count().unwrap(), 0);
    }

    #[test]
    fn scan_sees_all_live_tuples() {
        let h = heap();
        let mut rids = vec![];
        for i in 0..100 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        h.delete(rids[10]).unwrap();
        h.delete(rids[20]).unwrap();
        let all = all_rows(&h);
        assert_eq!(all.len(), 98);
        assert!(all
            .iter()
            .all(|(rid, _)| *rid != rids[10] && *rid != rids[20]));
    }

    #[test]
    fn early_scan_termination() {
        let h = heap();
        for i in 0..50 {
            h.insert(&row(i)).unwrap();
        }
        let mut seen = 0;
        h.for_each(|_, _| {
            seen += 1;
            Ok(seen < 10)
        })
        .unwrap();
        assert_eq!(seen, 10);
    }

    /// [`HeapFile::scan_page_snapshot`] into a buffer holding one row
    /// already, cut back into `(rid, tuple)` rows.
    fn read_page(
        h: &HeapFile,
        idx: usize,
        snap: &Snapshot,
        cols: Option<&[usize]>,
        gate: Option<Gate<'_>>,
    ) -> Option<(VisiblePage, Vec<(Rid, Tuple)>)> {
        let ahead = row(-1).values;
        let (mut out, mut rids) = (ahead.clone(), Vec::new());
        let page = h
            .scan_page_snapshot(idx, snap, cols, gate, &mut out, Some(&mut rids))
            .unwrap()?;
        assert_eq!(out[..ahead.len()], ahead[..], "the read only appends");
        assert_eq!(out.len(), ahead.len() + page.rows * page.width);
        assert_eq!(rids.len(), page.rows);
        let mut values = out.drain(ahead.len()..);
        let rows = rids.into_iter().map(|rid| {
            let tuple = Tuple::new(values.by_ref().take(page.width).collect());
            (rid, tuple)
        });
        Some((page, rows.collect()))
    }

    #[test]
    fn scan_page_streams_page_at_a_time() {
        let h = heap();
        for i in 0..2000 {
            h.insert(&row(i)).unwrap();
        }
        let snap = h.txns().snapshot_latest();
        let mut total = 0;
        let mut idx = 0;
        while let Some((page, rows)) = read_page(&h, idx, &snap, None, None) {
            assert!(!rows.is_empty());
            assert_eq!(page.skipped, 0);
            assert_eq!(page.visible, rows.len() as u64);
            assert_eq!(page.width, 2);
            total += rows.len();
            idx += 1;
        }
        assert_eq!(idx, h.page_count());
        assert_eq!(total, 2000);
        assert!(read_page(&h, idx, &snap, None, None).is_none());
    }

    #[test]
    fn scan_page_checks_each_creator_run_and_decodes_kept_columns() {
        let h = heap();
        let txns = Arc::clone(h.txns());
        // One page, versions from two creators: `a` (committed), `b` (in
        // flight), `a` again, so the creator memo switches both ways, and
        // last a version of `a` that a committed `c` deleted: the memo
        // answers for live versions only.
        let (a, b, c) = (txns.allocate(), txns.allocate(), txns.allocate());
        h.insert_version(&row(1), a).unwrap();
        txns.commit(a);
        h.insert_version(&row(2), b).unwrap();
        h.insert_version(&row(3), a).unwrap();
        let gone = h.insert_version(&row(4), a).unwrap();
        h.mark_delete(gone, c).unwrap();
        txns.commit(c);
        assert_eq!(h.page_count(), 1);

        let latest = txns.snapshot_latest();
        let (page, rows) = read_page(&h, 0, &latest, None, None).unwrap();
        assert_eq!(
            page.skipped, 2,
            "b's version and the deleted one are invisible"
        );
        let got: Vec<Tuple> = rows.into_iter().map(|(_, t)| t).collect();
        assert_eq!(got, vec![row(1), row(3)]);

        // b's own snapshot also sees its own version; with column 1 kept,
        // column 0 reads NULL in place.
        let own = txns.snapshot_for(b);
        let (page, rows) = read_page(&h, 0, &own, Some(&[1]), None).unwrap();
        assert_eq!(page.skipped, 1);
        let got: Vec<Vec<Value>> = rows.into_iter().map(|(_, t)| t.values).collect();
        let want: Vec<Vec<Value>> = (1..=3)
            .map(|i| vec![Value::Null, Value::Str(format!("name-{i}"))])
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn gated_page_read_is_the_accepted_subset_of_the_plain_one() {
        let h = heap();
        let txns = Arc::clone(h.txns());
        // One page holding: committed rows, a version a committed txn
        // deleted, another txn's uncommitted insert, the reader's own
        // insert and a tombstoned slot.
        let base = txns.allocate();
        for i in 0..6 {
            h.insert_version(&row(i), base).unwrap();
        }
        let gone = h.insert_version(&row(6), base).unwrap();
        let tomb = h.insert_version(&row(7), base).unwrap();
        txns.commit(base);
        let deleter = txns.allocate();
        h.mark_delete(gone, deleter).unwrap();
        txns.commit(deleter);
        h.delete(tomb).unwrap();
        let (other, reader) = (txns.allocate(), txns.allocate());
        h.insert_version(&row(8), other).unwrap();
        h.insert_version(&row(9), reader).unwrap();
        assert_eq!(h.page_count(), 1);

        let snap = txns.snapshot_for(reader);
        for cols in [None, Some(&[1][..])] {
            let (plain, plain_rows) = read_page(&h, 0, &snap, cols, None).unwrap();
            let ids: Vec<i64> = plain_rows
                .iter()
                .map(|(rid, _)| h.get(*rid).unwrap()[0].as_int().unwrap())
                .collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 9]);
            assert_eq!((plain.visible, plain.skipped), (7, 2));
            // The gate reads column 0 and keeps even ids.
            let mut asked = Vec::new();
            let mut accept = |r: &[Value]| {
                asked.push(r.to_vec());
                r[0].as_int().unwrap() % 2 == 0
            };
            let gate = Gate {
                cols: &[0],
                accept: &mut accept,
            };
            let (gated, gated_rows) = read_page(&h, 0, &snap, cols, Some(gate)).unwrap();
            assert_eq!(
                (gated.visible, gated.skipped),
                (plain.visible, plain.skipped)
            );
            let want: Vec<(Rid, Tuple)> = plain_rows
                .iter()
                .zip(&ids)
                .filter(|(_, id)| *id % 2 == 0)
                .map(|(r, _)| r.clone())
                .collect();
            assert_eq!(gated_rows, want, "cols {cols:?}");
            let shown: Vec<Vec<Value>> = ids
                .iter()
                .map(|&i| vec![Value::Int(i), Value::Null])
                .collect();
            assert_eq!(asked, shown, "the gate sees each visible row once");
        }
    }

    #[test]
    fn reuses_freed_space() {
        let h = heap();
        let mut rids = vec![];
        for i in 0..500 {
            rids.push(h.insert(&row(i)).unwrap());
        }
        let pages_before = h.page_count();
        for rid in &rids {
            h.delete(*rid).unwrap();
        }
        // Freed slots are tombstoned; inserts go to pages with estimated
        // space (estimates only shrink), so new pages may be needed, but the
        // heap must still function.
        for i in 0..500 {
            h.insert(&row(i)).unwrap();
        }
        assert_eq!(h.count().unwrap(), 500);
        assert!(h.page_count() >= pages_before);
    }

    #[test]
    fn uncommitted_versions_hidden_from_plain_scans() {
        let h = heap();
        h.insert(&row(1)).unwrap();
        let txn = h.txns().allocate();
        let rid = h.insert_version(&row(2), txn).unwrap();
        // Plain scan: latest-committed only.
        assert_eq!(h.count().unwrap(), 1);
        // The writer's own snapshot sees it.
        let own = h.txns().snapshot_for(txn);
        assert_eq!(h.count_snapshot(&own).unwrap(), 2);
        // Mark-delete the frozen row: hidden from the writer, visible to
        // latest until commit.
        let frozen_rid = all_rows(&h)[0].0;
        h.mark_delete(frozen_rid, txn).unwrap();
        assert_eq!(h.count_snapshot(&own).unwrap(), 1);
        assert_eq!(h.count().unwrap(), 1, "uncommitted delete invisible");
        h.txns().commit(txn);
        assert_eq!(h.count().unwrap(), 1, "now only the committed insert");
        assert_eq!(all_rows(&h)[0].1, row(2));
        let _ = rid;
    }

    #[test]
    fn mark_delete_conflicts_on_marked_row() {
        let h = heap();
        let rid = h.insert(&row(1)).unwrap();
        let a = h.txns().allocate();
        let b = h.txns().allocate();
        h.mark_delete(rid, a).unwrap();
        assert!(matches!(
            h.mark_delete(rid, b),
            Err(StorageError::WriteConflict { .. })
        ));
        // Rollback of A clears the mark; B can then write.
        h.clear_delete_mark(rid, a).unwrap();
        h.mark_delete(rid, b).unwrap();
    }
}
