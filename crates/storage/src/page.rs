//! Slotted pages: the unit of disk transfer and buffering.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0..2    slot_count: u16
//! 2..4    free_space_offset: u16   (end of the record area, grows downward)
//! 4..6    tombstone_count: u16     (deleted directory entries awaiting reuse)
//! 6..8    reserved
//! 8..16   page_lsn: u64            (LSN of the last logged mutation)
//! 16..    slot directory: slot_count entries of (offset: u16, len: u16)
//! ...     free space
//! ...     record data (packed from the end of the page toward the front)
//! ```
//!
//! A slot with `offset == TOMBSTONE` is deleted; its record space is
//! reclaimed by [`Page::compact`] and its directory entry is reused by a
//! later [`Page::insert`]. RIDs are stable for the lifetime of a *version*:
//! once a slot is tombstoned (physical delete, rollback, vacuum) its RID may
//! come back holding an unrelated tuple, which is why stale RID holders
//! (index postings collected before a reclaim) must re-verify key and
//! visibility on dereference, as `HeapFile::read_postings` does.
//!
//! `page_lsn` records the WAL position of the last logged mutation to this
//! page. It travels with the page to disk, so ARIES redo can skip records a
//! flushed page already reflects, and the buffer pool flushes the log up to
//! it before eviction (WAL-before-data).

use crate::error::{Result, StorageError};

/// Page size in bytes. 8 KiB, the classic DB page size.
pub const PAGE_SIZE: usize = 8192;
const HEADER: usize = 16;
const SLOT_ENTRY: usize = 4;
const TOMBSTONE: u16 = u16::MAX;

/// Size of the torn-page trailer reserved at the end of every page:
/// an LSN echo (8 bytes) followed by a CRC32 (4 bytes) over everything
/// before the checksum field. The record area packs down to
/// `PAGE_SIZE - PAGE_TRAILER`, so the trailer is never clobbered by data.
pub const PAGE_TRAILER: usize = 12;
const TRAILER_LSN: usize = PAGE_SIZE - PAGE_TRAILER;
const TRAILER_CRC: usize = PAGE_SIZE - 4;

/// Stamp the trailer of a raw page image: echo the page's header LSN and
/// write the CRC32 of everything before the checksum field. Called by the
/// file-backed [`crate::disk::DiskManager`] on every write-back.
pub fn stamp_trailer(buf: &mut [u8; PAGE_SIZE]) {
    let lsn = buf[8..16].to_vec();
    buf[TRAILER_LSN..TRAILER_LSN + 8].copy_from_slice(&lsn);
    let crc = crate::codec::crc32(&buf[..TRAILER_CRC]);
    buf[TRAILER_CRC..].copy_from_slice(&crc.to_le_bytes());
}

/// Verify the trailer of a raw page image. An all-zero image is accepted:
/// it is a freshly allocated page that was extended (`set_len`) but never
/// written back, which is a legitimate old-image state.
pub fn trailer_matches(buf: &[u8; PAGE_SIZE]) -> bool {
    let stored = u32::from_le_bytes([
        buf[TRAILER_CRC],
        buf[TRAILER_CRC + 1],
        buf[TRAILER_CRC + 2],
        buf[TRAILER_CRC + 3],
    ]);
    if crate::codec::crc32(&buf[..TRAILER_CRC]) == stored
        && buf[TRAILER_LSN..TRAILER_LSN + 8] == buf[8..16]
    {
        return true;
    }
    buf.iter().all(|&b| b == 0)
}

/// A fixed-size slotted page.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.reset();
        p
    }

    /// Empty the page in place: the state [`Page::new`] returns, without
    /// allocating.
    pub(crate) fn reset(&mut self) {
        self.data.fill(0);
        self.set_slot_count(0);
        self.set_free_offset((PAGE_SIZE - PAGE_TRAILER) as u16);
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// The raw image, for the disk manager to read a page into in place.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    pub fn slot_count(&self) -> u16 {
        self.read_u16(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.write_u16(0, v);
    }

    fn free_offset(&self) -> u16 {
        self.read_u16(2)
    }

    fn set_free_offset(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    /// LSN of the last logged mutation to this page (0 = never logged).
    pub fn lsn(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[8..16]);
        u64::from_le_bytes(b)
    }

    /// Stamp the last-mutation LSN (called with the WAL append offset).
    pub fn set_lsn(&mut self, lsn: u64) {
        self.data[8..16].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of tombstoned directory entries (reusable by `insert`).
    fn tombstones(&self) -> u16 {
        self.read_u16(4)
    }

    fn set_tombstones(&mut self, v: u16) {
        self.write_u16(4, v);
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let at = HEADER + idx as usize * SLOT_ENTRY;
        (self.read_u16(at), self.read_u16(at + 2))
    }

    fn set_slot(&mut self, idx: u16, offset: u16, len: u16) {
        let at = HEADER + idx as usize * SLOT_ENTRY;
        self.write_u16(at, offset);
        self.write_u16(at + 2, len);
    }

    /// Bytes available for a new record (including its slot entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER + self.slot_count() as usize * SLOT_ENTRY;
        (self.free_offset() as usize).saturating_sub(dir_end)
    }

    /// Maximum record payload a fresh page can hold.
    pub fn max_record_size() -> usize {
        PAGE_SIZE - PAGE_TRAILER - HEADER - SLOT_ENTRY
    }

    /// Can a record of `len` bytes be inserted without compaction?
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_ENTRY
    }

    /// Count of live (non-deleted) records.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&i| self.slot(i).0 != TOMBSTONE)
            .count()
    }

    /// The lowest tombstoned slot, if any (candidate for directory reuse).
    /// The tombstone counter gates the directory scan, so append-mostly
    /// pages (no deletes yet) pay nothing on the insert hot path.
    fn free_slot(&self) -> Option<u16> {
        if self.tombstones() == 0 {
            return None;
        }
        (0..self.slot_count()).find(|&i| self.slot(i).0 == TOMBSTONE)
    }

    /// Dead bytes in the record area: space held by deleted or superseded
    /// record images that only [`Page::compact`] can reclaim. (Tombstoned
    /// directory *entries* are not counted — they are reusable as-is.)
    pub fn dead_space(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .filter_map(|i| {
                let (off, len) = self.slot(i);
                (off != TOMBSTONE).then_some(len as usize)
            })
            .sum();
        (PAGE_SIZE - PAGE_TRAILER - self.free_offset() as usize).saturating_sub(live)
    }

    /// Insert a record, returning its slot number. Reuses the lowest
    /// tombstoned directory slot when one exists (keeping the directory —
    /// and with it long-lived pages under churn — bounded); otherwise
    /// appends a fresh slot entry.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if record.len() > Self::max_record_size() {
            return Err(StorageError::TupleTooLarge(record.len()));
        }
        let reuse = self.free_slot();
        // A reused slot needs no new directory entry, only record space.
        let need = record.len() + if reuse.is_some() { 0 } else { SLOT_ENTRY };
        if self.free_space() < need {
            return Err(StorageError::TupleTooLarge(record.len()));
        }
        let new_free = self.free_offset() as usize - record.len();
        self.data[new_free..new_free + record.len()].copy_from_slice(record);
        self.set_free_offset(new_free as u16);
        let slot = match reuse {
            Some(slot) => {
                self.set_tombstones(self.tombstones() - 1);
                slot
            }
            None => {
                let slot = self.slot_count();
                self.set_slot_count(slot + 1);
                slot
            }
        };
        self.set_slot(slot, new_free as u16, record.len() as u16);
        Ok(slot)
    }

    /// Read a record by slot.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE {
            return None;
        }
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Delete a record (tombstones the slot). Returns whether it was live.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (off, _) = self.slot(slot);
        if off == TOMBSTONE {
            return false;
        }
        self.set_slot(slot, TOMBSTONE, 0);
        self.set_tombstones(self.tombstones() + 1);
        true
    }

    /// Update a record in place if the new payload fits in the old space or
    /// in current free space (after tombstoning the old copy). Returns
    /// `true` on success; `false` means the caller must relocate the tuple.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Result<bool> {
        if slot >= self.slot_count() {
            return Err(StorageError::InvalidRid { page: 0, slot });
        }
        let (off, len) = self.slot(slot);
        if off == TOMBSTONE {
            return Err(StorageError::InvalidRid { page: 0, slot });
        }
        if record.len() <= len as usize {
            // Shrinking or same-size: overwrite in place.
            let start = off as usize;
            self.data[start..start + record.len()].copy_from_slice(record);
            self.set_slot(slot, off, record.len() as u16);
            return Ok(true);
        }
        // Try to place the longer record in free space, reusing the slot.
        if self.free_space() >= record.len() {
            let new_free = self.free_offset() as usize - record.len();
            self.data[new_free..new_free + record.len()].copy_from_slice(record);
            self.set_free_offset(new_free as u16);
            self.set_slot(slot, new_free as u16, record.len() as u16);
            return Ok(true);
        }
        // Compact and retry once: reclaims space of deleted/moved records.
        self.compact();
        let (off, len) = self.slot(slot);
        debug_assert_ne!(off, TOMBSTONE);
        if record.len() <= len as usize || self.free_space() >= record.len() {
            return self.update(slot, record);
        }
        Ok(false)
    }

    /// Install a record at an *exact* slot, regardless of the slot's current
    /// state — the redo primitive. Recovery replays `Install` log records
    /// whose slot was chosen at run time, so unlike [`Page::insert`] this
    /// does not pick a slot: it overwrites a live slot, revives a tombstoned
    /// one, and extends the directory (padding intermediate slots as
    /// tombstones) when the slot is beyond `slot_count`. Compacts when
    /// fragmented. Because redo skips records the page already reflects
    /// (`page_lsn`), replay sees exactly the historical page states, where
    /// the record fit by construction.
    pub fn install(&mut self, slot: u16, record: &[u8]) -> Result<()> {
        if record.len() > Self::max_record_size() {
            return Err(StorageError::TupleTooLarge(record.len()));
        }
        // Extend the directory up to `slot`, padding with tombstones.
        while self.slot_count() <= slot {
            if self.free_space() < SLOT_ENTRY {
                self.compact();
                if self.free_space() < SLOT_ENTRY {
                    return Err(StorageError::Corrupt("install: directory overflow"));
                }
            }
            let next = self.slot_count();
            self.set_slot(next, TOMBSTONE, 0);
            self.set_slot_count(next + 1);
            self.set_tombstones(self.tombstones() + 1);
        }
        let (off, _) = self.slot(slot);
        if off != TOMBSTONE {
            // Live slot: in-place/grow update (compacts internally).
            if self.update(slot, record)? {
                return Ok(());
            }
            return Err(StorageError::Corrupt("install: record does not fit"));
        }
        // Tombstoned slot: revive it with fresh record space.
        if self.free_space() < record.len() {
            self.compact();
            if self.free_space() < record.len() {
                return Err(StorageError::Corrupt("install: record does not fit"));
            }
        }
        let new_free = self.free_offset() as usize - record.len();
        self.data[new_free..new_free + record.len()].copy_from_slice(record);
        self.set_free_offset(new_free as u16);
        self.set_slot(slot, new_free as u16, record.len() as u16);
        self.set_tombstones(self.tombstones() - 1);
        Ok(())
    }

    /// Reclaim dead record space by repacking live records at the page end.
    /// Slot numbers (and therefore RIDs) are preserved.
    pub fn compact(&mut self) {
        let count = self.slot_count();
        let mut live: Vec<(u16, Vec<u8>)> = Vec::with_capacity(count as usize);
        for i in 0..count {
            let (off, len) = self.slot(i);
            if off != TOMBSTONE {
                live.push((i, self.data[off as usize..(off + len) as usize].to_vec()));
            }
        }
        let mut free = PAGE_SIZE - PAGE_TRAILER;
        for (slot, rec) in live {
            free -= rec.len();
            self.data[free..free + rec.len()].copy_from_slice(&rec);
            self.set_slot(slot, free as u16, rec.len() as u16);
        }
        self.set_free_offset(free as u16);
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |i| self.get(i).map(|r| (i, r)))
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("live", &self.live_records())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        let a = p.insert(b"abc").unwrap();
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete is a no-op");
        assert!(p.get(a).is_none());
        assert_eq!(p.live_records(), 0);
    }

    #[test]
    fn fill_page_until_full() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(
            n >= 70,
            "8K page should hold at least 70 x 104B records, got {n}"
        );
        assert!(p.insert(&rec).is_err());
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let s = p.insert(b"aaaa").unwrap();
        assert!(p.update(s, b"bb").unwrap());
        assert_eq!(p.get(s).unwrap(), b"bb");
        assert!(p.update(s, b"cccccccc").unwrap());
        assert_eq!(p.get(s).unwrap(), b"cccccccc");
    }

    #[test]
    fn compact_reclaims_space() {
        let mut p = Page::new();
        let rec = [1u8; 512];
        let mut slots = vec![];
        while p.fits(rec.len()) {
            slots.push(p.insert(&rec).unwrap());
        }
        // Delete every other record, then compaction should allow reinsert.
        for s in slots.iter().step_by(2) {
            p.delete(*s);
        }
        assert!(!p.fits(2048));
        p.compact();
        assert!(p.fits(2048));
        // Surviving records intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.get(*s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn update_triggers_compaction_when_fragmented() {
        let mut p = Page::new();
        let filler = vec![0u8; 3000];
        let a = p.insert(&filler).unwrap();
        let b = p.insert(&filler).unwrap();
        let c = p.insert(b"tiny").unwrap();
        p.delete(a);
        p.delete(b);
        // Free space is fragmented behind the live "tiny" record; growing it
        // to 6000 bytes requires compaction.
        assert!(p.update(c, &vec![9u8; 6000]).unwrap());
        assert_eq!(p.get(c).unwrap().len(), 6000);
    }

    #[test]
    fn page_roundtrips_through_bytes() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        let mut q = Page::new();
        q.bytes_mut().copy_from_slice(p.as_bytes());
        assert_eq!(q.get(0).unwrap(), b"persist me");
    }

    #[test]
    fn lsn_roundtrips_and_survives_serialization() {
        let mut p = Page::new();
        assert_eq!(p.lsn(), 0);
        p.insert(b"rec").unwrap();
        p.set_lsn(0xDEAD_BEEF_0042);
        let mut q = Page::new();
        q.bytes_mut().copy_from_slice(p.as_bytes());
        assert_eq!(q.lsn(), 0xDEAD_BEEF_0042);
        assert_eq!(q.get(0).unwrap(), b"rec");
    }

    #[test]
    fn install_overwrites_revives_and_extends() {
        let mut p = Page::new();
        let a = p.insert(b"old").unwrap();
        // Overwrite a live slot (grow).
        p.install(a, b"replacement").unwrap();
        assert_eq!(p.get(a).unwrap(), b"replacement");
        // Revive a tombstoned slot.
        p.delete(a);
        p.install(a, b"revived").unwrap();
        assert_eq!(p.get(a).unwrap(), b"revived");
        // Extend the directory: slot 5 does not exist yet.
        p.install(5, b"far").unwrap();
        assert_eq!(p.get(5).unwrap(), b"far");
        assert_eq!(p.slot_count(), 6);
        // Intermediate slots padded as tombstones, reusable by insert.
        assert!(p.get(3).is_none());
        let reused = p.insert(b"fill").unwrap();
        assert!(reused < 5, "insert should reuse a padded tombstone slot");
    }

    #[test]
    fn install_compacts_fragmented_page() {
        let mut p = Page::new();
        let filler = vec![1u8; 3000];
        let a = p.insert(&filler).unwrap();
        let b = p.insert(&filler).unwrap();
        p.insert(b"keep").unwrap();
        p.delete(a);
        p.delete(b);
        // Dead space dominates; install of a large record must compact.
        p.install(a, &vec![2u8; 6000]).unwrap();
        assert_eq!(p.get(a).unwrap().len(), 6000);
        assert_eq!(p.get(2).unwrap(), b"keep");
    }

    #[test]
    fn trailer_stamp_and_verify_roundtrip() {
        let mut p = Page::new();
        p.insert(b"checksummed").unwrap();
        p.set_lsn(42);
        let mut buf = [0u8; PAGE_SIZE];
        buf.copy_from_slice(p.as_bytes());
        stamp_trailer(&mut buf);
        assert!(trailer_matches(&buf));
        // A torn write (any corrupted byte) must fail verification.
        buf[100] ^= 0xFF;
        assert!(!trailer_matches(&buf));
        buf[100] ^= 0xFF;
        assert!(trailer_matches(&buf));
        // Corrupting the trailer itself fails too.
        buf[PAGE_SIZE - 1] ^= 0x01;
        assert!(!trailer_matches(&buf));
    }

    #[test]
    fn all_zero_page_passes_trailer_check() {
        // A page extended by set_len but never written reads back zeroed;
        // that is a legitimate never-written state, not a torn page.
        let buf = [0u8; PAGE_SIZE];
        assert!(trailer_matches(&buf));
    }

    #[test]
    fn records_never_reach_the_trailer() {
        let mut p = Page::new();
        let rec = [3u8; 256];
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
        }
        p.compact();
        assert!(p.free_offset() as usize <= PAGE_SIZE - PAGE_TRAILER);
        assert_eq!(&p.as_bytes()[PAGE_SIZE - PAGE_TRAILER..], &[0u8; 12][..]);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new();
        assert!(matches!(
            p.insert(&vec![0u8; PAGE_SIZE]),
            Err(StorageError::TupleTooLarge(_))
        ));
    }
}
