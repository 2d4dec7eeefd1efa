//! Write-ahead log: LSN-stamped physiological records with group commit.
//!
//! # Log format
//!
//! The log is a single append-only file (`wal.log` under the data
//! directory). It opens with a 16-byte header:
//!
//! ```text
//! 0..4    magic  b"XWAL"
//! 4..8    format version (u32, currently 1)
//! 8..16   base LSN (u64)
//! ```
//!
//! followed by framed records:
//!
//! ```text
//! [payload len: u32][crc32(payload): u32][payload: tag byte + fields]
//! ```
//!
//! An **LSN** is a virtual byte position: the header's *base LSN* plus the
//! number of record bytes appended since. A record's LSN is its *end*
//! position, so "durable up to LSN `l`" means every byte of every record
//! ending at or before `l` has reached the file (and, with `fsync`
//! enabled, the platters). The base survives log rotation at
//! `Database::open`-time recovery: the fresh log starts where the old one
//! ended, keeping LSNs monotonic across restarts so `page_lsn` stamps on
//! flushed pages stay comparable (`Database` is in `xnf-core`).
//!
//! # Record vocabulary
//!
//! Page mutations are *physiological* — addressed by RID, absolute in
//! content ([`WalRecord::Install`] carries the full record image), so redo
//! is idempotent and undo needs no before-image beyond what the MVCC
//! version headers already encode. Transaction records ([`WalRecord::Commit`]
//! is appended *inside* the commit-stamp lock) keep log order identical to
//! commit-stamp order, so recovery always restores a prefix of the commit
//! history. DDL records and periodic [`WalRecord::Checkpoint`] snapshots
//! make the catalog recoverable; materialized-view *backing* storage is
//! deliberately unlogged — definitions are logged, contents are rebuilt by
//! `REFRESH` after restart (see `docs/DURABILITY.md`).
//!
//! # Group commit
//!
//! [`Wal::flush_for_commit`] batches fsyncs across concurrently committing
//! sessions: the first committer becomes the *leader* and syncs everything
//! buffered (including records appended after it took the role); the
//! others wait on a condvar and find their LSN already durable when the
//! leader finishes. One fsync then covers the whole batch.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use crate::catalog::TableId;
use crate::codec::{self, Reader};
use crate::disk::PageId;
use crate::error::{Result, StorageError};
use crate::schema::{Column, Schema};
use crate::tuple::Rid;
use crate::txn::TxnId;
use crate::value::DataType;

const MAGIC: &[u8; 4] = b"XWAL";
const FORMAT: u32 = 1;
const HEADER_LEN: u64 = 16;
/// Sanity bound used when scanning frames: no payload is remotely this big
/// (the largest are checkpoints; page records are bounded by PAGE_SIZE).
const MAX_PAYLOAD: u32 = 64 << 20;

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// record types
// ---------------------------------------------------------------------------

/// A snapshot of one index definition (checkpoint / CreateIndex payload).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSnap {
    pub name: String,
    pub columns: Vec<usize>,
    pub unique: bool,
}

/// A snapshot of one table: identity, schema and heap extent. Index
/// *contents* are not logged — trees are rebuilt from definitions during
/// recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnap {
    pub id: TableId,
    pub name: String,
    pub schema: Schema,
    pub pages: Vec<PageId>,
    pub indexes: Vec<IndexSnap>,
}

/// A snapshot of one view definition. `streams` is non-empty only for
/// materialized views: the `(stream name, schema)` pairs needed to recreate
/// backing tables (fresh and empty — contents come from `REFRESH`).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSnap {
    pub name: String,
    /// 0 = SQL, 1 = XNF (kept as a raw tag to avoid a catalog dependency).
    pub kind: u8,
    pub text: String,
    pub materialized: bool,
    pub streams: Vec<(String, Schema)>,
}

/// Commit-stamp machinery snapshot: enough to answer visibility for every
/// version header that can still be on disk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TxnSnap {
    pub next_txn: u64,
    pub commit_seq: u64,
    pub stamps: Vec<(TxnId, u64)>,
}

/// A fuzzy checkpoint: where redo must start, plus catalog + txn snapshots
/// as of the checkpoint. Records between `redo_lsn` and the checkpoint's
/// own position replay idempotently against the snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointSnap {
    pub redo_lsn: u64,
    pub next_table_id: TableId,
    pub txn: TxnSnap,
    pub tables: Vec<TableSnap>,
    pub views: Vec<ViewSnap>,
}

/// One log record. Page mutations carry the table id and RID; `Install`
/// carries the absolute record image (version header + tuple bytes).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Write a full record image at an exact RID (insert, relocation, or
    /// in-place rewrite). The image embeds the `VersionHdr`, so the writing
    /// transaction is recoverable from `xmin`.
    Install {
        table: TableId,
        rid: Rid,
        record: Vec<u8>,
    },
    /// Set `xmax = xid` on the version at `rid` (delete / update mark).
    Mark {
        xid: TxnId,
        table: TableId,
        rid: Rid,
    },
    /// Clear `xmax` at `rid` (rollback of a mark — our CLR analog).
    Unmark {
        table: TableId,
        rid: Rid,
    },
    /// Vacuum froze the version at `rid` (`xmin = FROZEN`).
    Freeze {
        table: TableId,
        rid: Rid,
    },
    /// Physically remove the version at `rid` (rollback or vacuum reclaim).
    Tombstone {
        table: TableId,
        rid: Rid,
    },
    /// The heap grew by page `page` (appended to the table's extent).
    HeapPage {
        table: TableId,
        page: PageId,
    },
    /// Transaction `xid` committed with this commit stamp. Appended inside
    /// the stamp lock: log order == stamp order.
    Commit {
        xid: TxnId,
        stamp: u64,
    },
    /// Transaction `xid` rolled back (its undo was already logged as
    /// Tombstone/Unmark records).
    Abort {
        xid: TxnId,
    },
    CreateTable {
        id: TableId,
        name: String,
        schema: Schema,
    },
    DropTable {
        name: String,
    },
    CreateIndex {
        table: TableId,
        index: IndexSnap,
    },
    CreateView(ViewSnap),
    DropView {
        name: String,
    },
    Checkpoint(Box<CheckpointSnap>),
}

// ---------------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------------

fn write_rid(out: &mut Vec<u8>, rid: Rid) {
    codec::write_u64(out, rid.page);
    codec::write_u16(out, rid.slot);
}

fn read_rid(r: &mut Reader<'_>) -> Result<Rid> {
    Ok(Rid::new(r.u64()?, r.u16()?))
}

fn write_schema(out: &mut Vec<u8>, schema: &Schema) {
    codec::write_u16(out, schema.len() as u16);
    for col in schema.columns() {
        codec::write_str(out, &col.name);
        out.push(match col.ty {
            DataType::Int => 0,
            DataType::Double => 1,
            DataType::Str => 2,
            DataType::Bool => 3,
            DataType::Any => 4,
        });
        out.push(col.nullable as u8);
    }
}

fn read_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let n = r.u16()?;
    let mut cols = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = r.str()?;
        let ty = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Double,
            2 => DataType::Str,
            3 => DataType::Bool,
            4 => DataType::Any,
            _ => return Err(StorageError::Corrupt("unknown data type tag")),
        };
        let nullable = r.u8()? != 0;
        cols.push(Column { name, ty, nullable });
    }
    Ok(Schema::new(cols))
}

fn write_index(out: &mut Vec<u8>, ix: &IndexSnap) {
    codec::write_str(out, &ix.name);
    codec::write_u16(out, ix.columns.len() as u16);
    for &c in &ix.columns {
        codec::write_u16(out, c as u16);
    }
    out.push(ix.unique as u8);
}

fn read_index(r: &mut Reader<'_>) -> Result<IndexSnap> {
    let name = r.str()?;
    let n = r.u16()?;
    let mut columns = Vec::with_capacity(n as usize);
    for _ in 0..n {
        columns.push(r.u16()? as usize);
    }
    let unique = r.u8()? != 0;
    Ok(IndexSnap {
        name,
        columns,
        unique,
    })
}

fn write_view(out: &mut Vec<u8>, v: &ViewSnap) {
    codec::write_str(out, &v.name);
    out.push(v.kind);
    codec::write_str(out, &v.text);
    out.push(v.materialized as u8);
    codec::write_u16(out, v.streams.len() as u16);
    for (name, schema) in &v.streams {
        codec::write_str(out, name);
        write_schema(out, schema);
    }
}

fn read_view(r: &mut Reader<'_>) -> Result<ViewSnap> {
    let name = r.str()?;
    let kind = r.u8()?;
    let text = r.str()?;
    let materialized = r.u8()? != 0;
    let n = r.u16()?;
    let mut streams = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let s = r.str()?;
        streams.push((s, read_schema(r)?));
    }
    Ok(ViewSnap {
        name,
        kind,
        text,
        materialized,
        streams,
    })
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::Install { table, rid, record } => {
                out.push(1);
                codec::write_u32(&mut out, *table);
                write_rid(&mut out, *rid);
                codec::write_bytes(&mut out, record);
            }
            WalRecord::Mark { xid, table, rid } => {
                out.push(2);
                codec::write_u64(&mut out, *xid);
                codec::write_u32(&mut out, *table);
                write_rid(&mut out, *rid);
            }
            WalRecord::Unmark { table, rid } => {
                out.push(3);
                codec::write_u32(&mut out, *table);
                write_rid(&mut out, *rid);
            }
            WalRecord::Freeze { table, rid } => {
                out.push(4);
                codec::write_u32(&mut out, *table);
                write_rid(&mut out, *rid);
            }
            WalRecord::Tombstone { table, rid } => {
                out.push(5);
                codec::write_u32(&mut out, *table);
                write_rid(&mut out, *rid);
            }
            WalRecord::HeapPage { table, page } => {
                out.push(6);
                codec::write_u32(&mut out, *table);
                codec::write_u64(&mut out, *page);
            }
            WalRecord::Commit { xid, stamp } => {
                out.push(7);
                codec::write_u64(&mut out, *xid);
                codec::write_u64(&mut out, *stamp);
            }
            WalRecord::Abort { xid } => {
                out.push(8);
                codec::write_u64(&mut out, *xid);
            }
            WalRecord::CreateTable { id, name, schema } => {
                out.push(9);
                codec::write_u32(&mut out, *id);
                codec::write_str(&mut out, name);
                write_schema(&mut out, schema);
            }
            WalRecord::DropTable { name } => {
                out.push(10);
                codec::write_str(&mut out, name);
            }
            WalRecord::CreateIndex { table, index } => {
                out.push(11);
                codec::write_u32(&mut out, *table);
                write_index(&mut out, index);
            }
            WalRecord::CreateView(v) => {
                out.push(12);
                write_view(&mut out, v);
            }
            WalRecord::DropView { name } => {
                out.push(13);
                codec::write_str(&mut out, name);
            }
            WalRecord::Checkpoint(ck) => {
                out.push(14);
                codec::write_u64(&mut out, ck.redo_lsn);
                codec::write_u32(&mut out, ck.next_table_id);
                codec::write_u64(&mut out, ck.txn.next_txn);
                codec::write_u64(&mut out, ck.txn.commit_seq);
                codec::write_u32(&mut out, ck.txn.stamps.len() as u32);
                for (xid, stamp) in &ck.txn.stamps {
                    codec::write_u64(&mut out, *xid);
                    codec::write_u64(&mut out, *stamp);
                }
                codec::write_u32(&mut out, ck.tables.len() as u32);
                for t in &ck.tables {
                    codec::write_u32(&mut out, t.id);
                    codec::write_str(&mut out, &t.name);
                    write_schema(&mut out, &t.schema);
                    codec::write_u32(&mut out, t.pages.len() as u32);
                    for &p in &t.pages {
                        codec::write_u64(&mut out, p);
                    }
                    codec::write_u16(&mut out, t.indexes.len() as u16);
                    for ix in &t.indexes {
                        write_index(&mut out, ix);
                    }
                }
                codec::write_u32(&mut out, ck.views.len() as u32);
                for v in &ck.views {
                    write_view(&mut out, v);
                }
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            1 => WalRecord::Install {
                table: r.u32()?,
                rid: read_rid(&mut r)?,
                record: r.bytes()?,
            },
            2 => WalRecord::Mark {
                xid: r.u64()?,
                table: r.u32()?,
                rid: read_rid(&mut r)?,
            },
            3 => WalRecord::Unmark {
                table: r.u32()?,
                rid: read_rid(&mut r)?,
            },
            4 => WalRecord::Freeze {
                table: r.u32()?,
                rid: read_rid(&mut r)?,
            },
            5 => WalRecord::Tombstone {
                table: r.u32()?,
                rid: read_rid(&mut r)?,
            },
            6 => WalRecord::HeapPage {
                table: r.u32()?,
                page: r.u64()?,
            },
            7 => WalRecord::Commit {
                xid: r.u64()?,
                stamp: r.u64()?,
            },
            8 => WalRecord::Abort { xid: r.u64()? },
            9 => WalRecord::CreateTable {
                id: r.u32()?,
                name: r.str()?,
                schema: read_schema(&mut r)?,
            },
            10 => WalRecord::DropTable { name: r.str()? },
            11 => WalRecord::CreateIndex {
                table: r.u32()?,
                index: read_index(&mut r)?,
            },
            12 => WalRecord::CreateView(read_view(&mut r)?),
            13 => WalRecord::DropView { name: r.str()? },
            14 => {
                let redo_lsn = r.u64()?;
                let next_table_id = r.u32()?;
                let next_txn = r.u64()?;
                let commit_seq = r.u64()?;
                let n = r.u32()?;
                let mut stamps = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    stamps.push((r.u64()?, r.u64()?));
                }
                let n = r.u32()?;
                let mut tables = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let id = r.u32()?;
                    let name = r.str()?;
                    let schema = read_schema(&mut r)?;
                    let np = r.u32()?;
                    let mut pages = Vec::with_capacity(np as usize);
                    for _ in 0..np {
                        pages.push(r.u64()?);
                    }
                    let ni = r.u16()?;
                    let mut indexes = Vec::with_capacity(ni as usize);
                    for _ in 0..ni {
                        indexes.push(read_index(&mut r)?);
                    }
                    tables.push(TableSnap {
                        id,
                        name,
                        schema,
                        pages,
                        indexes,
                    });
                }
                let n = r.u32()?;
                let mut views = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    views.push(read_view(&mut r)?);
                }
                WalRecord::Checkpoint(Box::new(CheckpointSnap {
                    redo_lsn,
                    next_table_id,
                    txn: TxnSnap {
                        next_txn,
                        commit_seq,
                        stamps,
                    },
                    tables,
                    views,
                }))
            }
            _ => return Err(StorageError::Corrupt("unknown wal record tag")),
        };
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// the log itself
// ---------------------------------------------------------------------------

/// Counters exposed by [`Wal::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended this session.
    pub records: u64,
    /// Framed bytes appended this session.
    pub bytes_logged: u64,
    /// `fsync` calls issued (0 when `wal_fsync` is off).
    pub fsyncs: u64,
    /// Buffer flushes to the OS (each covers ≥ 1 record).
    pub flushes: u64,
    /// Group-commit rounds led by some session.
    pub group_commit_batches: u64,
    /// Commits absorbed by those rounds (≥ batches; the surplus rode along
    /// on another session's flush).
    pub group_commit_commits: u64,
    /// Checkpoint records written this session.
    pub checkpoints: u64,
    /// Current end of the log (virtual bytes).
    pub last_lsn: u64,
    /// Everything at or below this LSN is durable.
    pub durable_lsn: u64,
}

struct WalFile {
    file: File,
    /// Virtual LSN of the log body start (from the header).
    base: u64,
    /// Virtual LSN up to which bytes have been written to the OS.
    written: u64,
    /// Appended but not yet written: `[written .. written + buf.len())`.
    buf: Vec<u8>,
}

#[derive(Default)]
struct GroupState {
    flushing: bool,
    waiting: u64,
}

/// The write-ahead log. Appends are buffered; [`Wal::flush_to`] makes a
/// prefix durable (WAL-before-data), [`Wal::flush_for_commit`] group-commits.
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalFile>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    fsync: bool,
    logging: AtomicBool,
    last_lsn: AtomicU64,
    durable_lsn: AtomicU64,
    since_checkpoint: AtomicU64,
    records: AtomicU64,
    bytes_logged: AtomicU64,
    fsyncs: AtomicU64,
    flushes: AtomicU64,
    group_batches: AtomicU64,
    group_commits: AtomicU64,
    checkpoints: AtomicU64,
}

impl Wal {
    /// Open (or create) the log at `path`, scan it, and return the log
    /// positioned for appending plus every valid record with its LSN.
    ///
    /// The scan stops at the first torn or corrupt frame (bad length,
    /// short read, CRC mismatch) and truncates the file there: an
    /// interrupted append never poisons the log, it just loses the tail
    /// that was never acknowledged as durable.
    pub fn open(path: &Path, fsync: bool) -> Result<(Wal, Vec<(u64, WalRecord)>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let len = file.metadata().map_err(io_err)?.len();

        let base;
        let mut records = Vec::new();
        let mut end_off = HEADER_LEN;
        if len < HEADER_LEN {
            // Fresh (or torn-before-header) log: write a clean header.
            base = HEADER_LEN;
            file.set_len(0).map_err(io_err)?;
            let mut hdr = Vec::with_capacity(HEADER_LEN as usize);
            hdr.extend_from_slice(MAGIC);
            hdr.extend_from_slice(&FORMAT.to_le_bytes());
            hdr.extend_from_slice(&base.to_le_bytes());
            file.seek(SeekFrom::Start(0)).map_err(io_err)?;
            file.write_all(&hdr).map_err(io_err)?;
            file.sync_data().map_err(io_err)?;
        } else {
            let mut bytes = Vec::with_capacity(len as usize);
            file.seek(SeekFrom::Start(0)).map_err(io_err)?;
            file.read_to_end(&mut bytes).map_err(io_err)?;
            if &bytes[0..4] != MAGIC {
                return Err(StorageError::Corrupt("wal: bad magic"));
            }
            let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            if version != FORMAT {
                return Err(StorageError::Corrupt("wal: unsupported format version"));
            }
            base = u64::from_le_bytes(bytes[8..16].try_into().unwrap());

            // Scan frames until the first invalid one.
            let mut off = HEADER_LEN as usize;
            while off + 8 <= bytes.len() {
                let plen = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
                let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
                if plen == 0 || plen > MAX_PAYLOAD {
                    break;
                }
                let data_end = off + 8 + plen as usize;
                if data_end > bytes.len() {
                    break;
                }
                let payload = &bytes[off + 8..data_end];
                if codec::crc32(payload) != crc {
                    break;
                }
                let Ok(rec) = WalRecord::decode(payload) else {
                    break;
                };
                off = data_end;
                let lsn = base + (off as u64 - HEADER_LEN);
                records.push((lsn, rec));
            }
            end_off = off as u64;
            if end_off < len {
                // Drop the torn tail.
                file.set_len(end_off).map_err(io_err)?;
                file.sync_data().map_err(io_err)?;
            }
        }

        let end_lsn = base + (end_off - HEADER_LEN);
        file.seek(SeekFrom::Start(end_off)).map_err(io_err)?;
        let wal = Wal {
            path: path.to_path_buf(),
            inner: Mutex::new(WalFile {
                file,
                base,
                written: end_lsn,
                buf: Vec::new(),
            }),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            fsync,
            logging: AtomicBool::new(true),
            last_lsn: AtomicU64::new(end_lsn),
            durable_lsn: AtomicU64::new(end_lsn),
            since_checkpoint: AtomicU64::new(0),
            records: AtomicU64::new(0),
            bytes_logged: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            group_batches: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        };
        Ok((wal, records))
    }

    /// Is runtime logging enabled? Recovery replay turns it off so redo and
    /// undo don't re-log what the log already says.
    pub fn logging(&self) -> bool {
        self.logging.load(Ordering::Acquire)
    }

    pub fn set_logging(&self, on: bool) {
        self.logging.store(on, Ordering::Release);
    }

    /// Current end of the log (the LSN the *next* record will end past).
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn.load(Ordering::Acquire)
    }

    /// Everything at or below this LSN is durable.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// Append a record to the in-memory log buffer, returning its LSN. No
    /// I/O happens here; durability comes from [`Wal::flush_to`] /
    /// [`Wal::flush_for_commit`]. When logging is disabled (recovery
    /// replay) this is a no-op returning the current end LSN.
    pub fn append(&self, rec: &WalRecord) -> u64 {
        if !self.logging() {
            return self.last_lsn();
        }
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut inner = self.inner.lock().unwrap();
        inner.buf.extend_from_slice(&frame);
        let lsn = inner.written + inner.buf.len() as u64;
        self.last_lsn.store(lsn, Ordering::Release);
        drop(inner);

        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes_logged
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.since_checkpoint
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        lsn
    }

    /// Make the log durable up to (at least) `lsn`: write the buffer to the
    /// OS and, when `fsync` is enabled, sync it. The buffer pool calls this
    /// with a page's `page_lsn` before writing the page to disk — the
    /// WAL-before-data rule.
    pub fn flush_to(&self, lsn: u64) -> Result<()> {
        if self.durable_lsn() >= lsn {
            return Ok(());
        }
        let mut inner = self.inner.lock().unwrap();
        self.flush_locked(&mut inner)
    }

    /// Flush everything buffered (plus fsync when enabled).
    pub fn flush_all(&self) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        self.flush_locked(&mut inner)
    }

    fn flush_locked(&self, inner: &mut WalFile) -> Result<()> {
        if !inner.buf.is_empty() {
            inner.file.write_all(&inner.buf).map_err(io_err)?;
            inner.written += inner.buf.len() as u64;
            inner.buf.clear();
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        if self.durable_lsn() < inner.written {
            if self.fsync {
                inner.file.sync_data().map_err(io_err)?;
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            self.durable_lsn.store(inner.written, Ordering::Release);
        }
        Ok(())
    }

    /// Group commit: make everything appended so far durable, batching the
    /// fsync with other sessions committing concurrently. The first caller
    /// in becomes the leader and flushes for everyone; later callers wait
    /// and usually find their commit record already durable. Every call
    /// that returns `Ok` counts as one group-committed commit, whoever
    /// flushed its record.
    pub fn flush_for_commit(&self) -> Result<()> {
        let target = self.last_lsn();
        let mut st = self.group.lock().unwrap();
        loop {
            if self.durable_lsn() >= target {
                self.group_commits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if !st.flushing {
                st.flushing = true;
                drop(st);
                let res = self.flush_to(self.last_lsn());
                self.group_batches.fetch_add(1, Ordering::Relaxed);
                if res.is_ok() {
                    self.group_commits.fetch_add(1, Ordering::Relaxed);
                }
                let mut st = self.group.lock().unwrap();
                st.flushing = false;
                self.group_cv.notify_all();
                return res;
            }
            st.waiting += 1;
            st = self.group_cv.wait(st).unwrap();
            st.waiting -= 1;
        }
    }

    /// Bytes appended since the last checkpoint (drives the
    /// `checkpoint_interval` trigger).
    pub fn bytes_since_checkpoint(&self) -> u64 {
        self.since_checkpoint.load(Ordering::Relaxed)
    }

    /// Append a checkpoint record and force it durable (checkpoints always
    /// fsync — they are rare and bound redo).
    pub fn append_checkpoint(&self, snap: CheckpointSnap) -> Result<u64> {
        let lsn = self.append(&WalRecord::Checkpoint(Box::new(snap)));
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        if !inner.buf.is_empty() {
            inner.file.write_all(&inner.buf).map_err(io_err)?;
            inner.written += inner.buf.len() as u64;
            inner.buf.clear();
            self.flushes.fetch_add(1, Ordering::Relaxed);
        }
        inner.file.sync_data().map_err(io_err)?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.durable_lsn.store(inner.written, Ordering::Release);
        drop(guard);
        self.since_checkpoint.store(0, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Rotate the log: atomically replace it with a fresh one whose only
    /// record is `snap` (write `wal.log.tmp`, fsync, rename). Called at
    /// `Database::open` after recovery, once all pages are flushed and
    /// synced — a crash before the rename leaves the old log valid; after,
    /// the new one. The new base LSN continues where the old log ended, so
    /// `page_lsn` stamps from past sessions stay comparable.
    pub fn rotate(&self, snap: CheckpointSnap) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        // Anything still buffered is superseded by the checkpoint snapshot.
        let new_base = inner.written + inner.buf.len() as u64;
        inner.buf.clear();

        let payload = WalRecord::Checkpoint(Box::new(snap)).encode();
        let mut contents = Vec::with_capacity(HEADER_LEN as usize + payload.len() + 8);
        contents.extend_from_slice(MAGIC);
        contents.extend_from_slice(&FORMAT.to_le_bytes());
        contents.extend_from_slice(&new_base.to_le_bytes());
        contents.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        contents.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        contents.extend_from_slice(&payload);

        let tmp = self.path.with_extension("log.tmp");
        let mut f = File::create(&tmp).map_err(io_err)?;
        f.write_all(&contents).map_err(io_err)?;
        f.sync_data().map_err(io_err)?;
        std::fs::rename(&tmp, &self.path).map_err(io_err)?;
        // Best effort: make the rename itself durable.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(io_err)?;
        let end = file.metadata().map_err(io_err)?.len();
        file.seek(SeekFrom::Start(end)).map_err(io_err)?;
        let end_lsn = new_base + (end - HEADER_LEN);
        inner.file = file;
        inner.base = new_base;
        inner.written = end_lsn;
        self.last_lsn.store(end_lsn, Ordering::Release);
        self.durable_lsn.store(end_lsn, Ordering::Release);
        drop(inner);
        self.since_checkpoint.store(0, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records.load(Ordering::Relaxed),
            bytes_logged: self.bytes_logged.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            group_commit_batches: self.group_batches.load(Ordering::Relaxed),
            group_commit_commits: self.group_commits.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            last_lsn: self.last_lsn(),
            durable_lsn: self.durable_lsn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                id: 7,
                name: "T".into(),
                schema: Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]),
            },
            WalRecord::Install {
                table: 7,
                rid: Rid::new(3, 2),
                record: vec![1, 2, 3, 4],
            },
            WalRecord::Mark {
                xid: 42,
                table: 7,
                rid: Rid::new(3, 2),
            },
            WalRecord::Commit { xid: 42, stamp: 9 },
            WalRecord::Abort { xid: 43 },
            WalRecord::Checkpoint(Box::new(CheckpointSnap {
                redo_lsn: 16,
                next_table_id: 8,
                txn: TxnSnap {
                    next_txn: 44,
                    commit_seq: 9,
                    stamps: vec![(42, 9)],
                },
                tables: vec![TableSnap {
                    id: 7,
                    name: "T".into(),
                    schema: Schema::from_pairs(&[("a", DataType::Int)]),
                    pages: vec![0, 4],
                    indexes: vec![IndexSnap {
                        name: "t_a".into(),
                        columns: vec![0],
                        unique: true,
                    }],
                }],
                views: vec![ViewSnap {
                    name: "V".into(),
                    kind: 0,
                    text: "SELECT a FROM T".into(),
                    materialized: true,
                    streams: vec![("V".into(), Schema::from_pairs(&[("a", DataType::Int)]))],
                }],
            })),
        ]
    }

    #[test]
    fn records_roundtrip_through_encoding() {
        for rec in sample_records() {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
    }

    #[test]
    fn append_flush_reopen_replays_records() {
        let dir = TempDir::new("wal");
        let path = dir.path().join("wal.log");
        let recs = sample_records();
        {
            let (wal, existing) = Wal::open(&path, true).unwrap();
            assert!(existing.is_empty());
            for r in &recs {
                wal.append(r);
            }
            wal.flush_all().unwrap();
        }
        let (wal, back) = Wal::open(&path, true).unwrap();
        assert_eq!(back.len(), recs.len());
        for ((lsn, got), want) in back.iter().zip(&recs) {
            assert_eq!(got, want);
            assert!(*lsn > HEADER_LEN);
        }
        assert_eq!(wal.last_lsn(), back.last().unwrap().0);
    }

    #[test]
    fn torn_tail_truncated_at_every_offset() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let recs = sample_records();
        {
            let (wal, _) = Wal::open(&path, false).unwrap();
            for r in &recs {
                wal.append(r);
            }
            wal.flush_all().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // How many records survive when the file is cut at each length?
        let mut survivors_at = Vec::new();
        for cut in (HEADER_LEN as usize)..=full.len() {
            let tpath = dir.path().join(format!("torn-{cut}.log"));
            std::fs::write(&tpath, &full[..cut]).unwrap();
            let (_, back) = Wal::open(&tpath, false).unwrap();
            assert!(back.len() <= recs.len());
            for (got, want) in back.iter().zip(&recs) {
                assert_eq!(&got.1, want, "prefix must decode to original records");
            }
            survivors_at.push(back.len());
            std::fs::remove_file(&tpath).unwrap();
        }
        // Monotone: longer prefixes never lose records; the full file keeps
        // all of them.
        assert!(survivors_at.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*survivors_at.last().unwrap(), recs.len());
        assert_eq!(survivors_at[0], 0);
    }

    #[test]
    fn corrupt_middle_record_drops_the_rest() {
        let dir = TempDir::new("wal-crc");
        let path = dir.path().join("wal.log");
        {
            let (wal, _) = Wal::open(&path, false).unwrap();
            for r in sample_records() {
                wal.append(&r);
            }
            wal.flush_all().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload.
        let first_len = u32::from_le_bytes(
            bytes[HEADER_LEN as usize..HEADER_LEN as usize + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let second = HEADER_LEN as usize + 8 + first_len + 10;
        bytes[second] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, back) = Wal::open(&path, false).unwrap();
        assert_eq!(back.len(), 1, "scan stops at the corrupt frame");
    }

    #[test]
    fn rotation_resets_contents_and_keeps_lsns_monotonic() {
        let dir = TempDir::new("wal-rot");
        let path = dir.path().join("wal.log");
        let (wal, _) = Wal::open(&path, false).unwrap();
        for r in sample_records() {
            wal.append(&r);
        }
        wal.flush_all().unwrap();
        let before = wal.last_lsn();

        wal.rotate(CheckpointSnap::default()).unwrap();
        assert!(wal.last_lsn() >= before, "LSNs must stay monotonic");
        let after_rotate = wal.last_lsn();

        // Appends continue on the new file.
        wal.append(&WalRecord::Abort { xid: 1 });
        wal.flush_all().unwrap();
        assert!(wal.last_lsn() > after_rotate);

        let (_, back) = Wal::open(&path, false).unwrap();
        assert_eq!(back.len(), 2);
        assert!(matches!(back[0].1, WalRecord::Checkpoint(_)));
        assert!(matches!(back[1].1, WalRecord::Abort { xid: 1 }));
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        use std::sync::Arc;
        let dir = TempDir::new("wal-group");
        let path = dir.path().join("wal.log");
        let (wal, _) = Wal::open(&path, true).unwrap();
        let wal = Arc::new(wal);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for n in 0..20 {
                        wal.append(&WalRecord::Commit {
                            xid: i * 1000 + n,
                            stamp: n,
                        });
                        wal.flush_for_commit().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.records, 160);
        assert_eq!(s.group_commit_commits, 160);
        assert!(s.group_commit_commits >= s.group_commit_batches);
        assert_eq!(s.durable_lsn, s.last_lsn);
        // All records intact on disk.
        let (_, back) = Wal::open(&path, true).unwrap();
        assert_eq!(back.len(), 160);
    }

    /// A commit whose record an earlier flush already made durable still
    /// counts: two commit records, two calls, one batch.
    #[test]
    fn group_commit_counts_commits_found_durable() {
        let dir = TempDir::new("wal-group-count");
        let (wal, _) = Wal::open(&dir.path().join("wal.log"), false).unwrap();
        wal.append(&WalRecord::Commit { xid: 1, stamp: 1 });
        wal.append(&WalRecord::Commit { xid: 2, stamp: 2 });
        wal.flush_for_commit().unwrap();
        wal.flush_for_commit().unwrap();
        let s = wal.stats();
        assert_eq!(s.group_commit_commits, 2);
        assert_eq!(s.group_commit_batches, 1);
    }

    #[test]
    fn disabled_logging_appends_nothing() {
        let dir = TempDir::new("wal-off");
        let (wal, _) = Wal::open(&dir.path().join("wal.log"), false).unwrap();
        wal.set_logging(false);
        let before = wal.last_lsn();
        assert_eq!(wal.append(&WalRecord::Abort { xid: 5 }), before);
        wal.set_logging(true);
        assert!(wal.append(&WalRecord::Abort { xid: 5 }) > before);
    }
}
