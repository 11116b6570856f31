//! Write-ahead logging and durable objects.
//!
//! Durability in the simulation is modelled by *objects that survive node
//! crashes*: a [`DurableLog`] or [`DurableCell`] handle is stored once in
//! the process's [`tca_sim::Disk`]; appends become durable when the handler
//! that performed them returns (the kernel guarantees crashes only occur
//! between handlers), which models fsync-per-commit. Fsync *latency* is
//! charged separately by the database server when it delays its replies.
//!
//! Both objects are mutated in place through their handles: a log is
//! read with the non-cloning [`DurableLog::for_each_from`] visitor, and a
//! cell's value is edited with [`DurableCell::update`]. That is what lets
//! a checkpoint image be maintained incrementally — the engine folds the
//! log tail since the previous checkpoint into the stored image, so a
//! checkpoint costs what changed rather than what is stored.

use std::cell::RefCell;
use std::rc::Rc;

use crate::types::{Key, Timestamp, TxId, Value};

/// One redo record: everything needed to replay a committed transaction.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// The committing transaction.
    pub tx: TxId,
    /// Its commit timestamp.
    pub commit_ts: Timestamp,
    /// The write set: key → new value (`None` = delete).
    pub writes: Vec<(Key, Option<Value>)>,
}

/// An append-only durable log of `T` records.
///
/// Cloning the handle shares the underlying log (like two file descriptors
/// on one file). `truncate_to` discards a prefix after a checkpoint.
#[derive(Debug)]
pub struct DurableLog<T> {
    inner: Rc<RefCell<LogInner<T>>>,
}

#[derive(Debug)]
struct LogInner<T> {
    /// Logical sequence number of the first retained record.
    base_lsn: u64,
    records: Vec<T>,
}

impl<T> Clone for DurableLog<T> {
    fn clone(&self) -> Self {
        DurableLog {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for DurableLog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DurableLog<T> {
    /// A fresh empty log.
    pub fn new() -> Self {
        DurableLog {
            inner: Rc::new(RefCell::new(LogInner {
                base_lsn: 0,
                records: Vec::new(),
            })),
        }
    }
}

impl<T> DurableLog<T> {
    /// Append a record; returns its logical sequence number.
    pub fn append(&self, record: T) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let lsn = inner.base_lsn + inner.records.len() as u64;
        inner.records.push(record);
        lsn
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.base_lsn + inner.records.len() as u64
    }

    /// Visit every retained record with LSN ≥ `from`, in LSN order,
    /// without cloning (checkpoint folds and recovery replay).
    ///
    /// The log is borrowed for the duration of the visit: `visit` must not
    /// append to or truncate this log.
    pub fn for_each_from(&self, from: u64, mut visit: impl FnMut(&T)) {
        let inner = self.inner.borrow();
        let skip = from.saturating_sub(inner.base_lsn) as usize;
        for record in inner.records.iter().skip(skip) {
            visit(record);
        }
    }

    /// Discard records below `lsn` (safe once a checkpoint covers them).
    pub fn truncate_to(&self, lsn: u64) {
        let mut inner = self.inner.borrow_mut();
        let drop_n = lsn.saturating_sub(inner.base_lsn) as usize;
        let drop_n = drop_n.min(inner.records.len());
        inner.records.drain(..drop_n);
        inner.base_lsn += drop_n as u64;
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A single durable slot of `T` (checkpoint images, manifests).
#[derive(Debug)]
pub struct DurableCell<T> {
    inner: Rc<RefCell<Option<T>>>,
}

impl<T> Clone for DurableCell<T> {
    fn clone(&self) -> Self {
        DurableCell {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Default for DurableCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DurableCell<T> {
    /// An empty cell.
    pub fn new() -> Self {
        DurableCell {
            inner: Rc::new(RefCell::new(None)),
        }
    }

    /// Edit the stored slot in place (`None` = nothing stored yet) and
    /// return what `edit` returns. The edit is durable when the handler
    /// performing it returns, like any other durable write.
    ///
    /// The cell is borrowed for the duration of the edit: `edit` must not
    /// touch this cell through another handle.
    pub fn update<R>(&self, edit: impl FnOnce(&mut Option<T>) -> R) -> R {
        edit(&mut self.inner.borrow_mut())
    }
}

impl<T: Clone> DurableCell<T> {
    /// Clone out the stored value, if any.
    pub fn load(&self) -> Option<T> {
        self.inner.borrow().clone()
    }

    /// True when a value is present.
    pub fn is_set(&self) -> bool {
        self.inner.borrow().is_some()
    }
}

/// A checkpoint image: materialized state plus the log position it covers.
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    /// The materialized state at the checkpoint.
    pub state: S,
    /// All log records below this LSN are reflected in `state`.
    pub covered_lsn: u64,
    /// Engine logical clock at checkpoint time.
    pub ts: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_from<T: Clone>(log: &DurableLog<T>, from: u64) -> Vec<T> {
        let mut out = Vec::new();
        log.for_each_from(from, |r| out.push(r.clone()));
        out
    }

    #[test]
    fn append_assigns_sequential_lsns() {
        let log = DurableLog::new();
        assert_eq!(log.append(1u32), 0);
        assert_eq!(log.append(2), 1);
        assert_eq!(log.append(3), 2);
        assert_eq!(log.next_lsn(), 3);
        assert_eq!(read_from(&log, 1), vec![2, 3]);
        assert_eq!(read_from(&log, 5), Vec::<u32>::new());
    }

    #[test]
    fn truncate_preserves_lsn_space() {
        let log = DurableLog::new();
        for i in 0..10u32 {
            log.append(i);
        }
        log.truncate_to(4);
        assert_eq!(log.len(), 6);
        assert_eq!(read_from(&log, 4), (4..10).collect::<Vec<u32>>());
        // LSNs keep counting from where they were.
        assert_eq!(log.append(10), 10);
        assert_eq!(read_from(&log, 9), vec![9, 10]);
        // Truncating below the base is a no-op.
        log.truncate_to(2);
        assert_eq!(read_from(&log, 4)[0], 4);
    }

    #[test]
    fn truncate_beyond_end_clears() {
        let log = DurableLog::new();
        log.append(1u8);
        log.truncate_to(100);
        assert!(log.is_empty());
        assert_eq!(log.append(2), 1, "base advanced only past real records");
    }

    #[test]
    fn handles_share_state() {
        let a: DurableLog<u8> = DurableLog::new();
        let b = a.clone();
        a.append(7);
        assert_eq!(read_from(&b, 0), vec![7]);
    }

    #[test]
    fn durable_cell_roundtrip() {
        let c: DurableCell<Vec<u8>> = DurableCell::new();
        assert!(!c.is_set());
        assert_eq!(c.load(), None);
        let was_set = c.update(|slot| {
            let was_set = slot.is_some();
            slot.get_or_insert_with(Vec::new).push(1);
            was_set
        });
        assert!(!was_set);
        assert_eq!(c.load(), Some(vec![1]));
        let d = c.clone();
        d.update(|slot| slot.as_mut().expect("stored").push(2));
        assert_eq!(
            c.load(),
            Some(vec![1, 2]),
            "edits are shared by every handle"
        );
    }
}
