//! The log segment of one open database: the one owner of its WAL, the
//! snapshot generation the WAL extends, and the poisoned flag.
//! [`LoggedDatabase`](crate::LoggedDatabase), the
//! [`WalCommitHook`](crate::WalCommitHook) and the
//! [`Replica`](crate::Replica) each hold one and write their log only
//! through [`LogSegment::append`] and [`LogSegment::checkpoint`]. A
//! poisoned segment refuses everything ([`LogSegment::check`]) until the
//! database is reopened, which re-derives a consistent state from disk.

use isis_core::Database;

use crate::error::StoreError;
use crate::store::{peek_generation, snapshot_bytes_with_gen, StoreDir};
use crate::wal::{LogOp, WalFile};

/// One database's open WAL segment.
#[derive(Debug)]
pub(crate) struct LogSegment {
    dir: StoreDir,
    name: String,
    wal: WalFile,
    /// The snapshot generation the segment extends.
    generation: u64,
    /// Set when a partial failure left disk and memory possibly diverged;
    /// every later operation is refused.
    poisoned: bool,
}

impl LogSegment {
    pub(crate) fn new(dir: &StoreDir, name: &str, wal: WalFile, generation: u64) -> LogSegment {
        LogSegment {
            dir: dir.clone(),
            name: name.to_string(),
            wal,
            generation,
            poisoned: false,
        }
    }

    pub(crate) fn dir(&self) -> &StoreDir {
        &self.dir
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Records appended since the segment (re)started.
    pub(crate) fn records(&self) -> usize {
        self.wal.appended_records()
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Refuses with [`StoreError::Poisoned`] once the segment is poisoned.
    pub(crate) fn check(&self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(self.poisoned_error("an earlier partial failure; reopen the store"));
        }
        Ok(())
    }

    /// Poisons the segment and returns the error that says why.
    pub(crate) fn poison(&mut self, detail: impl Into<String>) -> StoreError {
        self.poisoned = true;
        self.poisoned_error(detail)
    }

    fn poisoned_error(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Poisoned {
            name: self.name.clone(),
            detail: detail.into(),
        }
    }

    /// Appends one record. A failed append may have left part or all of
    /// the record on disk; it is rewound so recovery can never replay it.
    pub(crate) fn append(&mut self, op: &LogOp) -> Result<(), StoreError> {
        let mark = self.wal.len()?;
        if let Err(e) = self.wal.append(op) {
            if let Err(r) = self.wal.rewind_to(mark) {
                return Err(self.poison(format!("append failed ({e}) and rollback failed ({r})")));
            }
            return Err(e);
        }
        Ok(())
    }

    /// Makes `db` durable as the next snapshot generation: sync the old
    /// segment (so it stays fully recoverable), install the snapshot
    /// atomically, then restart the log under the new generation.
    pub(crate) fn checkpoint(&mut self, db: &Database) -> Result<(), StoreError> {
        let obs = isis_obs::global();
        let _span = obs.span("store.checkpoint.run");
        self.wal.sync()?;
        let generation = self.generation + 1;
        let bytes = snapshot_bytes_with_gen(db, generation);
        obs.count("store.checkpoint.runs", 1);
        obs.count("store.checkpoint.snapshot_bytes", bytes.len() as u64);
        if let Err(e) = self.dir.install(&self.name, &bytes, true) {
            // The install may have failed after its point of no return
            // (the rename into the newest slot, e.g. at the trailing
            // directory fsync). Then recovery loads the new generation and
            // skips this segment as stale, so a later append would be
            // acknowledged and lost. Continue only if the old newest
            // snapshot is demonstrably still in place.
            let newest = self
                .dir
                .vfs()
                .read(&self.dir.snapshot_path(&self.name))
                .ok()
                .and_then(|b| peek_generation(&b));
            if newest.is_some_and(|g| g < generation) {
                return Err(e);
            }
            return Err(self.poison(format!(
                "checkpoint install failed and the newest snapshot slot is not provably the \
                 previous generation: {e}"
            )));
        }
        self.restart(generation)
    }

    /// Restarts the log as an empty segment extending snapshot
    /// `generation`, which is already installed. A failed reset leaves the
    /// snapshot ahead of the log, so it poisons the segment.
    pub(crate) fn restart(&mut self, generation: u64) -> Result<(), StoreError> {
        if let Err(e) = self.wal.reset(generation) {
            return Err(self.poison(format!(
                "log reset onto installed generation {generation} failed: {e}"
            )));
        }
        self.generation = generation;
        Ok(())
    }
}
