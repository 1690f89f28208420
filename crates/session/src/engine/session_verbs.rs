//! The session verbs: storage (load, save, doctor, fsck), history (undo,
//! redo), the shared database (commit, pull, refresh and its policy) and
//! stop, with the MVCC API they run on: [`Session::commit_changes`],
//! [`Session::transact_with_retry`], [`Session::pull`] and
//! [`Session::discard_changes`].

use isis_core::{CommitReceipt, Database, RetryBackoff, SchemaNode, SharedDatabase};

use super::{Session, Snapshot};
use crate::command::Command;
use crate::error::SessionError;
use crate::state::{Mode, RefreshPolicy, Selection};

impl Session {
    /// Publishes everything buffered since the pin (or the last commit) to
    /// the shared head: first committer wins, conflicting concurrent
    /// commits surface as [`SessionError::Conflict`]. On success the
    /// session is clean and pinned at the new head; the undo history is
    /// cleared (a commit is a transaction boundary).
    pub fn commit_changes(&mut self) -> Result<CommitReceipt, SessionError> {
        let receipt = self.shared.commit(self.base_epoch, &self.db)?;
        if receipt.rebased || receipt.epoch != self.db.delta_epoch() {
            // The head ran ahead (our write set was replayed onto it, or
            // concurrent commits landed): re-pin.
            self.db = self.shared.pin();
            self.invalidate_refresh();
            self.revalidate_interactive_state();
        }
        self.base_epoch = receipt.epoch;
        self.dirty = false;
        self.undo.clear();
        self.redo.clear();
        self.refresh_at(RefreshPolicy::OnCommit)?;
        Ok(receipt)
    }

    /// Runs `f` as a transaction and commits it, retrying the whole
    /// cycle (re-pin at the new head, re-run `f`, re-commit) with the
    /// given backoff when the commit loses the first-committer-wins race.
    /// `f` must therefore be safe to re-run: it sees a *fresh* snapshot
    /// on every attempt, so name lookups belong inside the closure, not
    /// captured from before it.
    ///
    /// Only retryable conflicts are retried (see
    /// [`CommitConflict::is_retryable`](isis_core::CommitConflict::is_retryable)):
    /// a durability veto means the store refused the write and repeating
    /// it cannot help. Nor is a write set that outgrew the session's own
    /// delta window: no re-pin makes it fit, so its
    /// [`SnapshotTooOld`](isis_core::CommitConflict::SnapshotTooOld) is
    /// returned after the first attempt. A base that other sessions'
    /// commits evicted from the head's window is retried as usual. Errors
    /// from `f` itself propagate immediately with the buffered changes
    /// discarded; every error leaves the session clean. Refuses to start
    /// while the session is dirty — buffered changes would be swept into
    /// the first commit.
    ///
    /// ```
    /// use isis_core::{RetryBackoff, SharedDatabase};
    /// use isis_session::Session;
    ///
    /// let mut db = isis_core::Database::new("demo");
    /// let people = db.create_baseclass("people").unwrap();
    /// let shared = SharedDatabase::new(db);
    /// let mut session = Session::open(&shared).build();
    /// let receipt = session.transact_with_retry(&RetryBackoff::default(), |db| {
    ///     db.insert_entity(people, "Ada")?;
    ///     Ok(())
    /// })?;
    /// assert!(!receipt.rebased);
    /// # Ok::<(), isis_session::SessionError>(())
    /// ```
    pub fn transact_with_retry(
        &mut self,
        backoff: &RetryBackoff,
        mut f: impl FnMut(&mut Database) -> isis_core::Result<()>,
    ) -> Result<CommitReceipt, SessionError> {
        if self.dirty {
            return Err(SessionError::DirtySnapshot);
        }
        let obs = isis_obs::global();
        let mut attempt: u32 = 0;
        loop {
            match self.transact(&mut f).and_then(|()| self.commit_changes()) {
                Ok(receipt) => {
                    obs.observe("session.commit.retry_attempts", u64::from(attempt));
                    return Ok(receipt);
                }
                Err(SessionError::Conflict(c))
                    if c.is_retryable()
                        && attempt < backoff.max_retries
                        // A write set the session's own window cannot hold
                        // outgrows it again on every replay.
                        && self.db.changes_since(self.base_epoch).is_some() =>
                {
                    self.discard_changes()?;
                    let delay = backoff.delay(attempt);
                    obs.count("session.commit.retries", 1);
                    obs.observe("session.commit.backoff_ns", delay.as_nanos() as u64);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => {
                    self.discard_changes()?;
                    return Err(e);
                }
            }
        }
    }

    /// Re-pins the snapshot at the current shared head, making concurrent
    /// commits visible. Refuses while dirty ([`SessionError::DirtySnapshot`])
    /// — commit or [`Session::discard_changes`] first.
    pub fn pull(&mut self) -> Result<(), SessionError> {
        if self.dirty {
            return Err(SessionError::DirtySnapshot);
        }
        if self.shared.epoch() == self.base_epoch {
            return Ok(());
        }
        self.repin()
    }

    /// Drops all buffered changes and re-pins at the current head.
    pub fn discard_changes(&mut self) -> Result<(), SessionError> {
        self.worksheet = None;
        self.repin()
    }

    fn repin(&mut self) -> Result<(), SessionError> {
        self.db = self.shared.pin();
        self.base_epoch = self.db.delta_epoch();
        self.dirty = false;
        self.undo.clear();
        self.redo.clear();
        self.invalidate_refresh();
        self.revalidate_interactive_state();
        self.refresh_at(RefreshPolicy::OnCommit)
    }

    /// After a re-pin the interactive anchors may dangle (a concurrent
    /// commit deleted the selected class or entity); drop the ones that no
    /// longer resolve rather than letting views error.
    fn revalidate_interactive_state(&mut self) {
        let db = &self.db;
        let live = |node: SchemaNode| db.node_name(node).is_ok();
        let ok = match self.selection {
            Some(Selection::Attr(a)) => db.attr(a).is_ok(),
            sel => sel.and_then(Selection::as_node).is_none_or(live),
        };
        if !ok {
            self.selection = None;
        }
        self.pages.retain(|p| live(p.node));
    }

    /// The session verbs.
    pub(super) fn apply_session_verb(&mut self, cmd: Command) -> Result<(), SessionError> {
        match cmd {
            Command::Load(name) => {
                let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
                let (db, report) = store.recover(&name)?;
                // Loading replaces the database line wholesale: the session
                // detaches onto a fresh private shared handle (other
                // sessions on the old handle keep the old line).
                self.shared = SharedDatabase::new(db.clone());
                self.base_epoch = db.delta_epoch();
                self.dirty = false;
                self.db = db;
                self.mode = Mode::Forest;
                self.selection = None;
                self.pages.clear();
                self.worksheet = None;
                self.undo.clear();
                self.redo.clear();
                self.invalidate_refresh();
                self.say(format!("loaded database {name}"));
                if !report.is_pristine() {
                    self.say_lines(&report.to_string());
                }
                self.last_recovery = Some(report);
            }
            Command::Save(name) => {
                let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
                store.save(&self.db, &name)?;
                self.say(format!("saved database as {name}"));
            }
            Command::Doctor(name) => {
                let report = match (name, &self.last_recovery) {
                    // Diagnose a stored database: a recovery dry run.
                    (Some(name), _) => {
                        let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
                        store.recover(&name)?.1.to_string()
                    }
                    (None, Some(report)) => report.to_string(),
                    (None, None) => "no database loaded from the store yet; try doctor NAME".into(),
                };
                self.say_lines(&report);
            }
            Command::Fsck(name) => {
                let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
                let name = name.unwrap_or_else(|| self.db.name.clone());
                let report = store.fsck(&name)?;
                self.say_lines(&report.to_string());
                let verdict = if report.clean() { "clean" } else { "NOT CLEAN" };
                self.say(format!("fsck {name}: {verdict}"));
            }
            Command::Undo => self.swap_history(true)?,
            Command::Redo => self.swap_history(false)?,
            Command::Refresh => {
                // A clean session also pulls: "refresh" at the interface
                // means "show me the current state of the world", which on
                // a shared database includes concurrent commits.
                if !self.dirty && self.shared.epoch() != self.base_epoch {
                    self.apply_session_verb(Command::Pull)?;
                }
                let before = self.messages.len();
                self.refresh_derived()?;
                if self.messages.len() == before {
                    self.say("derived state is up to date");
                }
            }
            Command::Commit => {
                let receipt = self.commit_changes()?;
                self.say(if receipt.changes == 0 {
                    "nothing to commit".to_string()
                } else {
                    format!(
                        "committed {} change(s) as commit {}{}",
                        receipt.changes,
                        receipt.commits,
                        if receipt.rebased {
                            " (rebased onto concurrent commits)"
                        } else {
                            ""
                        }
                    )
                });
            }
            Command::Pull => {
                let before = self.base_epoch;
                self.pull()?;
                self.say(if self.base_epoch == before {
                    "already at the shared head".to_string()
                } else {
                    format!("pulled shared head (epoch {})", self.base_epoch)
                });
            }
            Command::SetRefreshPolicy(policy) => {
                self.set_refresh_policy(policy);
                self.say(format!(
                    "refresh policy: {}",
                    match policy {
                        RefreshPolicy::Manual => "manual",
                        RefreshPolicy::OnCommit => "on commit",
                        RefreshPolicy::Immediate => "immediate",
                    }
                ));
            }
            Command::Stop => {
                self.stopped = true;
                self.say("stopped");
            }
            other => unreachable!("{other:?} is not a session verb"),
        }
        Ok(())
    }

    /// *undo* (`back`) or *redo*: swaps the database and the selections it
    /// anchors with the newest snapshot on one history stack, and pushes
    /// the state it leaves onto the other.
    fn swap_history(&mut self, back: bool) -> Result<(), SessionError> {
        let (from, to) = if back {
            (&mut self.undo, &mut self.redo)
        } else {
            (&mut self.redo, &mut self.undo)
        };
        let snap = from.pop().ok_or(SessionError::NothingToUndo)?;
        to.push(Snapshot {
            db: std::mem::replace(&mut self.db, snap.db),
            selection: std::mem::replace(&mut self.selection, snap.selection),
            pages: std::mem::replace(&mut self.pages, snap.pages),
        });
        self.dirty = true;
        self.invalidate_refresh();
        self.say(if back { "undone" } else { "redone" });
        Ok(())
    }
}
