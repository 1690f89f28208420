//! The session engine: applies [`Command`]s to the database and interactive
//! state, and builds the current view's [`Scene`].

use isis_core::{
    Atom, AttrId, ClassId, CommitReceipt, CoreError, Database, Map, OrderedSet, Predicate, Rhs,
    SchemaNode, SharedDatabase, ValueClass,
};
use isis_query::{DerivedState, ExtentChange, IndexService};
use isis_store::{RecoveryReport, StoreDir};
use isis_views::{
    data_view, forest_view, network_view, worksheet_view, DataViewInput, ForestViewOptions,
    PageSpec, Scene, WorksheetInput,
};

use crate::command::Command;
use crate::error::SessionError;
use crate::state::{AtomDraft, Mode, RefreshPolicy, Selection, WorksheetState, WsTarget};

/// How many prompt lines the text window shows.
const PROMPT_LINES: usize = 3;
/// Bound on the undo stack.
const UNDO_DEPTH: usize = 64;

/// A snapshot for undo/redo: the database plus the selections it anchors.
#[derive(Debug, Clone)]
struct Snapshot {
    db: Database,
    selection: Option<Selection>,
    pages: Vec<PageSpec>,
}

/// An interactive ISIS session over one database.
///
/// ```
/// use isis_session::{Command, Session};
///
/// let mut db = isis_core::Database::new("demo");
/// let people = db.create_baseclass("people").unwrap();
/// let ada = db.insert_entity(people, "Ada").unwrap();
///
/// let mut session = Session::builder(db).build();
/// session.apply(Command::PickByName("people".into()))?;
/// session.apply(Command::ViewContents)?;       // → the data level
/// session.apply(Command::SelectEntity(ada))?;  // select/reject
/// let scene = session.scene()?;                // render the current view
/// assert!(scene.has_text_with("Ada", isis_views::Emphasis::Bold));
/// # Ok::<(), isis_session::SessionError>(())
/// ```
///
/// Multiple sessions share one database through a
/// [`SharedDatabase`] handle (snapshot isolation; see DESIGN.md §6):
///
/// ```
/// use isis_core::SharedDatabase;
/// use isis_session::Session;
///
/// let mut db = isis_core::Database::new("demo");
/// let people = db.create_baseclass("people").unwrap();
/// let shared = SharedDatabase::new(db);
///
/// let mut writer = Session::open(&shared).build();
/// let reader = Session::open(&shared).build();
///
/// writer.transact(|db| db.insert_entity(people, "Ada"))?;
/// writer.commit_changes()?;
///
/// // The reader is pinned: it re-pins explicitly to observe the commit.
/// assert!(reader.database().entity_by_name(people, "Ada").is_err());
/// # Ok::<(), isis_session::SessionError>(())
/// ```
#[derive(Debug)]
pub struct Session {
    /// The shared handle this session is a participant of. A session built
    /// from a plain [`Database`] gets a private handle of its own, so the
    /// single-owner API is the one-session special case of the shared one.
    shared: SharedDatabase,
    /// The epoch `db` was pinned at (or the epoch of the last successful
    /// commit). The write set of [`Session::commit_changes`] is everything
    /// `db` recorded after this epoch.
    base_epoch: u64,
    /// `true` once the session has buffered uncommitted user mutations.
    /// Derived-state maintenance does not count: it is recomputed per
    /// snapshot and never published by a commit.
    dirty: bool,
    /// The pinned local snapshot all reads and buffered writes go through.
    db: Database,
    mode: Mode,
    selection: Option<Selection>,
    /// The data level's page stack (persists across level switches, per
    /// Diagram 1: D is only changed at the data level).
    pages: Vec<PageSpec>,
    worksheet: Option<WorksheetState>,
    undo: Vec<Snapshot>,
    redo: Vec<Snapshot>,
    messages: Vec<String>,
    store: Option<StoreDir>,
    stopped: bool,
    /// Manual box placements in the forest view (view state, not data).
    offsets: Vec<(SchemaNode, (i32, i32))>,
    /// Forest-view panning offset.
    pan: (i32, i32),
    /// When derived subclasses and derived attributes are re-evaluated (an
    /// extension: the paper leaves them stale until the next commit, §2).
    policy: RefreshPolicy,
    /// The derived-class maintainers, the shared attribute-index service
    /// they and ad-hoc queries ([`Session::query`]) read, and the delta
    /// cursor both are synchronised to. `None` before the first refresh
    /// and after anything that invalidates it (database swap, failed
    /// refresh) — the next refresh rebuilds it in full.
    derived: Option<DerivedState>,
    /// What recovery found the last time a database was loaded from the
    /// store this session (the *doctor* command reprints it).
    last_recovery: Option<RecoveryReport>,
    /// Worker threads for compiled predicate evaluation (1 = serial). The
    /// pool that uses them lives on the index service; the width is kept
    /// here too because the service is rebuilt on every line switch, and
    /// each new service's pool is sized from it.
    eval_threads: usize,
}

/// Where a session's database comes from: a database it owns outright
/// (wrapped in a private [`SharedDatabase`]) or a shared handle other
/// sessions also participate in.
#[derive(Debug)]
enum Source {
    Owned(Box<Database>),
    Shared(SharedDatabase),
}

/// Configures and builds a [`Session`]: attach a store, pick the refresh
/// policy, bound the database's delta log. This is the one construction
/// path — [`Session::builder`] starts from an owned database,
/// [`Session::open`] from a [`SharedDatabase`].
///
/// ```
/// use isis_session::Session;
///
/// let db = isis_core::Database::new("demo");
/// let session = Session::builder(db).delta_capacity(1 << 10).build();
/// assert_eq!(session.database().delta_capacity(), 1 << 10);
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    source: Source,
    store: Option<StoreDir>,
    policy: RefreshPolicy,
    delta_capacity: Option<usize>,
    eval_threads: usize,
}

impl SessionBuilder {
    /// Attaches a database directory (enables *load* / *save*).
    pub fn store(mut self, store: StoreDir) -> SessionBuilder {
        self.store = Some(store);
        self
    }

    /// Sets the initial refresh policy.
    pub fn refresh_policy(mut self, policy: RefreshPolicy) -> SessionBuilder {
        self.policy = policy;
        self
    }

    /// Bounds the database's delta-log window (how many changes incremental
    /// consumers can catch up on before falling back to a rebuild).
    pub fn delta_capacity(mut self, capacity: usize) -> SessionBuilder {
        self.delta_capacity = Some(capacity);
        self
    }

    /// Sets how many worker threads [`Session::query`] may use for compiled
    /// predicate evaluation (default 1 = serial). The persistent pool is
    /// spawned lazily on the first query large enough to split, and reused
    /// afterwards.
    ///
    /// ```
    /// use isis_session::Session;
    ///
    /// let db = isis_core::Database::new("demo");
    /// let session = Session::builder(db).eval_threads(4).build();
    /// assert_eq!(session.eval_threads(), 4);
    /// ```
    pub fn eval_threads(mut self, threads: usize) -> SessionBuilder {
        self.eval_threads = threads.max(1);
        self
    }

    /// Builds the session like [`SessionBuilder::build`], but refuses to
    /// pin a [`SharedDatabase`] whose durability hook is poisoned. A
    /// poisoned hook means an earlier partial failure (a failed WAL
    /// rollback, a half-finished checkpoint) left disk and memory
    /// possibly disagreeing: a session silently pinned at such a head
    /// could serve — or replicate — state that was never made durable.
    /// Surfaces [`SessionError::Poisoned`] instead; reopen the store to
    /// heal. Sessions over an owned database never fail this check.
    pub fn try_build(self) -> Result<Session, SessionError> {
        if let Source::Shared(shared) = &self.source {
            if shared.hook_poisoned() {
                return Err(SessionError::Poisoned(
                    "the head's durability hook refused further commits after a partial \
                     failure; opening a session here could observe non-durable state"
                        .into(),
                ));
            }
        }
        Ok(self.build())
    }

    /// Builds the session: wraps an owned database in a private
    /// [`SharedDatabase`] (or joins the given one) and pins a snapshot.
    pub fn build(self) -> Session {
        let SessionBuilder {
            source,
            store,
            policy,
            delta_capacity,
            eval_threads,
        } = self;
        let shared = match source {
            Source::Owned(mut db) => {
                if let Some(capacity) = delta_capacity {
                    db.set_delta_capacity(capacity);
                }
                SharedDatabase::new(*db)
            }
            Source::Shared(shared) => shared,
        };
        let mut db = shared.pin();
        if let Some(capacity) = delta_capacity {
            // On a shared handle this bounds the *local* buffer only; the
            // head keeps its own window (which bounds commit staleness).
            db.set_delta_capacity(capacity);
        }
        let base_epoch = db.delta_epoch();
        Session {
            shared,
            base_epoch,
            dirty: false,
            db,
            mode: Mode::Forest,
            selection: None,
            pages: Vec::new(),
            worksheet: None,
            undo: Vec::new(),
            redo: Vec::new(),
            messages: Vec::new(),
            store,
            stopped: false,
            offsets: Vec::new(),
            pan: (0, 0),
            policy,
            derived: None,
            last_recovery: None,
            eval_threads,
        }
    }
}

impl Session {
    /// Starts configuring a session that owns its database (store, refresh
    /// policy, delta-log capacity).
    pub fn builder(db: Database) -> SessionBuilder {
        SessionBuilder {
            source: Source::Owned(Box::new(db)),
            store: None,
            policy: RefreshPolicy::Manual,
            delta_capacity: None,
            eval_threads: 1,
        }
    }

    /// Starts configuring a session on a [`SharedDatabase`] other sessions
    /// may also have open. The session pins a snapshot of the head at
    /// [`SessionBuilder::build`] time; see [`Session::commit_changes`] /
    /// [`Session::pull`] for how it publishes and observes commits.
    pub fn open(shared: &SharedDatabase) -> SessionBuilder {
        SessionBuilder {
            source: Source::Shared(shared.clone()),
            store: None,
            policy: RefreshPolicy::Manual,
            delta_capacity: None,
            eval_threads: 1,
        }
    }

    /// What recovery found the last time a database was loaded from the
    /// store this session, if any load has happened.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Read access to the pinned snapshot.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The explicit write-transaction entry point: runs `f` against the
    /// pinned snapshot, records an undo point, marks the session dirty, and
    /// applies the refresh policy. The buffered changes publish on
    /// [`Session::commit_changes`].
    pub fn transact<R>(
        &mut self,
        f: impl FnOnce(&mut Database) -> isis_core::Result<R>,
    ) -> Result<R, SessionError> {
        self.snapshot();
        let out = f(&mut self.db)?;
        self.refresh_after_data_mod()?;
        Ok(out)
    }

    /// The shared handle this session participates in — clone it to open
    /// more sessions on the same database.
    pub fn shared(&self) -> &SharedDatabase {
        &self.shared
    }

    /// The epoch the local snapshot is pinned at.
    pub fn pinned_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// `true` if the session has buffered uncommitted mutations.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

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
        self.refresh_after_commit()?;
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
    /// it cannot help. Errors from `f` itself propagate immediately with
    /// the buffered changes discarded. Refuses to start while the session
    /// is dirty — buffered changes would be swept into the first commit.
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
        backoff: &isis_core::RetryBackoff,
        mut f: impl FnMut(&mut Database) -> isis_core::Result<()>,
    ) -> Result<CommitReceipt, SessionError> {
        if self.dirty {
            return Err(SessionError::DirtySnapshot);
        }
        let mut attempt: u32 = 0;
        loop {
            if let Err(e) = self.transact(&mut f) {
                self.discard_changes()?;
                return Err(e);
            }
            match self.commit_changes() {
                Ok(receipt) => {
                    let obs = isis_obs::global();
                    if obs.enabled() {
                        obs.observe("session.commit.retry_attempts", u64::from(attempt));
                    }
                    return Ok(receipt);
                }
                Err(SessionError::Conflict(c))
                    if c.is_retryable() && attempt < backoff.max_retries =>
                {
                    self.discard_changes()?;
                    let delay = backoff.delay(attempt);
                    let obs = isis_obs::global();
                    if obs.enabled() {
                        obs.count("session.commit.retries", 1);
                        obs.observe("session.commit.backoff_ns", delay.as_nanos() as u64);
                    }
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
        self.repin()?;
        Ok(())
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
        self.refresh_after_commit()
    }

    /// After a re-pin the interactive anchors may dangle (a concurrent
    /// commit deleted the selected class or entity); drop the ones that no
    /// longer resolve rather than letting views error.
    fn revalidate_interactive_state(&mut self) {
        let ok = match self.selection {
            None => true,
            Some(Selection::Class(c)) => self.db.class(c).is_ok(),
            Some(Selection::Attr(a)) => self.db.attr(a).is_ok(),
            Some(Selection::Grouping(g)) => self.db.grouping(g).is_ok(),
        };
        if !ok {
            self.selection = None;
        }
        let db = &self.db;
        self.pages.retain(|p| match p.node {
            SchemaNode::Class(c) => db.class(c).is_ok(),
            SchemaNode::Grouping(g) => db.grouping(g).is_ok(),
        });
    }

    /// The current mode (view).
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// The current schema selection.
    pub fn selection(&self) -> Option<Selection> {
        self.selection
    }

    /// The data-level page stack.
    pub fn pages(&self) -> &[PageSpec] {
        &self.pages
    }

    /// The open worksheet, if any.
    pub fn worksheet(&self) -> Option<&WorksheetState> {
        self.worksheet.as_ref()
    }

    /// `true` once *stop* has been applied.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// The text-window message log (newest last).
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// The current refresh policy.
    pub fn refresh_policy(&self) -> RefreshPolicy {
        self.policy
    }

    /// Worker threads available to [`Session::query`] (1 = serial).
    pub fn eval_threads(&self) -> usize {
        self.eval_threads
    }

    /// Reconfigures how many worker threads [`Session::query`] may use.
    /// Takes effect on the next query; the service's persistent pool is
    /// resized lazily.
    pub fn set_eval_threads(&mut self, threads: usize) {
        self.eval_threads = threads.max(1);
        if let Some(svc) = self.index_service() {
            svc.eval_pool().set_threads(self.eval_threads);
        }
    }

    /// Chooses when derived subclasses and attributes are re-evaluated
    /// ([`RefreshPolicy::Manual`] by default: the paper keeps derivations
    /// stale until the next commit).
    pub fn set_refresh_policy(&mut self, policy: RefreshPolicy) {
        self.policy = policy;
    }

    /// Mark the incremental refresh state as unusable (the database was
    /// replaced wholesale: load, undo, redo). Epochs of different database
    /// lines are not comparable, so the next refresh must rebuild.
    fn invalidate_refresh(&mut self) {
        self.derived = None;
    }

    fn refresh_after_data_mod(&mut self) -> Result<(), SessionError> {
        if self.policy == RefreshPolicy::Immediate {
            self.refresh_derived()?;
        }
        Ok(())
    }

    fn refresh_after_commit(&mut self) -> Result<(), SessionError> {
        if matches!(
            self.policy,
            RefreshPolicy::OnCommit | RefreshPolicy::Immediate
        ) {
            self.refresh_derived()?;
        }
        Ok(())
    }

    /// Brings every derived subclass and derived attribute up to date
    /// through [`DerivedState::refresh`].
    ///
    /// The fast path consumes the core delta log from the last synchronised
    /// epoch and re-evaluates only affected candidates. A full
    /// re-evaluation happens only when the window contains schema edits,
    /// was evicted, or the database was replaced or a refresh failed since
    /// the last refresh.
    pub fn refresh_derived(&mut self) -> Result<(), SessionError> {
        let mut changed = Vec::new();
        let state = DerivedState::refresh(
            self.derived.take(),
            &mut self.db,
            self.eval_threads,
            &mut changed,
        );
        for change in changed {
            let (ExtentChange::Delta { class, .. } | ExtentChange::Full { class, .. }) = change;
            let name = &self.db.class(class)?.name;
            let msg = match change {
                ExtentChange::Delta { added, removed, .. } => {
                    format!("{name} re-evaluated: +{added} -{removed} members (delta)")
                }
                ExtentChange::Full { before, after, .. } if before != after => {
                    format!("{name} re-evaluated: {before} -> {after} members")
                }
                // The full refresh reports every class; only a count that
                // moved is news.
                ExtentChange::Full { .. } => continue,
            };
            self.say(msg);
        }
        self.derived = Some(state?);
        Ok(())
    }

    /// The shared index service, once a refresh has built it. The planner
    /// and maintenance counters it carries back the *stats* REPL command.
    pub fn index_service(&self) -> Option<&IndexService> {
        self.derived.as_ref().map(DerivedState::service)
    }

    /// The shared index service when it describes the pinned snapshot as
    /// it is now, the one check [`Session::query`] and [`Session::explain`]
    /// take before evaluating through it.
    fn synced_service(&self) -> Option<&IndexService> {
        self.derived
            .as_ref()
            .filter(|d| d.in_sync(&self.db))
            .map(DerivedState::service)
    }

    /// Answers `{ e ∈ parent | P(e) }` through the shared index service.
    ///
    /// Under [`RefreshPolicy::OnCommit`] / [`RefreshPolicy::Immediate`] the
    /// refresh pipeline is synchronised first, so the answer always comes
    /// from index-pruned evaluation. Under [`RefreshPolicy::Manual`] the
    /// session refuses to advance the shared indexes out from under the
    /// maintainers: if un-drained changes are pending, it falls back to a
    /// direct scan (correct, just unassisted) until the next refresh.
    pub fn query(&mut self, parent: ClassId, pred: &Predicate) -> Result<OrderedSet, SessionError> {
        let obs = isis_obs::global();
        let mut span = obs.span("session.query.answer");
        if self.policy != RefreshPolicy::Manual {
            self.refresh_derived()?;
        }
        if let Some(svc) = self.synced_service() {
            Ok(svc.evaluate(&self.db, parent, pred)?)
        } else {
            // The direct scan bypasses the service, so record it there as a
            // sequential-scan query — before this it vanished from `stats`.
            if let Some(svc) = self.index_service() {
                svc.note_unassisted_scan();
            }
            obs.count("session.query.unassisted", 1);
            span.field("fallback", || {
                "pending changes under Manual policy; direct extent scan".into()
            });
            self.db.validate_predicate(parent, None, pred)?;
            Ok(self.db.evaluate_derived_members(parent, pred)?)
        }
    }

    /// Answers the query exactly like [`Session::query`] and additionally
    /// returns the full [`ExplainRecord`](isis_query::ExplainRecord) — the
    /// access path chosen per atom and why, the program-cache outcome,
    /// plan reuse and pinning, the parallel chunking decision, and
    /// per-phase timings. Counters advance identically to a plain query.
    ///
    /// On the unassisted fallback (Manual policy with pending changes)
    /// the record is marked `cache: "unassisted"` with an empty plan.
    pub fn explain(
        &mut self,
        parent: ClassId,
        pred: &Predicate,
    ) -> Result<(OrderedSet, isis_query::ExplainRecord), SessionError> {
        let obs = isis_obs::global();
        let _span = obs.span("session.query.explain");
        if self.policy != RefreshPolicy::Manual {
            self.refresh_derived()?;
        }
        if let Some(svc) = self.synced_service() {
            Ok(svc.explain(&self.db, parent, pred)?)
        } else {
            if let Some(svc) = self.index_service() {
                svc.note_unassisted_scan();
            }
            obs.count("session.query.unassisted", 1);
            self.db.validate_predicate(parent, None, pred)?;
            let t = std::time::Instant::now();
            let out = self.db.evaluate_derived_members(parent, pred)?;
            let total_ns = t.elapsed().as_nanos() as u64;
            let scanned = self.db.class(parent).map(|r| r.members.len()).unwrap_or(0);
            let record = isis_query::ExplainRecord::unassisted(
                &self.db,
                parent,
                pred,
                scanned,
                out.len(),
                total_ns,
            );
            obs.event("query.service.explain", || record.to_json());
            Ok((out, record))
        }
    }

    fn say(&mut self, msg: impl Into<String>) {
        self.messages.push(msg.into());
    }

    fn prompt(&self) -> Vec<String> {
        self.messages
            .iter()
            .rev()
            .take(PROMPT_LINES)
            .rev()
            .cloned()
            .collect()
    }

    /// Records an undo point; called before every user mutation, so it
    /// doubles as the dirty-flag hook for commit tracking. (Undo snapshots
    /// are taken after the pin and cleared at every commit/re-pin, so an
    /// undone database still belongs to the pinned line and its epochs
    /// stay commit-comparable.)
    fn snapshot(&mut self) {
        self.dirty = true;
        self.undo.push(Snapshot {
            db: self.db.clone(),
            selection: self.selection,
            pages: self.pages.clone(),
        });
        if self.undo.len() > UNDO_DEPTH {
            self.undo.remove(0);
        }
        self.redo.clear();
    }

    fn selected_class(&self) -> Result<ClassId, SessionError> {
        match self.selection {
            Some(Selection::Class(c)) => Ok(c),
            _ => Err(SessionError::BadSelection(
                "a class must be selected".into(),
            )),
        }
    }

    fn selected_attr(&self) -> Result<AttrId, SessionError> {
        match self.selection {
            Some(Selection::Attr(a)) => Ok(a),
            _ => Err(SessionError::BadSelection(
                "an attribute must be selected".into(),
            )),
        }
    }

    fn top_page(&mut self) -> Result<&mut PageSpec, SessionError> {
        self.pages
            .last_mut()
            .ok_or_else(|| SessionError::WrongMode("no page at the data level".into()))
    }

    fn ws(&mut self) -> Result<&mut WorksheetState, SessionError> {
        self.worksheet
            .as_mut()
            .ok_or_else(|| SessionError::NoWorksheet("open one with (re)define".into()))
    }

    /// Applies one command.
    pub fn apply(&mut self, cmd: Command) -> Result<(), SessionError> {
        let obs = isis_obs::global();
        let _span = obs.span(cmd.span_name());
        obs.count("session.commands", 1);
        match cmd {
            // ---- navigation ------------------------------------------
            Command::Pick(node) => {
                match node {
                    SchemaNode::Class(c) => {
                        self.db.class(c)?;
                        self.selection = Some(Selection::Class(c));
                    }
                    SchemaNode::Grouping(g) => {
                        self.db.grouping(g)?;
                        self.selection = Some(Selection::Grouping(g));
                        if self.mode == Mode::Network {
                            // Groupings have no outgoing arcs; the network
                            // hands back to the forest.
                            self.mode = Mode::Forest;
                        }
                    }
                }
                let name = self.node_name(node)?;
                self.say(format!("schema selection: {name}"));
                Ok(())
            }
            Command::PickByName(name) => {
                let node = self.db.node_by_name(&name)?;
                self.apply(Command::Pick(node))
            }
            Command::PickAttr(a) => {
                self.db.attr(a)?;
                self.selection = Some(Selection::Attr(a));
                let name = self.db.attr(a)?.name.clone();
                self.say(format!("schema selection: attribute {name}"));
                Ok(())
            }
            Command::ViewAssociations => {
                let class = match self.selection {
                    Some(Selection::Class(c)) => c,
                    Some(Selection::Attr(a)) => self.db.attr(a)?.owner,
                    _ => {
                        return Err(SessionError::BadSelection(
                            "view associations needs a class".into(),
                        ))
                    }
                };
                self.selection = Some(Selection::Class(class));
                self.mode = Mode::Network;
                Ok(())
            }
            Command::ViewContents => {
                let node = match self.selection {
                    Some(sel) => sel.as_node().ok_or_else(|| {
                        SessionError::BadSelection("view contents needs a class or grouping".into())
                    })?,
                    None => return Err(SessionError::BadSelection("nothing is selected".into())),
                };
                self.pages = vec![PageSpec::new(node)];
                self.mode = Mode::Data;
                Ok(())
            }
            Command::Pop => {
                match &self.mode {
                    Mode::Network | Mode::Worksheet => {
                        self.mode = Mode::Forest;
                    }
                    Mode::Data => {
                        if self.pages.len() > 1 {
                            self.pages.pop();
                        } else {
                            self.mode = Mode::Forest;
                        }
                    }
                    Mode::ConstantPick { .. } => {
                        // Cancel the temporary visit.
                        self.mode = Mode::Worksheet;
                        self.say("constant selection cancelled");
                    }
                    Mode::Forest => {}
                }
                Ok(())
            }

            // ---- schema modification ----------------------------------
            Command::Rename(name) => {
                self.snapshot();
                match self.selection {
                    Some(Selection::Class(c)) => self.db.rename_class(c, &name)?,
                    Some(Selection::Attr(a)) => self.db.rename_attr(a, &name)?,
                    Some(Selection::Grouping(g)) => self.db.rename_grouping(g, &name)?,
                    None => return Err(SessionError::BadSelection("nothing selected".into())),
                };
                self.say(format!("renamed to {name}"));
                Ok(())
            }
            Command::CreateSubclass(name) => {
                let parent = self.selected_class()?;
                self.snapshot();
                let c = self.db.create_subclass(parent, &name)?;
                self.selection = Some(Selection::Class(c));
                self.say(format!("created subclass {name}"));
                Ok(())
            }
            Command::CreateAttribute { name, multiplicity } => {
                let class = self.selected_class()?;
                self.snapshot();
                // The value class starts at STRINGS; the user then applies
                // (re)specify value class, as in §4.2's all_inst flow.
                let strings = self.db.predefined(isis_core::BaseKind::Strings);
                let a = self
                    .db
                    .create_attribute(class, &name, strings, multiplicity)?;
                self.selection = Some(Selection::Attr(a));
                self.say(format!("created attribute {name} (value class STRINGS)"));
                Ok(())
            }
            Command::SpecifyValueClass(node) => {
                let a = self.selected_attr()?;
                self.snapshot();
                match node {
                    SchemaNode::Class(c) => self.db.respecify_value_class(a, c)?,
                    SchemaNode::Grouping(g) => self.db.respecify_value_class(a, g)?,
                };
                let name = self.node_name(node)?;
                self.say(format!("value class is now {name}"));
                Ok(())
            }
            Command::CreateGrouping { name, attr } => {
                let class = self.selected_class()?;
                self.snapshot();
                let g = self.db.create_grouping(class, &name, attr)?;
                self.selection = Some(Selection::Grouping(g));
                self.say(format!("created grouping {name}"));
                Ok(())
            }
            Command::Delete => {
                self.snapshot();
                match self.selection {
                    Some(Selection::Class(c)) => self.db.delete_class(c)?,
                    Some(Selection::Attr(a)) => self.db.delete_attr(a)?,
                    Some(Selection::Grouping(g)) => self.db.delete_grouping(g)?,
                    None => return Err(SessionError::BadSelection("nothing selected".into())),
                };
                self.selection = None;
                self.say("deleted");
                Ok(())
            }
            Command::DisplayPredicate => {
                let msg = match self.selection {
                    Some(Selection::Class(c)) => match self.db.class(c)?.kind.predicate() {
                        Some(p) => {
                            format!("{}: {}", self.db.class(c)?.name, self.display_predicate(p)?)
                        }
                        None => format!("{} has no defining predicate", self.db.class(c)?.name),
                    },
                    Some(Selection::Grouping(g)) => {
                        let gr = self.db.grouping(g)?;
                        format!(
                            "{}: sets of {} grouped by common value of their {} attribute",
                            gr.name,
                            self.db.class(gr.parent)?.name,
                            self.db.attr(gr.on_attr)?.name
                        )
                    }
                    Some(Selection::Attr(a)) => match &self.db.attr(a)?.derivation {
                        Some(d) => format!("{} derivation: {d}", self.db.attr(a)?.name),
                        None => format!("{} has no derivation", self.db.attr(a)?.name),
                    },
                    None => return Err(SessionError::BadSelection("nothing selected".into())),
                };
                self.say(msg);
                Ok(())
            }

            // ---- data level --------------------------------------------
            Command::SelectEntity(e) => {
                // Identify the page's node first (immutable), validate the
                // pick against it, then toggle the selection.
                let node = match &self.mode {
                    Mode::ConstantPick { page, .. } => page.node,
                    Mode::Data => {
                        self.pages
                            .last()
                            .ok_or_else(|| {
                                SessionError::WrongMode("no page at the data level".into())
                            })?
                            .node
                    }
                    _ => {
                        return Err(SessionError::WrongMode(
                            "select/reject is a data-level command".into(),
                        ))
                    }
                };
                let valid = match node {
                    SchemaNode::Class(c) => self.db.members(c)?.contains(e),
                    SchemaNode::Grouping(g) => {
                        let idx_class = self.db.grouping_index_class(g)?;
                        self.db.members(idx_class)?.contains(e)
                    }
                };
                if !valid {
                    return Err(SessionError::Core(CoreError::NotAMember {
                        entity: e,
                        class: match node {
                            SchemaNode::Class(c) => c,
                            SchemaNode::Grouping(g) => self.db.grouping(g)?.parent,
                        },
                    }));
                }
                let page = match &mut self.mode {
                    Mode::ConstantPick { page, .. } => page,
                    _ => self.pages.last_mut().unwrap(),
                };
                if let Some(i) = page.selected.iter().position(|x| *x == e) {
                    page.selected.remove(i);
                } else {
                    page.selected.push(e);
                }
                Ok(())
            }
            Command::Follow(attr) => {
                if self.mode != Mode::Data {
                    return Err(SessionError::WrongMode(
                        "follow is a data-level command".into(),
                    ));
                }
                let page =
                    self.pages.last().cloned().ok_or_else(|| {
                        SessionError::WrongMode("no page at the data level".into())
                    })?;
                let class = match page.node {
                    SchemaNode::Class(c) => c,
                    SchemaNode::Grouping(_) => {
                        return Err(SessionError::WrongMode(
                            "follow on a grouping page needs no attribute".into(),
                        ))
                    }
                };
                if !self.db.attr_visible_on(attr, class)? {
                    return Err(SessionError::Core(CoreError::AttrNotOnClass {
                        attr,
                        class,
                    }));
                }
                if page.selected.is_empty() {
                    return Err(SessionError::NothingSelected);
                }
                // Raw values (grouping-ranged attributes land on the
                // grouping page with the index sets highlighted).
                let mut targets = OrderedSet::new();
                for e in &page.selected {
                    targets.extend_from(&self.db.attr_value(*e, attr)?.as_set());
                }
                let target_node = match self.db.attr(attr)?.value_class {
                    ValueClass::Class(c) => SchemaNode::Class(c),
                    ValueClass::Grouping(g) => SchemaNode::Grouping(g),
                };
                let mut new_page = PageSpec::new(target_node);
                new_page.selected = targets.as_slice().to_vec();
                new_page.followed_from = Some(attr);
                self.pages.push(new_page);
                // Following changes the schema selection too (the new page
                // becomes the examined object).
                self.selection = Some(match target_node {
                    SchemaNode::Class(c) => Selection::Class(c),
                    SchemaNode::Grouping(g) => Selection::Grouping(g),
                });
                Ok(())
            }
            Command::FollowGrouping => {
                if self.mode != Mode::Data {
                    return Err(SessionError::WrongMode(
                        "follow is a data-level command".into(),
                    ));
                }
                let page =
                    self.pages.last().cloned().ok_or_else(|| {
                        SessionError::WrongMode("no page at the data level".into())
                    })?;
                let g = match page.node {
                    SchemaNode::Grouping(g) => g,
                    SchemaNode::Class(_) => {
                        return Err(SessionError::WrongMode(
                            "follow on a class page needs an attribute".into(),
                        ))
                    }
                };
                if page.selected.is_empty() {
                    return Err(SessionError::NothingSelected);
                }
                // "We merely follow the selected set(s) into the parent
                // class and highlight the members of the set(s)."
                // Set by set in selection order, each in parent-extent order.
                let selected: OrderedSet = page.selected.iter().copied().collect();
                let mut members = OrderedSet::new();
                for set in self.db.grouping_sets_named(g, &selected)? {
                    members.extend_from(&set);
                }
                let parent = self.db.grouping(g)?.parent;
                let mut new_page = PageSpec::new(SchemaNode::Class(parent));
                new_page.selected = members.as_slice().to_vec();
                new_page.followed_from = None;
                self.pages.push(new_page);
                self.selection = Some(Selection::Class(parent));
                Ok(())
            }
            Command::ReassignAttrValue { attr, value } => {
                if self.mode != Mode::Data {
                    return Err(SessionError::WrongMode(
                        "(re)assign is a data-level command".into(),
                    ));
                }
                let selected = self.top_page()?.selected.clone();
                if selected.is_empty() {
                    return Err(SessionError::NothingSelected);
                }
                self.snapshot();
                for e in &selected {
                    self.db.assign_single(*e, attr, value)?;
                }
                let attr_name = self.db.attr(attr)?.name.clone();
                self.say(format!(
                    "assigned {} = {} for {} entities",
                    attr_name,
                    self.db.entity_name(value)?,
                    selected.len()
                ));
                self.refresh_after_data_mod()?;
                Ok(())
            }
            Command::ReassignAttrValues { attr, values } => {
                if self.mode != Mode::Data {
                    return Err(SessionError::WrongMode(
                        "(re)assign is a data-level command".into(),
                    ));
                }
                let selected = self.top_page()?.selected.clone();
                if selected.is_empty() {
                    return Err(SessionError::NothingSelected);
                }
                self.snapshot();
                for e in &selected {
                    self.db.assign_multi(*e, attr, values.iter().copied())?;
                }
                self.say(format!("assigned a set of {} values", values.len()));
                self.refresh_after_data_mod()?;
                Ok(())
            }
            Command::CreateEntity(name) => {
                if self.mode != Mode::Data {
                    return Err(SessionError::WrongMode(
                        "create entity is a data-level command".into(),
                    ));
                }
                let node = self.top_page()?.node;
                let class = node.as_class().ok_or_else(|| {
                    SessionError::BadSelection("entities are created in classes".into())
                })?;
                let base = self.db.class(class)?.base;
                self.snapshot();
                let e = self.db.insert_entity(base, &name)?;
                if base != class {
                    self.db.add_to_class(e, class)?;
                }
                self.say(format!("created entity {name}"));
                self.refresh_after_data_mod()?;
                Ok(())
            }
            Command::MakeSubclass(name) => {
                if self.mode != Mode::Data {
                    return Err(SessionError::WrongMode(
                        "make subclass is a data-level command".into(),
                    ));
                }
                let page = self.top_page()?.clone();
                let class = page.node.as_class().ok_or_else(|| {
                    SessionError::BadSelection("make subclass needs a class page".into())
                })?;
                if page.selected.is_empty() {
                    return Err(SessionError::NothingSelected);
                }
                self.snapshot();
                // Temporary visit to the forest: the new class "automatically
                // becomes the child of the class on the current page"; the
                // hand points at it on return.
                let sub = self.db.create_subclass(class, &name)?;
                for e in &page.selected {
                    self.db.add_to_class(*e, sub)?;
                }
                self.selection = Some(Selection::Class(sub));
                self.say(format!(
                    "made subclass {name} with {} members",
                    page.selected.len()
                ));
                Ok(())
            }
            Command::Move(dx, dy) => {
                let node = match self.selection {
                    Some(sel) => sel.as_node().ok_or_else(|| {
                        SessionError::BadSelection("move applies to classes and groupings".into())
                    })?,
                    None => return Err(SessionError::BadSelection("nothing selected".into())),
                };
                match self.offsets.iter_mut().find(|(n, _)| *n == node) {
                    Some((_, d)) => {
                        d.0 += dx;
                        d.1 += dy;
                    }
                    None => self.offsets.push((node, (dx, dy))),
                }
                Ok(())
            }
            Command::Pan(dx, dy) => {
                self.pan.0 += dx;
                self.pan.1 += dy;
                Ok(())
            }
            Command::Scroll(delta) => {
                let page = self.top_page()?;
                let s = page.scroll as i32 + delta;
                page.scroll = s.max(0) as usize;
                Ok(())
            }

            // ---- worksheet ---------------------------------------------
            Command::DefineMembership => {
                let class = self.selected_class()?;
                let parent = self.db.class(class)?.parent.ok_or_else(|| {
                    SessionError::BadSelection(
                        "baseclass membership is not predicate-defined".into(),
                    )
                })?;
                self.worksheet = Some(WorksheetState::new(
                    WsTarget::Membership(class),
                    parent,
                    None,
                ));
                self.mode = Mode::Worksheet;
                Ok(())
            }
            Command::DefineDerivation => {
                let attr = self.selected_attr()?;
                let rec = self.db.attr(attr)?;
                let value_class = match rec.value_class {
                    ValueClass::Class(c) => c,
                    ValueClass::Grouping(_) => {
                        return Err(SessionError::BadSelection(
                            "derivations onto groupings are not supported".into(),
                        ))
                    }
                };
                let owner = rec.owner;
                self.worksheet = Some(WorksheetState::new(
                    WsTarget::Derivation(attr),
                    value_class,
                    Some(owner),
                ));
                self.mode = Mode::Worksheet;
                Ok(())
            }
            Command::DefineConstraint { name, kind } => {
                let class = self.selected_class()?;
                self.worksheet = Some(WorksheetState::new(
                    WsTarget::Constraint { name, kind },
                    class,
                    None,
                ));
                self.mode = Mode::Worksheet;
                Ok(())
            }
            Command::CheckConstraints => {
                let failing = self.db.check_all_constraints()?;
                if failing.is_empty() {
                    let n = self.db.constraints().count();
                    self.say(format!("all {n} constraints hold"));
                } else {
                    for (id, report) in failing {
                        let name = self.db.constraint(id)?.name.clone();
                        let names: Vec<String> = report
                            .violators
                            .iter()
                            .map(|e| self.db.entity_name(*e).map(str::to_string))
                            .collect::<Result<_, _>>()?;
                        self.say(format!("constraint {name:?} violated by {names:?}"));
                    }
                }
                Ok(())
            }
            Command::WsNewAtom => {
                let ws = self.ws()?;
                let tag = ws.next_tag();
                ws.atoms.push(AtomDraft::new(tag));
                ws.editing = Some(ws.atoms.len() - 1);
                Ok(())
            }
            Command::WsEdit(tag) => {
                let ws = self.ws()?;
                let idx = ws
                    .atoms
                    .iter()
                    .position(|a| a.tag == tag)
                    .ok_or_else(|| SessionError::NoWorksheet(format!("no atom {tag}")))?;
                ws.editing = Some(idx);
                Ok(())
            }
            Command::WsLhsPush(attr) => {
                let candidate = self.ws()?.candidate_class;
                let mut map = self
                    .ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .lhs
                    .clone();
                map.push(attr);
                self.db.trace_map(candidate, &map)?;
                self.ws()?.editing_atom().unwrap().lhs = map;
                Ok(())
            }
            Command::WsLhsPop => {
                self.ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .lhs
                    .pop();
                Ok(())
            }
            Command::WsOperator(op) => {
                self.ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .op = Some(op);
                Ok(())
            }
            Command::WsRhsSelfMap(steps) => {
                let candidate = self.ws()?.candidate_class;
                let map = Map::new(steps);
                self.db.trace_map(candidate, &map)?;
                self.ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .rhs = Some(Rhs::SelfMap(map));
                Ok(())
            }
            Command::WsRhsSourceMap(steps) => {
                let source = self.ws()?.source_class.ok_or_else(|| {
                    SessionError::NoWorksheet("source maps need a derivation worksheet".into())
                })?;
                let map = Map::new(steps);
                self.db.trace_map(source, &map)?;
                self.ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .rhs = Some(Rhs::SourceMap(map));
                Ok(())
            }
            Command::WsRhsConstant(start) => {
                let candidate = self.ws()?.candidate_class;
                let lhs = self
                    .ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .lhs
                    .clone();
                // "constant … temporarily takes the user into the data
                // level, where he may select or create a constant in the
                // class at which the left hand side mapping terminates."
                let class = match start {
                    Some(c) => c,
                    None => self.db.trace_map(candidate, &lhs)?.terminal(),
                };
                self.db.class(class)?;
                self.mode = Mode::ConstantPick {
                    class,
                    page: PageSpec::new(SchemaNode::Class(class)),
                };
                self.say(format!(
                    "select constant(s) in {}",
                    self.db.class(class)?.name
                ));
                Ok(())
            }
            Command::ConstantToggle(e) => self.apply(Command::SelectEntity(e)),
            Command::ConstantDone => {
                let (class, selected) = match &self.mode {
                    Mode::ConstantPick { class, page } => (*class, page.selected.clone()),
                    _ => {
                        return Err(SessionError::WrongMode(
                            "no constant selection in progress".into(),
                        ))
                    }
                };
                self.ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .rhs = Some(Rhs::Constant {
                    class,
                    anchors: selected.iter().copied().collect(),
                    map: Map::identity(),
                });
                // Return from the temporary visit: schema and data
                // selections are untouched (Diagram 1's loop arrow).
                self.mode = Mode::Worksheet;
                Ok(())
            }
            Command::WsPlaceInClause(i) => {
                if i >= isis_views::worksheet_view::CLAUSE_WINDOWS {
                    return Err(SessionError::NoWorksheet(format!("no clause window {i}")));
                }
                self.ws()?
                    .editing_atom()
                    .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))?
                    .placed = Some(i);
                Ok(())
            }
            Command::WsSwitchAndOr => {
                let ws = self.ws()?;
                ws.form = ws.form.switched();
                Ok(())
            }
            Command::WsHandAssign(steps) => {
                let source = self.ws()?.source_class.ok_or_else(|| {
                    SessionError::NoWorksheet(
                        "the hand operator needs a derivation worksheet".into(),
                    )
                })?;
                let map = Map::new(steps);
                self.db.trace_map(source, &map)?;
                self.ws()?.hand = Some(map);
                Ok(())
            }
            Command::WsCommit => self.commit_worksheet(),

            // ---- session ----------------------------------------------
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
                    for line in report.to_string().lines() {
                        self.say(line.to_string());
                    }
                }
                self.last_recovery = Some(report);
                Ok(())
            }
            Command::Save(name) => {
                let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
                store.save(&self.db, &name)?;
                self.say(format!("saved database as {name}"));
                Ok(())
            }
            Command::Doctor(name) => {
                match name {
                    Some(name) => {
                        // Diagnose a stored database: a recovery dry run.
                        let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
                        let (_, report) = store.recover(&name)?;
                        for line in report.to_string().lines() {
                            self.say(line.to_string());
                        }
                    }
                    None => match &self.last_recovery {
                        Some(report) => {
                            for line in report.to_string().lines() {
                                self.say(line.to_string());
                            }
                        }
                        None => self.say(
                            "no database loaded from the store yet; try doctor NAME".to_string(),
                        ),
                    },
                }
                Ok(())
            }
            Command::Fsck(name) => {
                let store = self.store.as_ref().ok_or(SessionError::NoStore)?;
                let name = match name {
                    Some(name) => name,
                    None => self.db.name.clone(),
                };
                let report = store.fsck(&name)?;
                for line in report.to_string().lines() {
                    self.say(line.to_string());
                }
                self.say(format!(
                    "fsck {name}: {}",
                    if report.clean() { "clean" } else { "NOT CLEAN" }
                ));
                Ok(())
            }
            Command::Undo => {
                let snap = self.undo.pop().ok_or(SessionError::NothingToUndo)?;
                self.redo.push(Snapshot {
                    db: self.db.clone(),
                    selection: self.selection,
                    pages: self.pages.clone(),
                });
                self.db = snap.db;
                self.selection = snap.selection;
                self.pages = snap.pages;
                self.dirty = true;
                self.invalidate_refresh();
                self.say("undone");
                Ok(())
            }
            Command::Redo => {
                let snap = self.redo.pop().ok_or(SessionError::NothingToUndo)?;
                self.undo.push(Snapshot {
                    db: self.db.clone(),
                    selection: self.selection,
                    pages: self.pages.clone(),
                });
                self.db = snap.db;
                self.selection = snap.selection;
                self.pages = snap.pages;
                self.dirty = true;
                self.invalidate_refresh();
                self.say("redone");
                Ok(())
            }
            Command::Refresh => {
                // A clean session also pulls: "refresh" at the interface
                // means "show me the current state of the world", which on
                // a shared database includes concurrent commits.
                if !self.dirty && self.shared.epoch() != self.base_epoch {
                    self.pull()?;
                    self.say(format!("pulled shared head (epoch {})", self.base_epoch));
                }
                let before = self.messages.len();
                self.refresh_derived()?;
                if self.messages.len() == before {
                    self.say("derived state is up to date");
                }
                Ok(())
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
                Ok(())
            }
            Command::Pull => {
                let before = self.base_epoch;
                self.pull()?;
                self.say(if self.base_epoch == before {
                    "already at the shared head".to_string()
                } else {
                    format!("pulled shared head (epoch {})", self.base_epoch)
                });
                Ok(())
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
                Ok(())
            }
            Command::Stop => {
                self.stopped = true;
                self.say("stopped");
                Ok(())
            }
        }
    }

    fn commit_worksheet(&mut self) -> Result<(), SessionError> {
        let ws = self
            .worksheet
            .clone()
            .ok_or_else(|| SessionError::NoWorksheet("nothing to commit".into()))?;
        // Hand derivation short-circuits the predicate.
        if let (WsTarget::Derivation(attr), Some(map)) = (ws.target.clone(), ws.hand.clone()) {
            self.snapshot();
            let n = self
                .db
                .commit_derivation(attr, isis_core::AttrDerivation::Assign(map))?;
            self.say(format!("derivation committed for {n} entities"));
            self.worksheet = None;
            self.mode = Mode::Forest;
            self.selection = Some(Selection::Attr(attr));
            return Ok(());
        }
        // Assemble clauses from the placed atoms, in clause-window order.
        let max_clause = ws
            .atoms
            .iter()
            .filter_map(|a| a.placed)
            .max()
            .ok_or_else(|| SessionError::NoWorksheet("no atoms placed in clauses".into()))?;
        let mut clauses = Vec::new();
        for i in 0..=max_clause {
            let atoms: Vec<Atom> = ws
                .atoms
                .iter()
                .filter(|a| a.placed == Some(i))
                .map(|a| -> Result<Atom, SessionError> {
                    Ok(Atom {
                        lhs: a.lhs.clone(),
                        op: a.op.ok_or_else(|| {
                            SessionError::NoWorksheet(format!("atom {} has no operator", a.tag))
                        })?,
                        rhs: a.rhs.clone().ok_or_else(|| {
                            SessionError::NoWorksheet(format!(
                                "atom {} has no right hand side",
                                a.tag
                            ))
                        })?,
                    })
                })
                .collect::<Result<_, _>>()?;
            if !atoms.is_empty() {
                clauses.push(isis_core::Clause::new(atoms));
            }
        }
        let pred = Predicate {
            form: ws.form,
            clauses,
        };
        self.snapshot();
        match ws.target.clone() {
            WsTarget::Membership(class) => {
                let n = self.db.commit_membership(class, pred)?;
                let name = self.db.class(class)?.name.clone();
                self.say(format!("{name} committed: {n} members"));
                self.selection = Some(Selection::Class(class));
            }
            WsTarget::Derivation(attr) => {
                let n = self
                    .db
                    .commit_derivation(attr, isis_core::AttrDerivation::Predicate(pred))?;
                self.say(format!("derivation committed for {n} entities"));
                self.selection = Some(Selection::Attr(attr));
            }
            WsTarget::Constraint { name, kind } => {
                let class = ws.candidate_class;
                let id = self.db.create_constraint(&name, class, pred, kind)?;
                let report = self.db.check_constraint(id)?;
                if report.holds() {
                    self.say(format!("constraint {name:?} installed and holds"));
                } else {
                    self.say(format!(
                        "constraint {name:?} installed; {} existing violators",
                        report.violators.len()
                    ));
                }
                self.selection = Some(Selection::Class(class));
            }
        }
        self.worksheet = None;
        self.mode = Mode::Forest;
        self.refresh_after_commit()?;
        Ok(())
    }

    fn node_name(&self, node: SchemaNode) -> Result<String, SessionError> {
        Ok(self.db.node_name(node)?.to_string())
    }

    // ------------------------------------------------------------------
    // Rendering
    // ------------------------------------------------------------------

    /// Builds the scene for the current view.
    pub fn scene(&self) -> Result<Scene, SessionError> {
        Ok(match &self.mode {
            Mode::Forest => {
                let selection = match self.selection {
                    Some(Selection::Attr(a)) => Some(SchemaNode::Class(self.db.attr(a)?.owner)),
                    Some(s) => s.as_node(),
                    None => None,
                };
                forest_view(
                    &self.db,
                    &ForestViewOptions {
                        selection,
                        show_predefined: false,
                        prompt: self.prompt(),
                        offsets: self.offsets.clone(),
                        pan: self.pan,
                    },
                )?
                .scene
            }
            Mode::Network => {
                let class = match self.selection {
                    Some(Selection::Class(c)) => c,
                    Some(Selection::Attr(a)) => self.db.attr(a)?.owner,
                    _ => {
                        return Err(SessionError::BadSelection(
                            "the network view needs a class selection".into(),
                        ))
                    }
                };
                network_view(&self.db, class)?.scene
            }
            Mode::Data => {
                data_view(
                    &self.db,
                    &DataViewInput {
                        pages: self.pages.clone(),
                        prompt: self.prompt(),
                    },
                )?
                .scene
            }
            Mode::ConstantPick { page, .. } => {
                data_view(
                    &self.db,
                    &DataViewInput {
                        pages: vec![page.clone()],
                        prompt: vec!["select constant(s), then done".into()],
                    },
                )?
                .scene
            }
            Mode::Worksheet => worksheet_view(&self.worksheet_input()?).scene,
        })
    }

    /// Builds the worksheet display input from the live worksheet state.
    pub fn worksheet_input(&self) -> Result<WorksheetInput, SessionError> {
        let ws = self
            .worksheet
            .as_ref()
            .ok_or_else(|| SessionError::NoWorksheet("no worksheet open".into()))?;
        let target = match &ws.target {
            WsTarget::Membership(c) => self.db.class(*c)?.name.clone(),
            WsTarget::Derivation(a) => {
                let ar = self.db.attr(*a)?;
                format!("{}.{}", self.db.class(ar.owner)?.name, ar.name)
            }
            WsTarget::Constraint { name, kind } => format!(
                "constraint {name} ({})",
                match kind {
                    isis_core::ConstraintKind::ForAll => "for all",
                    isis_core::ConstraintKind::Forbidden => "forbidden",
                }
            ),
        };
        let mut clauses = vec![Vec::new(); isis_views::worksheet_view::CLAUSE_WINDOWS];
        for a in &ws.atoms {
            if let Some(i) = a.placed {
                clauses[i].push(a.tag.to_string());
            }
        }
        let atom_list = ws
            .atoms
            .iter()
            .map(|a| self.display_atom(a))
            .collect::<Result<Vec<_>, _>>()?;
        let (lhs_stack, operator, rhs) = match ws.editing.and_then(|i| ws.atoms.get(i)) {
            Some(a) => {
                let trace = self.db.trace_map(ws.candidate_class, &a.lhs)?;
                let stack = trace
                    .classes
                    .iter()
                    .map(|c| Ok(self.db.class(*c)?.name.clone()))
                    .collect::<Result<Vec<_>, SessionError>>()?;
                let op = a.op.map(|o| o.to_string());
                let rhs = match &a.rhs {
                    Some(r) => self.display_rhs(r)?,
                    None => String::new(),
                };
                (stack, op, rhs)
            }
            None => (Vec::new(), None, String::new()),
        };
        let class_list = self
            .db
            .classes()
            .map(|(_, c)| c.name.clone())
            .collect::<Vec<_>>();
        Ok(WorksheetInput {
            database: self.db.name.clone(),
            target,
            form: ws.form,
            clauses,
            atom_list,
            lhs_stack,
            operator,
            rhs,
            class_list,
            derivation_mode: matches!(ws.target, WsTarget::Derivation(_)),
            prompt: self.prompt(),
        })
    }

    /// Formats a map with attribute names.
    pub fn display_map(&self, map: &Map) -> Result<String, SessionError> {
        if map.is_identity() {
            return Ok("·".into());
        }
        let names = map
            .steps()
            .iter()
            .map(|a| Ok(self.db.attr(*a)?.name.clone()))
            .collect::<Result<Vec<_>, SessionError>>()?;
        Ok(names.join(" "))
    }

    fn display_rhs(&self, rhs: &Rhs) -> Result<String, SessionError> {
        Ok(match rhs {
            Rhs::SelfMap(m) => format!("{}(e)", self.display_map(m)?),
            Rhs::SourceMap(m) => format!("{}(x)", self.display_map(m)?),
            Rhs::Constant { anchors, map, .. } => {
                let names = anchors
                    .iter()
                    .map(|e| Ok(self.db.entity_name(e)?.to_string()))
                    .collect::<Result<Vec<_>, SessionError>>()?;
                let set = format!("{{{}}}", names.join(", "));
                if map.is_identity() {
                    set
                } else {
                    format!("{}({set})", self.display_map(map)?)
                }
            }
        })
    }

    fn display_atom(&self, a: &AtomDraft) -> Result<String, SessionError> {
        let lhs = self.display_map(&a.lhs)?;
        let op = a.op.map(|o| o.to_string()).unwrap_or_else(|| "?".into());
        let rhs = match &a.rhs {
            Some(r) => self.display_rhs(r)?,
            None => "?".into(),
        };
        Ok(format!("{}: {lhs} {op} {rhs}", a.tag))
    }

    fn display_predicate(&self, p: &Predicate) -> Result<String, SessionError> {
        // Render with names instead of raw ids.
        let mut parts = Vec::new();
        for clause in &p.clauses {
            let atoms = clause
                .atoms
                .iter()
                .map(|a| {
                    Ok(format!(
                        "{} {} {}",
                        self.display_map(&a.lhs)?,
                        a.op,
                        self.display_rhs(&a.rhs)?
                    ))
                })
                .collect::<Result<Vec<_>, SessionError>>()?;
            let joint = match p.form {
                isis_core::NormalForm::Dnf => " AND ",
                isis_core::NormalForm::Cnf => " OR ",
            };
            parts.push(format!("({})", atoms.join(joint)));
        }
        let joint = match p.form {
            isis_core::NormalForm::Dnf => " OR ",
            isis_core::NormalForm::Cnf => " AND ",
        };
        Ok(parts.join(joint))
    }
}
