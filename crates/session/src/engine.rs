//! The session engine: applies [`Command`]s to the database and interactive
//! state, and builds the current view's [`Scene`].
//!
//! [`Session::apply`] only dispatches: each command group has one handler in
//! its own module — `schema` (navigation and schema edits), `data` (the data
//! level and the constant-pick visit), `worksheet`, and `session_verbs`
//! (load, save, doctor, fsck, undo, redo, refresh, commit, pull, refresh
//! policy, stop). This module keeps what the groups share: the session's
//! state, the schema-selection checks, the undo point every edit takes, the
//! refresh pipeline, the one answer step of [`Session::query`] and
//! [`Session::explain`] (every answer goes through an index service, in
//! sync, behind, or fresh before the first refresh), and the scene of the
//! current view.

use isis_core::{ClassId, Database, OrderedSet, Predicate, SchemaNode, SharedDatabase};
use isis_obs::Registry;
use isis_query::{DerivedState, ExplainRecord, ExtentChange, IndexService, QueryError};
use isis_store::{RecoveryReport, StoreDir};
use isis_views::{
    data_view, forest_view, network_view, worksheet_view, DataViewInput, ForestViewOptions,
    PageSpec, Scene,
};

use crate::command::Command;
use crate::error::SessionError;
use crate::state::{Mode, RefreshPolicy, Selection, WorksheetState};

mod data;
mod schema;
mod session_verbs;
mod worksheet;

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
    /// The registry scope every service the session queries through
    /// counts into (planner, program cache, index maintenance), and where
    /// the unassisted answers are counted: the session's query counters,
    /// which outlive each service rebuild.
    query_scope: Registry,
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
/// policy, size the evaluation pool. This is the one construction path —
/// [`Session::builder`] starts from an owned database, [`Session::open`]
/// from a [`SharedDatabase`].
///
/// ```
/// use isis_session::{RefreshPolicy, Session};
///
/// let db = isis_core::Database::new("demo");
/// let session = Session::builder(db)
///     .refresh_policy(RefreshPolicy::OnCommit)
///     .build();
/// assert_eq!(session.refresh_policy(), RefreshPolicy::OnCommit);
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    source: Source,
    store: Option<StoreDir>,
    policy: RefreshPolicy,
    eval_threads: usize,
}

impl SessionBuilder {
    fn new(source: Source) -> SessionBuilder {
        SessionBuilder {
            source,
            store: None,
            policy: RefreshPolicy::Manual,
            eval_threads: 1,
        }
    }

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
            eval_threads,
        } = self;
        let shared = match source {
            Source::Owned(db) => SharedDatabase::new(*db),
            Source::Shared(shared) => shared,
        };
        let db = shared.pin();
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
            query_scope: Registry::new(),
        }
    }
}

impl Session {
    /// Starts configuring a session that owns its database (store, refresh
    /// policy, evaluation threads). To bound its delta-log window, call
    /// [`Database::set_delta_capacity`] on `db` first.
    pub fn builder(db: Database) -> SessionBuilder {
        SessionBuilder::new(Source::Owned(Box::new(db)))
    }

    /// Starts configuring a session on a [`SharedDatabase`] other sessions
    /// may also have open. The session pins a snapshot of the head at
    /// [`SessionBuilder::build`] time; see [`Session::commit_changes`] /
    /// [`Session::pull`] for how it publishes and observes commits.
    pub fn open(shared: &SharedDatabase) -> SessionBuilder {
        SessionBuilder::new(Source::Shared(shared.clone()))
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
        self.refresh_at(RefreshPolicy::Immediate)?;
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

    /// Refreshes derived state when the policy is at least as eager as
    /// `trigger`: a data edit refreshes under `Immediate`; a commit, a
    /// re-pin and a query under `OnCommit` too.
    fn refresh_at(&mut self, trigger: RefreshPolicy) -> Result<(), SessionError> {
        if self.policy >= trigger {
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
            &self.query_scope,
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

    /// The shared index service, once a refresh has built it. Under
    /// [`RefreshPolicy::Manual`] it may be behind the pinned snapshot
    /// until the next refresh; its answers stay exact, because a service
    /// behind its database prunes nothing.
    pub fn index_service(&self) -> Option<&IndexService> {
        self.derived.as_ref().map(DerivedState::service)
    }

    /// The registry scope the session's query counters live in: the
    /// planner, program-cache and index-maintenance counts of every
    /// service it queries through, and its unassisted answers. The
    /// current service reads it back as [`isis_query::QueryStats`] and its
    /// siblings; the REPL's `stats`, `health` and `metrics` read it by
    /// name, so the counts show even while no service exists.
    pub fn query_scope(&self) -> &Registry {
        &self.query_scope
    }

    /// Answers `{ e ∈ parent | P(e) }` through the index service.
    ///
    /// Under [`RefreshPolicy::OnCommit`] / [`RefreshPolicy::Immediate`] the
    /// refresh pipeline is synchronised first, so the service's postings
    /// describe the snapshot and prune the candidates. Under
    /// [`RefreshPolicy::Manual`] the session does not advance the shared
    /// indexes out from under the maintainers: with changes pending, the
    /// service behind the snapshot runs the compiled program over the
    /// whole extent (correct, just unassisted) until the next refresh.
    /// Before the first refresh a fresh service with no index answers.
    pub fn query(&mut self, parent: ClassId, pred: &Predicate) -> Result<OrderedSet, SessionError> {
        self.answer("session.query.answer", |svc, db| {
            svc.evaluate(db, parent, pred)
        })
    }

    /// Answers the query exactly like [`Session::query`] and additionally
    /// returns the full [`ExplainRecord`] — the access path chosen per
    /// atom and why, the program-cache outcome, plan reuse and pinning, the
    /// parallel chunking decision, and per-phase timings. Counters advance
    /// identically to a plain query, and the record has the same shape in
    /// every state: behind the snapshot, each atom is a sequential scan
    /// whose reason says a refresh is pending.
    pub fn explain(
        &mut self,
        parent: ClassId,
        pred: &Predicate,
    ) -> Result<(OrderedSet, ExplainRecord), SessionError> {
        self.answer("session.query.explain", |svc, db| {
            svc.explain(db, parent, pred)
        })
    }

    /// The step [`Session::query`] and [`Session::explain`] share, under
    /// the span `name`: refresh under the policy, then hand `ask` the
    /// derived state's service. An answer without an in-sync derived state
    /// counts one `session.query.unassisted` and notes the fallback on the
    /// span; before the first refresh, `ask` gets a fresh service with no
    /// index, at width 1, counting into the session's scope.
    fn answer<R>(
        &mut self,
        name: &'static str,
        ask: impl FnOnce(&IndexService, &Database) -> Result<R, QueryError>,
    ) -> Result<R, SessionError> {
        let mut span = isis_obs::global().span(name);
        self.refresh_at(RefreshPolicy::OnCommit)?;
        let fresh;
        let (service, fallback) = match &self.derived {
            Some(state) if state.in_sync(&self.db) => return Ok(ask(state.service(), &self.db)?),
            Some(state) => (state.service(), "a refresh is pending; the service scans"),
            None => {
                fresh = IndexService::in_scope(&self.db, &self.query_scope);
                (&fresh, "no refresh yet; a service with no index answers")
            }
        };
        self.query_scope.counter("session.query.unassisted").inc();
        span.field("fallback", || fallback.into());
        Ok(ask(service, &self.db)?)
    }

    fn say(&mut self, msg: impl Into<String>) {
        self.messages.push(msg.into());
    }

    /// Logs a multi-line report one message per line.
    fn say_lines(&mut self, report: &str) {
        self.messages.extend(report.lines().map(str::to_string));
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

    /// The schema selection, which the verbs that act on any kind of it
    /// need.
    fn schema_selection(&self) -> Result<Selection, SessionError> {
        self.selection
            .ok_or_else(|| SessionError::BadSelection("nothing selected".into()))
    }

    fn selected_class(&self) -> Result<ClassId, SessionError> {
        match self.selection {
            Some(Selection::Class(c)) => Ok(c),
            _ => Err(SessionError::BadSelection(
                "a class must be selected".into(),
            )),
        }
    }

    fn selected_attr(&self) -> Result<isis_core::AttrId, SessionError> {
        match self.selection {
            Some(Selection::Attr(a)) => Ok(a),
            _ => Err(SessionError::BadSelection(
                "an attribute must be selected".into(),
            )),
        }
    }

    /// The selected class, or the selected attribute's owner: what the
    /// semantic network shows. `need` says so when neither is selected.
    fn class_or_owner(&self, need: &str) -> Result<ClassId, SessionError> {
        match self.selection {
            Some(Selection::Class(c)) => Ok(c),
            Some(Selection::Attr(a)) => Ok(self.db.attr(a)?.owner),
            _ => Err(SessionError::BadSelection(need.into())),
        }
    }

    fn node_name(&self, node: SchemaNode) -> Result<String, SessionError> {
        Ok(self.db.node_name(node)?.to_string())
    }

    /// Applies one command: hands it to its group's handler.
    pub fn apply(&mut self, cmd: Command) -> Result<(), SessionError> {
        let obs = isis_obs::global();
        let _span = obs.span(cmd.span_name());
        obs.count("session.commands", 1);
        use Command::*;
        match cmd {
            Pick(_) | PickByName(_) | PickAttr(_) | ViewAssociations => self.apply_schema(cmd),
            ViewContents | Pop | Rename(_) | CreateSubclass(_) | Delete => self.apply_schema(cmd),
            CreateAttribute { .. } | SpecifyValueClass(_) | Move(..) => self.apply_schema(cmd),
            CreateGrouping { .. } | DisplayPredicate | Pan(..) => self.apply_schema(cmd),
            SelectEntity(_) | ConstantToggle(_) | Follow(_) | Scroll(_) => self.apply_data(cmd),
            ReassignAttrValue { .. } | ReassignAttrValues { .. } => self.apply_data(cmd),
            FollowGrouping | CreateEntity(_) | MakeSubclass(_) => self.apply_data(cmd),
            DefineMembership | DefineDerivation | CheckConstraints => self.apply_worksheet(cmd),
            DefineConstraint { .. } | WsNewAtom | WsEdit(_) | WsLhsPop => self.apply_worksheet(cmd),
            WsLhsPush(_) | WsOperator(_) | WsRhsSelfMap(_) | WsCommit => self.apply_worksheet(cmd),
            WsRhsSourceMap(_) | WsRhsConstant(_) | ConstantDone => self.apply_worksheet(cmd),
            WsPlaceInClause(_) | WsSwitchAndOr | WsHandAssign(_) => self.apply_worksheet(cmd),
            Load(_) | Save(_) | Doctor(_) | Fsck(_) | Undo | Redo => self.apply_session_verb(cmd),
            Refresh | Commit | Pull | SetRefreshPolicy(_) | Stop => self.apply_session_verb(cmd),
        }
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
                let class = self.class_or_owner("the network view needs a class selection")?;
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
}
