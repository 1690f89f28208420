//! A line-oriented front end for the ISIS interface.
//!
//! The original system was driven by a one-button mouse and function keys;
//! this module maps a small text command language onto the same
//! [`Command`] stream, resolving names to ids
//! against the live database, so a session can be driven from a terminal
//! (see the `isis-repl` binary) or from test scripts.
//!
//! Type `help` at the prompt for the command list.

use isis_core::{CompareOp, ConstraintKind, EntityId, Literal, Multiplicity, Operator, SchemaNode};
use isis_session::{Command, RefreshPolicy, Session, SessionError};
use isis_views::render::ascii;

/// Errors raised by the REPL layer (on top of session errors).
#[derive(Debug)]
pub enum ReplError {
    /// The line could not be parsed.
    Parse(String),
    /// A name did not resolve.
    Unknown(String),
    /// The session rejected the command.
    Session(SessionError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Parse(m) => write!(f, "parse error: {m}"),
            ReplError::Unknown(m) => write!(f, "unknown name: {m}"),
            ReplError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<SessionError> for ReplError {
    fn from(e: SessionError) -> Self {
        ReplError::Session(e)
    }
}

impl From<isis_core::CoreError> for ReplError {
    fn from(e: isis_core::CoreError) -> Self {
        ReplError::Session(SessionError::Core(e))
    }
}

/// The REPL help text.
pub const HELP: &str = "\
navigation:   pick NAME | pickattr CLASS.ATTR | associations | contents | pop | show
schema:       rename NAME | subclass NAME | attribute NAME single|multi
              valueclass NAME | grouping NAME ATTR | delete | predicate
data level:   select NAME|LITERAL | follow ATTR | followg | move DX DY | pan DX DY
              assign ATTR VALUE | newentity NAME | makesub NAME | scroll N
worksheet:    define | derive | constraint NAME forall|forbidden
              atom | edit TAG | push ATTR | poplhs | op OPERATOR (prefix ! negates)
              rhsmap ATTR... | rhssrc ATTR... | const [CLASS] | toggle NAME|LITERAL
              done | clause N | switch | hand ATTR... | commit
session:      load NAME | save NAME | checks | undo | redo | stop | help
              publish — commit this session's buffered changes to the
              shared database head (first committer wins; non-conflicting
              concurrent commits are rebased underneath)
              pull — fast-forward a clean session to the shared head
              refresh [manual|oncommit|immediate] — re-evaluate derived state
              (no argument) or set when it happens automatically
              stats — the shared index service's indexed attributes (built
              by the first refresh) and the session's planner and
              index-maintenance counters, which outlive service rebuilds
              metrics [json|reset|on|off] — the process-wide observability
              registry (counters and latency histograms; ISIS_OBS=1 to
              enable at startup) beside the session's always-on query
              counters; reset zeroes both and empties the journal, the one
              bounded ring of spans and decision events
              trace on|off|dump|json — span recording across the
              query/refresh/storage pipeline; dump shows the journal as a
              span tree with each event under its span
              explain NAME [json] — run a derived class's predicate and
              show the full plan record: access path per atom and why,
              program-cache outcome, chunking decision, phase timings
              slowlog [json|threshold MILLIS] — the journal's slow-query
              events: evaluations over the threshold, each with its plan
              health [json] — one-screen triage: cache hit rates, commit
              conflict rates, replica lag, slow-query highlights
              flight dump|json|export [PATH] — the journal's decision
              events alone (export writes JSONL)
              doctor [NAME] — print the recovery report (last load, or a
              dry-run recovery of a stored database)
              fsck [NAME] — verify a stored database: recovery dry run plus
              consistency check (defaults to the current database's name)
operators:    = ~ <=s >=s <s >s < <= > >=       literals: 42, 2.5, yes, no, \"text\"";

/// A text-driven ISIS session.
#[derive(Debug)]
pub struct Repl {
    /// The underlying session.
    pub session: Session,
}

impl Repl {
    /// Wraps a session.
    pub fn new(session: Session) -> Repl {
        Repl { session }
    }

    /// Executes one line, returning the text to show the user.
    pub fn exec(&mut self, line: &str) -> Result<String, ReplError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let mut parts = tokenize(line);
        if parts.is_empty() {
            // e.g. a line of quotes or stray whitespace inside quotes.
            return Ok(String::new());
        }
        let verb = parts.remove(0);
        let before = self.session.messages().len();
        match verb.as_str() {
            "help" => return Ok(HELP.to_string()),
            "show" => return Ok(ascii::render(&self.session.scene()?)),
            "pick" => {
                let name = one(&parts, "pick NAME")?;
                self.session.apply(Command::PickByName(name))?;
            }
            "pickattr" => {
                let spec = one(&parts, "pickattr CLASS.ATTR")?;
                let (class, attr) = spec
                    .split_once('.')
                    .ok_or_else(|| ReplError::Parse("expected CLASS.ATTR".into()))?;
                let c = self.session.database().class_by_name(class)?;
                let a = self.session.database().attr_by_name(c, attr)?;
                self.session.apply(Command::PickAttr(a))?;
            }
            "associations" => self.session.apply(Command::ViewAssociations)?,
            "contents" => self.session.apply(Command::ViewContents)?,
            "pop" => self.session.apply(Command::Pop)?,
            "rename" => {
                self.session
                    .apply(Command::Rename(one(&parts, "rename NAME")?))?;
            }
            "subclass" => {
                self.session
                    .apply(Command::CreateSubclass(one(&parts, "subclass NAME")?))?;
            }
            "attribute" => {
                let (name, multi) = two(&parts, "attribute NAME single|multi")?;
                let multiplicity = match multi.as_str() {
                    "single" => Multiplicity::Single,
                    "multi" => Multiplicity::Multi,
                    other => return Err(ReplError::Parse(format!("'{other}'? single or multi"))),
                };
                self.session
                    .apply(Command::CreateAttribute { name, multiplicity })?;
            }
            "valueclass" => {
                let name = one(&parts, "valueclass NAME")?;
                let node = self.session.database().node_by_name(&name)?;
                self.session.apply(Command::SpecifyValueClass(node))?;
            }
            "grouping" => {
                let (name, attr_name) = two(&parts, "grouping NAME ATTR")?;
                let class = match self.session.selection() {
                    Some(isis_session::Selection::Class(c)) => c,
                    _ => return Err(ReplError::Parse("pick a class first".into())),
                };
                let attr = self.session.database().attr_by_name(class, &attr_name)?;
                self.session.apply(Command::CreateGrouping { name, attr })?;
            }
            "delete" => self.session.apply(Command::Delete)?,
            "predicate" => self.session.apply(Command::DisplayPredicate)?,
            "select" | "toggle" => {
                let name = one(&parts, "select NAME")?;
                let e = self.resolve(&name, Self::page_class)?;
                self.session.apply(Command::SelectEntity(e))?;
            }
            "follow" => {
                let attr_name = one(&parts, "follow ATTR")?;
                let class = self.page_class()?;
                let attr = self.session.database().attr_by_name(class, &attr_name)?;
                self.session.apply(Command::Follow(attr))?;
            }
            "followg" => self.session.apply(Command::FollowGrouping)?,
            "assign" => {
                let (attr_name, value) = two(&parts, "assign ATTR VALUE")?;
                let class = self.page_class()?;
                let attr = self.session.database().attr_by_name(class, &attr_name)?;
                let vc = self.session.database().attr(attr)?.value_class;
                let value = self.resolve(&value, |r| match vc {
                    isis_core::ValueClass::Class(c) => Ok(c),
                    isis_core::ValueClass::Grouping(g) => {
                        Ok(r.session.database().grouping_index_class(g)?)
                    }
                })?;
                self.session
                    .apply(Command::ReassignAttrValue { attr, value })?;
            }
            "newentity" => {
                self.session
                    .apply(Command::CreateEntity(one(&parts, "newentity NAME")?))?;
            }
            "makesub" => {
                self.session
                    .apply(Command::MakeSubclass(one(&parts, "makesub NAME")?))?;
            }
            "move" | "pan" => {
                let (dx, dy) = two(&parts, &format!("{verb} DX DY"))?;
                let int = |v: String| {
                    v.parse::<i32>()
                        .map_err(|_| ReplError::Parse(format!("{verb} takes integers")))
                };
                let (dx, dy) = (int(dx)?, int(dy)?);
                let gesture = if verb == "move" {
                    Command::Move
                } else {
                    Command::Pan
                };
                self.session.apply(gesture(dx, dy))?;
            }
            "scroll" => {
                let n: i32 = one(&parts, "scroll N")?
                    .parse()
                    .map_err(|_| ReplError::Parse("scroll takes an integer".into()))?;
                self.session.apply(Command::Scroll(n))?;
            }
            "define" => self.session.apply(Command::DefineMembership)?,
            "derive" => self.session.apply(Command::DefineDerivation)?,
            "constraint" => {
                let (name, kind) = two(&parts, "constraint NAME forall|forbidden")?;
                let kind = match kind.as_str() {
                    "forall" => ConstraintKind::ForAll,
                    "forbidden" => ConstraintKind::Forbidden,
                    other => {
                        return Err(ReplError::Parse(format!("'{other}'? forall or forbidden")))
                    }
                };
                self.session
                    .apply(Command::DefineConstraint { name, kind })?;
            }
            "atom" => self.session.apply(Command::WsNewAtom)?,
            "edit" => {
                let tag = one(&parts, "edit TAG")?;
                let c = tag
                    .chars()
                    .next()
                    .filter(|c| c.is_ascii_uppercase())
                    .ok_or_else(|| ReplError::Parse("tags are A, B, C, …".into()))?;
                self.session.apply(Command::WsEdit(c))?;
            }
            "push" => {
                let attr_name = one(&parts, "push ATTR")?;
                let attr = self.resolve_lhs_attr(&attr_name)?;
                self.session.apply(Command::WsLhsPush(attr))?;
            }
            "poplhs" => self.session.apply(Command::WsLhsPop)?,
            "op" => {
                let sym = one(&parts, "op OPERATOR")?;
                self.session
                    .apply(Command::WsOperator(parse_operator(&sym)?))?;
            }
            "rhsmap" | "rhssrc" | "hand" => {
                let start = match verb.as_str() {
                    "rhssrc" | "hand" => self.ws_source_class()?,
                    _ => self.ws_candidate_class()?,
                };
                let mut attrs = Vec::new();
                let mut cur = start;
                for name in &parts {
                    let a = self.session.database().attr_by_name(cur, name)?;
                    cur = match self.session.database().attr(a)?.value_class {
                        isis_core::ValueClass::Class(c) => c,
                        isis_core::ValueClass::Grouping(g) => {
                            self.session.database().grouping(g)?.parent
                        }
                    };
                    attrs.push(a);
                }
                self.session.apply(match verb.as_str() {
                    "rhsmap" => Command::WsRhsSelfMap(attrs),
                    "rhssrc" => Command::WsRhsSourceMap(attrs),
                    _ => Command::WsHandAssign(attrs),
                })?;
            }
            "const" => {
                let class = match parts.first() {
                    Some(name) => Some(self.session.database().class_by_name(name)?),
                    None => None,
                };
                self.session.apply(Command::WsRhsConstant(class))?;
            }
            "done" => self.session.apply(Command::ConstantDone)?,
            "clause" => {
                let n: usize = one(&parts, "clause N")?
                    .parse()
                    .map_err(|_| ReplError::Parse("clause takes a number (1-based)".into()))?;
                if n == 0 {
                    return Err(ReplError::Parse("clauses are numbered from 1".into()));
                }
                self.session.apply(Command::WsPlaceInClause(n - 1))?;
            }
            "switch" => self.session.apply(Command::WsSwitchAndOr)?,
            "commit" => self.session.apply(Command::WsCommit)?,
            "checks" => self.session.apply(Command::CheckConstraints)?,
            "stats" => {
                let attrs = match self.session.index_service() {
                    Some(svc) => {
                        let names: Vec<String> = svc
                            .indexed_attrs()
                            .filter_map(|a| {
                                self.session.database().attr(a).ok().map(|r| r.name.clone())
                            })
                            .collect();
                        if names.is_empty() {
                            "(none)".to_string()
                        } else {
                            names.join(", ")
                        }
                    }
                    None => "no index service yet — run 'refresh' to build it".to_string(),
                };
                let snap = self.metrics_snapshot();
                let count = |name: &str| snapshot_counter(&snap, name);
                let mut out = format!(
                    "indexed attrs:  {attrs}\n\
                     queries:        {} ({} index probes, {} grouping scans, {} seq scans, \
                     {} misses)\n\
                     maintenance:    {} posting patches, {} rebuilds",
                    count("query.service.queries"),
                    count("query.service.index_probes"),
                    count("query.service.grouping_scans"),
                    count("query.service.seq_scans"),
                    count("query.service.index_misses"),
                    count("query.index.patches"),
                    count("query.index.rebuilds"),
                );
                // With observability live, add the process-wide latency
                // histogram once it holds a query (`metrics reset` leaves
                // it registered at zero).
                let evaluate = match snap.get("query.service.evaluate") {
                    Some(isis_obs::MetricValue::Histogram(h)) if h.count > 0 => Some(h),
                    _ => None,
                };
                if let (true, Some(h)) = (isis_obs::global().enabled(), evaluate) {
                    out.push_str(&format!(
                        "\nevaluate:       p50<={}ns p95<={}ns p99<={}ns \
                         over {} queries (process-wide; see 'metrics')",
                        h.p50, h.p95, h.p99, h.count
                    ));
                }
                return Ok(out);
            }
            "metrics" => {
                let obs = isis_obs::global();
                return Ok(match parts.first().map(String::as_str) {
                    None => {
                        if obs.enabled() {
                            self.metrics_snapshot().to_text()
                        } else {
                            "observability is off — 'metrics on' (or ISIS_OBS=1) enables it"
                                .to_string()
                        }
                    }
                    Some("json") => obs.report_with(self.metrics_snapshot()).pretty(),
                    Some("reset") => {
                        obs.registry().reset();
                        self.session.query_scope().reset();
                        obs.journal().clear();
                        "metrics and journal reset".to_string()
                    }
                    Some("on") => {
                        obs.set_enabled(true);
                        "metrics collection on".to_string()
                    }
                    Some("off") => {
                        obs.set_tracing(false);
                        obs.set_enabled(false);
                        "metrics collection off".to_string()
                    }
                    Some(other) => {
                        return Err(ReplError::Parse(format!(
                            "'{other}'? metrics [json|reset|on|off]"
                        )))
                    }
                });
            }
            "trace" => {
                let obs = isis_obs::global();
                return Ok(match parts.first().map(String::as_str) {
                    Some("on") => {
                        obs.set_tracing(true);
                        "tracing on (metrics collection too)".to_string()
                    }
                    Some("off") => {
                        obs.set_tracing(false);
                        "tracing off".to_string()
                    }
                    Some("dump") => obs.journal().snapshot().to_text(),
                    Some("json") => obs.journal().snapshot().to_json().pretty(),
                    _ => return Err(ReplError::Parse("usage: trace on|off|dump|json".into())),
                });
            }
            "explain" => {
                let usage = "usage: explain NAME [json]";
                let name = parts
                    .first()
                    .cloned()
                    .ok_or_else(|| ReplError::Parse(usage.into()))?;
                let as_json = match parts.get(1).map(String::as_str) {
                    None => false,
                    Some("json") if parts.len() == 2 => true,
                    _ => return Err(ReplError::Parse(usage.into())),
                };
                let (parent, pred) = {
                    let db = self.session.database();
                    let class = db.class_by_name(&name)?;
                    let rec = db.class(class)?;
                    let parent = rec
                        .parent
                        .ok_or_else(|| ReplError::Parse(format!("'{name}' has no parent class")))?;
                    let pred = rec
                        .kind
                        .predicate()
                        .ok_or_else(|| {
                            ReplError::Parse(format!(
                                "'{name}' has no membership predicate — explain takes a \
                                 derived subclass"
                            ))
                        })?
                        .clone();
                    (parent, pred)
                };
                let (out, record) = self.session.explain(parent, &pred)?;
                return Ok(if as_json {
                    record.to_json().pretty()
                } else {
                    format!("{}\n{} members", record.to_text(), out.len())
                });
            }
            "slowlog" => {
                let obs = isis_obs::global();
                let threshold_ms = obs.slow_threshold_ns() as f64 / 1e6;
                let snap = obs.journal().snapshot();
                return Ok(match parts.first().map(String::as_str) {
                    None => {
                        let slow: Vec<_> = snap.events_of(SLOW_EVENT).collect();
                        if slow.is_empty() {
                            format!("slow-query log empty (threshold {threshold_ms}ms)")
                        } else {
                            let mut out = format!(
                                "{} slow queries (threshold {threshold_ms}ms, {} journal \
                                 record(s) evicted):",
                                slow.len(),
                                snap.dropped,
                            );
                            for (r, data) in slow {
                                out.push_str(&format!("\n#{} {}", r.seq, slow_summary(data)));
                            }
                            out
                        }
                    }
                    Some("json") => snap
                        .filter(|r| matches!(r.event(), Some((SLOW_EVENT, _))))
                        .to_json()
                        .pretty(),
                    Some("threshold") => {
                        let ms: u64 =
                            parts.get(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                                ReplError::Parse("usage: slowlog threshold MILLIS".into())
                            })?;
                        obs.set_slow_threshold_ns(ms.saturating_mul(1_000_000));
                        if ms == 0 {
                            "slow-query capture off".to_string()
                        } else {
                            format!("slow-query threshold set to {ms}ms")
                        }
                    }
                    Some(other) => {
                        return Err(ReplError::Parse(format!(
                            "'{other}'? slowlog [json|threshold MILLIS]"
                        )))
                    }
                });
            }
            "health" => {
                let as_json = match parts.first().map(String::as_str) {
                    None => false,
                    Some("json") if parts.len() == 1 => true,
                    _ => return Err(ReplError::Parse("usage: health [json]".into())),
                };
                return Ok(self.health_report(as_json));
            }
            "flight" => {
                let events = isis_obs::global()
                    .journal()
                    .snapshot()
                    .filter(|r| r.event().is_some());
                return Ok(match parts.first().map(String::as_str) {
                    Some("dump") => events.to_text(),
                    Some("json") => events.to_json().pretty(),
                    Some("export") => {
                        let path = parts
                            .get(1)
                            .map(String::as_str)
                            .unwrap_or("out/obs/flight.jsonl");
                        if let Some(dir) = std::path::Path::new(path).parent() {
                            std::fs::create_dir_all(dir).map_err(|e| {
                                ReplError::Parse(format!("cannot create {}: {e}", dir.display()))
                            })?;
                        }
                        std::fs::write(path, events.to_jsonl())
                            .map_err(|e| ReplError::Parse(format!("cannot write {path}: {e}")))?;
                        format!(
                            "{} events written to {path} ({} dropped by the journal)",
                            events.records.len(),
                            events.dropped
                        )
                    }
                    _ => {
                        return Err(ReplError::Parse(
                            "usage: flight dump|json|export [PATH]".into(),
                        ))
                    }
                });
            }
            "refresh" => match parts.first().map(String::as_str) {
                None => self.session.apply(Command::Refresh)?,
                Some("manual") => self
                    .session
                    .apply(Command::SetRefreshPolicy(RefreshPolicy::Manual))?,
                Some("oncommit") => self
                    .session
                    .apply(Command::SetRefreshPolicy(RefreshPolicy::OnCommit))?,
                Some("immediate") => self
                    .session
                    .apply(Command::SetRefreshPolicy(RefreshPolicy::Immediate))?,
                Some(other) => {
                    return Err(ReplError::Parse(format!(
                        "'{other}'? manual, oncommit, or immediate"
                    )))
                }
            },
            "load" => self
                .session
                .apply(Command::Load(one(&parts, "load NAME")?))?,
            "save" => self
                .session
                .apply(Command::Save(one(&parts, "save NAME")?))?,
            "doctor" => self
                .session
                .apply(Command::Doctor(parts.first().cloned()))?,
            "fsck" => self.session.apply(Command::Fsck(parts.first().cloned()))?,
            "publish" => self.session.apply(Command::Commit)?,
            "pull" => self.session.apply(Command::Pull)?,
            "undo" => self.session.apply(Command::Undo)?,
            "redo" => self.session.apply(Command::Redo)?,
            "stop" | "quit" | "exit" => self.session.apply(Command::Stop)?,
            other => {
                return Err(ReplError::Parse(format!(
                    "unknown command '{other}' (try help)"
                )))
            }
        }
        // Report whatever the command logged.
        Ok(self.session.messages()[before..].join("\n"))
    }

    /// What `metrics` lists and `metrics reset` zeroes: the global
    /// registry and the session's query scope, in one name order.
    fn metrics_snapshot(&self) -> isis_obs::MetricsSnapshot {
        let mut snap = isis_obs::global().registry().snapshot();
        snap.entries
            .extend(self.session.query_scope().snapshot().entries);
        snap.entries.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }

    /// One-screen triage summary: program-cache hit rate, query access-path
    /// mix, MVCC commit/conflict rates, replica lag, slow-query highlights,
    /// and the journal's fill. The session's query counters are always on;
    /// the process-wide rates need `ISIS_OBS=1` or `metrics on`.
    fn health_report(&self, as_json: bool) -> String {
        let obs = isis_obs::global();
        let snap = self.metrics_snapshot();
        let counter = |name: &str| snapshot_counter(&snap, name);
        let gauge = |name: &str| match snap.get(name) {
            Some(isis_obs::MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        };
        let pct = |part: u64, whole: u64| -> f64 {
            if whole == 0 {
                0.0
            } else {
                part as f64 * 100.0 / whole as f64
            }
        };

        let (hits, misses, invalidations, evictions) = (
            counter("query.program.cache_hits"),
            counter("query.program.cache_misses"),
            counter("query.program.cache_invalidations"),
            counter("query.program.cache_evictions"),
        );
        let queries = counter("query.service.queries");
        let seq_scans = counter("query.service.seq_scans");
        let probes = counter("query.service.index_probes");
        let grouping_scans = counter("query.service.grouping_scans");
        let unassisted = counter("session.query.unassisted");
        let journal = obs.journal().snapshot();
        let slow: Vec<&isis_obs::Json> = journal.events_of(SLOW_EVENT).map(|(_, d)| d).collect();
        let worst = slow
            .iter()
            .copied()
            .max_by(|a, b| slow_total_ns(a).total_cmp(&slow_total_ns(b)));
        let commits = counter("core.mvcc.commits");
        let conflicts = counter("core.mvcc.conflicts");
        // The one commit-retry loop is the session's `transact_with_retry`.
        let retries = counter("session.commit.retries");
        let lag = gauge("store.replication.lag");

        if as_json {
            return isis_obs::Json::obj([
                ("schema", isis_obs::Json::from("isis-repl/health/2")),
                ("obs_enabled", isis_obs::Json::from(obs.enabled())),
                (
                    "program_cache",
                    isis_obs::Json::obj([
                        ("hits", isis_obs::Json::from(hits)),
                        ("misses", isis_obs::Json::from(misses)),
                        ("invalidations", isis_obs::Json::from(invalidations)),
                        ("evictions", isis_obs::Json::from(evictions)),
                    ]),
                ),
                (
                    "queries",
                    isis_obs::Json::obj([
                        ("total", isis_obs::Json::from(queries)),
                        ("index_probes", isis_obs::Json::from(probes)),
                        ("grouping_scans", isis_obs::Json::from(grouping_scans)),
                        ("seq_scans", isis_obs::Json::from(seq_scans)),
                        ("unassisted", isis_obs::Json::from(unassisted)),
                    ]),
                ),
                (
                    "commits",
                    isis_obs::Json::obj([
                        ("total", isis_obs::Json::from(commits)),
                        (
                            "fast",
                            isis_obs::Json::from(counter("core.mvcc.fast_commits")),
                        ),
                        (
                            "rebased",
                            isis_obs::Json::from(counter("core.mvcc.rebased_commits")),
                        ),
                        ("conflicts", isis_obs::Json::from(conflicts)),
                        ("retries", isis_obs::Json::from(retries)),
                    ]),
                ),
                (
                    "replication",
                    match lag {
                        Some(l) => isis_obs::Json::obj([
                            ("lag", isis_obs::Json::from(l)),
                            (
                                "applied_epoch",
                                gauge("store.replication.applied_epoch")
                                    .map_or(isis_obs::Json::Null, isis_obs::Json::from),
                            ),
                        ]),
                        None => isis_obs::Json::Null,
                    },
                ),
                (
                    "slowlog",
                    isis_obs::Json::obj([
                        ("captured", isis_obs::Json::from(slow.len())),
                        (
                            "worst_ns",
                            worst.map_or(isis_obs::Json::Null, |d| slow_total_ns(d).into()),
                        ),
                    ]),
                ),
                (
                    "journal",
                    isis_obs::Json::obj([
                        ("records", isis_obs::Json::from(journal.records.len())),
                        ("events", isis_obs::Json::from(journal.event_count())),
                        ("spans", isis_obs::Json::from(journal.span_count())),
                        ("dropped", isis_obs::Json::from(journal.dropped)),
                        ("capacity", isis_obs::Json::from(journal.capacity)),
                    ]),
                ),
            ])
            .pretty();
        }

        let mut out = format!(
            "health — observability {}\n",
            if obs.enabled() { "on" } else { "off" }
        );
        out.push_str(&format!(
            "program cache:  {:.1}% hit ({hits} hits, {misses} misses, {invalidations} \
             invalidations, {evictions} evictions){}\n",
            pct(hits, hits + misses + invalidations),
            match self.session.index_service() {
                Some(_) => "",
                None => "; no index service yet (run 'refresh')",
            }
        ));
        // Only per-query shares are percentages: a query is pruned or
        // seq-scanned, while one query can make several index probes or
        // grouping scans (one per pruning atom), or none (a reused plan).
        out.push_str(&format!(
            "queries:        {queries} ({:.0}% pruned, {:.0}% seq-scanned; {probes} index \
             probes, {grouping_scans} grouping scans, {unassisted} unassisted)\n",
            pct(queries.saturating_sub(seq_scans), queries),
            pct(seq_scans, queries),
        ));
        out.push_str(&format!(
            "commits:        {} ({} fast, {} rebased), {} conflicts ({:.1}%), {} retries\n",
            commits,
            counter("core.mvcc.fast_commits"),
            counter("core.mvcc.rebased_commits"),
            conflicts,
            pct(conflicts, commits + conflicts),
            retries,
        ));
        match lag {
            Some(l) => out.push_str(&format!(
                "replication:    lag {l}{}\n",
                gauge("store.replication.applied_epoch")
                    .map(|e| format!(" (applied epoch {e})"))
                    .unwrap_or_default()
            )),
            None => out.push_str("replication:    no replica synced in this process\n"),
        }
        match worst {
            Some(d) => out.push_str(&format!(
                "slow queries:   {} captured, worst {}\n",
                slow.len(),
                slow_summary(d)
            )),
            None => out.push_str("slow queries:   none captured\n"),
        }
        out.push_str(&format!(
            "journal:        {} records ({} events, {} spans), {} dropped (capacity {})",
            journal.records.len(),
            journal.event_count(),
            journal.span_count(),
            journal.dropped,
            journal.capacity
        ));
        out
    }

    /// The class behind the page on screen (data level or constant pick).
    fn page_class(&self) -> Result<isis_core::ClassId, ReplError> {
        let page = self
            .session
            .page()
            .ok_or_else(|| ReplError::Parse("not at the data level".into()))?;
        match page.node {
            SchemaNode::Class(c) => Ok(c),
            SchemaNode::Grouping(g) => Ok(self.session.database().grouping_index_class(g)?),
        }
    }

    fn ws_candidate_class(&self) -> Result<isis_core::ClassId, ReplError> {
        self.session
            .worksheet()
            .map(|w| w.candidate_class)
            .ok_or_else(|| ReplError::Parse("no worksheet open".into()))
    }

    fn ws_source_class(&self) -> Result<isis_core::ClassId, ReplError> {
        match self.session.worksheet() {
            Some(w) => match w.source_class {
                Some(c) => Ok(c),
                // The hand/source commands on a membership/constraint
                // worksheet fall back to the candidate class.
                None => Ok(w.candidate_class),
            },
            None => Err(ReplError::Parse("no worksheet open".into())),
        }
    }

    /// The class the worksheet's editing atom's lhs currently terminates in
    /// (for `push`), or the page class outside the worksheet.
    fn resolve_lhs_attr(&self, name: &str) -> Result<isis_core::AttrId, ReplError> {
        let db = self.session.database();
        let ws = self
            .session
            .worksheet()
            .ok_or_else(|| ReplError::Parse("no worksheet open".into()))?;
        let lhs = ws
            .editing
            .and_then(|i| ws.atoms.get(i))
            .map(|a| a.lhs.clone())
            .unwrap_or_default();
        let terminal = db.trace_map(ws.candidate_class, &lhs)?.terminal();
        Ok(db.attr_by_name(terminal, name)?)
    }

    /// Resolves `token` to an entity: a literal, interned on first use, or
    /// by name a member of the class `class` picks (select/toggle: the
    /// page's; assign: the attribute's value class).
    fn resolve(
        &mut self,
        token: &str,
        class: impl FnOnce(&Self) -> Result<isis_core::ClassId, ReplError>,
    ) -> Result<EntityId, ReplError> {
        if let Some(lit) = parse_literal(token) {
            if let Some(id) = self.session.database().find_literal(lit.clone()) {
                return Ok(id);
            }
            return Ok(self.session.transact(|db| db.intern(lit))?);
        }
        let class = class(self)?;
        let db = self.session.database();
        db.entity_by_name(db.class(class)?.base, token)
            .map_err(|_| ReplError::Unknown(token.into()))
    }
}

/// The counter `name` in `snap` (0 when it was never created).
fn snapshot_counter(snap: &isis_obs::MetricsSnapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(isis_obs::MetricValue::Counter(c)) => *c,
        _ => 0,
    }
}

/// The journal event a slow query becomes; its payload is the
/// evaluation's explain record (`isis-query/explain/2`).
const SLOW_EVENT: &str = "query.service.slow";

/// A slow-query event's measured wall clock, from its explain record.
fn slow_total_ns(data: &isis_obs::Json) -> f64 {
    data.get("timings")
        .and_then(|t| t.get("total_ns"))
        .and_then(isis_obs::Json::as_f64)
        .unwrap_or(0.0)
}

/// One line describing a slow-query event's explain record.
fn slow_summary(data: &isis_obs::Json) -> String {
    let text = |key: &str| {
        data.get(key)
            .and_then(isis_obs::Json::as_str)
            .unwrap_or("?")
    };
    let num = |key: &str| {
        data.get(key)
            .and_then(isis_obs::Json::as_f64)
            .unwrap_or(0.0)
    };
    format!(
        "{:.2}ms  {} where {}  (cache {}, {} scanned, {} returned)",
        slow_total_ns(data) / 1e6,
        text("parent"),
        text("predicate"),
        text("cache"),
        num("scanned"),
        num("returned"),
    )
}

/// Splits a line into tokens, honouring double quotes.
fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in line.chars() {
        match ch {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn one(parts: &[String], usage: &str) -> Result<String, ReplError> {
    match parts {
        [a] => Ok(a.clone()),
        _ => Err(ReplError::Parse(format!("usage: {usage}"))),
    }
}

fn two(parts: &[String], usage: &str) -> Result<(String, String), ReplError> {
    match parts {
        [a, b] => Ok((a.clone(), b.clone())),
        _ => Err(ReplError::Parse(format!("usage: {usage}"))),
    }
}

/// Parses `42`, `2.5`, `yes`, `no`; quoted strings were already unquoted by
/// the tokenizer, so bare non-numeric tokens are *not* literals (they are
/// names) — use quotes to force a string literal.
fn parse_literal(token: &str) -> Option<Literal> {
    match token {
        "yes" | "YES" => return Some(Literal::Bool(true)),
        "no" | "NO" => return Some(Literal::Bool(false)),
        _ => {}
    }
    if let Ok(i) = token.parse::<i64>() {
        return Some(Literal::Int(i));
    }
    if token.contains('.') {
        if let Ok(r) = token.parse::<f64>() {
            return Some(Literal::Real(r));
        }
    }
    None
}

/// Parses an operator symbol, with a `!` prefix for negation.
pub fn parse_operator(sym: &str) -> Result<Operator, ReplError> {
    let (negated, body) = match sym.strip_prefix('!') {
        Some(rest) => (true, rest),
        None => (false, sym),
    };
    let op = match body {
        "=" => CompareOp::SetEq,
        "~" => CompareOp::Match,
        "<=s" | "⊆" => CompareOp::Subset,
        ">=s" | "⊇" => CompareOp::Superset,
        "<s" | "⊂" => CompareOp::ProperSubset,
        ">s" | "⊃" => CompareOp::ProperSuperset,
        "<" => CompareOp::Lt,
        "<=" | "≤" => CompareOp::Le,
        ">" => CompareOp::Gt,
        ">=" | "≥" => CompareOp::Ge,
        other => return Err(ReplError::Parse(format!("unknown operator '{other}'"))),
    };
    Ok(Operator { op, negated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_session::Mode;

    fn repl() -> Repl {
        let im = isis_sample::instrumental_music().unwrap();
        Repl::new(Session::builder(im.db).build())
    }

    /// Exclusive use of the process-global observability switches for one
    /// test. Tests that flip them hold this guard, so they never see each
    /// other's setting; dropping it (also on panic) restores the switches
    /// and the slow-query threshold, then releases the lock.
    struct ObsSwitch {
        enabled: bool,
        tracing: bool,
        slow_threshold_ns: u64,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    fn obs_switch() -> ObsSwitch {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let obs = isis_obs::global();
        ObsSwitch {
            enabled: obs.enabled(),
            tracing: obs.tracing(),
            slow_threshold_ns: obs.slow_threshold_ns(),
            _lock: lock,
        }
    }

    impl Drop for ObsSwitch {
        fn drop(&mut self) {
            let obs = isis_obs::global();
            obs.set_tracing(self.tracing);
            obs.set_enabled(self.enabled);
            obs.set_slow_threshold_ns(self.slow_threshold_ns);
        }
    }

    #[test]
    fn publish_and_pull_share_one_database() {
        let im = isis_sample::instrumental_music().unwrap();
        let shared = isis_session::SharedDatabase::new(im.db);
        let mut writer = Repl::new(Session::open(&shared).build());
        let mut reader = Repl::new(Session::open(&shared).build());

        for line in ["pick musicians", "contents", "newentity Zoe"] {
            writer.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let out = writer.exec("publish").unwrap();
        assert!(out.contains("committed"), "{out}");

        // The reader's pinned snapshot is stable until it pulls.
        let musicians = reader
            .session
            .database()
            .class_by_name("musicians")
            .unwrap();
        assert!(reader
            .session
            .database()
            .entity_by_name(musicians, "Zoe")
            .is_err());
        let out = reader.exec("pull").unwrap();
        assert!(out.contains("pulled shared head"), "{out}");
        assert!(reader
            .session
            .database()
            .entity_by_name(musicians, "Zoe")
            .is_ok());
        assert!(reader
            .exec("pull")
            .unwrap()
            .contains("already at the shared head"));
        assert!(writer
            .exec("publish")
            .unwrap()
            .contains("nothing to commit"));
    }

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(tokenize("a b c"), vec!["a", "b", "c"]);
        assert_eq!(
            tokenize("select \"Edith Smith\""),
            vec!["select", "Edith Smith"]
        );
        assert_eq!(tokenize("  "), Vec::<String>::new());
    }

    #[test]
    fn literals() {
        assert_eq!(parse_literal("42"), Some(Literal::Int(42)));
        assert_eq!(parse_literal("-3"), Some(Literal::Int(-3)));
        assert_eq!(parse_literal("2.5"), Some(Literal::Real(2.5)));
        assert_eq!(parse_literal("yes"), Some(Literal::Bool(true)));
        assert_eq!(parse_literal("no"), Some(Literal::Bool(false)));
        assert_eq!(parse_literal("Edith"), None);
    }

    #[test]
    fn operators() {
        assert_eq!(parse_operator("=").unwrap().op, CompareOp::SetEq);
        assert_eq!(parse_operator(">=s").unwrap().op, CompareOp::Superset);
        assert!(parse_operator("!~").unwrap().negated);
        assert!(parse_operator("??").is_err());
    }

    #[test]
    fn browse_via_text() {
        let mut r = repl();
        assert!(r.exec("pick musicians").unwrap().contains("musicians"));
        r.exec("contents").unwrap();
        r.exec("select Edith").unwrap();
        r.exec("follow plays").unwrap();
        let shown = r.exec("show").unwrap();
        assert!(shown.contains("*viola*"));
        assert!(shown.contains("*violin*"));
        r.exec("pop").unwrap();
        r.exec("pop").unwrap();
        assert_eq!(*r.session.mode(), Mode::Forest);
    }

    #[test]
    fn the_whole_quartets_query_via_text() {
        let mut r = repl();
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 2",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "atom",
            "clause 1",
            "push members",
            "push plays",
            "op >=s",
            "const",
            "toggle piano",
            "done",
            "switch",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let out = r.exec("commit").unwrap();
        assert!(out.contains("quartets committed: 1 members"), "{out}");
        let db = r.session.database();
        let q = db.class_by_name("quartets").unwrap();
        assert_eq!(db.members(q).unwrap().len(), 1);
    }

    #[test]
    fn stats_reports_the_shared_index_service() {
        // Its query lands in the process-global slow-query journal that
        // the slowlog tests count: run it under the same lock.
        let _obs = obs_switch();
        let mut r = repl();
        assert!(r.exec("stats").unwrap().contains("no index service"));
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 1",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "commit",
            "refresh",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let out = r.exec("stats").unwrap();
        assert!(out.contains("indexed attrs"), "{out}");
        assert!(out.contains("size"), "{out}");
        // A query routed through the session bumps the planner counters.
        let db = r.session.database();
        let groups = db.class_by_name("music_groups").unwrap();
        let quartets = db.class_by_name("quartets").unwrap();
        let pred = db
            .class(quartets)
            .unwrap()
            .kind
            .predicate()
            .unwrap()
            .clone();
        r.session.query(groups, &pred).unwrap();
        let out = r.exec("stats").unwrap();
        assert!(out.contains("1 index probes"), "{out}");
    }

    #[test]
    fn schema_building_and_errors_via_text() {
        let mut r = repl();
        r.exec("pick musicians").unwrap();
        r.exec("subclass stars").unwrap();
        r.exec("pick stars").unwrap();
        r.exec("attribute fee single").unwrap();
        r.exec("valueclass INTEGERS").unwrap();
        let db = r.session.database();
        let stars = db.class_by_name("stars").unwrap();
        assert!(db.attr_by_name(stars, "fee").is_ok());
        // Errors are reported, not panicked.
        assert!(r.exec("frobnicate").is_err());
        assert!(r.exec("attribute onlyname").is_err());
        assert!(r.exec("pick nonexistent").is_err());
        assert!(r.exec("scroll xyz").is_err());
        // Empty/comment lines are no-ops.
        assert_eq!(r.exec("").unwrap(), "");
        assert_eq!(r.exec("# a comment").unwrap(), "");
        // help mentions the worksheet.
        assert!(r.exec("help").unwrap().contains("worksheet"));
    }

    #[test]
    fn assign_with_value_resolution() {
        let mut r = repl();
        r.exec("pick instruments").unwrap();
        r.exec("contents").unwrap();
        r.exec("select flute").unwrap();
        r.exec("select oboe").unwrap();
        let out = r.exec("assign family woodwind").unwrap();
        assert!(out.contains("woodwind"));
        // Boolean literal.
        r.exec("assign popular yes").unwrap();
        let db = r.session.database();
        let im = isis_sample::instrumental_music().unwrap();
        let flute = db.entity_by_name(im.instruments, "flute").unwrap();
        let fam = db.attr_value_set(flute, im.family).unwrap();
        assert_eq!(
            db.entity_name(fam.as_singleton().unwrap()).unwrap(),
            "woodwind"
        );
    }

    #[test]
    fn constraint_via_text() {
        let mut r = repl();
        r.exec("pick musicians").unwrap();
        r.exec("constraint union_only forall").unwrap();
        r.exec("atom").unwrap();
        r.exec("clause 1").unwrap();
        r.exec("push union").unwrap();
        r.exec("op ~").unwrap();
        r.exec("const").unwrap();
        r.exec("toggle yes").unwrap();
        r.exec("done").unwrap();
        let out = r.exec("commit").unwrap();
        assert!(out.contains("union_only"), "{out}");
        let out = r.exec("checks").unwrap();
        // Several musicians are not in the union: violations reported.
        assert!(out.contains("violated"), "{out}");
    }

    #[test]
    fn refresh_command_and_policy_via_text() {
        let mut r = repl();
        // Build the quartets class, then edit data with the policy manual.
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 1",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "commit",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let db = r.session.database();
        let q = db.class_by_name("quartets").unwrap();
        let before = db.members(q).unwrap().len();
        r.exec("pick music_groups").unwrap();
        r.exec("contents").unwrap();
        r.exec("select \"Trio Grande\"").unwrap();
        r.exec("assign size 4").unwrap();
        // Stale until an explicit refresh under the manual policy.
        assert_eq!(r.session.database().members(q).unwrap().len(), before);
        let out = r.exec("refresh").unwrap();
        assert!(out.contains("re-evaluated"), "{out}");
        assert_eq!(r.session.database().members(q).unwrap().len(), before + 1);
        // Policy switching parses; junk does not.
        assert!(r.exec("refresh immediate").unwrap().contains("immediate"));
        assert_eq!(
            r.session.refresh_policy(),
            isis_session::RefreshPolicy::Immediate
        );
        assert!(r.exec("refresh sometimes").is_err());
    }

    #[test]
    fn metrics_and_trace_cover_query_refresh_and_recovery() {
        let _obs = obs_switch();
        let im = isis_sample::instrumental_music().unwrap();
        let root = std::env::temp_dir().join(format!("isis_obs_repl_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = isis_store::StoreDir::open(&root).unwrap();
        let mut r = Repl::new(Session::builder(im.db).store(store).build());
        assert!(r.exec("metrics").unwrap().contains("observability is off"));
        r.exec("trace on").unwrap();

        // A derived class, an incremental refresh after a point update, and
        // a save/load pair (snapshot install + recovery).
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 1",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "commit",
            "refresh",
            "pick music_groups",
            "contents",
            "select \"Trio Grande\"",
            "assign size 4",
            "refresh",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // One query through the shared service (in sync after the refresh).
        let db = r.session.database();
        let groups = db.class_by_name("music_groups").unwrap();
        let quartets = db.class_by_name("quartets").unwrap();
        let pred = db
            .class(quartets)
            .unwrap()
            .kind
            .predicate()
            .unwrap()
            .clone();
        r.session.query(groups, &pred).unwrap();
        // The extended stats line appears while observability is live.
        assert!(r.exec("stats").unwrap().contains("evaluate:"));
        // Snapshot install + recovery.
        r.exec("save party").unwrap();
        r.exec("load party").unwrap();

        let metrics = r.exec("metrics").unwrap();
        for name in [
            "query.service.queries",
            "session.refresh.rounds",
            "store.recovery.runs",
            "store.snapshot.save",
            "session.commands",
        ] {
            assert!(metrics.contains(name), "metrics missing {name}:\n{metrics}");
        }
        let dump = r.exec("trace dump").unwrap();
        for name in [
            "session.command.refresh",
            "session.refresh.settle",
            "store.recovery.recover",
            "query.service.evaluate",
        ] {
            assert!(dump.contains(name), "trace dump missing {name}:\n{dump}");
        }
        // Both JSON exports parse through the vendored codec.
        let report = r.exec("metrics json").unwrap();
        let parsed = isis_obs::Json::parse(&report).expect("metrics json parses");
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some("isis-obs/2"));
        let trace_json = r.exec("trace json").unwrap();
        assert!(isis_obs::Json::parse(&trace_json).is_ok());

        r.exec("metrics off").unwrap();
        r.exec("metrics reset").unwrap();
        assert!(r.exec("trace nonsense").is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `metrics reset` zeroes the process-wide evaluate histogram but keeps
    /// it registered; `stats` leaves the empty histogram out.
    #[test]
    fn stats_after_metrics_reset_omits_the_empty_evaluate_histogram() {
        let _obs = obs_switch();
        let mut r = repl();
        r.exec("metrics on").unwrap();
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 1",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "commit",
            "refresh",
            "explain quartets",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let stats = r.exec("stats").unwrap();
        assert!(stats.contains("evaluate:"), "{stats}");
        r.exec("metrics reset").unwrap();
        let stats = r.exec("stats").unwrap();
        assert!(!stats.contains("over 0 queries"), "{stats}");
    }

    #[test]
    fn explain_slowlog_health_and_flight_via_text() {
        let _obs = obs_switch();
        let mut r = repl();
        r.exec("metrics reset").unwrap();
        // Before any refresh: graceful degradation, not errors. The slow
        // log lives in the journal, so it needs no index service.
        assert!(r.exec("slowlog").unwrap().contains("slow-query log empty"));
        assert!(r.exec("health").unwrap().contains("no index service"));
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 1",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "commit",
            "refresh",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // The plan tree names the parent, the access path, and the cache
        // outcome; json is the machine form of the same record.
        let plan = r.exec("explain quartets").unwrap();
        assert!(plan.contains("EXPLAIN music_groups"), "{plan}");
        assert!(plan.contains("members"), "{plan}");
        let json = r.exec("explain quartets json").unwrap();
        let parsed = isis_obs::Json::parse(&json).expect("explain json parses");
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("isis-query/explain/2")
        );
        // A zero threshold turns capture off; 1ns captures everything.
        assert!(r.exec("slowlog threshold 0").unwrap().contains("off"));
        isis_obs::global().set_slow_threshold_ns(1);
        let db = r.session.database();
        let groups = db.class_by_name("music_groups").unwrap();
        let quartets = db.class_by_name("quartets").unwrap();
        let pred = db
            .class(quartets)
            .unwrap()
            .kind
            .predicate()
            .unwrap()
            .clone();
        isis_obs::global().set_enabled(true);
        r.session.query(groups, &pred).unwrap();
        let out = r.exec("slowlog").unwrap();
        assert!(out.contains("music_groups"), "{out}");
        let json = r.exec("slowlog json").unwrap();
        assert!(isis_obs::Json::parse(&json).is_ok());
        let health = r.exec("health").unwrap();
        for line in ["program cache:", "queries:", "commits:", "journal:"] {
            assert!(health.contains(line), "health missing {line}:\n{health}");
        }
        let hjson = r.exec("health json").unwrap();
        let parsed = isis_obs::Json::parse(&hjson).expect("health json parses");
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("isis-repl/health/2")
        );
        // The journal holds the slow capture; export round-trips as JSONL.
        let dump = r.exec("flight dump").unwrap();
        assert!(dump.contains("query.service.slow"), "{dump}");
        let path = std::env::temp_dir().join(format!("isis_flight_{}.jsonl", std::process::id()));
        let out = r
            .exec(&format!("flight export {}", path.display()))
            .unwrap();
        assert!(out.contains("events written"), "{out}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() >= 1);
        for line in body.lines() {
            assert!(
                isis_obs::Json::parse(line).is_ok(),
                "bad JSONL line: {line}"
            );
        }
        let _ = std::fs::remove_file(&path);
        // One reset empties the whole journal; the per-ring clears are gone.
        assert!(r.exec("metrics reset").unwrap().contains("journal"));
        assert!(r.exec("slowlog").unwrap().contains("slow-query log empty"));
        assert!(r.exec("flight dump").unwrap().contains("0 event(s)"));
        for gone in ["trace clear", "flight clear", "slowlog clear"] {
            assert!(r.exec(gone).is_err(), "{gone}");
        }
        assert!(r.exec("flight nonsense").is_err());
        assert!(r.exec("slowlog nonsense").is_err());
        assert!(
            r.exec("explain musicians").is_err(),
            "base class: no predicate"
        );
        isis_obs::global().set_enabled(false);
    }

    /// `explain` names what it explains: the predicate and its atoms read
    /// with attribute and entity names, as the worksheet built them.
    #[test]
    fn explain_names_attributes_and_constants() {
        let _obs = obs_switch();
        let mut r = repl();
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 1",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "commit",
            "refresh",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let plan = r.exec("explain quartets").unwrap();
        assert!(plan.contains("size") && plan.contains("{4}"), "{plan}");
        assert!(plan.contains("WHERE (size(e) = {4})"), "{plan}");
        assert!(plan.contains("clause 0.0: size(e) = {4} →"), "{plan}");
        assert!(!plan.contains("a13("), "{plan}");
        assert!(
            plan.contains("parallel: serial (1 worker configured)"),
            "{plan}"
        );
    }

    /// A lone `~` over an indexed attribute is answered by its exact walk,
    /// and `explain` says so in both renderings.
    #[test]
    fn explain_shows_the_walk_mode() {
        let _obs = obs_switch();
        let mut r = repl();
        for line in [
            "pick musicians",
            "subclass piano_players",
            "define",
            "atom",
            "clause 1",
            "push plays",
            "op ~",
            "const",
            "toggle piano",
            "done",
            "commit",
            "refresh",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let plan = r.exec("explain piano_players").unwrap();
        assert!(plan.contains("eval: walk"), "{plan}");
        assert!(plan.contains("rows: 0 scanned"), "{plan}");
        let json = r.exec("explain piano_players json").unwrap();
        let parsed = isis_obs::Json::parse(&json).expect("explain json parses");
        assert_eq!(parsed.get("eval_mode").unwrap().as_str(), Some("walk"));
    }

    /// The slow-query threshold and the captures live on the journal, and
    /// the query counters in the session's scope, not on the index
    /// service, so a full refresh that rebuilds the service keeps them.
    #[test]
    fn slowlog_threshold_and_captures_survive_a_service_rebuild() {
        let _obs = obs_switch();
        let mut r = repl();
        for line in [
            "pick music_groups",
            "subclass quartets",
            "define",
            "atom",
            "clause 1",
            "push size",
            "op =",
            "const",
            "toggle 4",
            "done",
            "commit",
            "refresh",
            "metrics on",
            "metrics reset",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // Capture one slow query: at 1ns every evaluation is slow.
        isis_obs::global().set_slow_threshold_ns(1);
        let db = r.session.database();
        let groups = db.class_by_name("music_groups").unwrap();
        let quartets = db.class_by_name("quartets").unwrap();
        let pred = db
            .class(quartets)
            .unwrap()
            .kind
            .predicate()
            .unwrap()
            .clone();
        r.session.query(groups, &pred).unwrap();
        assert!(r.exec("slowlog threshold 5").unwrap().contains("5ms"));
        let before = r.exec("slowlog").unwrap();
        assert!(before.contains("1 slow queries (threshold 5ms"), "{before}");
        assert_eq!(r.session.index_service().unwrap().query_stats().queries, 1);
        // An edit, its undo and a refresh: the undo swaps the database
        // line, so the refresh is a full one and builds a new service.
        for line in [
            "pick music_groups",
            "contents",
            "select \"Trio Grande\"",
            "assign size 4",
            "undo",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        r.exec("refresh").unwrap();
        let svc = r.session.index_service().unwrap();
        assert!(
            svc.program_cache().is_empty(),
            "the refresh built a new service"
        );
        assert_eq!(svc.query_stats().queries, 1);
        let after = r.exec("slowlog").unwrap();
        assert!(after.contains("1 slow queries (threshold 5ms"), "{after}");
        assert!(after.contains("music_groups where"), "{after}");
    }

    /// `health` shows only per-query shares as percentages: a two-clause
    /// CNF makes one query and two index probes, which must not read as
    /// 200%.
    #[test]
    fn health_query_shares_stay_within_100_percent() {
        // Its query lands in the process-global journal the slowlog tests
        // read: run it under the same lock.
        let _obs = obs_switch();
        let mut r = repl();
        for line in [
            "pick musicians",
            "subclass unionised_pianists",
            "define",
            "atom",
            "clause 1",
            "push plays",
            "op ~",
            "const",
            "toggle piano",
            "done",
            "atom",
            "clause 2",
            "push union",
            "op ~",
            "const",
            "toggle yes",
            "done",
            "switch",
            "commit",
            "refresh",
            "explain unionised_pianists",
        ] {
            r.exec(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let health = r.exec("health").unwrap();
        assert!(
            health.contains(
                "queries:        1 (100% pruned, 0% seq-scanned; 2 index probes, \
                 0 grouping scans, 0 unassisted)"
            ),
            "{health}"
        );
        for word in health.split_whitespace() {
            if let Some(n) = word.trim_start_matches('(').strip_suffix('%') {
                let pct: f64 = n.parse().unwrap();
                assert!(pct <= 100.0, "{word} in:\n{health}");
            }
        }
    }

    /// `health` reads the retry counter of the one commit-retry loop,
    /// `Session::transact_with_retry`: a commit that loses one race reads
    /// back as one retry.
    #[test]
    fn health_counts_the_session_commit_retries() {
        let _obs = obs_switch();
        let im = isis_sample::instrumental_music().unwrap();
        let (flute, family) = (im.flute, im.family);
        let shared = isis_session::SharedDatabase::new(im.db);
        let mut r = Repl::new(Session::open(&shared).build());
        let mut rival = Session::open(&shared).build();
        r.exec("metrics on").unwrap();
        r.exec("metrics reset").unwrap();
        let backoff = isis_core::RetryBackoff::unslept(1);
        let mut raced = false;
        r.session
            .transact_with_retry(&backoff, |db| {
                // The first attempt loses the race to a rival's commit of
                // the same attribute value.
                if !std::mem::replace(&mut raced, true) {
                    rival
                        .transact(|db| db.assign_single(flute, family, im.woodwind))
                        .unwrap();
                    rival.commit_changes().unwrap();
                }
                db.assign_single(flute, family, im.percussion).map(drop)
            })
            .unwrap();
        let health = isis_obs::Json::parse(&r.exec("health json").unwrap()).unwrap();
        let retries = health.get("commits").and_then(|c| c.get("retries"));
        assert_eq!(retries.and_then(isis_obs::Json::as_f64), Some(1.0));
        assert!(r.exec("health").unwrap().contains(", 1 retries"));
    }

    #[test]
    fn grouping_page_and_literal_select() {
        let mut r = repl();
        r.exec("pick work_status").unwrap();
        r.exec("contents").unwrap();
        // Grouping pages index by the attribute's value class (YES/NO).
        r.exec("select yes").unwrap();
        r.exec("followg").unwrap();
        let shown = r.exec("show").unwrap();
        assert!(shown.contains("*Edith*"));
    }
}
