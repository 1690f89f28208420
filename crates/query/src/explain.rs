//! EXPLAIN: the full decision record for one evaluation.
//!
//! [`IndexService::explain`] runs a predicate exactly like
//! [`IndexService::evaluate`] — same counters, same cache traffic, same
//! result bytes — and additionally captures *why* the evaluation went the
//! way it did: the program-cache outcome (hit / re-hoist / recompile /
//! miss), whether the cached access plan was reused and whether the fresh
//! one qualified for pinning, the pruned pool size, the access path chosen
//! for every atom with the cost model's cost/selectivity estimates in
//! evaluation order, the chunking decision the service's [`EvalPool`]
//! took, and per-phase wall-clock timings.
//!
//! [`EvalPool`]: crate::EvalPool
//!
//! The record renders two ways: [`ExplainRecord::to_text`] is the REPL's
//! plan tree; [`ExplainRecord::to_json`] is the machine-readable form the
//! journal carries as the payload of `query.service.explain` and
//! `query.service.slow` events, so a slow capture is a full plan, not
//! just a timing.

use isis_core::{Atom, ClassId, Database, NormalForm, OrderedSet, Predicate};
use isis_obs::journal::fmt_ns;
use isis_obs::Json;

use crate::error::QueryError;
use crate::program::reorder_clause;
use crate::service::{AccessPath, EvalCapture, IndexService, MAX_PLAN_CANDIDATES};

/// The planner's decision for one atom, with the cost model's estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomPlan {
    /// Clause index in the source predicate (0-based).
    pub clause: usize,
    /// Evaluation position within the clause after cost ordering.
    pub order: usize,
    /// The atom, rendered (`plays(e) ~ {e9}`).
    pub atom: String,
    /// The chosen access path (`index probe on plays`, `seq scan`, …).
    pub path: String,
    /// Why that path: the planner's reasoning, human-readable.
    pub why: String,
    /// Estimated per-candidate cost (cost-model units).
    pub cost: f64,
    /// Estimated truth probability for a random candidate.
    pub selectivity: f64,
}

/// Occupancy of one attribute column the evaluation touched (via a
/// single-step atom lhs), as reported by the storage layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStat {
    /// Attribute name (or `attr#N` when it no longer resolves).
    pub attr: String,
    /// Allocated dense slots (0 = the column lives in the overflow map).
    pub dense_slots: usize,
    /// Assigned values stored in the dense vector.
    pub dense_len: usize,
    /// Assigned values stored in the overflow map.
    pub overflow_len: usize,
}

/// The full plan record for one evaluation. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRecord {
    /// Parent class name the candidates were drawn from.
    pub parent: String,
    /// The predicate, rendered.
    pub predicate: String,
    /// `"dnf"` or `"cnf"`.
    pub form: &'static str,
    /// Program-cache outcome for this evaluation
    /// (`hit`/`rehoist`/`recompile`/`miss`, or `unknown` when the cache
    /// reported nothing).
    pub cache: &'static str,
    /// The cached access plan was still valid and reused as-is.
    pub plan_reused: bool,
    /// The (re)computed plan qualified for pinning in the cache.
    pub pinned: bool,
    /// Largest candidate list the cache will pin (the planner's
    /// `MAX_PLAN_CANDIDATES`).
    pub pin_limit: usize,
    /// Pruned pool size (`None` = no prunable atom; sequential scan).
    pub pool_len: Option<usize>,
    /// Extent-ordered candidates the program actually ran over.
    pub candidates: usize,
    /// Per-atom access paths and estimates, in evaluation order.
    pub atoms: Vec<AtomPlan>,
    /// Configured parallel-evaluation worker count (1 = serial).
    pub threads: usize,
    /// The chunking decision for this candidate count and thread count:
    /// `Some((chunks, chunk_size))`, or `None` for the serial fallback.
    pub chunks: Option<(usize, usize)>,
    /// Candidates scanned (== `candidates`; what this evaluation added to
    /// `query.service.rows_scanned` in the service's scope).
    pub scanned: u64,
    /// Members returned.
    pub returned: u64,
    /// Wall-clock planning phase (candidate pool + ordering).
    pub plan_ns: u64,
    /// Wall-clock evaluation phase (program over candidates).
    pub eval_ns: u64,
    /// Wall-clock whole evaluation.
    pub total_ns: u64,
    /// `"batch"` when the compiled program streams attribute columns
    /// ([`crate::PredicateProgram::batch_compatible`]; a run it cannot
    /// decide is interpreted per candidate), `"scalar"` when it interprets
    /// every candidate.
    pub eval_mode: &'static str,
    /// Candidates per streamed run ([`crate::program::BATCH_ROWS`]);
    /// meaningful only in batch mode.
    pub batch_rows: usize,
    /// Storage occupancy of each attribute column the predicate's
    /// single-step atoms read, deduplicated, in first-use order.
    pub columns: Vec<ColumnStat>,
}

impl ExplainRecord {
    /// A degenerate record for the session's unassisted-scan fallback
    /// (Manual refresh policy with pending changes): no service planning
    /// happened, and the compiled program ran serially over the whole
    /// parent extent, in column batches when `batch` is set. The `cache`
    /// field carries the marker `"unassisted"` so both renderings make the
    /// fallback unmistakable.
    pub fn unassisted(
        db: &Database,
        parent: ClassId,
        pred: &Predicate,
        scanned: usize,
        returned: usize,
        total_ns: u64,
        batch: bool,
    ) -> ExplainRecord {
        ExplainRecord {
            parent: db
                .class(parent)
                .map(|r| r.name.clone())
                .unwrap_or_else(|_| format!("class#{}", parent.raw())),
            predicate: pred.to_string(),
            form: match pred.form {
                NormalForm::Dnf => "dnf",
                NormalForm::Cnf => "cnf",
            },
            cache: "unassisted",
            plan_reused: false,
            pinned: false,
            pin_limit: MAX_PLAN_CANDIDATES,
            pool_len: None,
            candidates: scanned,
            atoms: Vec::new(),
            threads: 1,
            chunks: None,
            scanned: scanned as u64,
            returned: returned as u64,
            plan_ns: 0,
            eval_ns: total_ns,
            total_ns,
            eval_mode: if batch { "batch" } else { "scalar" },
            batch_rows: if batch { crate::program::BATCH_ROWS } else { 0 },
            columns: Vec::new(),
        }
    }

    /// The machine-readable form (schema `isis-query/explain/2`; version 2
    /// added `eval_mode`, `batch_rows`, and `columns`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("isis-query/explain/2")),
            ("parent", Json::from(self.parent.clone())),
            ("predicate", Json::from(self.predicate.clone())),
            ("form", Json::from(self.form)),
            ("cache", Json::from(self.cache)),
            ("plan_reused", Json::from(self.plan_reused)),
            ("pinned", Json::from(self.pinned)),
            ("pin_limit", Json::from(self.pin_limit)),
            (
                "pool_len",
                match self.pool_len {
                    Some(n) => Json::from(n),
                    None => Json::Null,
                },
            ),
            ("candidates", Json::from(self.candidates)),
            (
                "atoms",
                Json::Arr(
                    self.atoms
                        .iter()
                        .map(|a| {
                            Json::obj([
                                ("clause", Json::from(a.clause)),
                                ("order", Json::from(a.order)),
                                ("atom", Json::from(a.atom.clone())),
                                ("path", Json::from(a.path.clone())),
                                ("why", Json::from(a.why.clone())),
                                ("cost", Json::from(a.cost)),
                                ("selectivity", Json::from(a.selectivity)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("threads", Json::from(self.threads)),
            (
                "chunks",
                match self.chunks {
                    Some((n, sz)) => {
                        Json::obj([("count", Json::from(n)), ("size", Json::from(sz))])
                    }
                    None => Json::Null,
                },
            ),
            ("scanned", Json::from(self.scanned)),
            ("returned", Json::from(self.returned)),
            ("eval_mode", Json::from(self.eval_mode)),
            ("batch_rows", Json::from(self.batch_rows)),
            (
                "columns",
                Json::Arr(
                    self.columns
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("attr", Json::from(c.attr.clone())),
                                ("dense_slots", Json::from(c.dense_slots)),
                                ("dense_len", Json::from(c.dense_len)),
                                ("overflow_len", Json::from(c.overflow_len)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "timings",
                Json::obj([
                    ("plan_ns", Json::from(self.plan_ns)),
                    ("eval_ns", Json::from(self.eval_ns)),
                    ("total_ns", Json::from(self.total_ns)),
                ]),
            ),
        ])
    }

    /// The plan tree — the REPL `explain` output.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "EXPLAIN {} WHERE {} [{}]\n",
            self.parent, self.predicate, self.form
        );
        let plan_note = if self.plan_reused {
            "cached plan reused"
        } else if self.pinned {
            "plan computed and pinned"
        } else {
            "plan computed, not pinned"
        };
        out.push_str(&format!(
            "├─ program cache: {} · {plan_note} (pin limit {})\n",
            self.cache, self.pin_limit
        ));
        match self.pool_len {
            Some(n) => out.push_str(&format!(
                "├─ pool: {n} candidate(s) pruned → {} in extent order\n",
                self.candidates
            )),
            None => out.push_str(&format!(
                "├─ pool: no prunable atom — sequential scan of {} candidate(s)\n",
                self.candidates
            )),
        }
        out.push_str("├─ access paths (evaluation order)\n");
        for (i, a) in self.atoms.iter().enumerate() {
            let tee = if i + 1 == self.atoms.len() {
                "└─"
            } else {
                "├─"
            };
            out.push_str(&format!(
                "│  {tee} clause {}.{}: {} → {} (cost {:.2}, sel {:.2}) — {}\n",
                a.clause, a.order, a.atom, a.path, a.cost, a.selectivity, a.why
            ));
        }
        match self.chunks {
            Some((n, sz)) => out.push_str(&format!(
                "├─ parallel: {n} chunk(s) of ≤{sz} over {} worker(s)\n",
                self.threads
            )),
            None => out.push_str(&format!(
                "├─ parallel: serial ({} worker(s) configured; extent below chunking floor)\n",
                self.threads
            )),
        }
        match self.eval_mode {
            "batch" => out.push_str(&format!(
                "├─ eval: batch (column streaming, {} rows per run)\n",
                self.batch_rows
            )),
            _ => out.push_str("├─ eval: scalar (per-candidate interpreter)\n"),
        }
        for (i, c) in self.columns.iter().enumerate() {
            let tee = if i + 1 == self.columns.len() {
                "└─"
            } else {
                "├─"
            };
            out.push_str(&format!(
                "│  {tee} column {}: {} dense in {} slot(s), {} overflow\n",
                c.attr, c.dense_len, c.dense_slots, c.overflow_len
            ));
        }
        out.push_str(&format!(
            "├─ rows: {} scanned, {} returned\n",
            self.scanned, self.returned
        ));
        out.push_str(&format!(
            "└─ timings: plan {}, eval {}, total {}\n",
            fmt_ns(self.plan_ns),
            fmt_ns(self.eval_ns),
            fmt_ns(self.total_ns)
        ));
        out
    }
}

fn attr_label(db: &Database, attr: isis_core::AttrId) -> String {
    db.attr(attr)
        .map(|r| r.name.clone())
        .unwrap_or_else(|_| format!("attr#{}", attr.raw()))
}

/// A map's steps by name, in the paper's `members·plays` notation.
fn map_label(db: &Database, map: &isis_core::Map) -> String {
    let names: Vec<String> = map.steps().iter().map(|&a| attr_label(db, a)).collect();
    names.join("·")
}

/// The per-clause atom report, in the order the compiled program runs the
/// clause ([`crate::program::reorder_clause`]), with each atom's access
/// path and the estimates that ordered it.
fn clause_plans(
    svc: &IndexService,
    db: &Database,
    parent: ClassId,
    clause_idx: usize,
    atoms: &[Atom],
    form: NormalForm,
    out: &mut Vec<AtomPlan>,
) {
    let ordered = reorder_clause(db, parent, form, atoms, Some(svc));
    for (order, (atom, estimate)) in ordered.into_iter().enumerate() {
        let (path, why) = match svc.peek_atom_path(db, atom) {
            AccessPath::IndexProbe(_) => (
                format!("index probe on {}", map_label(db, &atom.lhs)),
                if atom.lhs.len() == 1 {
                    "maintained index on the atom's attribute"
                } else {
                    "maintained index on every step, walked back from the anchors"
                }
                .to_string(),
            ),
            AccessPath::GroupingRange(g) => (
                format!(
                    "grouping range {}",
                    db.grouping(g)
                        .map(|r| r.name.clone())
                        .unwrap_or_else(|_| format!("grouping#{}", g.raw()))
                ),
                "no index, but a grouping on the attribute covers the owner extent".to_string(),
            ),
            AccessPath::SeqScan => (
                "seq scan".to_string(),
                if !IndexService::atom_shape(atom) {
                    "atom shape not indexable (negated, identity map, other operator, \
                     or non-constant rhs)"
                        .to_string()
                } else if atom.lhs.len() == 1 {
                    "indexable shape but no index or covering grouping".to_string()
                } else {
                    "indexable shape but a step of the map has no index".to_string()
                },
            ),
        };
        out.push(AtomPlan {
            clause: clause_idx,
            order,
            atom: atom.to_string(),
            path,
            why,
            cost: estimate.cost,
            selectivity: estimate.selectivity,
        });
    }
}

impl IndexService {
    /// Evaluates `pred` over `parent` exactly like
    /// [`IndexService::evaluate`] — identical result bytes, identical
    /// counter traffic — and returns the result together with the full
    /// [`ExplainRecord`] for that one evaluation. Works with observability
    /// disabled (the record is explicitly requested); while observability
    /// is enabled the record is journaled as a `query.service.explain`
    /// event.
    pub fn explain(
        &self,
        db: &Database,
        parent: ClassId,
        pred: &Predicate,
    ) -> Result<(OrderedSet, ExplainRecord), QueryError> {
        let t = std::time::Instant::now();
        let mut cap = EvalCapture::default();
        let out = self.evaluate_captured(db, parent, pred, Some(&mut cap))?;
        let total_ns = t.elapsed().as_nanos() as u64;
        let record = self.build_explain(db, parent, pred, &cap, total_ns);
        isis_obs::global().event("query.service.explain", || record.to_json());
        Ok((out, record))
    }

    /// Assembles an [`ExplainRecord`] from a finished evaluation's capture.
    /// Read-only on the counters: atom paths are described through
    /// [`IndexService::peek_atom_path`], so building a record never
    /// perturbs the stats it reports on.
    pub(crate) fn build_explain(
        &self,
        db: &Database,
        parent: ClassId,
        pred: &Predicate,
        cap: &EvalCapture,
        total_ns: u64,
    ) -> ExplainRecord {
        let mut atoms = Vec::new();
        for (ci, clause) in pred.clauses.iter().enumerate() {
            clause_plans(self, db, parent, ci, &clause.atoms, pred.form, &mut atoms);
        }
        let threads = self.eval_pool().threads();
        // Column occupancy for every attribute a single-step lhs reads,
        // deduplicated in first-use order.
        let mut columns: Vec<ColumnStat> = Vec::new();
        let mut seen: Vec<isis_core::AttrId> = Vec::new();
        for clause in &pred.clauses {
            for atom in &clause.atoms {
                let steps = atom.lhs.steps();
                if steps.len() != 1 || seen.contains(&steps[0]) {
                    continue;
                }
                seen.push(steps[0]);
                if let Ok(rec) = db.attr(steps[0]) {
                    let s = rec.values.stats();
                    columns.push(ColumnStat {
                        attr: rec.name.clone(),
                        dense_slots: s.dense_slots,
                        dense_len: s.dense_len,
                        overflow_len: s.overflow_len,
                    });
                }
            }
        }
        ExplainRecord {
            parent: db
                .class(parent)
                .map(|r| r.name.clone())
                .unwrap_or_else(|_| format!("class#{}", parent.raw())),
            predicate: pred.to_string(),
            form: match pred.form {
                NormalForm::Dnf => "dnf",
                NormalForm::Cnf => "cnf",
            },
            cache: self
                .program_cache()
                .last_outcome()
                .map_or("unknown", crate::cache::CacheOutcome::label),
            plan_reused: cap.plan_reused,
            pinned: cap.pinned,
            pin_limit: MAX_PLAN_CANDIDATES,
            pool_len: cap.pool_len,
            candidates: cap.candidates,
            atoms,
            threads,
            chunks: crate::parallel::chunk_decision(cap.candidates, threads),
            scanned: cap.scanned,
            returned: cap.returned,
            plan_ns: cap.plan_ns,
            eval_ns: cap.eval_ns,
            total_ns,
            eval_mode: if cap.batch { "batch" } else { "scalar" },
            batch_rows: if cap.batch {
                crate::program::BATCH_ROWS
            } else {
                0
            },
            columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::{Clause, CompareOp, Map, Rhs};
    use isis_sample::instrumental_music;

    #[test]
    fn explain_matches_evaluate_and_renders() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.plays),
            CompareOp::Match,
            Rhs::constant(im.instruments, [im.piano]),
        )])]);
        let want = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let (got, record) = svc.explain(&im.db, im.musicians, &pred).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(record.cache, "hit", "second lookup of the same shape");
        assert!(record.plan_reused, "same epoch/cursor: cached plan reused");
        assert_eq!(record.returned as usize, got.len());
        assert_eq!(record.scanned as usize, record.candidates);
        assert_eq!(record.atoms.len(), 1);
        assert!(record.atoms[0].path.starts_with("index probe"));
        let text = record.to_text();
        assert!(text.contains("EXPLAIN musicians"), "{text}");
        assert!(text.contains("index probe on plays"), "{text}");
        let json = record.to_json();
        let back = Json::parse(&json.pretty()).unwrap();
        assert_eq!(back, json);
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some("isis-query/explain/2")
        );
        assert_eq!(record.eval_mode, "batch", "plays ~ const streams");
        assert_eq!(record.batch_rows, crate::program::BATCH_ROWS);
        assert_eq!(record.columns.len(), 1);
        assert_eq!(record.columns[0].attr, "plays");
        assert!(text.contains("column streaming"), "{text}");
        let _ = &mut im;
    }

    #[test]
    fn explain_reports_the_order_the_program_runs() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.size).unwrap();
        let ints = im.db.predefined(isis_core::BaseKind::Integers);
        let (three, four, nine) = (im.db.int(3), im.db.int(4), im.db.int(9));
        let pianists = Atom::new(
            Map::new(vec![im.members, im.plays]),
            CompareOp::Superset,
            Rhs::constant(im.instruments, [im.piano]),
        );
        let size_is = |n| {
            Atom::new(
                Map::single(im.size),
                CompareOp::SetEq,
                Rhs::constant(ints, [n]),
            )
        };
        let barrier = Atom::new(
            Map::single(im.size),
            CompareOp::Lt,
            Rhs::constant(ints, [nine]),
        );
        // Expensive before cheap on both sides of an ordering barrier.
        let atoms = vec![
            pianists.clone(),
            size_is(four),
            barrier.clone(),
            pianists,
            size_is(three),
        ];
        let pred = Predicate::dnf(vec![Clause::new(atoms.clone())]);
        let (_, record) = svc.explain(&im.db, im.music_groups, &pred).unwrap();
        let ordered = reorder_clause(&im.db, im.music_groups, NormalForm::Dnf, &atoms, Some(&svc));
        let want: Vec<String> = ordered.iter().map(|(a, _)| a.to_string()).collect();
        let got: Vec<String> = record.atoms.iter().map(|a| a.atom.clone()).collect();
        assert_eq!(got, want);
        assert_eq!(want[0], atoms[1].to_string(), "cheap atom runs first");
        assert_eq!(want[2], barrier.to_string(), "the barrier keeps its place");
        assert_eq!(want[3], atoms[4].to_string());
        for (plan, (_, e)) in record.atoms.iter().zip(&ordered) {
            assert_eq!((plan.cost, plan.selectivity), (e.cost, e.selectivity));
        }
    }

    #[test]
    fn explain_reports_seq_scan_reasons() {
        let mut im = instrumental_music().unwrap();
        let svc = IndexService::new(&im.db);
        // Negated atom: shape not indexable.
        let yes = im.db.boolean(true);
        let booleans = im.db.predefined(isis_core::BaseKind::Booleans);
        let mut atom = Atom::new(
            Map::single(im.popular),
            CompareOp::Match,
            Rhs::constant(booleans, [yes]),
        );
        atom.op.negated = true;
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let (_, record) = svc.explain(&im.db, im.instruments, &pred).unwrap();
        assert_eq!(record.pool_len, None);
        assert_eq!(record.atoms[0].path, "seq scan");
        assert!(record.atoms[0].why.contains("not indexable"));
        assert!(record.chunks.is_none(), "tiny extent stays serial");
    }

    #[test]
    fn explain_names_walks_and_streams_ordering_atoms() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let pianists = Predicate::cnf(vec![Clause::new(vec![Atom::new(
            Map::new(vec![im.members, im.plays]),
            CompareOp::Superset,
            Rhs::constant(im.instruments, [im.piano]),
        )])]);
        // `members` has no index: the walk cannot run.
        let (_, record) = svc.explain(&im.db, im.music_groups, &pianists).unwrap();
        assert_eq!(record.pool_len, None);
        assert_eq!(record.atoms[0].path, "seq scan");
        assert!(record.atoms[0]
            .why
            .contains("a step of the map has no index"));
        // With both steps indexed the path names the whole map.
        svc.ensure_index(&im.db, im.members).unwrap();
        let (got, record) = svc.explain(&im.db, im.music_groups, &pianists).unwrap();
        assert_eq!(record.atoms[0].path, "index probe on members·plays");
        assert!(record.atoms[0].why.contains("walked back"));
        assert_eq!(record.pool_len, Some(got.len()), "the walk is exact");
        assert_eq!(record.eval_mode, "scalar", "a two-step map does not stream");
        // An ordering atom over one column streams.
        let ints = im.db.predefined(isis_core::BaseKind::Integers);
        let five = im.db.int(5);
        let small = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            Map::single(im.size),
            CompareOp::Lt,
            Rhs::constant(ints, [five]),
        )])]);
        let (got, record) = svc.explain(&im.db, im.music_groups, &small).unwrap();
        let want = im.db.evaluate_derived_members(im.music_groups, &small);
        assert_eq!(Ok(got), want);
        assert_eq!(record.eval_mode, "batch");
    }
}
