//! Compiled predicate programs (DESIGN.md §4d).
//!
//! [`Database::eval_predicate_for`] re-interprets the predicate AST for
//! every candidate entity: it re-walks every map — including the
//! candidate-independent `Rhs::Constant` anchor images — once per atom per
//! candidate. [`PredicateProgram`] compiles a validated [`Predicate`] once
//! per query into a flat form that fixes all three per-candidate wastes:
//!
//! * **constant hoisting** — every `Rhs::Constant { anchors, map }` image
//!   is evaluated exactly once at compile time and stored; a constant-RHS
//!   atom drops from `O(|extent| · |anchors·map|)` to `O(|anchors·map|)`;
//! * **shared-map memoization** — distinct candidate-side maps (atom
//!   `lhs` and `Rhs::SelfMap` alike) are deduplicated into numbered slots;
//!   a per-candidate [`MemoTable`] walks each distinct map at most once
//!   per entity no matter how many atoms reference it;
//! * **short-circuit ordering** — within each clause, atoms are reordered
//!   by the cost model's cost/selectivity estimate so DNF-AND clauses fail
//!   fast and CNF-OR clauses succeed fast. Only *infallible* atoms move:
//!   ordering-operator atoms (`<`, `≤`, `>`, `≥`) are the one comparison
//!   that can error (non-singleton / non-literal operands) and act as
//!   fixed barriers, which makes the reordering equivalence exact — for
//!   results *and* errors (see DESIGN.md §4d for the argument).
//!
//! Programs are shared by every evaluation consumer: the
//! [`crate::IndexService::evaluate`] residual filter and
//! [`crate::DerivedMaintainer`]'s delta path, both run by one
//! [`crate::EvalPool`]. Staleness contract: slot and source images are evaluated
//! per candidate so they are always current; hoisted *identity*-map
//! constant images equal the anchor set stored in the predicate and can
//! never go stale; hoisted *mapped* constant images depend on attribute
//! values and must be re-hoisted via [`PredicateProgram::ensure_fresh`]
//! once the database's delta epoch has advanced.
//!
//! [`Database::eval_predicate_for`]: isis_core::Database::eval_predicate_for

use std::collections::HashMap;

use isis_core::{
    AttrColumn, AttrId, ClassId, CoreError, Database, EntityId, Map, Multiplicity, NormalForm,
    Operator, OrderedSet, Predicate, Result, Rhs, ValueClass, ValueRef, ValueTest,
};

use crate::optimizer::{estimate_atom, AtomEstimate};
use crate::service::IndexService;

/// The right-hand side of one compiled atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompiledRhs {
    /// A candidate-entity map slot (`Rhs::SelfMap`).
    SelfSlot(u32),
    /// A hoisted constant image (`Rhs::Constant`).
    Const(u32),
    /// A source-entity map slot (`Rhs::SourceMap`).
    Source(u32),
}

/// One atom, with its maps resolved to numbered slots.
#[derive(Debug, Clone)]
struct CompiledAtom {
    /// Candidate-map slot index of the left-hand side.
    lhs: u32,
    op: Operator,
    rhs: CompiledRhs,
}

/// A hoisted constant: the predicate's literal anchors, the map applied to
/// them, and the materialised image.
#[derive(Debug, Clone)]
struct ConstSlot {
    anchors: OrderedSet,
    map: Map,
    image: OrderedSet,
}

/// Candidates per inner batch: the streaming evaluator walks one column
/// per atom over runs of this many candidates, keeping the per-run index
/// scratch inside the cache while still amortising the per-atom setup.
pub const BATCH_ROWS: usize = 1024;

/// One streamable atom: a single-step candidate map over a non-naming,
/// Class-ranged attribute, compared against a hoisted constant image.
/// Everything the inner loop needs is a column read plus a compare.
#[derive(Debug, Clone, Copy)]
struct BatchAtom {
    attr: AttrId,
    op: Operator,
    const_idx: u32,
}

/// The batched form of a program whose every atom is streamable, plus the
/// parent class the program was compiled for (its extent bounds which
/// candidates may stream — see [`PredicateProgram::eval_batch`]).
#[derive(Debug, Clone)]
struct BatchBody {
    parent: ClassId,
    clauses: Vec<Vec<BatchAtom>>,
}

/// Builds the batched form, or `None` if any atom is not streamable.
/// Streamability requires: constant rhs (hoisted image) and a one-step
/// lhs map whose attribute is non-naming and Class-ranged — exactly the
/// atoms whose scalar evaluation reduces to "read the column cell,
/// compare against a fixed set".
fn build_batch(
    db: &Database,
    parent: ClassId,
    clauses: &[Vec<CompiledAtom>],
    slots: &[Map],
) -> Option<BatchBody> {
    let mut out = Vec::with_capacity(clauses.len());
    for clause in clauses {
        let mut bc = Vec::with_capacity(clause.len());
        for atom in clause {
            let CompiledRhs::Const(ci) = atom.rhs else {
                return None;
            };
            let steps = slots[atom.lhs as usize].steps();
            if steps.len() != 1 {
                return None;
            }
            let rec = db.attr(steps[0]).ok()?;
            if rec.naming || !matches!(rec.value_class, ValueClass::Class(_)) {
                return None;
            }
            bc.push(BatchAtom {
                attr: steps[0],
                op: atom.op,
                const_idx: ci,
            });
        }
        out.push(bc);
    }
    Some(BatchBody {
        parent,
        clauses: out,
    })
}

/// Slots of an atom's value memo, a table direct-mapped by the value id.
/// The metric columns of the synthetic schema hold 100 distinct values.
const MEMO_SLOTS: usize = 256;

/// One streamed atom, resolved once per [`PredicateProgram::eval_batch`]
/// call: its column, its constant prepared for single values (an ordering
/// constant's literal looked up once), its negation, and its decision for
/// an unassigned cell.
struct Kernel<'a> {
    cells: &'a AttrColumn,
    op: Operator,
    test: ValueTest<'a>,
    /// The decision for an unassigned (NULL) cell.
    null: Option<bool>,
    /// Decisions of single-valued cells, `(value, decision)`, at slot
    /// `value % len`: such a decision depends only on the value id. NULL
    /// marks an empty slot; a stored value is never NULL, so no lookup
    /// matches one. A short candidate list gets a table no longer than
    /// itself, and a multivalued attribute none.
    decisions: Vec<(EntityId, bool)>,
}

impl<'a> Kernel<'a> {
    /// `None` when the atom's attribute has died since compilation.
    fn new(
        db: &'a Database,
        prog: &'a PredicateProgram,
        a: &BatchAtom,
        rows: usize,
    ) -> Option<Kernel<'a>> {
        let rec = db.attr(a.attr).ok()?;
        let test = db.value_test(a.op.op, &prog.consts[a.const_idx as usize].image);
        let slots = match rec.multiplicity {
            Multiplicity::Single => rows.next_power_of_two().min(MEMO_SLOTS),
            Multiplicity::Multi => 0,
        };
        Some(Kernel {
            cells: &rec.values,
            op: a.op,
            test,
            null: test.test(EntityId::NULL).map(|raw| a.op.finish(raw)),
            decisions: vec![(EntityId::NULL, false); slots],
        })
    }

    /// Exactly `eval_compiled_atom` for a member of the atom's owner
    /// class, or `None` where it errors (only an ordering operator does):
    /// the column cell *is* `eval_map([e], lhs)` (`None` ⇒ ∅,
    /// `Single(v)` ⇒ `{v}`, `Multi(s)` ⇒ `s`).
    #[inline]
    fn decide(&mut self, e: EntityId) -> Option<bool> {
        match self.cells.get(e) {
            None => self.null,
            Some(ValueRef::Single(v)) => {
                let slot = v.index() & self.decisions.len().wrapping_sub(1);
                match self.decisions.get_mut(slot) {
                    Some(&mut (w, d)) if w == v => Some(d),
                    Some(memo) => {
                        *memo = (v, self.op.finish(self.test.test(v)?));
                        Some(memo.1)
                    }
                    None => Some(self.op.finish(self.test.test(v)?)),
                }
            }
            Some(ValueRef::Multi(s)) => Some(self.op.finish(self.test.test_set(s)?)),
        }
    }

    /// Keeps the rows of `live` (indices into `run`) whose decision equals
    /// `keep`, compacting the list without branching on the decision;
    /// `None` as soon as a row cannot be decided.
    fn retain(&mut self, run: &[EntityId], live: &mut Vec<u32>, keep: bool) -> Option<()> {
        let mut k = 0;
        for j in 0..live.len() {
            let i = live[j];
            let d = self.decide(run[i as usize])?;
            live[k] = i;
            k += usize::from(d == keep);
        }
        live.truncate(k);
        Some(())
    }
}

/// The batch body's row lists, allocated once per call and reused by
/// every run: the rows an atom keeps live, the rows no clause has decided
/// yet, and whether some clause decided each row.
#[derive(Default)]
struct Scratch {
    live: Vec<u32>,
    rest: Vec<u32>,
    decided: Vec<bool>,
}

/// The column path over one run of member candidates: appends the ones
/// the program accepts to `out`, in run order, or returns `None` (leaving
/// `out` as it was) as soon as some candidate reaches a test it cannot
/// decide. `kernels` holds the atoms of `clauses`, clause by clause.
///
/// A DNF clause decides (accepts) the rows all its atoms hold for, a CNF
/// clause decides (rejects) the rows all its atoms fail, so an atom keeps
/// a row live while its decision is `keep` (true under DNF), and each
/// clause sees only the rows no earlier clause decided: exactly the
/// (candidate, atom) pairs the scalar short-circuit tests.
fn stream_run(
    form: NormalForm,
    clauses: &[Vec<BatchAtom>],
    mut kernels: &mut [Kernel<'_>],
    run: &[EntityId],
    s: &mut Scratch,
    out: &mut Vec<EntityId>,
) -> Option<()> {
    let keep = form == NormalForm::Dnf;
    s.rest.clear();
    s.rest.extend(0..run.len() as u32);
    s.decided.clear();
    s.decided.resize(run.len(), false);
    for (c, clause) in clauses.iter().enumerate() {
        let (atoms, later) = std::mem::take(&mut kernels).split_at_mut(clause.len());
        kernels = later;
        s.live.clone_from(&s.rest);
        for atom in atoms {
            if s.live.is_empty() {
                break;
            }
            atom.retain(run, &mut s.live, keep)?;
        }
        for &i in &s.live {
            s.decided[i as usize] = true;
        }
        if c + 1 == clauses.len() {
            break;
        }
        let mut k = 0;
        for j in 0..s.rest.len() {
            let i = s.rest[j];
            s.rest[k] = i;
            k += usize::from(!s.decided[i as usize]);
        }
        s.rest.truncate(k);
        if s.rest.is_empty() {
            break;
        }
    }
    // DNF keeps the rows some clause accepted, CNF those none rejected.
    let base = out.len();
    out.resize(base + run.len(), EntityId::NULL);
    let mut k = base;
    for (&e, &decided) in run.iter().zip(&s.decided) {
        out[k] = e;
        k += usize::from(decided == keep);
    }
    out.truncate(k);
    Some(())
}

/// A [`Predicate`] compiled for repeated evaluation over one parent class.
/// See the module docs for what compilation buys and when a program goes
/// stale.
#[derive(Debug, Clone)]
pub struct PredicateProgram {
    form: NormalForm,
    clauses: Vec<Vec<CompiledAtom>>,
    /// Deduplicated candidate-entity maps (atom lhs and self-map rhs).
    slots: Vec<Map>,
    /// Deduplicated source-entity maps.
    source_slots: Vec<Map>,
    /// Hoisted constant images.
    consts: Vec<ConstSlot>,
    /// Delta epoch the constant images were hoisted at.
    hoist_epoch: u64,
    /// Whether any hoisted constant applies a non-identity map (only those
    /// images can go stale under data changes).
    mapped_consts: bool,
    /// The batched (column-streaming) form, when every atom qualifies.
    batch: Option<BatchBody>,
}

fn intern(slots: &mut Vec<Map>, ids: &mut HashMap<Map, u32>, map: &Map) -> u32 {
    if let Some(&i) = ids.get(map) {
        return i;
    }
    let i = slots.len() as u32;
    slots.push(map.clone());
    ids.insert(map.clone(), i);
    i
}

/// Orders a clause's atoms for evaluation, each with the cost model's
/// estimate: runs of infallible atoms between ordering-op barriers are
/// stably sorted by the short-circuit key (ties keep source order), and
/// the barriers keep their places. The compiled program runs this order
/// and EXPLAIN reports it.
pub(crate) fn reorder_clause<'a>(
    db: &Database,
    parent: ClassId,
    form: NormalForm,
    atoms: &'a [isis_core::Atom],
    indexes: Option<&IndexService>,
) -> Vec<(&'a isis_core::Atom, AtomEstimate)> {
    let key = |e: &AtomEstimate| match form {
        // AND clause: fail fast — most selective per unit cost.
        NormalForm::Dnf => e.selectivity * e.cost + e.cost * 0.01,
        // OR clause: succeed fast — most probable per unit cost.
        NormalForm::Cnf => (1.0 - e.selectivity) * e.cost + e.cost * 0.01,
    };
    let sort_run = |run: &mut [(&isis_core::Atom, AtomEstimate)]| {
        run.sort_by(|a, b| {
            key(&a.1)
                .partial_cmp(&key(&b.1))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    };
    let mut out = Vec::with_capacity(atoms.len());
    let mut run_start = 0;
    for atom in atoms {
        let e = estimate_atom(db, parent, atom, indexes);
        if atom.op.op.is_ordering() {
            // Fallible barrier: keep its position relative to its run.
            sort_run(&mut out[run_start..]);
            out.push((atom, e));
            run_start = out.len();
        } else {
            out.push((atom, e));
        }
    }
    sort_run(&mut out[run_start..]);
    out
}

impl PredicateProgram {
    /// Compiles `pred` for candidates drawn from `parent` (validating it
    /// first), without index statistics or source-entity support.
    pub fn compile(db: &Database, parent: ClassId, pred: &Predicate) -> Result<PredicateProgram> {
        Self::compile_with(db, parent, None, pred, None)
    }

    /// Compiles `pred` for candidates drawn from `parent`. Source-entity
    /// atoms are allowed iff `source_class` is given (derived-attribute
    /// predicates); `indexes` sharpens the reordering's selectivity
    /// estimates when available.
    pub fn compile_with(
        db: &Database,
        parent: ClassId,
        source_class: Option<ClassId>,
        pred: &Predicate,
        indexes: Option<&IndexService>,
    ) -> Result<PredicateProgram> {
        db.validate_predicate(parent, source_class, pred)?;
        let mut slots: Vec<Map> = Vec::new();
        let mut slot_ids: HashMap<Map, u32> = HashMap::new();
        let mut source_slots: Vec<Map> = Vec::new();
        let mut source_ids: HashMap<Map, u32> = HashMap::new();
        let mut consts: Vec<ConstSlot> = Vec::new();
        let mut clauses = Vec::with_capacity(pred.clauses.len());
        for clause in &pred.clauses {
            let ordered = reorder_clause(db, parent, pred.form, &clause.atoms, indexes);
            let mut compiled = Vec::with_capacity(ordered.len());
            for (atom, _) in ordered {
                let lhs = intern(&mut slots, &mut slot_ids, &atom.lhs);
                let rhs = match &atom.rhs {
                    Rhs::SelfMap(m) => CompiledRhs::SelfSlot(intern(&mut slots, &mut slot_ids, m)),
                    Rhs::SourceMap(m) => {
                        CompiledRhs::Source(intern(&mut source_slots, &mut source_ids, m))
                    }
                    Rhs::Constant { anchors, map, .. } => {
                        // Constants are few per predicate; linear dedup.
                        let i = consts
                            .iter()
                            .position(|c| {
                                c.map == *map && c.anchors.as_slice() == anchors.as_slice()
                            })
                            .unwrap_or_else(|| {
                                consts.push(ConstSlot {
                                    anchors: anchors.clone(),
                                    map: map.clone(),
                                    image: OrderedSet::new(),
                                });
                                consts.len() - 1
                            });
                        CompiledRhs::Const(i as u32)
                    }
                };
                compiled.push(CompiledAtom {
                    lhs,
                    op: atom.op,
                    rhs,
                });
            }
            clauses.push(compiled);
        }
        let mapped_consts = consts.iter().any(|c| !c.map.is_identity());
        let batch = build_batch(db, parent, &clauses, &slots);
        let mut prog = PredicateProgram {
            form: pred.form,
            clauses,
            slots,
            source_slots,
            consts,
            hoist_epoch: 0,
            mapped_consts,
            batch,
        };
        prog.hoist(db)?;
        isis_obs::global().count("query.program.compiles", 1);
        Ok(prog)
    }

    /// (Re)materialises every hoisted constant image from `db`.
    fn hoist(&mut self, db: &Database) -> Result<()> {
        for c in &mut self.consts {
            c.image = if c.map.is_identity() {
                c.anchors.clone()
            } else {
                db.eval_map(c.anchors.iter(), &c.map)?
            };
        }
        self.hoist_epoch = db.delta_epoch();
        Ok(())
    }

    /// Re-hoists mapped constant images when the database's delta epoch has
    /// advanced past the one they were hoisted at. Identity-map constants
    /// equal the anchor set stored in the predicate and never go stale, so
    /// a program without mapped constants refreshes for free. Long-lived
    /// holders (the delta-maintenance path) must call this before reuse;
    /// per-query compilation sidesteps it.
    pub fn ensure_fresh(&mut self, db: &Database) -> Result<()> {
        if self.mapped_consts && db.delta_epoch() != self.hoist_epoch {
            isis_obs::global().count("query.program.rehoists", 1);
            self.hoist(db)?;
        } else {
            self.hoist_epoch = db.delta_epoch();
        }
        Ok(())
    }

    /// The number of deduplicated candidate-map slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The number of hoisted constant images.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// `true` when some hoisted constant applies a non-identity map (the
    /// only images [`PredicateProgram::ensure_fresh`] ever recomputes).
    pub fn has_mapped_consts(&self) -> bool {
        self.mapped_consts
    }

    fn ensure_slot(&self, db: &Database, e: EntityId, memo: &mut MemoTable, i: u32) -> Result<()> {
        let slot = &mut memo.slots[i as usize];
        if slot.is_some() {
            memo.hits += 1;
        } else {
            memo.misses += 1;
            *slot = Some(db.eval_map([e], &self.slots[i as usize])?);
        }
        Ok(())
    }

    fn ensure_source_slot(
        &self,
        db: &Database,
        x: EntityId,
        memo: &mut MemoTable,
        i: u32,
    ) -> Result<()> {
        let slot = &mut memo.source_slots[i as usize];
        if slot.is_some() {
            memo.hits += 1;
        } else {
            memo.misses += 1;
            *slot = Some(db.eval_map([x], &self.source_slots[i as usize])?);
        }
        Ok(())
    }

    fn eval_compiled_atom(
        &self,
        db: &Database,
        e: EntityId,
        source: Option<EntityId>,
        memo: &mut MemoTable,
        atom: &CompiledAtom,
    ) -> Result<bool> {
        self.ensure_slot(db, e, memo, atom.lhs)?;
        let rhs: &OrderedSet = match atom.rhs {
            CompiledRhs::Const(i) => &self.consts[i as usize].image,
            CompiledRhs::SelfSlot(i) => {
                self.ensure_slot(db, e, memo, i)?;
                memo.slots[i as usize].as_ref().expect("slot just filled")
            }
            CompiledRhs::Source(i) => {
                let x = source.ok_or_else(|| {
                    CoreError::Inconsistent(
                        "atom references the source entity x outside a derived-attribute predicate"
                            .into(),
                    )
                })?;
                self.ensure_source_slot(db, x, memo, i)?;
                memo.source_slots[i as usize]
                    .as_ref()
                    .expect("slot just filled")
            }
        };
        let lhs = memo.slots[atom.lhs as usize]
            .as_ref()
            .expect("lhs slot filled above");
        db.eval_prepared_atom(lhs, atom.op, rhs)
    }

    /// Evaluates the program for candidate `e` (with optional source `x`),
    /// honouring the DNF/CNF short-circuit semantics. Identical in results
    /// *and* errors to [`Database::eval_predicate_for`] on the predicate
    /// the program was compiled from.
    ///
    /// [`Database::eval_predicate_for`]: isis_core::Database::eval_predicate_for
    pub fn eval_for(
        &self,
        db: &Database,
        e: EntityId,
        source: Option<EntityId>,
        memo: &mut MemoTable,
    ) -> Result<bool> {
        memo.begin_candidate(source);
        match self.form {
            NormalForm::Dnf => {
                // OR of clauses; each clause an AND of atoms.
                for clause in &self.clauses {
                    let mut all = true;
                    for atom in clause {
                        if !self.eval_compiled_atom(db, e, source, memo, atom)? {
                            all = false;
                            break;
                        }
                    }
                    if all {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            NormalForm::Cnf => {
                // AND of clauses; each clause an OR of atoms.
                for clause in &self.clauses {
                    let mut any = false;
                    for atom in clause {
                        if self.eval_compiled_atom(db, e, source, memo, atom)? {
                            any = true;
                            break;
                        }
                    }
                    if !any {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }

    /// Serial driver: evaluates the program over the whole extent of the
    /// class it was compiled for, preserving extent order. Equivalent to
    /// [`Database::evaluate_derived_members`].
    ///
    /// [`Database::evaluate_derived_members`]: isis_core::Database::evaluate_derived_members
    pub fn evaluate_extent(&self, db: &Database, parent: ClassId) -> Result<OrderedSet> {
        let mut memo = MemoTable::new(self);
        let mut out = OrderedSet::new();
        for e in db.members(parent)?.iter().collect::<Vec<_>>() {
            if self.eval_for(db, e, None, &mut memo)? {
                out.insert(e);
            }
        }
        memo.flush_obs();
        Ok(out)
    }

    /// `true` when every atom of every clause is streamable, i.e.
    /// [`PredicateProgram::eval_batch`] will take the column-streaming
    /// path rather than falling back to the per-candidate interpreter.
    pub fn batch_compatible(&self) -> bool {
        self.batch.is_some()
    }

    /// The per-candidate scalar loop — the semantics every other driver is
    /// measured against.
    fn eval_scalar(
        &self,
        db: &Database,
        candidates: &[EntityId],
        source: Option<EntityId>,
        memo: &mut MemoTable,
        out: &mut Vec<EntityId>,
    ) -> Result<()> {
        for &e in candidates {
            if self.eval_for(db, e, source, memo)? {
                out.push(e);
            }
        }
        Ok(())
    }

    /// Evaluates the program over `candidates` (in order), streaming
    /// attribute columns in runs of [`BATCH_ROWS`] when the program is
    /// batch-compatible and falling back to the scalar loop otherwise.
    ///
    /// Exactness contract — results, order, *and* errors are identical to
    /// the scalar loop:
    ///
    /// * every streamed atom's attribute owner is an ancestor of the
    ///   compiled parent class (predicate validation), so
    ///   `members(parent) ⊆ members(owner)` and a candidate that is a
    ///   member of the parent cannot hit the scalar path's `NotAMember`
    ///   error; non-ordering set compares are infallible;
    /// * a run streams the atoms of each clause over the candidates still
    ///   undecided, dropping a candidate at the atom that decides it, so
    ///   it tests exactly the (candidate, atom) pairs the scalar
    ///   short-circuit tests. An ordering test that would error there
    ///   leaves its candidate undecided ([`Database::compare_value`]);
    /// * any run containing a non-member or undecided candidate — or any
    ///   evaluation where the parent class or a streamed attribute has
    ///   since died — is handed to the scalar loop wholesale, in
    ///   candidate order. Every earlier run was decided without error, so
    ///   the first failing candidate surfaces the scalar error.
    ///
    /// A run equal to the parent extent's window at the run's own position
    /// is a member run without a per-row probe: that is every run of a
    /// full-extent scan. Any other run (pooled or foreign candidates) is
    /// proven member by member.
    ///
    /// Each atom is resolved once per call (its column, its constant, an
    /// ordering constant's literal, its negation) and memoises the
    /// decision of each single-valued cell by value id; the row lists of
    /// a run are compacted without branching on any row's decision.
    pub fn eval_batch(
        &self,
        db: &Database,
        candidates: &[EntityId],
        source: Option<EntityId>,
        memo: &mut MemoTable,
    ) -> Result<Vec<EntityId>> {
        self.eval_batch_at(db, candidates, 0, source, memo)
    }

    /// [`PredicateProgram::eval_batch`] over `candidates`, which sit at
    /// position `at` of the caller's candidate list (a pool worker's chunk
    /// of a longer list), so their runs are compared with the extent
    /// window at that position. `at` only guides the comparison: a run
    /// that does not equal its window is still proven member by member.
    pub(crate) fn eval_batch_at(
        &self,
        db: &Database,
        candidates: &[EntityId],
        at: usize,
        source: Option<EntityId>,
        memo: &mut MemoTable,
    ) -> Result<Vec<EntityId>> {
        let mut out = Vec::new();
        // An empty list has no run to stream: skip resolving the kernels.
        let streamable = self.batch.as_ref().filter(|_| !candidates.is_empty());
        let streamable = streamable.and_then(|batch| {
            let members = &db.class(batch.parent).ok()?.members;
            let rows = candidates.len().min(BATCH_ROWS);
            let kernels = batch
                .clauses
                .iter()
                .flatten()
                .map(|a| Kernel::new(db, self, a, rows))
                .collect::<Option<Vec<_>>>()?;
            Some((batch, members, kernels))
        });
        let Some((batch, members, mut kernels)) = streamable else {
            self.eval_scalar(db, candidates, source, memo, &mut out)?;
            return Ok(out);
        };
        let extent = members.as_slice();
        let mut scratch = Scratch::default();
        for (start, run) in (at..)
            .step_by(BATCH_ROWS)
            .zip(candidates.chunks(BATCH_ROWS))
        {
            let window = extent.get(start..start + run.len());
            let member_run = window == Some(run) || run.iter().all(|&e| members.contains(e));
            let streamed = member_run
                && stream_run(
                    self.form,
                    &batch.clauses,
                    &mut kernels,
                    run,
                    &mut scratch,
                    &mut out,
                )
                .is_some();
            if !streamed {
                self.eval_scalar(db, run, source, memo, &mut out)?;
            }
        }
        Ok(out)
    }
}

/// Per-candidate memoisation scratch for one [`PredicateProgram`]: each
/// distinct candidate map is walked at most once per entity, and source
/// images are reused across candidates while the source is unchanged.
/// Reusable across candidates and queries against the same program.
#[derive(Debug, Clone)]
pub struct MemoTable {
    slots: Vec<Option<OrderedSet>>,
    source_slots: Vec<Option<OrderedSet>>,
    source_for: Option<EntityId>,
    hits: u64,
    misses: u64,
}

impl MemoTable {
    /// A memo table sized for `prog`'s slots.
    pub fn new(prog: &PredicateProgram) -> MemoTable {
        MemoTable {
            slots: vec![None; prog.slots.len()],
            source_slots: vec![None; prog.source_slots.len()],
            source_for: None,
            hits: 0,
            misses: 0,
        }
    }

    fn begin_candidate(&mut self, source: Option<EntityId>) {
        for s in &mut self.slots {
            *s = None;
        }
        if self.source_for != source {
            for s in &mut self.source_slots {
                *s = None;
            }
            self.source_for = source;
        }
    }

    /// Slot lookups answered from the memo since construction / last flush.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Slot lookups that had to walk the map.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Publishes the accumulated hit/miss counts to the process-wide
    /// [`isis_obs`] registry (`query.program.memo_hits` / `.memo_misses`)
    /// and zeroes them. One call per evaluation run keeps the hot loop free
    /// of registry traffic.
    pub fn flush_obs(&mut self) {
        let obs = isis_obs::global();
        if obs.enabled() {
            obs.count("query.program.memo_hits", self.hits);
            obs.count("query.program.memo_misses", self.misses);
        }
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::{Atom, BaseKind, Clause, CompareOp, Multiplicity};
    use isis_sample::{instrumental_music, quartets_predicate};

    #[test]
    fn compiled_matches_interpreted_on_the_quartets_query() {
        let mut im = instrumental_music().unwrap();
        let pred = quartets_predicate(&mut im);
        let want = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap();
        let prog = PredicateProgram::compile(&im.db, im.music_groups, &pred).unwrap();
        let got = prog.evaluate_extent(&im.db, im.music_groups).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn cheap_selective_atom_moves_first_in_and_clause() {
        let mut im = instrumental_music().unwrap();
        let four = im.db.int(4);
        let ints = im.db.predefined(BaseKind::Integers);
        // Expensive 2-hop atom first, cheap 1-hop equality second.
        let expensive = Atom::new(
            Map::new(vec![im.members, im.plays]),
            CompareOp::Superset,
            Rhs::constant(im.instruments, [im.piano]),
        );
        let cheap = Atom::new(
            Map::single(im.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [four]),
        );
        let atoms = [expensive.clone(), cheap.clone()];
        let ordered: Vec<&Atom> =
            reorder_clause(&im.db, im.music_groups, NormalForm::Dnf, &atoms, None)
                .into_iter()
                .map(|(a, _)| a)
                .collect();
        assert_eq!(ordered, [&cheap, &expensive]);
    }

    #[test]
    fn shared_lhs_maps_are_memoised() {
        let mut im = instrumental_music().unwrap();
        let four = im.db.int(4);
        let two = im.db.int(2);
        let ints = im.db.predefined(BaseKind::Integers);
        // Two atoms over the same lhs map → one slot, memo hits > 0.
        let a = Atom::new(
            isis_core::Map::single(im.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [four]),
        );
        let b = Atom::new(
            isis_core::Map::single(im.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [two]),
        );
        let pred = Predicate::cnf(vec![Clause::new(vec![a, b])]);
        let prog = PredicateProgram::compile(&im.db, im.music_groups, &pred).unwrap();
        assert_eq!(prog.slot_count(), 1);
        assert_eq!(prog.const_count(), 2);
        let mut memo = MemoTable::new(&prog);
        let mut hits = 0;
        for e in im.db.members(im.music_groups).unwrap().iter() {
            let want = im.db.eval_predicate_for(e, &pred, None).unwrap();
            let got = prog.eval_for(&im.db, e, None, &mut memo).unwrap();
            assert_eq!(got, want);
            hits = memo.hits();
        }
        assert!(hits > 0, "second atom must reuse the memoised size image");
    }

    #[test]
    fn mapped_constants_rehoist_on_ensure_fresh() {
        let mut im = instrumental_music().unwrap();
        // Instruments in the same family as the flute — a mapped constant.
        let atom = Atom::new(
            isis_core::Map::single(im.family),
            CompareOp::SetEq,
            Rhs::Constant {
                class: im.instruments,
                anchors: [im.flute].into_iter().collect(),
                map: isis_core::Map::single(im.family),
            },
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let mut prog = PredicateProgram::compile(&im.db, im.instruments, &pred).unwrap();
        assert!(prog.has_mapped_consts());
        let before = prog.evaluate_extent(&im.db, im.instruments).unwrap();
        assert_eq!(
            before.as_slice(),
            im.db
                .evaluate_derived_members(im.instruments, &pred)
                .unwrap()
                .as_slice()
        );
        // The seed mis-files the flute under brass; the §4.2 correction
        // moves it to woodwind, leaving the hoisted image stale until
        // ensure_fresh re-hoists it.
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        prog.ensure_fresh(&im.db).unwrap();
        let after = prog.evaluate_extent(&im.db, im.instruments).unwrap();
        assert_eq!(
            after.as_slice(),
            im.db
                .evaluate_derived_members(im.instruments, &pred)
                .unwrap()
                .as_slice()
        );
        assert_ne!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn ordering_atoms_error_identically_and_stay_barriers() {
        let mut im = instrumental_music().unwrap();
        let one = im.db.int(1);
        let ints = im.db.predefined(BaseKind::Integers);
        // plays < {1} errors on any musician with a non-singleton or
        // non-literal plays image; an expensive infallible atom placed
        // before it must not be hoisted past the barrier in a way that
        // changes which side of the barrier short-circuits.
        let fallible = Atom::new(
            isis_core::Map::single(im.plays),
            CompareOp::Lt,
            Rhs::constant(ints, [one]),
        );
        let cheap_true = Atom::new(
            isis_core::Map::identity(),
            CompareOp::SetEq,
            Rhs::SelfMap(isis_core::Map::identity()),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![fallible, cheap_true])]);
        let prog = PredicateProgram::compile(&im.db, im.musicians, &pred).unwrap();
        let mut memo = MemoTable::new(&prog);
        for e in im.db.members(im.musicians).unwrap().iter() {
            let want = im.db.eval_predicate_for(e, &pred, None);
            let got = prog.eval_for(&im.db, e, None, &mut memo);
            match (want, got) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("divergent fallibility: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn batch_compatibility_is_detected_per_atom_shape() {
        let mut im = instrumental_music().unwrap();
        let four = im.db.int(4);
        let ints = im.db.predefined(BaseKind::Integers);
        // size = {4}: single-step lhs, constant rhs, non-ordering → batch.
        let streamable = Atom::new(
            isis_core::Map::single(im.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [four]),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![streamable.clone()])]);
        let prog = PredicateProgram::compile(&im.db, im.music_groups, &pred).unwrap();
        assert!(prog.batch_compatible());
        // An ordering atom of the same shape streams too.
        let ordering = Atom::new(
            isis_core::Map::single(im.size),
            CompareOp::Lt,
            Rhs::constant(ints, [four]),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![ordering])]);
        let prog = PredicateProgram::compile(&im.db, im.music_groups, &pred).unwrap();
        assert!(prog.batch_compatible());
        // A self-map rhs is candidate-dependent: not streamable.
        let self_rhs = Atom::new(
            isis_core::Map::single(im.size),
            CompareOp::SetEq,
            Rhs::SelfMap(isis_core::Map::single(im.size)),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![self_rhs])]);
        let prog = PredicateProgram::compile(&im.db, im.music_groups, &pred).unwrap();
        assert!(!prog.batch_compatible());
        // A two-step lhs map walks the network: not streamable.
        let two_step = Atom::new(
            isis_core::Map::new(vec![im.plays, im.family]),
            CompareOp::Match,
            Rhs::constant(im.families, [im.brass]),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![two_step])]);
        let prog = PredicateProgram::compile(&im.db, im.musicians, &pred).unwrap();
        assert!(!prog.batch_compatible());
    }

    #[test]
    fn batch_matches_scalar_on_every_member_subset() {
        let mut im = instrumental_music().unwrap();
        // Two clauses mixing a single-valued column (size) with a
        // multivalued one (members): DNF of
        // `{ members ∋ edith ∧ size = 4 }` ∨ `{ size = 2 }`.
        let four = im.db.int(4);
        let two = im.db.int(2);
        let ints = im.db.predefined(BaseKind::Integers);
        let pred = Predicate::dnf(vec![
            Clause::new(vec![
                Atom::new(
                    isis_core::Map::single(im.members),
                    CompareOp::Match,
                    Rhs::constant(im.musicians, [im.edith]),
                ),
                Atom::new(
                    isis_core::Map::single(im.size),
                    CompareOp::SetEq,
                    Rhs::constant(ints, [four]),
                ),
            ]),
            Clause::new(vec![Atom::new(
                isis_core::Map::single(im.size),
                CompareOp::SetEq,
                Rhs::constant(ints, [two]),
            )]),
        ]);
        let prog = PredicateProgram::compile(&im.db, im.music_groups, &pred).unwrap();
        assert!(prog.batch_compatible(), "single-step constant atoms stream");
        let members: Vec<EntityId> = im.db.members(im.music_groups).unwrap().iter().collect();
        // Whole extent, a strict prefix, and a strided subset must all
        // agree with the scalar loop, element for element, in order.
        let subsets: Vec<Vec<EntityId>> = vec![
            members.clone(),
            members[..members.len() / 2].to_vec(),
            members.iter().copied().step_by(2).collect(),
        ];
        for cands in subsets {
            let mut memo = MemoTable::new(&prog);
            let batch = prog.eval_batch(&im.db, &cands, None, &mut memo).unwrap();
            let mut scalar = Vec::new();
            for &e in &cands {
                if prog.eval_for(&im.db, e, None, &mut memo).unwrap() {
                    scalar.push(e);
                }
            }
            assert_eq!(batch, scalar);
        }
    }

    #[test]
    fn batch_surfaces_the_scalar_error_for_rogue_candidates() {
        let mut im = instrumental_music().unwrap();
        let four = im.db.int(4);
        let ints = im.db.predefined(BaseKind::Integers);
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            isis_core::Map::single(im.size),
            CompareOp::SetEq,
            Rhs::constant(ints, [four]),
        )])]);
        let prog = PredicateProgram::compile(&im.db, im.music_groups, &pred).unwrap();
        assert!(prog.batch_compatible());
        // A musician is not a member of music_groups: the scalar loop
        // errors NotAMember on it, and the batch path must surface the
        // identical error (not silently drop the candidate).
        let rogue = im.edith;
        let mut cands: Vec<EntityId> = im.db.members(im.music_groups).unwrap().iter().collect();
        cands.push(rogue);
        let mut memo = MemoTable::new(&prog);
        let want = (|| -> Result<Vec<EntityId>> {
            let mut out = Vec::new();
            for &e in &cands {
                if prog.eval_for(&im.db, e, None, &mut memo)? {
                    out.push(e);
                }
            }
            Ok(out)
        })();
        let got = prog.eval_batch(&im.db, &cands, None, &mut memo);
        match (want, got) {
            (Err(a), Err(b)) => assert_eq!(a, b, "identical error"),
            (a, b) => panic!("both paths must fail identically: {a:?} vs {b:?}"),
        }
    }

    /// A run equal to its extent window skips the per-row probe at every
    /// pool width; a foreign candidate in place of a member keeps the
    /// run's length, so only the probe can catch it, and the scalar error
    /// surfaces.
    #[test]
    fn batch_proves_extent_windows_and_probes_every_other_run() {
        let s = isis_sample::synthetic_music(isis_sample::Scale::of(3000), 5).unwrap();
        let pred = Predicate::dnf(vec![Clause::new(vec![Atom::new(
            isis_core::Map::single(s.plays),
            CompareOp::Match,
            Rhs::constant(s.instruments, [s.instrument_ids[0]]),
        )])]);
        let prog = PredicateProgram::compile(&s.db, s.musicians, &pred).unwrap();
        assert!(prog.batch_compatible());
        let extent: Vec<EntityId> = s.db.members(s.musicians).unwrap().iter().collect();
        assert!(extent.len() > 2 * BATCH_ROWS);
        let scalar = |cands: &[EntityId]| -> Result<Vec<EntityId>> {
            let mut memo = MemoTable::new(&prog);
            let mut out = Vec::new();
            prog.eval_scalar(&s.db, cands, None, &mut memo, &mut out)?;
            Ok(out)
        };
        let mut rogue = extent.clone();
        rogue[BATCH_ROWS + 7] = s.instrument_ids[0];
        let shifted = &extent[1..];
        for threads in [1, 2, 4] {
            let pool = crate::EvalPool::new(threads);
            for cands in [&extent[..], shifted] {
                let got = pool.evaluate(&s.db, &prog, cands, None).unwrap();
                assert_eq!(got.as_slice(), scalar(cands).unwrap(), "threads={threads}");
            }
            let got = pool.evaluate(&s.db, &prog, &rogue, None);
            let want = scalar(&rogue).map_err(crate::QueryError::Core);
            assert!(want.is_err());
            assert_eq!(
                got.map(|o| o.as_slice().to_vec()),
                want,
                "threads={threads}"
            );
        }
    }

    /// Every run repeats each metric value many times. The first atom
    /// holds for every value and memoises it; the second, an ordering
    /// atom over the same column against a constant that is not a
    /// literal, can decide none. Its own memo must not answer for it, so
    /// the first run still goes to the scalar loop and raises its error.
    #[test]
    fn undecidable_repeated_values_still_go_to_the_scalar_loop() {
        let mut g = isis_sample::synthetic_scaled(isis_sample::SynthSpec {
            entities: 3000,
            dist: isis_sample::ValueDist::Zipf,
            shape: isis_sample::SchemaShape::Wide,
            seed: 9,
        })
        .unwrap();
        let zero = g.s.db.int(0);
        let ints = g.s.db.predefined(BaseKind::Integers);
        let metric = Map::single(g.wide_attrs[0]);
        let holds = Atom::new(metric.clone(), CompareOp::Ge, Rhs::constant(ints, [zero]));
        let undecidable = Atom::new(
            metric,
            CompareOp::Lt,
            Rhs::constant(g.s.instruments, [g.s.instrument_ids[0]]),
        );
        let extent: Vec<EntityId> = g.s.db.members(g.s.musicians).unwrap().iter().collect();
        let clause = Clause::new(vec![holds, undecidable]);
        for pred in [
            Predicate::dnf(vec![clause.clone()]),
            Predicate::cnf(vec![clause]),
        ] {
            let prog = PredicateProgram::compile(&g.s.db, g.s.musicians, &pred).unwrap();
            assert!(prog.batch_compatible());
            let mut memo = MemoTable::new(&prog);
            let mut scalar = Vec::new();
            let want = prog.eval_scalar(&g.s.db, &extent, None, &mut memo, &mut scalar);
            let got = prog.eval_batch(&g.s.db, &extent, None, &mut memo);
            match pred.form {
                // Every candidate reaches the undecidable atom.
                NormalForm::Dnf => assert!(want.is_err(), "{pred}"),
                // The first atom already satisfies the clause.
                NormalForm::Cnf => assert_eq!(scalar, extent),
            }
            assert_eq!(got, want.map(|()| scalar), "{pred}");
        }
    }

    #[test]
    fn source_atoms_evaluate_against_the_source_entity() {
        let mut im = instrumental_music().unwrap();
        let colleagues = im
            .db
            .create_attribute(im.musicians, "similar", im.musicians, Multiplicity::Multi)
            .unwrap();
        let _ = colleagues;
        let atom = Atom::new(
            isis_core::Map::single(im.plays),
            CompareOp::Match,
            Rhs::SourceMap(isis_core::Map::single(im.plays)),
        );
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let prog =
            PredicateProgram::compile_with(&im.db, im.musicians, Some(im.musicians), &pred, None)
                .unwrap();
        let mut memo = MemoTable::new(&prog);
        let members: Vec<EntityId> = im.db.members(im.musicians).unwrap().iter().collect();
        for &x in &members {
            for &e in &members {
                let want = im.db.eval_predicate_for(e, &pred, Some(x)).unwrap();
                let got = prog.eval_for(&im.db, e, Some(x), &mut memo).unwrap();
                assert_eq!(got, want, "e={e:?} x={x:?}");
            }
        }
        // Evaluating a source atom without a source errors, as interpreted.
        assert!(prog.eval_for(&im.db, members[0], None, &mut memo).is_err());
    }
}
