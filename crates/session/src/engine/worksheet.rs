//! The predicate worksheet (§3.1, Figures 9 and 10): opening it for a
//! membership, a derivation or a constraint, building atoms, the constant
//! pick's return, and the commit that installs what it defines. Every
//! atom edit goes through one guard, `editing_atom`.

use isis_core::{
    Atom, AttrDerivation, AttrId, ClassId, Clause, ConstraintKind, Map, NormalForm, Predicate, Rhs,
    SchemaNode, ValueClass,
};
use isis_views::worksheet_view::CLAUSE_WINDOWS;
use isis_views::{PageSpec, WorksheetInput};

use super::Session;
use crate::command::Command;
use crate::error::SessionError;
use crate::state::{AtomDraft, Mode, RefreshPolicy, Selection, WorksheetState, WsTarget};

impl Session {
    fn ws(&mut self) -> Result<&mut WorksheetState, SessionError> {
        self.worksheet
            .as_mut()
            .ok_or_else(|| SessionError::NoWorksheet("open one with (re)define".into()))
    }

    /// The atom being edited: what every atom edit acts on.
    fn editing_atom(&mut self) -> Result<&mut AtomDraft, SessionError> {
        self.ws()?
            .editing_atom()
            .ok_or_else(|| SessionError::NoWorksheet("no atom being edited".into()))
    }

    /// Traces `steps` from the worksheet's candidate class or, when
    /// `source` gives the refusal for a worksheet without one, from its
    /// source class.
    fn traced_map(
        &mut self,
        steps: Vec<AttrId>,
        source: Option<&str>,
    ) -> Result<Map, SessionError> {
        let ws = self.ws()?;
        let from = match source {
            None => ws.candidate_class,
            Some(refusal) => ws
                .source_class
                .ok_or_else(|| SessionError::NoWorksheet(refusal.into()))?,
        };
        let map = Map::new(steps);
        self.db.trace_map(from, &map)?;
        Ok(map)
    }

    /// Opens the worksheet on `target`, its candidates ranging over
    /// `candidates` and, for a derivation, its source entity over `source`.
    fn open_worksheet(&mut self, target: WsTarget, candidates: ClassId, source: Option<ClassId>) {
        self.worksheet = Some(WorksheetState::new(target, candidates, source));
        self.mode = Mode::Worksheet;
    }

    /// The worksheet verbs, and the constant pick's return to it.
    pub(super) fn apply_worksheet(&mut self, cmd: Command) -> Result<(), SessionError> {
        match cmd {
            Command::DefineMembership => {
                let class = self.selected_class()?;
                let parent = self.db.class(class)?.parent.ok_or_else(|| {
                    SessionError::BadSelection(
                        "baseclass membership is not predicate-defined".into(),
                    )
                })?;
                self.open_worksheet(WsTarget::Membership(class), parent, None);
            }
            Command::DefineDerivation => {
                let attr = self.selected_attr()?;
                let rec = self.db.attr(attr)?;
                let ValueClass::Class(value_class) = rec.value_class else {
                    return Err(SessionError::BadSelection(
                        "derivations onto groupings are not supported".into(),
                    ));
                };
                let owner = rec.owner;
                self.open_worksheet(WsTarget::Derivation(attr), value_class, Some(owner));
            }
            Command::DefineConstraint { name, kind } => {
                let class = self.selected_class()?;
                self.open_worksheet(WsTarget::Constraint { name, kind }, class, None);
            }
            Command::CheckConstraints => {
                let failing = self.db.check_all_constraints()?;
                if failing.is_empty() {
                    let n = self.db.constraints().count();
                    self.say(format!("all {n} constraints hold"));
                }
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
            Command::WsNewAtom => {
                let ws = self.ws()?;
                let tag = ws.next_tag().ok_or_else(|| {
                    SessionError::WrongMode("the worksheet is full: atoms A–Z are taken".into())
                })?;
                ws.atoms.push(AtomDraft::new(tag));
                ws.editing = Some(ws.atoms.len() - 1);
            }
            Command::WsEdit(tag) => {
                let ws = self.ws()?;
                let idx = ws
                    .atoms
                    .iter()
                    .position(|a| a.tag == tag)
                    .ok_or_else(|| SessionError::NoWorksheet(format!("no atom {tag}")))?;
                ws.editing = Some(idx);
            }
            Command::WsLhsPush(attr) => {
                // The longer map must still trace from the candidate class.
                let candidate = self.ws()?.candidate_class;
                let mut map = self.editing_atom()?.lhs.clone();
                map.push(attr);
                self.db.trace_map(candidate, &map)?;
                self.editing_atom()?.lhs = map;
            }
            Command::WsLhsPop => {
                self.editing_atom()?.lhs.pop();
            }
            Command::WsOperator(op) => self.editing_atom()?.op = Some(op),
            Command::WsRhsSelfMap(steps) => {
                let map = self.traced_map(steps, None)?;
                self.editing_atom()?.rhs = Some(Rhs::SelfMap(map));
            }
            Command::WsRhsSourceMap(steps) => {
                let refusal = "source maps need a derivation worksheet";
                let map = self.traced_map(steps, Some(refusal))?;
                self.editing_atom()?.rhs = Some(Rhs::SourceMap(map));
            }
            Command::WsRhsConstant(start) => {
                let candidate = self.ws()?.candidate_class;
                let lhs = self.editing_atom()?.lhs.clone();
                // "constant … temporarily takes the user into the data
                // level, where he may select or create a constant in the
                // class at which the left hand side mapping terminates."
                let class = match start {
                    Some(c) => c,
                    None => self.db.trace_map(candidate, &lhs)?.terminal(),
                };
                let name = self.db.class(class)?.name.clone();
                self.mode = Mode::ConstantPick {
                    class,
                    page: PageSpec::new(SchemaNode::Class(class)),
                };
                self.say(format!("select constant(s) in {name}"));
            }
            Command::ConstantDone => {
                let Mode::ConstantPick { class, page } = &self.mode else {
                    return Err(SessionError::WrongMode(
                        "no constant selection in progress".into(),
                    ));
                };
                let rhs = Rhs::Constant {
                    class: *class,
                    anchors: page.selected.iter().copied().collect(),
                    map: Map::identity(),
                };
                self.editing_atom()?.rhs = Some(rhs);
                // Return from the temporary visit: schema and data
                // selections are untouched (Diagram 1's loop arrow).
                self.mode = Mode::Worksheet;
            }
            Command::WsPlaceInClause(i) => {
                if i >= CLAUSE_WINDOWS {
                    return Err(SessionError::NoWorksheet(format!("no clause window {i}")));
                }
                self.editing_atom()?.placed = Some(i);
            }
            Command::WsSwitchAndOr => {
                let ws = self.ws()?;
                ws.form = ws.form.switched();
            }
            Command::WsHandAssign(steps) => {
                let refusal = "the hand operator needs a derivation worksheet";
                let map = self.traced_map(steps, Some(refusal))?;
                self.ws()?.hand = Some(map);
            }
            Command::WsCommit => return self.commit_worksheet(),
            other => unreachable!("{other:?} is not a worksheet command"),
        }
        Ok(())
    }

    /// *commit*: installs what the worksheet defines, then returns to the
    /// forest with it selected. A derivation given by the hand operator
    /// needs no predicate.
    fn commit_worksheet(&mut self) -> Result<(), SessionError> {
        let ws = self
            .worksheet
            .clone()
            .ok_or_else(|| SessionError::NoWorksheet("nothing to commit".into()))?;
        let pred = || predicate_of(&ws.atoms, ws.form);
        let selection = match ws.target.clone() {
            WsTarget::Membership(class) => {
                let pred = pred()?;
                self.snapshot();
                let n = self.db.commit_membership(class, pred)?;
                let name = self.db.class(class)?.name.clone();
                self.say(format!("{name} committed: {n} members"));
                Selection::Class(class)
            }
            WsTarget::Derivation(attr) => {
                let derivation = match ws.hand.clone() {
                    Some(map) => AttrDerivation::Assign(map),
                    None => AttrDerivation::Predicate(pred()?),
                };
                self.snapshot();
                let n = self.db.commit_derivation(attr, derivation)?;
                self.say(format!("derivation committed for {n} entities"));
                Selection::Attr(attr)
            }
            WsTarget::Constraint { name, kind } => {
                let (pred, class) = (pred()?, ws.candidate_class);
                self.snapshot();
                let id = self.db.create_constraint(&name, class, pred, kind)?;
                let report = self.db.check_constraint(id)?;
                self.say(if report.holds() {
                    format!("constraint {name:?} installed and holds")
                } else {
                    let n = report.violators.len();
                    format!("constraint {name:?} installed; {n} existing violators")
                });
                Selection::Class(class)
            }
        };
        self.worksheet = None;
        self.mode = Mode::Forest;
        self.selection = Some(selection);
        self.refresh_at(RefreshPolicy::OnCommit)
    }

    // ------------------------------------------------------------------
    // Rendering
    // ------------------------------------------------------------------

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
                    ConstraintKind::ForAll => "for all",
                    ConstraintKind::Forbidden => "forbidden",
                }
            ),
        };
        let mut clauses = vec![Vec::new(); CLAUSE_WINDOWS];
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

    pub(super) fn display_predicate(&self, p: &Predicate) -> Result<String, SessionError> {
        // Render with names instead of raw ids.
        let (inner, outer) = match p.form {
            NormalForm::Dnf => (" AND ", " OR "),
            NormalForm::Cnf => (" OR ", " AND "),
        };
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
            parts.push(format!("({})", atoms.join(inner)));
        }
        Ok(parts.join(outer))
    }
}

/// The predicate the placed atoms spell, clause window by clause window;
/// every placed atom must be complete.
fn predicate_of(atoms: &[AtomDraft], form: NormalForm) -> Result<Predicate, SessionError> {
    let max_clause = atoms
        .iter()
        .filter_map(|a| a.placed)
        .max()
        .ok_or_else(|| SessionError::NoWorksheet("no atoms placed in clauses".into()))?;
    let mut clauses = Vec::new();
    for i in 0..=max_clause {
        let atoms: Vec<Atom> = atoms
            .iter()
            .filter(|a| a.placed == Some(i))
            .map(|a| -> Result<Atom, SessionError> {
                Ok(Atom {
                    lhs: a.lhs.clone(),
                    op: a.op.ok_or_else(|| {
                        SessionError::NoWorksheet(format!("atom {} has no operator", a.tag))
                    })?,
                    rhs: a.rhs.clone().ok_or_else(|| {
                        SessionError::NoWorksheet(format!("atom {} has no right hand side", a.tag))
                    })?,
                })
            })
            .collect::<Result<_, _>>()?;
        if !atoms.is_empty() {
            clauses.push(Clause::new(atoms));
        }
    }
    Ok(Predicate { form, clauses })
}
