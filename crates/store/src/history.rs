//! Design history — the paper's §5 third future-work item:
//!
//! "Third, we would like to add features to assist users in the process of
//! designing their schemas … For example, it would be useful to be able to
//! keep track of the history of a database design."
//!
//! The write-ahead log *is* a complete, ordered history of every design
//! decision. [`DesignHistory`] replays it: reconstructing the database as
//! of any operation (time travel), narrating each operation with names
//! resolved against the state it applied to, and summarising the schema
//! difference between any two points.

use isis_core::{Database, Multiplicity, ValueClassSpec};

use crate::error::StoreError;
use crate::store::StoreDir;
use crate::wal::{replay_with, LogOp};

/// A replayable design history: a base state plus the operation log.
#[derive(Debug)]
pub struct DesignHistory {
    base: Database,
    ops: Vec<LogOp>,
}

/// One narrated history entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// Operation index (1-based; 0 is the base snapshot).
    pub seq: usize,
    /// `true` for schema-level operations (class/attribute/grouping/
    /// constraint changes), `false` for data-level ones.
    pub schema_level: bool,
    /// Human-readable narration, with names resolved.
    pub description: String,
}

impl DesignHistory {
    /// Builds a history from a base database and the operations applied to
    /// it since.
    pub fn new(base: Database, ops: Vec<LogOp>) -> DesignHistory {
        DesignHistory { base, ops }
    }

    /// Loads the history of database `name` from a directory, through its
    /// [`Vfs`](crate::Vfs): the newest readable snapshot generation (the
    /// one recovery loads) plus the log segment that extends it. (After a
    /// checkpoint the log restarts; histories are per-segment, like an
    /// editor's session undo. A log naming another generation — the one a
    /// crash between a checkpoint's install and its log reset leaves — is
    /// stale, and the history is empty.)
    pub fn load(dir: &StoreDir, name: &str) -> Result<DesignHistory, StoreError> {
        let base = dir.newest_snapshot(name)?;
        let replay = replay_with(dir.vfs().as_ref(), &dir.wal_path(name), false)?;
        let ops = if replay.extends(base.generation) {
            replay.ops
        } else {
            Vec::new()
        };
        Ok(DesignHistory::new(base.db, ops))
    }

    /// Number of operations in the history.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no operations were recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations themselves.
    pub fn ops(&self) -> &[LogOp] {
        &self.ops
    }

    /// Reconstructs the database as of operation `k` (0 = the base state,
    /// `len()` = the latest state).
    pub fn state_at(&self, k: usize) -> Result<Database, StoreError> {
        let mut db = self.base.clone();
        for op in self.ops.iter().take(k) {
            op.apply(&mut db)?;
        }
        Ok(db)
    }

    /// Narrates the whole history, resolving names against the state each
    /// operation applied to.
    pub fn narrate(&self) -> Result<Vec<HistoryEntry>, StoreError> {
        let mut db = self.base.clone();
        let mut out = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let description = describe(&db, op);
            out.push(HistoryEntry {
                seq: i + 1,
                schema_level: is_schema_level(op),
                description,
            });
            op.apply(&mut db)?;
        }
        Ok(out)
    }

    /// Summarises what changed in the *schema* between operation `k1` and
    /// operation `k2` (class/attribute/grouping/constraint names added and
    /// removed).
    pub fn schema_diff(&self, k1: usize, k2: usize) -> Result<Vec<String>, StoreError> {
        let a = self.state_at(k1)?;
        let b = self.state_at(k2)?;
        let mut out = Vec::new();
        let names = |db: &Database| -> Vec<String> {
            let mut v: Vec<String> = db
                .classes()
                .map(|(_, c)| format!("class {}", c.name))
                .collect();
            v.extend(db.attrs().map(|(_, r)| format!("attribute {}", r.name)));
            v.extend(db.groupings().map(|(_, g)| format!("grouping {}", g.name)));
            v.extend(
                db.constraints()
                    .map(|(_, k)| format!("constraint {}", k.name)),
            );
            v
        };
        let an = names(&a);
        let bn = names(&b);
        for n in &bn {
            if !an.contains(n) {
                out.push(format!("+ {n}"));
            }
        }
        for n in &an {
            if !bn.contains(n) {
                out.push(format!("- {n}"));
            }
        }
        Ok(out)
    }
}

/// `true` for operations that change the schema rather than the data.
pub fn is_schema_level(op: &LogOp) -> bool {
    matches!(
        op,
        LogOp::CreateBaseclass(_)
            | LogOp::CreateSubclass(..)
            | LogOp::CreateDerivedSubclass(..)
            | LogOp::RenameClass(..)
            | LogOp::DeleteClass(_)
            | LogOp::CreateAttribute(..)
            | LogOp::RenameAttr(..)
            | LogOp::RespecifyValueClass(..)
            | LogOp::DeleteAttr(_)
            | LogOp::CreateGrouping(..)
            | LogOp::RenameGrouping(..)
            | LogOp::DeleteGrouping(_)
            | LogOp::CommitMembership(..)
            | LogOp::CommitDerivation(..)
            | LogOp::EnableMultipleInheritance
            | LogOp::AddSecondaryParent(..)
            | LogOp::CreateConstraint(..)
            | LogOp::DeleteConstraint(_)
    )
}

fn class_name(db: &Database, c: isis_core::ClassId) -> String {
    db.class(c)
        .map(|r| r.name.clone())
        .unwrap_or_else(|_| c.to_string())
}

fn attr_name(db: &Database, a: isis_core::AttrId) -> String {
    db.attr(a)
        .map(|r| r.name.clone())
        .unwrap_or_else(|_| a.to_string())
}

fn grouping_name(db: &Database, g: isis_core::GroupingId) -> String {
    db.grouping(g)
        .map(|r| r.name.clone())
        .unwrap_or_else(|_| g.to_string())
}

fn entity_name(db: &Database, e: isis_core::EntityId) -> String {
    db.entity_name(e)
        .map(str::to_string)
        .unwrap_or_else(|_| e.to_string())
}

fn vc_name(db: &Database, vc: &ValueClassSpec) -> String {
    match vc {
        ValueClassSpec::Class(c) => class_name(db, *c),
        ValueClassSpec::Grouping(g) => grouping_name(db, *g),
    }
}

/// Narrates one operation against the state it is about to apply to.
pub fn describe(db: &Database, op: &LogOp) -> String {
    match op {
        LogOp::CreateBaseclass(n) => format!("create baseclass {n}"),
        LogOp::CreateSubclass(p, n) => {
            format!("create subclass {n} of {}", class_name(db, *p))
        }
        LogOp::CreateDerivedSubclass(p, n) => {
            format!("create derived subclass {n} of {}", class_name(db, *p))
        }
        LogOp::RenameClass(c, n) => format!("rename class {} to {n}", class_name(db, *c)),
        LogOp::DeleteClass(c) => format!("delete class {}", class_name(db, *c)),
        LogOp::CreateAttribute(c, n, vc, m) => format!(
            "create {} attribute {n} on {} with value class {}",
            match m {
                Multiplicity::Single => "singlevalued",
                Multiplicity::Multi => "multivalued",
            },
            class_name(db, *c),
            vc_name(db, vc)
        ),
        LogOp::RenameAttr(a, n) => format!("rename attribute {} to {n}", attr_name(db, *a)),
        LogOp::RespecifyValueClass(a, vc) => format!(
            "respecify value class of {} to {}",
            attr_name(db, *a),
            vc_name(db, vc)
        ),
        LogOp::DeleteAttr(a) => format!("delete attribute {}", attr_name(db, *a)),
        LogOp::CreateGrouping(c, n, a) => format!(
            "create grouping {n} of {} on {}",
            class_name(db, *c),
            attr_name(db, *a)
        ),
        LogOp::RenameGrouping(g, n) => {
            format!("rename grouping {} to {n}", grouping_name(db, *g))
        }
        LogOp::DeleteGrouping(g) => format!("delete grouping {}", grouping_name(db, *g)),
        LogOp::InsertEntity(b, n) => format!("insert entity {n} into {}", class_name(db, *b)),
        LogOp::Intern(l) => format!("intern literal {l}"),
        LogOp::AddToClass(e, c) => format!(
            "add {} to class {}",
            entity_name(db, *e),
            class_name(db, *c)
        ),
        LogOp::RemoveFromClass(e, c) => format!(
            "remove {} from class {}",
            entity_name(db, *e),
            class_name(db, *c)
        ),
        LogOp::DeleteEntity(e) => format!("delete entity {}", entity_name(db, *e)),
        LogOp::RenameEntity(e, n) => format!("rename entity {} to {n}", entity_name(db, *e)),
        LogOp::AssignSingle(e, a, v) => format!(
            "assign {}.{} = {}",
            entity_name(db, *e),
            attr_name(db, *a),
            entity_name(db, *v)
        ),
        LogOp::AssignMulti(e, a, vs) => format!(
            "assign {}.{} = {{{}}}",
            entity_name(db, *e),
            attr_name(db, *a),
            vs.iter()
                .map(|v| entity_name(db, *v))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        LogOp::AddValue(e, a, v) => format!(
            "add {} to {}.{}",
            entity_name(db, *v),
            entity_name(db, *e),
            attr_name(db, *a)
        ),
        LogOp::Unassign(e, a) => format!("unassign {}.{}", entity_name(db, *e), attr_name(db, *a)),
        LogOp::CommitMembership(c, _) => {
            format!("commit membership predicate of {}", class_name(db, *c))
        }
        LogOp::RefreshDerivedClass(c) => {
            format!("refresh derived class {}", class_name(db, *c))
        }
        LogOp::CommitDerivation(a, _) => {
            format!("commit derivation of {}", attr_name(db, *a))
        }
        LogOp::RefreshDerivedAttr(a) => {
            format!("refresh derived attribute {}", attr_name(db, *a))
        }
        LogOp::EnableMultipleInheritance => "enable multiple inheritance".into(),
        LogOp::AddSecondaryParent(c, p) => format!(
            "add secondary parent {} to {}",
            class_name(db, *p),
            class_name(db, *c)
        ),
        LogOp::CreateConstraint(n, c, _, kind) => format!(
            "create {} constraint {n} on {}",
            match kind {
                isis_core::ConstraintKind::ForAll => "for-all",
                isis_core::ConstraintKind::Forbidden => "forbidden",
            },
            class_name(db, *c)
        ),
        LogOp::DeleteConstraint(id) => format!("delete constraint {id}"),
        LogOp::CommitBatch(ops) => format!("commit {} operation(s) atomically", ops.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::SyncPolicy;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("isis_hist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn build(dir: &StoreDir) {
        let mut db = dir.open_logged("design", SyncPolicy::EverySync).unwrap();
        let m = db.create_baseclass("musicians").unwrap();
        let i = db.create_baseclass("instruments").unwrap();
        let plays = db
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        db.create_grouping(m, "by_instrument", plays).unwrap();
        let e = db.insert_entity(m, "Edith").unwrap();
        let v = db.insert_entity(i, "viola").unwrap();
        db.assign_multi(e, plays, [v]).unwrap();
        db.rename_class(i, "axes").unwrap();
    }

    #[test]
    fn narration_resolves_names_in_time() {
        let root = tempdir("narrate");
        let dir = StoreDir::open(&root).unwrap();
        build(&dir);
        let hist = DesignHistory::load(&dir, "design").unwrap();
        assert_eq!(hist.len(), 8);
        let entries = hist.narrate().unwrap();
        let lines: Vec<&str> = entries.iter().map(|e| e.description.as_str()).collect();
        assert_eq!(lines[0], "create baseclass musicians");
        assert!(lines[2].contains("multivalued attribute plays on musicians"));
        assert!(lines[3].contains("grouping by_instrument of musicians on plays"));
        assert!(lines[6].contains("Edith.plays = {viola}"));
        // The rename narrates against the *old* name.
        assert_eq!(lines[7], "rename class instruments to axes");
        // Schema/data classification.
        assert!(entries[0].schema_level);
        assert!(!entries[4].schema_level); // insert entity
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn time_travel_reconstructs_intermediate_states() {
        let root = tempdir("travel");
        let dir = StoreDir::open(&root).unwrap();
        build(&dir);
        let hist = DesignHistory::load(&dir, "design").unwrap();
        // Base: only the predefined classes.
        let t0 = hist.state_at(0).unwrap();
        assert_eq!(t0.classes().count(), 4);
        // After 2 ops: both baseclasses, no attribute yet.
        let t2 = hist.state_at(2).unwrap();
        assert!(t2.class_by_name("musicians").is_ok());
        assert!(t2.class_by_name("instruments").is_ok());
        let m = t2.class_by_name("musicians").unwrap();
        assert!(t2.attr_by_name(m, "plays").is_err());
        // Final state equals a fresh load.
        let latest = hist.state_at(hist.len()).unwrap();
        assert_eq!(latest.to_image(), dir.load("design").unwrap().to_image());
        assert!(latest.class_by_name("axes").is_ok());
        // Every intermediate state is consistent.
        for k in 0..=hist.len() {
            assert!(
                hist.state_at(k).unwrap().is_consistent().unwrap(),
                "state {k}"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn schema_diff_lists_additions_and_removals() {
        let root = tempdir("diff");
        let dir = StoreDir::open(&root).unwrap();
        build(&dir);
        let hist = DesignHistory::load(&dir, "design").unwrap();
        let diff = hist.schema_diff(0, hist.len()).unwrap();
        assert!(diff.contains(&"+ class musicians".to_string()));
        assert!(diff.contains(&"+ attribute plays".to_string()));
        assert!(diff.contains(&"+ grouping by_instrument".to_string()));
        // The rename shows as remove+add.
        assert!(diff.contains(&"+ class axes".to_string()));
        assert!(!diff.contains(&"+ class instruments".to_string()));
        // Reverse direction flips signs.
        let rev = hist.schema_diff(hist.len(), 0).unwrap();
        assert!(rev.contains(&"- class musicians".to_string()));
        // Same point → empty diff.
        assert!(hist.schema_diff(3, 3).unwrap().is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn empty_history() {
        let root = tempdir("empty");
        let dir = StoreDir::open(&root).unwrap();
        let db = isis_core::Database::new("fresh");
        dir.save(&db, "fresh").unwrap();
        let hist = DesignHistory::load(&dir, "fresh").unwrap();
        assert!(hist.is_empty());
        assert!(hist.narrate().unwrap().is_empty());
        assert_eq!(hist.state_at(0).unwrap().to_image(), db.to_image());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
