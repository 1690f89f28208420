//! Encoding of database images and predicates onto the [`codec`] layer.
//!
//! Every structure gets an explicit, versioned byte layout. HashMap-backed
//! attribute values are serialised in entity-id order so identical databases
//! produce identical bytes (important for snapshot diffing and tests).
//!
//! [`codec`]: crate::codec

use std::sync::Arc;

use isis_core::{
    Atom, AttrDerivation, AttrId, AttrRecord, AttrValue, BaseKind, ClassId, ClassKind, ClassRecord,
    Clause, CompareOp, DatabaseImage, EntityId, EntityRecord, FillPattern, GroupingId,
    GroupingRecord, Literal, Map, Multiplicity, NormalForm, Operator, OrderedSet, Predicate, Rhs,
    ValueClass,
};

use crate::codec::{CodecError, Reader, Writer};

fn w_entity(w: &mut Writer, e: EntityId) {
    w.u32(e.raw());
}
fn r_entity(r: &mut Reader) -> Result<EntityId, CodecError> {
    Ok(EntityId::from_raw(r.u32()?))
}
fn w_class(w: &mut Writer, c: ClassId) {
    w.u32(c.raw());
}
fn r_class(r: &mut Reader) -> Result<ClassId, CodecError> {
    Ok(ClassId::from_raw(r.u32()?))
}
fn w_attr(w: &mut Writer, a: AttrId) {
    w.u32(a.raw());
}
fn r_attr(r: &mut Reader) -> Result<AttrId, CodecError> {
    Ok(AttrId::from_raw(r.u32()?))
}
fn w_grouping(w: &mut Writer, g: GroupingId) {
    w.u32(g.raw());
}
fn r_grouping(r: &mut Reader) -> Result<GroupingId, CodecError> {
    Ok(GroupingId::from_raw(r.u32()?))
}

fn w_set(w: &mut Writer, s: &OrderedSet) {
    let v: Vec<EntityId> = s.iter().collect();
    w.seq(&v, |w, e| w_entity(w, *e));
}
fn r_set(r: &mut Reader) -> Result<OrderedSet, CodecError> {
    Ok(r.seq(r_entity)?.into_iter().collect())
}

/// Encodes a map.
pub fn w_map(w: &mut Writer, m: &Map) {
    w.seq(m.steps(), |w, a| w_attr(w, *a));
}
/// Decodes a map.
pub fn r_map(r: &mut Reader) -> Result<Map, CodecError> {
    Ok(Map::new(r.seq(r_attr)?))
}

fn op_tag(op: CompareOp) -> u8 {
    match op {
        CompareOp::SetEq => 0,
        CompareOp::Subset => 1,
        CompareOp::Superset => 2,
        CompareOp::ProperSubset => 3,
        CompareOp::ProperSuperset => 4,
        CompareOp::Match => 5,
        CompareOp::Lt => 6,
        CompareOp::Le => 7,
        CompareOp::Gt => 8,
        CompareOp::Ge => 9,
    }
}
fn op_from_tag(t: u8) -> Result<CompareOp, CodecError> {
    Ok(match t {
        0 => CompareOp::SetEq,
        1 => CompareOp::Subset,
        2 => CompareOp::Superset,
        3 => CompareOp::ProperSubset,
        4 => CompareOp::ProperSuperset,
        5 => CompareOp::Match,
        6 => CompareOp::Lt,
        7 => CompareOp::Le,
        8 => CompareOp::Gt,
        9 => CompareOp::Ge,
        _ => return Err(CodecError::Corrupt(format!("operator tag {t}"))),
    })
}

fn w_atom(w: &mut Writer, a: &Atom) {
    w_map(w, &a.lhs);
    w.u8(op_tag(a.op.op));
    w.boolean(a.op.negated);
    match &a.rhs {
        Rhs::SelfMap(m) => {
            w.u8(0);
            w_map(w, m);
        }
        Rhs::Constant {
            class,
            anchors,
            map,
        } => {
            w.u8(1);
            w_class(w, *class);
            w_set(w, anchors);
            w_map(w, map);
        }
        Rhs::SourceMap(m) => {
            w.u8(2);
            w_map(w, m);
        }
    }
}
fn r_atom(r: &mut Reader) -> Result<Atom, CodecError> {
    let lhs = r_map(r)?;
    let op = op_from_tag(r.u8()?)?;
    let negated = r.boolean()?;
    let rhs = match r.u8()? {
        0 => Rhs::SelfMap(r_map(r)?),
        1 => Rhs::Constant {
            class: r_class(r)?,
            anchors: r_set(r)?,
            map: r_map(r)?,
        },
        2 => Rhs::SourceMap(r_map(r)?),
        t => return Err(CodecError::Corrupt(format!("rhs tag {t}"))),
    };
    Ok(Atom {
        lhs,
        op: Operator { op, negated },
        rhs,
    })
}

/// Encodes a predicate.
pub fn w_predicate(w: &mut Writer, p: &Predicate) {
    w.u8(match p.form {
        NormalForm::Dnf => 0,
        NormalForm::Cnf => 1,
    });
    w.seq(&p.clauses, |w, c| {
        w.seq(&c.atoms, w_atom);
    });
}
/// Decodes a predicate.
pub fn r_predicate(r: &mut Reader) -> Result<Predicate, CodecError> {
    let form = match r.u8()? {
        0 => NormalForm::Dnf,
        1 => NormalForm::Cnf,
        t => return Err(CodecError::Corrupt(format!("normal form tag {t}"))),
    };
    let clauses = r.seq(|r| Ok(Clause::new(r.seq(r_atom)?)))?;
    Ok(Predicate { form, clauses })
}

fn w_literal(w: &mut Writer, l: &Literal) {
    match l {
        Literal::Str(s) => {
            w.u8(0);
            w.string(s);
        }
        Literal::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        Literal::Real(x) => {
            w.u8(2);
            w.f64(*x);
        }
        Literal::Bool(b) => {
            w.u8(3);
            w.boolean(*b);
        }
    }
}
fn r_literal(r: &mut Reader) -> Result<Literal, CodecError> {
    Ok(match r.u8()? {
        0 => Literal::Str(r.string()?),
        1 => Literal::Int(r.i64()?),
        2 => {
            let v = r.f64()?;
            if v.is_nan() {
                return Err(CodecError::Corrupt("NaN real".into()));
            }
            Literal::Real(v)
        }
        3 => Literal::Bool(r.boolean()?),
        t => return Err(CodecError::Corrupt(format!("literal tag {t}"))),
    })
}

fn base_kind_tag(k: BaseKind) -> u8 {
    match k {
        BaseKind::Strings => 0,
        BaseKind::Integers => 1,
        BaseKind::Reals => 2,
        BaseKind::Booleans => 3,
    }
}
fn base_kind_from_tag(t: u8) -> Result<BaseKind, CodecError> {
    Ok(match t {
        0 => BaseKind::Strings,
        1 => BaseKind::Integers,
        2 => BaseKind::Reals,
        3 => BaseKind::Booleans,
        _ => return Err(CodecError::Corrupt(format!("base kind tag {t}"))),
    })
}

fn w_class_record(w: &mut Writer, c: &ClassRecord) {
    w.string(&c.name);
    w.option(&c.parent, |w, p| w_class(w, *p));
    w_class(w, c.base);
    match &c.kind {
        ClassKind::Base(k) => {
            w.u8(0);
            w.option(&k.map(base_kind_tag), |w, t| w.u8(*t));
        }
        ClassKind::Enumerated => w.u8(1),
        ClassKind::Derived(p) => {
            w.u8(2);
            w_predicate(w, p);
        }
    }
    w.u32(c.fill.0);
    w.seq(&c.own_attrs, |w, a| w_attr(w, *a));
    w.seq(&c.children, |w, x| w_class(w, *x));
    w.seq(&c.groupings, |w, g| w_grouping(w, *g));
    w_set(w, &c.members);
    w.seq(&c.extra_parents, |w, x| w_class(w, *x));
    w.boolean(c.alive);
}
fn r_class_record(r: &mut Reader) -> Result<ClassRecord, CodecError> {
    let name = r.string()?;
    let parent = r.option(r_class)?;
    let base = r_class(r)?;
    let kind = match r.u8()? {
        0 => {
            let k = r.option(|r| r.u8())?;
            ClassKind::Base(k.map(base_kind_from_tag).transpose()?)
        }
        1 => ClassKind::Enumerated,
        2 => ClassKind::Derived(r_predicate(r)?),
        t => return Err(CodecError::Corrupt(format!("class kind tag {t}"))),
    };
    Ok(ClassRecord {
        name,
        parent,
        base,
        kind,
        fill: FillPattern(r.u32()?),
        own_attrs: r.seq(r_attr)?,
        children: r.seq(r_class)?,
        groupings: r.seq(r_grouping)?,
        members: Arc::new(r_set(r)?),
        extra_parents: r.seq(r_class)?,
        alive: r.boolean()?,
    })
}

fn w_attr_record(w: &mut Writer, a: &AttrRecord) {
    w.string(&a.name);
    w_class(w, a.owner);
    match a.value_class {
        ValueClass::Class(c) => {
            w.u8(0);
            w_class(w, c);
        }
        ValueClass::Grouping(g) => {
            w.u8(1);
            w_grouping(w, g);
        }
    }
    w.boolean(a.multiplicity == Multiplicity::Multi);
    w.boolean(a.naming);
    w.option(&a.derivation, |w, d| match d {
        AttrDerivation::Assign(m) => {
            w.u8(0);
            w_map(w, m);
        }
        AttrDerivation::Predicate(p) => {
            w.u8(1);
            w_predicate(w, p);
        }
    });
    // Values in entity-id order for deterministic bytes; the on-disk
    // form is layout-independent (a column round-trips through the same
    // per-entity records the old hash layout produced).
    let entries = a.values.entries_sorted();
    w.u32(entries.len() as u32);
    for (e, v) in entries {
        w_entity(w, e);
        match v {
            isis_core::ValueRef::Single(x) => {
                w.u8(0);
                w_entity(w, x);
            }
            isis_core::ValueRef::Multi(s) => {
                w.u8(1);
                w_set(w, s);
            }
        }
    }
    w.boolean(a.alive);
}
fn r_attr_record(r: &mut Reader) -> Result<AttrRecord, CodecError> {
    let name = r.string()?;
    let owner = r_class(r)?;
    let value_class = match r.u8()? {
        0 => ValueClass::Class(r_class(r)?),
        1 => ValueClass::Grouping(r_grouping(r)?),
        t => return Err(CodecError::Corrupt(format!("value class tag {t}"))),
    };
    let multiplicity = if r.boolean()? {
        Multiplicity::Multi
    } else {
        Multiplicity::Single
    };
    let naming = r.boolean()?;
    let derivation = r.option(|r| {
        Ok(match r.u8()? {
            0 => AttrDerivation::Assign(r_map(r)?),
            1 => AttrDerivation::Predicate(r_predicate(r)?),
            t => return Err(CodecError::Corrupt(format!("derivation tag {t}"))),
        })
    })?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(CodecError::Corrupt("value map count too large".into()));
    }
    let mut values = isis_core::AttrColumn::new();
    for _ in 0..n {
        let e = r_entity(r)?;
        let v = match r.u8()? {
            0 => AttrValue::Single(r_entity(r)?),
            1 => AttrValue::Multi(r_set(r)?),
            t => return Err(CodecError::Corrupt(format!("attr value tag {t}"))),
        };
        values.set(e, v);
    }
    Ok(AttrRecord {
        name,
        owner,
        value_class,
        multiplicity,
        naming,
        derivation,
        values,
        alive: r.boolean()?,
    })
}

fn w_grouping_record(w: &mut Writer, g: &GroupingRecord) {
    w.string(&g.name);
    w_class(w, g.parent);
    w_attr(w, g.on_attr);
    w.u32(g.fill.0);
    w.boolean(g.alive);
}
fn r_grouping_record(r: &mut Reader) -> Result<GroupingRecord, CodecError> {
    Ok(GroupingRecord {
        name: r.string()?,
        parent: r_class(r)?,
        on_attr: r_attr(r)?,
        fill: FillPattern(r.u32()?),
        alive: r.boolean()?,
    })
}

fn w_entity_record(w: &mut Writer, e: &EntityRecord) {
    w.string(&e.name);
    w_class(w, e.base);
    w.option(&e.literal, w_literal);
    w.boolean(e.alive);
}
fn r_entity_record(r: &mut Reader) -> Result<EntityRecord, CodecError> {
    Ok(EntityRecord {
        name: r.string()?,
        base: r_class(r)?,
        literal: r.option(r_literal)?,
        alive: r.boolean()?,
    })
}

fn w_constraint_record(w: &mut Writer, k: &isis_core::ConstraintRecord) {
    w.string(&k.name);
    w_class(w, k.class);
    w_predicate(w, &k.predicate);
    w.u8(match k.kind {
        isis_core::ConstraintKind::ForAll => 0,
        isis_core::ConstraintKind::Forbidden => 1,
    });
    w.boolean(k.alive);
}
fn r_constraint_record(r: &mut Reader) -> Result<isis_core::ConstraintRecord, CodecError> {
    Ok(isis_core::ConstraintRecord {
        name: r.string()?,
        class: r_class(r)?,
        predicate: r_predicate(r)?,
        kind: match r.u8()? {
            0 => isis_core::ConstraintKind::ForAll,
            1 => isis_core::ConstraintKind::Forbidden,
            t => return Err(CodecError::Corrupt(format!("constraint kind tag {t}"))),
        },
        alive: r.boolean()?,
    })
}

/// Current image format version.
pub const IMAGE_VERSION: u32 = 2;

/// Encodes a full database image (no framing; callers add the checksummed
/// frame and any file header).
pub fn encode_image(img: &DatabaseImage) -> Vec<u8> {
    encode_image_into(img, Vec::new())
}

/// Appends the encoding of `img` to `buf`, so a caller can write its
/// header first and frame the result in place. The encoding is measured
/// first and `buf` grown once to fit it exactly: grown by doubling, a
/// snapshot-sized buffer would ask for up to twice its size.
pub fn encode_image_into(img: &DatabaseImage, mut buf: Vec<u8>) -> Vec<u8> {
    let mut size = Writer::measuring();
    write_image(&mut size, img);
    buf.reserve_exact(size.written());
    let mut w = Writer::over(buf);
    write_image(&mut w, img);
    w.into_bytes()
}

fn write_image(w: &mut Writer, img: &DatabaseImage) {
    w.u32(IMAGE_VERSION);
    w.string(&img.name);
    w.seq(&img.classes, w_class_record);
    w.seq(&img.attrs, w_attr_record);
    w.seq(&img.groupings, w_grouping_record);
    w.seq(&img.entities, w_entity_record);
    w.u32(img.fill_counter);
    w.boolean(img.multi_inheritance);
    w.seq(&img.constraints, w_constraint_record);
}

/// Decodes a full database image. Version 1 images (pre-constraints) are
/// still readable; their constraint set is empty.
pub fn decode_image(bytes: &[u8]) -> Result<DatabaseImage, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u32()?;
    if version == 0 || version > IMAGE_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let img = DatabaseImage {
        name: r.string()?,
        classes: r.seq(r_class_record)?,
        attrs: r.seq(r_attr_record)?,
        groupings: r.seq(r_grouping_record)?,
        entities: r.seq(r_entity_record)?,
        fill_counter: r.u32()?,
        multi_inheritance: r.boolean()?,
        constraints: if version >= 2 {
            r.seq(r_constraint_record)?
        } else {
            Vec::new()
        },
    };
    if !r.is_at_end() {
        return Err(CodecError::Corrupt("trailing bytes after image".into()));
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::Database;
    use isis_sample::{instrumental_music, quartets_predicate};

    #[test]
    fn image_roundtrip_small() {
        let db = Database::new("tiny");
        let img = db.to_image();
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).unwrap();
        assert_eq!(back, img);
    }

    /// The measuring pass counts exactly what the writing pass writes, so
    /// the buffer is allocated once, at its final size.
    #[test]
    fn the_buffer_is_sized_to_the_measured_encoding() {
        let img = instrumental_music().unwrap().db.to_image();
        let mut size = Writer::measuring();
        write_image(&mut size, &img);
        let bytes = encode_image_into(&img, b"head".to_vec());
        assert_eq!(bytes.len(), 4 + size.written());
        assert_eq!(bytes.capacity(), bytes.len());
        assert_eq!(decode_image(&bytes[4..]).unwrap(), img);
    }

    #[test]
    fn image_roundtrip_instrumental_music_with_derivations() {
        let mut im = instrumental_music().unwrap();
        // Include a committed derived class + derived attribute so
        // predicates and derivations go through the codec.
        let pred = quartets_predicate(&mut im);
        let quartets = im
            .db
            .create_derived_subclass(im.music_groups, "quartets")
            .unwrap();
        im.db.commit_membership(quartets, pred).unwrap();
        let all_inst = im
            .db
            .create_attribute(
                quartets,
                "all_inst",
                im.instruments,
                isis_core::Multiplicity::Multi,
            )
            .unwrap();
        im.db
            .commit_derivation(all_inst, isis_sample::all_inst_derivation(&im))
            .unwrap();

        let img = im.db.to_image();
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).unwrap();
        assert_eq!(back, img);
        // Deterministic bytes.
        assert_eq!(bytes, encode_image(&back));
        // And the reconstructed database behaves.
        let db2 = Database::from_image(back).unwrap();
        assert!(db2.is_consistent().unwrap());
        assert!(db2.members(quartets).unwrap().contains(im.labelle));
    }

    #[test]
    fn truncation_always_errors() {
        let db = Database::new("t");
        let bytes = encode_image(&db.to_image());
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_image(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let db = Database::new("t");
        let mut bytes = encode_image(&db.to_image());
        bytes.push(0);
        assert!(matches!(
            decode_image(&bytes).unwrap_err(),
            CodecError::Corrupt(_)
        ));
    }

    #[test]
    fn version_checked() {
        let db = Database::new("t");
        let mut bytes = encode_image(&db.to_image());
        bytes[0] = 99;
        assert_eq!(
            decode_image(&bytes).unwrap_err(),
            CodecError::BadVersion(99)
        );
    }

    #[test]
    fn predicate_roundtrip_all_shapes() {
        let mut im = instrumental_music().unwrap();
        let preds = vec![
            quartets_predicate(&mut im),
            Predicate::always_true(),
            Predicate::always_false(),
            Predicate::cnf(vec![]),
        ];
        for p in preds {
            let mut w = Writer::new();
            w_predicate(&mut w, &p);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r_predicate(&mut r).unwrap(), p);
            assert!(r.is_at_end());
        }
    }
}
