//! Scalable synthetic Instrumental_Music-shaped databases.
//!
//! The paper ran on interactive data sizes; the benchmark harness needs the
//! same *shape* of schema at parameterised scale. `synthetic_music` builds a
//! database with `n_musicians` musicians, `n_instruments` instruments,
//! `n_families` families and `n_groups` music groups, with deterministic
//! pseudo-random attribute assignments driven by `seed`.

use isis_core::{AttrId, ClassId, Database, EntityId, Multiplicity, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Scale parameters for [`synthetic_music`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of musicians.
    pub musicians: usize,
    /// Number of instruments.
    pub instruments: usize,
    /// Number of families.
    pub families: usize,
    /// Number of music groups.
    pub groups: usize,
    /// Maximum instruments per musician (≥ 1).
    pub max_plays: usize,
    /// Maximum members per group (≥ 1).
    pub max_members: usize,
}

impl Scale {
    /// A scale with `n` musicians and proportionate everything else.
    pub fn of(n: usize) -> Scale {
        Scale {
            musicians: n,
            instruments: (n / 4).max(4),
            families: (n / 20).clamp(4, 64),
            groups: (n / 4).max(2),
            max_plays: 4,
            max_members: 6,
        }
    }
}

/// Ids of the synthetic schema (mirrors the §4.1 schema).
#[derive(Debug, Clone)]
pub struct SyntheticMusic {
    /// The generated database.
    pub db: Database,
    /// Baseclass musicians.
    pub musicians: ClassId,
    /// Baseclass instruments.
    pub instruments: ClassId,
    /// Baseclass music_groups.
    pub music_groups: ClassId,
    /// Baseclass families.
    pub families: ClassId,
    /// musicians.plays ↔ instruments.
    pub plays: AttrId,
    /// musicians.union → YES/NO.
    pub union_attr: AttrId,
    /// instruments.family → families.
    pub family: AttrId,
    /// music_groups.members ↔ musicians.
    pub members: AttrId,
    /// music_groups.size → INTEGERS.
    pub size: AttrId,
    /// by_family grouping on instruments.
    pub by_family: isis_core::GroupingId,
    /// All musician ids.
    pub musician_ids: Vec<EntityId>,
    /// All instrument ids.
    pub instrument_ids: Vec<EntityId>,
    /// All family ids.
    pub family_ids: Vec<EntityId>,
    /// All group ids.
    pub group_ids: Vec<EntityId>,
}

/// Builds a deterministic synthetic database at the given scale.
pub fn synthetic_music(scale: Scale, seed: u64) -> Result<SyntheticMusic> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new(format!("synthetic_{}m", scale.musicians));
    let musicians = db.create_baseclass("musicians")?;
    let instruments = db.create_baseclass("instruments")?;
    let music_groups = db.create_baseclass("music_groups")?;
    let families = db.create_baseclass("families")?;
    let yn = db.predefined(isis_core::BaseKind::Booleans);
    let ints = db.predefined(isis_core::BaseKind::Integers);
    let plays = db.create_attribute(musicians, "plays", instruments, Multiplicity::Multi)?;
    let union_attr = db.create_attribute(musicians, "union", yn, Multiplicity::Single)?;
    let family = db.create_attribute(instruments, "family", families, Multiplicity::Single)?;
    let members = db.create_attribute(music_groups, "members", musicians, Multiplicity::Multi)?;
    let size = db.create_attribute(music_groups, "size", ints, Multiplicity::Single)?;
    let by_family = db.create_grouping(instruments, "by_family", family)?;

    let family_ids: Vec<EntityId> = (0..scale.families)
        .map(|i| db.insert_entity(families, &format!("family{i}")))
        .collect::<Result<_>>()?;
    let instrument_ids: Vec<EntityId> = (0..scale.instruments)
        .map(|i| db.insert_entity(instruments, &format!("instrument{i}")))
        .collect::<Result<_>>()?;
    for &i in &instrument_ids {
        let f = family_ids[rng.gen_range(0..family_ids.len())];
        db.assign_single(i, family, f)?;
    }
    let yes = db.boolean(true);
    let no = db.boolean(false);
    let musician_ids: Vec<EntityId> = (0..scale.musicians)
        .map(|i| db.insert_entity(musicians, &format!("musician{i}")))
        .collect::<Result<_>>()?;
    for &m in &musician_ids {
        let k = rng.gen_range(1..=scale.max_plays.min(instrument_ids.len()));
        let chosen: Vec<EntityId> = instrument_ids
            .choose_multiple(&mut rng, k)
            .copied()
            .collect();
        db.assign_multi(m, plays, chosen)?;
        db.assign_single(m, union_attr, if rng.gen_bool(0.7) { yes } else { no })?;
    }
    let group_ids: Vec<EntityId> = (0..scale.groups)
        .map(|i| db.insert_entity(music_groups, &format!("group{i}")))
        .collect::<Result<_>>()?;
    for &g in &group_ids {
        let k = rng.gen_range(1..=scale.max_members.min(musician_ids.len()));
        let chosen: Vec<EntityId> = musician_ids.choose_multiple(&mut rng, k).copied().collect();
        let n = db.int(chosen.len() as i64);
        db.assign_multi(g, members, chosen)?;
        db.assign_single(g, size, n)?;
    }
    Ok(SyntheticMusic {
        db,
        musicians,
        instruments,
        music_groups,
        families,
        plays,
        union_attr,
        family,
        members,
        size,
        by_family,
        musician_ids,
        instrument_ids,
        family_ids,
        group_ids,
    })
}

/// How scaled generation distributes attribute values over their value
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDist {
    /// Every value equally likely.
    Uniform,
    /// Zipf-skewed (weight 1/rank): a few values dominate, as real
    /// catalogues do — stresses skewed posting lists and hot grouping
    /// sets.
    Zipf,
}

impl ValueDist {
    /// Harness label ("uniform" / "zipf").
    pub fn label(self) -> &'static str {
        match self {
            ValueDist::Uniform => "uniform",
            ValueDist::Zipf => "zipf",
        }
    }
}

/// The schema axis of the scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaShape {
    /// Extra single-valued attributes on musicians: more attributes per
    /// entity, same map depth.
    Wide,
    /// An extra `regions` class with `families.region → regions`, so map
    /// chains reach four steps (`members plays family region`).
    Deep,
}

impl SchemaShape {
    /// Harness label ("wide" / "deep").
    pub fn label(self) -> &'static str {
        match self {
            SchemaShape::Wide => "wide",
            SchemaShape::Deep => "deep",
        }
    }
}

/// Specification for [`synthetic_scaled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthSpec {
    /// Approximate total entity budget (musicians + instruments + groups +
    /// families + shape extras land within ~5% of this).
    pub entities: usize,
    /// Value distribution for instrument/family assignments.
    pub dist: ValueDist,
    /// Schema shape.
    pub shape: SchemaShape,
    /// Generation seed.
    pub seed: u64,
}

/// Number of extra single-valued attributes [`SchemaShape::Wide`] adds.
pub const WIDE_EXTRA_ATTRS: usize = 6;

/// A [`SyntheticMusic`] database grown to an entity budget, with the
/// scaling sweep's distribution and shape extras.
#[derive(Debug, Clone)]
pub struct ScaledMusic {
    /// The base schema and population (same shape as [`synthetic_music`]).
    pub s: SyntheticMusic,
    /// The extra single-valued integer attributes on musicians
    /// ([`SchemaShape::Wide`] only; empty for deep).
    pub wide_attrs: Vec<AttrId>,
    /// Baseclass regions ([`SchemaShape::Deep`] only).
    pub regions: Option<ClassId>,
    /// families.region → regions ([`SchemaShape::Deep`] only).
    pub region: Option<AttrId>,
    /// All region ids (empty for wide).
    pub region_ids: Vec<EntityId>,
}

/// Normalised cumulative Zipf weights (weight of rank k ∝ 1/k) for
/// [`pick_index`]'s binary search.
fn zipf_cum(n: usize) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for k in 0..n {
        total += 1.0 / (k + 1) as f64;
        cum.push(total);
    }
    for v in &mut cum {
        *v /= total;
    }
    cum
}

/// Samples an index in `0..len`: uniform when `cum` is `None`, otherwise
/// by inverse transform over the cumulative weights.
fn pick_index(rng: &mut StdRng, cum: Option<&[f64]>, len: usize) -> usize {
    match cum {
        None => rng.gen_range(0..len),
        Some(c) => {
            let x: f64 = rng.gen();
            c.partition_point(|&v| v < x).min(len - 1)
        }
    }
}

/// Samples `k` distinct indices in `0..len` under the distribution;
/// bounded retries, then a linear fill, so heavy skew still terminates.
fn pick_distinct(rng: &mut StdRng, cum: Option<&[f64]>, len: usize, k: usize) -> Vec<usize> {
    let k = k.min(len);
    let mut out: Vec<usize> = Vec::with_capacity(k);
    let mut tries = 0;
    while out.len() < k && tries < 8 * k + 16 {
        tries += 1;
        let i = pick_index(rng, cum, len);
        if !out.contains(&i) {
            out.push(i);
        }
    }
    let mut next = 0;
    while out.len() < k {
        if !out.contains(&next) {
            out.push(next);
        }
        next += 1;
    }
    out
}

/// Builds a deterministic database of roughly `spec.entities` entities
/// with the requested value distribution and schema shape. The base
/// population follows [`Scale::of`] proportions (musicians ≈ 2/3 of the
/// budget, instruments and groups ≈ 1/6 each).
pub fn synthetic_scaled(spec: SynthSpec) -> Result<ScaledMusic> {
    let musicians_n = (spec.entities * 2 / 3).max(4);
    let scale = Scale::of(musicians_n);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut db = Database::new(format!(
        "scaled_{}e_{}_{}",
        spec.entities,
        spec.dist.label(),
        spec.shape.label()
    ));
    let musicians = db.create_baseclass("musicians")?;
    let instruments = db.create_baseclass("instruments")?;
    let music_groups = db.create_baseclass("music_groups")?;
    let families = db.create_baseclass("families")?;
    let yn = db.predefined(isis_core::BaseKind::Booleans);
    let ints = db.predefined(isis_core::BaseKind::Integers);
    let plays = db.create_attribute(musicians, "plays", instruments, Multiplicity::Multi)?;
    let union_attr = db.create_attribute(musicians, "union", yn, Multiplicity::Single)?;
    let family = db.create_attribute(instruments, "family", families, Multiplicity::Single)?;
    let members = db.create_attribute(music_groups, "members", musicians, Multiplicity::Multi)?;
    let size = db.create_attribute(music_groups, "size", ints, Multiplicity::Single)?;
    let by_family = db.create_grouping(instruments, "by_family", family)?;

    // Shape extras are part of the schema before any data lands, so the
    // delta log sees one schema era for the whole population.
    let mut wide_attrs = Vec::new();
    let mut regions = None;
    let mut region = None;
    match spec.shape {
        SchemaShape::Wide => {
            for i in 0..WIDE_EXTRA_ATTRS {
                wide_attrs.push(db.create_attribute(
                    musicians,
                    &format!("metric{i}"),
                    ints,
                    Multiplicity::Single,
                )?);
            }
        }
        SchemaShape::Deep => {
            let r = db.create_baseclass("regions")?;
            regions = Some(r);
            region = Some(db.create_attribute(families, "region", r, Multiplicity::Single)?);
        }
    }

    let fam_cum = match spec.dist {
        ValueDist::Uniform => None,
        ValueDist::Zipf => Some(zipf_cum(scale.families)),
    };
    let inst_cum = match spec.dist {
        ValueDist::Uniform => None,
        ValueDist::Zipf => Some(zipf_cum(scale.instruments)),
    };

    // One scalar mutator call per entity and value, as interactive edits
    // make them. The call order fixes the RNG stream and the entity ids,
    // which `tests/persistence.rs` pins byte for byte.
    let region_ids: Vec<EntityId> = match regions {
        Some(r) => (0..(scale.families / 4).max(2))
            .map(|i| db.insert_entity(r, &format!("region{i}")))
            .collect::<Result<_>>()?,
        None => Vec::new(),
    };
    let family_ids: Vec<EntityId> = (0..scale.families)
        .map(|i| db.insert_entity(families, &format!("family{i}")))
        .collect::<Result<_>>()?;
    if let Some(attr) = region {
        for &f in &family_ids {
            let r = region_ids[pick_index(&mut rng, None, region_ids.len())];
            db.assign_single(f, attr, r)?;
        }
    }
    let instrument_ids: Vec<EntityId> = (0..scale.instruments)
        .map(|i| db.insert_entity(instruments, &format!("instrument{i}")))
        .collect::<Result<_>>()?;
    for &i in &instrument_ids {
        let f = family_ids[pick_index(&mut rng, fam_cum.as_deref(), family_ids.len())];
        db.assign_single(i, family, f)?;
    }
    let yes = db.boolean(true);
    let no = db.boolean(false);
    let musician_ids: Vec<EntityId> = (0..scale.musicians)
        .map(|i| db.insert_entity(musicians, &format!("musician{i}")))
        .collect::<Result<_>>()?;
    for &m in &musician_ids {
        let k = rng.gen_range(1..=scale.max_plays.min(instrument_ids.len()));
        let chosen: Vec<EntityId> =
            pick_distinct(&mut rng, inst_cum.as_deref(), instrument_ids.len(), k)
                .into_iter()
                .map(|i| instrument_ids[i])
                .collect();
        db.assign_multi(m, plays, chosen)?;
        db.assign_single(m, union_attr, if rng.gen_bool(0.7) { yes } else { no })?;
        for &w in &wide_attrs {
            let v = db.int(rng.gen_range(0..100));
            db.assign_single(m, w, v)?;
        }
    }
    let group_ids: Vec<EntityId> = (0..scale.groups)
        .map(|i| db.insert_entity(music_groups, &format!("group{i}")))
        .collect::<Result<_>>()?;
    for &g in &group_ids {
        let k = rng.gen_range(1..=scale.max_members.min(musician_ids.len()));
        let chosen: Vec<EntityId> = pick_distinct(&mut rng, None, musician_ids.len(), k)
            .into_iter()
            .map(|i| musician_ids[i])
            .collect();
        let n = db.int(chosen.len() as i64);
        db.assign_multi(g, members, chosen)?;
        db.assign_single(g, size, n)?;
    }
    Ok(ScaledMusic {
        s: SyntheticMusic {
            db,
            musicians,
            instruments,
            music_groups,
            families,
            plays,
            union_attr,
            family,
            members,
            size,
            by_family,
            musician_ids,
            instrument_ids,
            family_ids,
            group_ids,
        },
        wide_attrs,
        regions,
        region,
        region_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = synthetic_music(Scale::of(50), 7).unwrap();
        let b = synthetic_music(Scale::of(50), 7).unwrap();
        assert_eq!(a.db.entity_count(), b.db.entity_count());
        for (&ma, &mb) in a.musician_ids.iter().zip(&b.musician_ids) {
            assert_eq!(
                a.db.attr_value_set(ma, a.plays).unwrap().as_slice(),
                b.db.attr_value_set(mb, b.plays).unwrap().as_slice()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic_music(Scale::of(50), 1).unwrap();
        let b = synthetic_music(Scale::of(50), 2).unwrap();
        let mut same = true;
        for (&ma, &mb) in a.musician_ids.iter().zip(&b.musician_ids) {
            if a.db.attr_value_set(ma, a.plays).unwrap().as_slice()
                != b.db.attr_value_set(mb, b.plays).unwrap().as_slice()
            {
                same = false;
                break;
            }
        }
        assert!(!same);
    }

    #[test]
    fn generated_database_is_consistent() {
        let s = synthetic_music(Scale::of(120), 42).unwrap();
        assert!(s.db.is_consistent().unwrap());
        assert_eq!(s.musician_ids.len(), 120);
        // Every musician plays at least one instrument.
        for &m in &s.musician_ids {
            assert!(!s.db.attr_value_set(m, s.plays).unwrap().is_empty());
        }
        // Sizes match member counts.
        for &g in &s.group_ids {
            let n = s.db.attr_value_set(g, s.members).unwrap().len() as i64;
            let stored = s.db.attr_value(g, s.size).unwrap().as_set();
            let lit = s.db.literal_of(stored.as_singleton().unwrap()).unwrap();
            assert_eq!(lit, &isis_core::Literal::Int(n));
        }
    }

    #[test]
    fn scaled_generator_respects_budget_and_shape() {
        for dist in [ValueDist::Uniform, ValueDist::Zipf] {
            for shape in [SchemaShape::Wide, SchemaShape::Deep] {
                let g = synthetic_scaled(SynthSpec {
                    entities: 600,
                    dist,
                    shape,
                    seed: 5,
                })
                .unwrap();
                assert!(g.s.db.is_consistent().unwrap());
                let total = g.s.musician_ids.len()
                    + g.s.instrument_ids.len()
                    + g.s.family_ids.len()
                    + g.s.group_ids.len()
                    + g.region_ids.len();
                assert!(
                    (480..=780).contains(&total),
                    "budget 600 produced {total} entities"
                );
                match shape {
                    SchemaShape::Wide => {
                        assert_eq!(g.wide_attrs.len(), WIDE_EXTRA_ATTRS);
                        assert!(g.regions.is_none());
                    }
                    SchemaShape::Deep => {
                        assert!(g.wide_attrs.is_empty());
                        // Four-step chains must typecheck end to end.
                        let p = isis_core::Predicate::dnf(vec![isis_core::Clause::new(vec![
                            isis_core::Atom::new(
                                isis_core::Map::new(vec![
                                    g.s.members,
                                    g.s.plays,
                                    g.s.family,
                                    g.region.unwrap(),
                                ]),
                                isis_core::CompareOp::Match,
                                isis_core::Rhs::constant(g.regions.unwrap(), [g.region_ids[0]]),
                            ),
                        ])]);
                        g.s.db
                            .evaluate_derived_members(g.s.music_groups, &p)
                            .unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_skews_posting_sizes() {
        let spec = |dist| SynthSpec {
            entities: 1500,
            dist,
            shape: SchemaShape::Wide,
            seed: 11,
        };
        let max_owners = |g: &ScaledMusic| {
            let mut counts = vec![0usize; g.s.instrument_ids.len()];
            for &m in &g.s.musician_ids {
                for v in g.s.db.attr_value_set(m, g.s.plays).unwrap().iter() {
                    if let Some(i) = g.s.instrument_ids.iter().position(|&x| x == v) {
                        counts[i] += 1;
                    }
                }
            }
            counts.into_iter().max().unwrap()
        };
        let uni = max_owners(&synthetic_scaled(spec(ValueDist::Uniform)).unwrap());
        let zipf = max_owners(&synthetic_scaled(spec(ValueDist::Zipf)).unwrap());
        assert!(
            zipf > uni * 3,
            "zipf hot instrument ({zipf} owners) must dwarf uniform ({uni})"
        );
    }

    #[test]
    fn tiny_scale_works() {
        let s = synthetic_music(
            Scale {
                musicians: 1,
                instruments: 1,
                families: 1,
                groups: 1,
                max_plays: 1,
                max_members: 1,
            },
            0,
        )
        .unwrap();
        assert!(s.db.is_consistent().unwrap());
    }
}
