//! # isis-sample
//!
//! Sample databases and workload generators for the ISIS reproduction:
//!
//! * [`instrumental_music`] — the §4.1 *Instrumental_Music* database, in
//!   exactly the state the §4.2 session begins from (including the
//!   flute/oboe family error the user corrects in Figures 4–5);
//! * [`synthetic_music`] — the same schema shape at parameterised scale,
//!   for benchmarks;
//! * [`workload`] — predicate and operation-stream generators for the
//!   benchmark sweeps.
//!
//! [`instrumental_music`]: instrumental_music::instrumental_music
//! [`synthetic_music`]: synthetic::synthetic_music

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instrumental_music;
pub mod synthetic;
pub mod university;
pub mod workload;

pub use instrumental_music::{
    all_inst_derivation, instrumental_music, quartets_predicate, InstrumentalMusic,
};
pub use synthetic::{
    synthetic_music, synthetic_scaled, Scale, ScaledMusic, SchemaShape, SynthSpec, SyntheticMusic,
    ValueDist,
};
pub use university::{university, University};

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::Database;

    /// `grouping_sizes` is `grouping_sets` counted, set for set and in
    /// order.
    fn assert_sizes_match(db: &Database) {
        let groupings: Vec<_> = db.groupings().map(|(g, _)| g).collect();
        assert!(!groupings.is_empty(), "{} has no grouping", db.name);
        for g in groupings {
            let counted: Vec<_> = db
                .grouping_sets(g)
                .unwrap()
                .iter()
                .map(|s| (s.index, s.members.len()))
                .collect();
            assert_eq!(db.grouping_sizes(g).unwrap(), counted, "grouping {g:?}");
        }
    }

    #[test]
    fn grouping_sizes_count_every_samples_grouping_sets() {
        let mut im = instrumental_music().unwrap();
        // A grouping indexed by STRINGS through the naming attribute, which
        // reads through the entity record: one set per musician.
        let stage_name = im.db.naming_attr(im.musicians).unwrap();
        let by_name = im
            .db
            .create_grouping(im.musicians, "by_stage_name", stage_name)
            .unwrap();
        let named = im.db.grouping_sizes(by_name).unwrap();
        assert_eq!(named.len(), im.all_musicians.len());
        assert!(named.iter().all(|&(_, n)| n == 1));
        assert_sizes_match(&im.db);
        assert_sizes_match(&university().unwrap().db);
        assert_sizes_match(&synthetic_music(Scale::of(300), 7).unwrap().db);
        for dist in [ValueDist::Uniform, ValueDist::Zipf] {
            let g = synthetic_scaled(SynthSpec {
                entities: 3_000,
                dist,
                shape: SchemaShape::Wide,
                seed: 7,
            })
            .unwrap();
            assert_sizes_match(&g.s.db);
        }
    }
}
