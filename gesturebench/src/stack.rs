//! Set-up shared by both workloads: the generated database, its seeded
//! gesture inputs, and the durable stack the gestures run through (a
//! `SyncPolicy::EverySync` primary opened with `StoreDir::open_shared`,
//! a `ReplicationLog` over it, a bootstrapped `Replica`, and a refreshed
//! `Session`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use isis_core::{
    Atom, AttrId, BaseKind, ClassId, Clause, CompareOp, EntityId, Map, Predicate, Rhs,
    SharedDatabase,
};
use isis_sample::workload::{data_op_stream, navigation_chain, quartets_query, DataOp};
use isis_sample::{synthetic_scaled, SchemaShape, SynthSpec, ValueDist};
use isis_session::{RefreshPolicy, Session};
use isis_store::{Replica, ReplicationLog, StdVfs, StoreDir, SyncPolicy, Vfs};

use crate::rng::Rng;
use crate::spans::Recorder;
use crate::tvfs::TimingVfs;

/// Entity budget of the generated database.
pub const ENTITIES: usize = 100_000;
/// The database's name inside the primary and replica directories.
pub const DB_NAME: &str = "gestures";
/// Navigation chains generated per run; a run uses fewer, and each one
/// is fresh, so every refine step compiles.
const CHAINS: usize = 1024;
/// Refine steps per navigation chain.
pub const CHAIN_STEPS: usize = 6;
/// Data operations generated per run (a run publishes far fewer).
const OPS: usize = 4096;
/// Edits per publish cycle: one insert, reassign, toggle and delete.
pub const EDITS_PER_CYCLE: usize = 4;

/// Schema ids and populations the gesture scripts refer to.
#[derive(Debug, Clone)]
pub struct Ids {
    pub musicians: ClassId,
    pub plays: AttrId,
    pub union_attr: AttrId,
    pub musician_ids: Vec<EntityId>,
    pub instrument_ids: Vec<EntityId>,
    pub yes: EntityId,
    pub no: EntityId,
}

/// Everything the gesture scripts replay, made from the seed before the
/// program sees any of it.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Fresh 6-step refinement chains over musicians.
    pub chains: Vec<Vec<Predicate>>,
    /// The ad-hoc scan rotation: 30 rounds of predicates no index
    /// prunes, one per scan path in the order of `Kind::SCANS`.
    pub scans: Vec<[(ClassId, Predicate); 3]>,
    /// The publisher's edits, one cycle each: the next insert, reassign,
    /// toggle and delete of a `data_op_stream`, so that every cycle does
    /// the same mix of work.
    pub cycles: Vec<[DataOp; EDITS_PER_CYCLE]>,
}

/// The three filesystem views of the traced run, one per I/O path.
#[derive(Debug)]
pub struct Io {
    pub primary: Arc<TimingVfs>,
    pub log: Arc<TimingVfs>,
    pub replica: Arc<TimingVfs>,
}

/// The durable stack one run drives.
pub struct Stack {
    pub shared: SharedDatabase,
    pub primary: StoreDir,
    pub log: ReplicationLog,
    pub replica: Replica,
    /// The browsing session (browse) or the follower (publish).
    pub session: Session,
    pub ids: Ids,
    pub io: Option<Io>,
}

/// Set-up time and its parts, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    pub store_open: f64,
    pub first_refresh: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds the database, inputs and stack under `root` (which must not
/// exist yet). With a recorder, the store paths go through timing VFS
/// wrappers; otherwise through plain `StdVfs`.
pub fn build(
    seed: u64,
    root: &Path,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(Stack, Inputs, SetupTimes), String> {
    let start = Instant::now();
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let mut g = synthetic_scaled(SynthSpec {
        entities: ENTITIES,
        dist: ValueDist::Zipf,
        shape: SchemaShape::Wide,
        seed,
    })
    .map_err(|e| format!("generate: {e}"))?;
    times.generate = secs(t);

    // Two committed derived subclasses, so the session's IndexService
    // keeps postings on plays, union, members and size.
    let s = &mut g.s;
    let yes = s.db.boolean(true);
    let no = s.db.boolean(false);
    let booleans = s.db.predefined(BaseKind::Booleans);
    let hot = s.instrument_ids[0];
    let players =
        s.db.create_derived_subclass(s.musicians, "union_players")
            .map_err(|e| e.to_string())?;
    let union_players = Predicate::cnf(vec![
        Clause::new(vec![Atom::new(
            Map::single(s.plays),
            CompareOp::Match,
            Rhs::constant(s.instruments, [hot]),
        )]),
        Clause::new(vec![Atom::new(
            Map::single(s.union_attr),
            CompareOp::Superset,
            Rhs::constant(booleans, [yes]),
        )]),
    ]);
    s.db.commit_membership(players, union_players)
        .map_err(|e| e.to_string())?;
    let quartets =
        s.db.create_derived_subclass(s.music_groups, "quartets")
            .map_err(|e| e.to_string())?;
    let pred = quartets_query(s, hot, 4);
    s.db.commit_membership(quartets, pred)
        .map_err(|e| e.to_string())?;

    let inputs = make_inputs(&mut g, seed);
    let ids = Ids {
        musicians: g.s.musicians,
        plays: g.s.plays,
        union_attr: g.s.union_attr,
        musician_ids: g.s.musician_ids.clone(),
        instrument_ids: g.s.instrument_ids.clone(),
        yes,
        no,
    };

    let t = Instant::now();
    let io = recorder.map(|r| Io {
        primary: Arc::new(TimingVfs::new(r.clone())),
        log: Arc::new(TimingVfs::new(r.clone())),
        replica: Arc::new(TimingVfs::new(r.clone())),
    });
    let vfs = |pick: fn(&Io) -> &Arc<TimingVfs>| -> Arc<dyn Vfs> {
        match &io {
            Some(io) => pick(io).clone(),
            None => Arc::new(StdVfs::new()),
        }
    };
    let err = |e: isis_store::StoreError| e.to_string();
    let primary_root = root.join("primary");
    let primary = StoreDir::open_with(&primary_root, vfs(|io| &io.primary)).map_err(err)?;
    primary.save(&g.s.db, DB_NAME).map_err(err)?;
    drop(g);
    let (shared, _) = primary
        .open_shared(DB_NAME, SyncPolicy::EverySync)
        .map_err(err)?;
    let reader = StoreDir::open_with(&primary_root, vfs(|io| &io.log)).map_err(err)?;
    let log = ReplicationLog::open(&reader, DB_NAME).map_err(err)?;
    let replica_dir =
        StoreDir::open_with(root.join("replica"), vfs(|io| &io.replica)).map_err(err)?;
    let (mut replica, _) =
        Replica::open(&replica_dir, DB_NAME, SyncPolicy::EverySync).map_err(err)?;
    let status = replica.sync(&log).map_err(err)?;
    if !status.caught_up() {
        return Err(format!("replica bootstrap left lag {}", status.lag));
    }
    times.store_open = secs(t);

    let t = Instant::now();
    let mut session = Session::open(&shared)
        .refresh_policy(RefreshPolicy::Manual)
        .eval_threads(1)
        .build();
    session.refresh_derived().map_err(|e| e.to_string())?;
    times.first_refresh = secs(t);
    times.total = secs(start);

    let stack = Stack {
        shared,
        primary,
        log,
        replica,
        session,
        ids,
        io,
    };
    Ok((stack, inputs, times))
}

fn make_inputs(g: &mut isis_sample::ScaledMusic, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x5CA7);
    let chains = (0..CHAINS)
        .map(|_| navigation_chain(&mut g.s, CHAIN_STEPS, rng.next()))
        .collect();

    // 90 distinct scans, none of which an index can prune, 30 per path:
    // equality on an unindexed metric (batch path), less-than on one
    // (scalar path), and a two-step superset over groups (scalar path).
    let ints = g.s.db.predefined(BaseKind::Integers);
    let single = |atom| Predicate::dnf(vec![Clause::new(vec![atom])]);
    let mut metric_scans = |op, rng: &mut Rng| {
        let mut v = Vec::new();
        for &metric in &g.wide_attrs {
            for decade in 0..5 {
                let c = g.s.db.int(decade * 20 + rng.below(20) as i64);
                let atom = Atom::new(Map::single(metric), op, Rhs::constant(ints, [c]));
                v.push((g.s.musicians, single(atom)));
            }
        }
        rng.shuffle(&mut v);
        v
    };
    let batch = metric_scans(CompareOp::SetEq, &mut rng);
    let scalar = metric_scans(CompareOp::Lt, &mut rng);
    let mut hot: Vec<EntityId> = g.s.instrument_ids[..64].to_vec();
    rng.shuffle(&mut hot);
    let two_step = hot[..30].iter().map(|&inst| {
        let atom = Atom::new(
            Map::new(vec![g.s.members, g.s.plays]),
            CompareOp::Superset,
            Rhs::constant(g.s.instruments, [inst]),
        );
        (g.s.music_groups, single(atom))
    });
    let scans = batch
        .into_iter()
        .zip(scalar)
        .zip(two_step)
        .map(|((b, s), t)| [b, s, t])
        .collect();
    let stream = data_op_stream(OPS, seed ^ 0x0B5);
    let of = |keep: fn(&DataOp) -> bool| stream.iter().filter(move |op| keep(op)).cloned();
    let cycles = of(|op| matches!(op, DataOp::InsertMusician(_)))
        .zip(of(|op| matches!(op, DataOp::ReassignPlays(..))))
        .zip(of(|op| matches!(op, DataOp::ToggleUnion(_))))
        .zip(of(|op| matches!(op, DataOp::DeleteMusician(_))))
        .map(|(((insert, reassign), toggle), delete)| [insert, reassign, toggle, delete])
        .collect();
    Inputs {
        chains,
        scans,
        cycles,
    }
}

/// A fresh directory for one set-up, inside the benchmark's output
/// directory of the checkout.
pub fn fresh_root(base: &Path, tag: &str) -> Result<PathBuf, String> {
    let root = base.join(format!("data-{}-{tag}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    }
    Ok(root)
}
