//! The replication torture battery (ISSUE 7): a jepsen-style history
//! checker over the primary→replica log-shipping path, end-to-end in
//! process.
//!
//! Each seeded schedule drives one primary ([`StoreDir::open_shared`]),
//! its [`ReplicationLog`], and 1–2 [`Replica`]s through a randomized
//! interleaving of data commits, contended commits, schema commits
//! (checkpoint shipping), replica syncs and reads, replica crashes, and
//! primary power cycles — all through a seeded [`FaultVfs`] injecting
//! torn writes, failed fsyncs, dropped renames, and ENOSPC. (Silent bit
//! flips are excluded: they are corruption, not crashes, and would make
//! the exact history checker unsound; `crash_consistency.rs` covers
//! salvage.)
//!
//! The checker records the fingerprint of every *acknowledged* primary
//! commit, in order, and asserts three invariants throughout:
//!
//! 1. **Replica prefix** — every state a replica ever serves (directly or
//!    through a read-only [`Session`]) is an acknowledged primary state,
//!    and each replica only moves forward through that history, across
//!    its own crashes and reopens.
//! 2. **Durability both sides** — a primary power cycle recovers exactly
//!    the last acknowledged state (or, in the documented poisoned
//!    veto-but-durable window, exactly the vetoed candidate — which then
//!    *becomes* acknowledged); a replica reopen never loses an applied
//!    frame.
//! 3. **No dirty reads** — a replica never serves a state the primary did
//!    not acknowledge (implied by 1, checked on every read).
//!
//! At the end of each schedule both sides power-cycle cleanly and every
//! replica must converge to the primary's final state.
//!
//! `ISIS_REPL_SEED` overrides the base seed, `ISIS_REPL_SCHEDULES` the
//! schedule count (default 500). Failing schedules print their seed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use isis::core::{
    AttrValue, BaseKind, Database, EntityId, Multiplicity, RetryBackoff, SharedDatabase,
};
use isis::session::Session;
use isis::store::{FaultProfile, FaultVfs, Replica, ReplicationLog, StoreDir, SyncPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAME: &str = "torture";

fn base_seed() -> u64 {
    std::env::var("ISIS_REPL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_0007)
}

fn schedule_count() -> u64 {
    std::env::var("ISIS_REPL_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500)
}

/// Every failure mode that still *reports* failure. Bit flips (silent
/// success over corrupt bytes) stay at zero — see the module docs.
fn torture_profile() -> FaultProfile {
    FaultProfile {
        short_write: 25,
        append_bit_flip: 0,
        fsync_failure: 25,
        rename_drop: 15,
        enospc: 10,
    }
}

fn display(db: &Database, e: EntityId) -> String {
    db.literal_of(e)
        .map(|l| l.display_name())
        .or_else(|| db.entity_name(e).ok().map(str::to_string))
        .unwrap_or_else(|| format!("#{e:?}"))
}

/// Name-based digest of the user-visible state (same shape as the MVCC
/// battery's): stable across lines whose entity ids differ.
fn fingerprint(db: &Database) -> String {
    let builtins: Vec<_> = BaseKind::ALL.iter().map(|k| db.predefined(*k)).collect();
    let mut lines = Vec::new();
    for (cid, rec) in db.classes() {
        if builtins.contains(&cid) {
            continue;
        }
        let mut members: Vec<String> = db
            .members(cid)
            .unwrap()
            .iter()
            .map(|e| display(db, e))
            .collect();
        members.sort();
        lines.push(format!("class {} = [{}]", rec.name, members.join(",")));
        for aid in db.visible_attrs(cid).unwrap() {
            let arec = db.attr(aid).unwrap();
            if arec.is_derived() {
                continue;
            }
            for e in db.members(cid).unwrap().iter() {
                let val = match db.attr_value(e, aid).unwrap() {
                    AttrValue::Single(v) if v.is_null() => continue,
                    AttrValue::Single(v) => display(db, v),
                    AttrValue::Multi(s) => {
                        let mut vs: Vec<String> = s.iter().map(|v| display(db, v)).collect();
                        vs.sort();
                        vs.join("|")
                    }
                };
                lines.push(format!(
                    "value {}.{}.{} = {}",
                    rec.name,
                    display(db, e),
                    arec.name,
                    val
                ));
            }
        }
    }
    lines.sort();
    lines.join("\n")
}

/// A writer's step, phrased over names so the same intent can be applied
/// to the commit line *and* (for the poisoned veto-but-durable check) to
/// a simulation of what the hook made durable.
#[derive(Debug, Clone)]
enum Intent {
    Insert(String),
    Assign(String, i64),
    Delete(String),
    CreateClass(String),
}

fn apply_intents(db: &mut Database, intents: &[Intent]) {
    for intent in intents {
        // Tolerant by design: an intent whose subject a concurrent commit
        // removed simply does not apply, mirroring how a rebase would
        // reject the recorded op without failing the whole schedule.
        let _ = (|| -> isis::core::Result<()> {
            let people = db.class_by_name("people")?;
            match intent {
                Intent::Insert(name) => {
                    db.insert_entity(people, name)?;
                }
                Intent::Assign(name, v) => {
                    let e = db.entity_by_name(people, name)?;
                    let age = db.attr_by_name(people, "age")?;
                    let lit = db.intern(*v)?;
                    db.assign_single(e, age, lit)?;
                }
                Intent::Delete(name) => {
                    let e = db.entity_by_name(people, name)?;
                    db.delete_entity(e)?;
                }
                Intent::CreateClass(name) => {
                    db.create_baseclass(name)?;
                }
            }
            Ok(())
        })();
    }
}

fn random_intents(rng: &mut StdRng, db: &Database, fresh: &mut u64) -> Vec<Intent> {
    let people = db.class_by_name("people").unwrap();
    let members: Vec<String> = db
        .members(people)
        .unwrap()
        .iter()
        .filter_map(|e| db.entity_name(e).ok().map(str::to_string))
        .collect();
    let count = rng.gen_range(1..=3usize);
    let mut intents = Vec::with_capacity(count);
    for _ in 0..count {
        let roll = rng.gen_range(0..10u32);
        let intent = if members.is_empty() || roll < 5 {
            *fresh += 1;
            Intent::Insert(format!("W{fresh}"))
        } else if roll < 8 {
            *fresh += 1;
            Intent::Assign(
                members[rng.gen_range(0..members.len())].clone(),
                *fresh as i64,
            )
        } else {
            Intent::Delete(members[rng.gen_range(0..members.len())].clone())
        };
        intents.push(intent);
    }
    intents
}

struct Harness {
    seed: u64,
    rng: StdRng,
    proot: PathBuf,
    primary: SharedDatabase,
    log: ReplicationLog,
    committed: Vec<String>,
    replicas: Vec<Slot>,
    fresh: u64,
    fresh_class: u64,
}

struct Slot {
    root: PathBuf,
    replica: Replica,
    /// Index into `committed` of the newest state this replica has
    /// served; it may only move forward (per-replica monotonic reads,
    /// preserved across replica crashes because applied frames are
    /// durable before they are visible).
    last_seen: usize,
}

fn open_primary(proot: &Path, fault_seed: u64) -> SharedDatabase {
    let faulty = Arc::new(FaultVfs::seeded_with(fault_seed, torture_profile()));
    StoreDir::open_with(proot, faulty)
        .and_then(|d| d.open_shared(NAME, SyncPolicy::EverySync))
        .or_else(|_| {
            // The faulty reopen died mid-recovery-fold; a clean power-on
            // must always succeed.
            StoreDir::open(proot).and_then(|d| d.open_shared(NAME, SyncPolicy::EverySync))
        })
        .expect("primary recovery must be total")
        .0
}

fn open_replica(root: &Path, fault_seed: u64) -> Replica {
    let faulty = Arc::new(FaultVfs::seeded_with(fault_seed, torture_profile()));
    StoreDir::open_with(root, faulty)
        .and_then(|d| Replica::open(&d, NAME, SyncPolicy::EverySync))
        .or_else(|_| {
            StoreDir::open(root).and_then(|d| Replica::open(&d, NAME, SyncPolicy::EverySync))
        })
        .expect("replica recovery must be total")
        .0
}

impl Harness {
    /// Checks the state a replica is serving right now against the
    /// acknowledged history: it must appear at or after the newest state
    /// this replica already served.
    fn serve(&mut self, i: usize) {
        let slot = &mut self.replicas[i];
        let fp = fingerprint(&slot.replica.pin());
        match self.committed[slot.last_seen..]
            .iter()
            .position(|c| *c == fp)
        {
            Some(k) => slot.last_seen += k,
            None => panic!(
                "seed {}: replica {i} served a state that is not an acknowledged \
                 primary state at or after its last read (last_seen {}, history len {})",
                self.seed,
                slot.last_seen,
                self.committed.len()
            ),
        }
    }

    /// Commits `intents` on a line pinned at the current head and records
    /// the acknowledged state. On a poisoned veto, power-cycles the
    /// primary and audits the veto-but-durable window.
    fn attempt_commit(&mut self, intents: Vec<Intent>) {
        let mut w = self.primary.pin();
        let base = w.delta_epoch();
        apply_intents(&mut w, &intents);
        self.finish_commit(base, &w, &intents);
    }

    fn finish_commit(&mut self, base: u64, w: &Database, intents: &[Intent]) {
        match self.primary.commit(base, w) {
            Ok(_) => self.committed.push(self.primary.read(fingerprint)),
            Err(_) if self.primary.hook_poisoned() => {
                // The hook cannot tell whether the vetoed commit became
                // durable; recovery decides. Simulate what the hook saw
                // (the intents applied to the head it was given).
                let mut sim = self.primary.pin();
                apply_intents(&mut sim, intents);
                let candidate = fingerprint(&sim);
                self.power_cycle(Some(candidate));
            }
            Err(_) => {}
        }
    }

    /// Drops the primary handle and recovers from disk: the recovered
    /// state must be exactly the last acknowledged state, or (after a
    /// poisoned veto) exactly the vetoed candidate, which then becomes
    /// acknowledged — the crash-after-fsync-before-ack outcome.
    fn power_cycle(&mut self, candidate: Option<String>) {
        let fault_seed = self.rng.gen();
        self.primary = open_primary(&self.proot, fault_seed);
        let fp = self.primary.read(fingerprint);
        if fp != *self.committed.last().unwrap() {
            match candidate {
                Some(c) if fp == c => self.committed.push(c),
                candidate => panic!(
                    "seed {}: primary recovery diverged from the acknowledged history \
                     (history len {})\n-- recovered --\n{fp}\n-- acknowledged --\n{}\n\
                     -- vetoed candidate --\n{}",
                    self.seed,
                    self.committed.len(),
                    self.committed.last().unwrap(),
                    candidate.as_deref().unwrap_or("<none>")
                ),
            }
        }
    }

    fn reopen_replica(&mut self, i: usize) {
        let fault_seed = self.rng.gen();
        let root = self.replicas[i].root.clone();
        self.replicas[i].replica = open_replica(&root, fault_seed);
        self.serve(i);
    }
}

fn run_schedule(case: u64, seed: u64, root: &Path) {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).unwrap();
    let rng = StdRng::seed_from_u64(seed);
    let proot = root.join("primary");

    // Fresh primary on a clean VFS; the faults start with the schedule.
    let setup = StoreDir::open(&proot).unwrap();
    let (primary, _) = setup.open_shared(NAME, SyncPolicy::EverySync).unwrap();
    // The replication log reads the primary's files through a clean VFS:
    // shipping is read-only, and the fault budget belongs to the writers.
    let log = ReplicationLog::open(&StoreDir::open(&proot).unwrap(), NAME).unwrap();

    let mut h = Harness {
        seed,
        proot,
        committed: vec![primary.read(fingerprint)],
        primary,
        log,
        replicas: Vec::new(),
        fresh: 0,
        fresh_class: 0,
        rng,
    };

    // Seed schema (people + age): a schema commit, i.e. a checkpoint.
    let mut w = h.primary.pin();
    let base = w.delta_epoch();
    let people = w.create_baseclass("people").unwrap();
    let ints = w.predefined(BaseKind::Integers);
    w.create_attribute(people, "age", ints, Multiplicity::Single)
        .unwrap();
    h.primary.commit(base, &w).unwrap();
    h.committed.push(h.primary.read(fingerprint));

    let n_replicas = 1 + (h.rng.gen_range(0..2usize));
    for i in 0..n_replicas {
        let rroot = root.join(format!("replica{i}"));
        std::fs::create_dir_all(&rroot).unwrap();
        let fault_seed = h.rng.gen();
        h.replicas.push(Slot {
            replica: open_replica(&rroot, fault_seed),
            root: rroot,
            last_seen: 0,
        });
    }

    let events = 24 + h.rng.gen_range(0..16u32);
    for _ in 0..events {
        match h.rng.gen_range(0..100u32) {
            // A single writer's data commit.
            0..=34 => {
                let intents = random_intents(&mut h.rng, &h.primary.pin(), &mut h.fresh);
                h.attempt_commit(intents);
            }
            // Two writers pinned at the same head: the second either
            // rebases (disjoint) or conflicts (typed veto) — and its
            // durability faults flow through the same poisoned-window
            // audit as everything else.
            35..=49 => {
                let head = h.primary.pin();
                let ia = random_intents(&mut h.rng, &head, &mut h.fresh);
                let ib = random_intents(&mut h.rng, &head, &mut h.fresh);
                let mut wa = h.primary.pin();
                let base_a = wa.delta_epoch();
                apply_intents(&mut wa, &ia);
                let mut wb = h.primary.pin();
                let base_b = wb.delta_epoch();
                apply_intents(&mut wb, &ib);
                h.finish_commit(base_a, &wa, &ia);
                h.finish_commit(base_b, &wb, &ib);
            }
            // A schema commit: ships to replicas as a checkpoint.
            50..=57 => {
                h.fresh_class += 1;
                let intents = vec![Intent::CreateClass(format!("C{}", h.fresh_class))];
                h.attempt_commit(intents);
            }
            // Replica catch-up, one shipment at a time, then a read.
            58..=79 => {
                let i = h.rng.gen_range(0..h.replicas.len());
                let max = h.rng.gen_range(1..=4usize);
                match h.replicas[i].replica.sync_step(&h.log, max) {
                    Ok(_) => h.serve(i),
                    // Replay hit an injected fault (or poisoned the
                    // handle): crash the replica and recover it.
                    Err(_) => h.reopen_replica(i),
                }
            }
            // A read-only session over the replica's head.
            80..=87 => {
                let i = h.rng.gen_range(0..h.replicas.len());
                let session = Session::open(h.replicas[i].replica.shared())
                    .try_build()
                    .expect("replica heads are never hook-poisoned");
                let via_session = fingerprint(session.database());
                assert_eq!(
                    via_session,
                    fingerprint(&h.replicas[i].replica.pin()),
                    "seed {seed}: session view diverged from the replica head"
                );
                h.serve(i);
            }
            // Replica crash + recovery.
            88..=93 => {
                let i = h.rng.gen_range(0..h.replicas.len());
                h.reopen_replica(i);
            }
            // Primary power cycle.
            _ => h.power_cycle(None),
        }
    }

    // Final convergence: both sides power-cycle on clean VFS, every
    // replica catches up to exactly the primary's recovered state.
    let (primary, _) = StoreDir::open(&h.proot)
        .unwrap()
        .open_shared(NAME, SyncPolicy::EverySync)
        .unwrap();
    let final_fp = primary.read(fingerprint);
    assert_eq!(
        final_fp,
        *h.committed.last().unwrap(),
        "seed {seed} (case {case}): clean primary recovery diverged"
    );
    for (i, slot) in h.replicas.iter().enumerate() {
        let (mut replica, _) = StoreDir::open(&slot.root)
            .and_then(|d| Replica::open(&d, NAME, SyncPolicy::EverySync))
            .unwrap_or_else(|e| panic!("seed {seed}: replica {i} final recovery failed: {e}"));
        let status = replica.sync(&h.log).unwrap();
        assert!(
            status.caught_up(),
            "seed {seed}: replica {i} cannot catch up"
        );
        assert_eq!(
            fingerprint(&replica.pin()),
            final_fp,
            "seed {seed} (case {case}): replica {i} converged to a different state"
        );
    }

    let _ = std::fs::remove_dir_all(root);
}

/// The main battery: hundreds of seeded schedules over the full fault
/// matrix. Every schedule checks the three invariants continuously and
/// must converge at the end.
#[test]
fn seeded_schedules_preserve_replication_invariants() {
    let root = std::env::temp_dir().join(format!("isis_repl_torture_{}", std::process::id()));
    let base = base_seed();
    for case in 0..schedule_count() {
        run_schedule(case, base.wrapping_add(case), &root);
    }
}

/// Bounded-backoff retry must converge every conflicted workload: all
/// writers contend on one attribute of one entity, so every concurrent
/// pair conflicts, and every `transact_with_retry` call must still be
/// admitted exactly once.
#[test]
fn transact_with_retry_converges_under_threaded_contention() {
    const THREADS: usize = 4;
    const PER: usize = 25;

    let mut db = Database::new("retry");
    let people = db.create_baseclass("people").unwrap();
    let ints = db.predefined(BaseKind::Integers);
    db.create_attribute(people, "age", ints, Multiplicity::Single)
        .unwrap();
    db.insert_entity(people, "P0").unwrap();
    let shared = SharedDatabase::new(db);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let mut session = Session::open(&shared).build();
                let backoff = RetryBackoff {
                    seed: 0xAB00 + t as u64,
                    ..RetryBackoff::unslept(512)
                };
                for k in 0..PER {
                    session
                        .transact_with_retry(&backoff, |db| {
                            let people = db.class_by_name("people")?;
                            let p0 = db.entity_by_name(people, "P0")?;
                            let age = db.attr_by_name(people, "age")?;
                            let lit = db.intern((t * 1000 + k) as i64)?;
                            db.assign_single(p0, age, lit)?;
                            db.insert_entity(people, &format!("T{t}_{k}"))?;
                            Ok(())
                        })
                        .expect("bounded retry must converge under pure contention");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Every call was admitted exactly once...
    assert_eq!(shared.commits(), (THREADS * PER) as u64);
    // ...and every writer's inserts survived the rebases.
    shared.read(|db| {
        let people = db.class_by_name("people").unwrap();
        for t in 0..THREADS {
            for k in 0..PER {
                assert!(
                    db.entity_by_name(people, &format!("T{t}_{k}")).is_ok(),
                    "T{t}_{k} lost in a rebase"
                );
            }
        }
    });
}

/// A session opened on a replica before its bootstrap `sync` sees the
/// installed checkpoint after `pull`: `install_head` keeps the handle's
/// epochs growing, so the session notices that the head moved.
#[test]
fn session_opened_before_bootstrap_sees_the_checkpoint_after_pull() {
    let root = std::env::temp_dir().join(format!("isis_repl_pull_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (proot, rroot) = (root.join("primary"), root.join("replica"));
    let pdir = StoreDir::open(&proot).unwrap();
    let (primary, _) = pdir.open_shared(NAME, SyncPolicy::EverySync).unwrap();
    Session::open(&primary)
        .build()
        .transact_with_retry(&RetryBackoff::unslept(0), |db| {
            let people = db.create_baseclass("people")?;
            db.insert_entity(people, "Ada")?;
            Ok(())
        })
        .unwrap();
    let log = ReplicationLog::open(&pdir, NAME).unwrap();
    let (mut replica, _) = StoreDir::open(&rroot)
        .and_then(|d| Replica::open(&d, NAME, SyncPolicy::EverySync))
        .unwrap();

    let mut session = Session::open(replica.shared()).build();
    assert!(session.database().class_by_name("people").is_err());
    assert!(replica.sync(&log).unwrap().caught_up());
    session.pull().unwrap();
    let db = session.database();
    let people = db
        .class_by_name("people")
        .expect("pull must re-pin after the bootstrap checkpoint");
    assert!(db.entity_by_name(people, "Ada").is_ok());
    assert_eq!(fingerprint(db), primary.read(fingerprint));
    drop(session);
    drop(replica);
    std::fs::remove_dir_all(&root).unwrap();
}
