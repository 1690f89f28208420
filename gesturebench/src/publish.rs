//! The `publish` workload: durable writes with followers.
//!
//! Thread 1 runs a fixed script in a closed loop: four times an edit
//! (`Session::transact` applying one `data_op_stream` op: an insert, a
//! reassign, a toggle and a delete, in that order) and a publish
//! (`Session::commit_changes`, fsynced through the WAL); then the
//! follower session's `Command::Refresh` (pull, then refresh derived
//! state); then `Replica::sync`, which catches up exactly four frames.
//! Thread 2 is an open-loop reader that opens sessions at a fixed rate,
//! each timed from the moment it was due. The only coupling between the
//! threads is the shared head's lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use isis_core::{Database, EntityId, SharedDatabase};
use isis_sample::workload::DataOp;
use isis_session::{Command, Session};
use isis_store::StoreDir;

use crate::record::{ms_since, ns_ms, span, Kind, Outcome, Sample};
use crate::spans::Recorder;
use crate::stack::{Ids, Inputs, Stack, DB_NAME, EDITS_PER_CYCLE};
use crate::stats::per_unit;
use crate::tvfs::{IoStats, Method};

/// Publishes per cycle, one per edit; the replica catches up this many
/// frames.
const PUBLISHES_PER_CYCLE: usize = EDITS_PER_CYCLE;
/// Session opens per second by the open-loop reader: under half of what
/// a back-to-back loop manages next to the writer on two cores, so the
/// reader keeps up and its lateness measures stalls, not overload.
pub const OPEN_RATE: f64 = 2.0;

/// A data op resolved against the live population.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Insert(u32),
    Reassign(EntityId, EntityId),
    Toggle(EntityId),
    Delete(EntityId),
}

impl Edit {
    fn target(self) -> Option<EntityId> {
        match self {
            Edit::Insert(_) => None,
            Edit::Reassign(m, _) | Edit::Toggle(m) | Edit::Delete(m) => Some(m),
        }
    }
}

/// The reader thread's results.
#[derive(Debug, Default)]
pub struct Reader {
    /// Each open: latency from its due time, and whether it was traced.
    pub opens: Vec<(f64, bool)>,
    pub failed: u64,
    /// How late each open started after its due time, in ms.
    pub lateness_ms: Vec<f64>,
}

pub fn run(
    stack: &mut Stack,
    inputs: &Inputs,
    seconds: f64,
    rec: Option<&Recorder>,
) -> (Outcome, Reader) {
    let mut out = Outcome::default();
    let stop = AtomicBool::new(false);
    let shared = stack.shared.clone();
    let start = Instant::now();
    let (edited, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| open_loop(&shared, start, &stop, rec));
        let edited = write_loop(stack, inputs, start, seconds, rec, &mut out);
        stop.store(true, Ordering::SeqCst);
        (edited, reader.join().expect("reader thread panicked"))
    });
    check_recovery(stack, &edited, &mut out);
    out.attempted += reader.opens.len() as u64 + reader.failed;
    out.failed += reader.failed;
    for &(ms, traced) in &reader.opens {
        out.samples.push(Sample {
            kind: Kind::Open,
            ms,
            traced,
        });
    }
    (out, reader)
}

fn open_loop(
    shared: &SharedDatabase,
    start: Instant,
    stop: &AtomicBool,
    rec: Option<&Recorder>,
) -> Reader {
    let mut r = Reader::default();
    let period = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let mut k = 0u32;
    loop {
        let due = start + period * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let traced = rec.is_some() && k.is_multiple_of(2);
        if let Some(rec) = rec {
            rec.set_on(traced);
        }
        r.lateness_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let root = span(rec, "open");
        let opened = {
            let _c = span(rec, "core");
            Session::open(shared).try_build()
        };
        drop(root);
        let ms = ms_since(due);
        match opened {
            Ok(session) => {
                r.opens.push((ms, traced));
                drop(session);
            }
            Err(e) => {
                eprintln!("gesture failed: open: {e}");
                r.failed += 1;
            }
        }
        k += 1;
    }
    if let Some(rec) = rec {
        rec.set_on(false);
    }
    r
}

fn write_loop(
    stack: &mut Stack,
    inputs: &Inputs,
    start: Instant,
    seconds: f64,
    rec: Option<&Recorder>,
    out: &mut Outcome,
) -> Vec<EntityId> {
    let mut writer = Session::open(&stack.shared).build();
    let mut live: Vec<EntityId> = stack.ids.musician_ids.clone();
    let mut cycles = inputs.cycles.iter().cycle();
    let mut edited: Vec<EntityId> = Vec::new();
    let mut c = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let traced = rec.is_some() && c.is_multiple_of(2);
        if let Some(r) = rec {
            r.set_on(traced);
        }
        let rec = rec.filter(|_| traced);
        match cycle(
            stack,
            &mut writer,
            &mut live,
            cycles.next().expect("the cycles repeat"),
            &mut edited,
            rec,
            out,
        ) {
            Some(pass) => out.passes.push((pass, traced)),
            None => {
                // A failed gesture may leave buffered edits behind.
                let _ = writer.discard_changes();
            }
        }
        c += 1;
    }
    if let Some(r) = rec {
        r.set_on(false);
    }
    edited
}

/// One cycle; returns its gestures' wall-clock cost in ms, or `None` if
/// a gesture failed.
fn cycle(
    stack: &mut Stack,
    writer: &mut Session,
    live: &mut Vec<EntityId>,
    ops: &[DataOp; EDITS_PER_CYCLE],
    edited: &mut Vec<EntityId>,
    rec: Option<&Recorder>,
    out: &mut Outcome,
) -> Option<f64> {
    let traced = rec.is_some();
    let mut pass = 0.0;
    let mut touched = Vec::with_capacity(PUBLISHES_PER_CYCLE);
    for op in ops {
        let edit = resolve(op, &stack.ids, live, writer.database());
        // Edit: the undo snapshot is transact's own work, the closure
        // is the core mutator.
        let root = span(rec, "edit");
        let t = Instant::now();
        let mut mutate_ms = 0.0;
        let done = {
            let _s = span(rec, "session");
            writer.transact(|db| {
                let _c = span(rec, "core");
                let m = Instant::now();
                let r = apply(db, &stack.ids, edit);
                mutate_ms = ms_since(m);
                r
            })
        };
        drop(root);
        let inserted = out.attempt("edit", done)?;
        let edit_ms = out.gesture(Kind::Edit, t, traced);
        pass += edit_ms;
        if traced {
            out.layer("core.mutate_ms", mutate_ms);
            out.layer("session.undo_snapshot_ms", edit_ms - mutate_ms);
        }
        match (edit, inserted) {
            (Edit::Delete(m), _) => live.retain(|&x| x != m),
            (_, Some(m)) => live.push(m),
            _ => {}
        }
        touched.push(
            inserted
                .or(edit.target())
                .expect("every edit names its entity"),
        );

        // Publish: commit through the WAL hook, fsynced.
        let io = io_stats(stack, |io| &io.primary);
        let root = span(rec, "publish");
        let t = Instant::now();
        let receipt = {
            let _c = span(rec, "core");
            writer.commit_changes()
        };
        drop(root);
        let receipt = out.attempt("publish", receipt)?;
        let publish_ms = out.gesture(Kind::Publish, t, traced);
        pass += publish_ms;
        out.check(receipt.changes > 0 && !receipt.rebased, || {
            format!(
                "publish of {edit:?} applied {} change(s), rebased {}",
                receipt.changes, receipt.rebased
            )
        });
        if let (true, Some(before)) = (traced, io) {
            let d = io_stats(stack, |io| &io.primary)
                .expect("traced")
                .since(&before);
            out.layer("core.commit_ms", publish_ms - ns_ms(d.total_ns()));
            out.layer("store.wal_append_ms", ns_ms(d.get(Method::Append).ns));
            out.layer("store.fsync_ms", ns_ms(d.get(Method::Sync).ns));
            out.layer("store.fsyncs_per_commit", d.get(Method::Sync).calls as f64);
            out.layer(
                "store.wal_bytes_per_commit",
                d.get(Method::Append).bytes as f64,
            );
            out.layer("store.snapshot_bytes", d.get(Method::Write).bytes as f64);
        }
    }

    // Refresh the follower: pull, then rebuild derived state.
    let root = span(rec, "refresh");
    let t = Instant::now();
    let refreshed = if traced {
        let p = Instant::now();
        let pulled = {
            let _c = span(rec, "core");
            stack.session.pull()
        };
        let pin_ms = ms_since(p);
        let q = Instant::now();
        let r = pulled.and_then(|()| {
            let _q = span(rec, "query");
            stack.session.refresh_derived()
        });
        out.layer("core.pin_ms", pin_ms);
        out.layer("query.refresh_ms", ms_since(q));
        r
    } else {
        stack.session.apply(Command::Refresh)
    };
    drop(root);
    out.attempt("refresh", refreshed)?;
    pass += out.gesture(Kind::Refresh, t, traced);

    // Catch the replica up by exactly this cycle's frames.
    let before = (
        io_stats(stack, |io| &io.log),
        io_stats(stack, |io| &io.replica),
    );
    let applied = stack.replica.applied_epoch();
    let root = span(rec, "catchup");
    let t = Instant::now();
    let status = {
        let _r = span(rec, "store.replication");
        stack.replica.sync(&stack.log)
    };
    drop(root);
    let status = out.attempt("catchup", status)?;
    let catchup_ms = out.gesture(Kind::Catchup, t, traced);
    pass += catchup_ms;
    let frames = stack.replica.applied_epoch() - applied;
    out.check(
        status.lag == 0 && frames == PUBLISHES_PER_CYCLE as u64,
        || {
            format!(
                "catch-up applied {frames} frame(s), left lag {}",
                status.lag
            )
        },
    );
    if let (true, (Some(log0), Some(rep0))) = (traced, before) {
        let log = io_stats(stack, |io| &io.log).expect("traced").since(&log0);
        let rep = io_stats(stack, |io| &io.replica)
            .expect("traced")
            .since(&rep0);
        let io_ms = ns_ms(log.total_ns() + rep.total_ns());
        out.layer(
            "store.replication.ship_read_bytes_per_frame",
            per_unit(log.get(Method::Read).bytes as f64, frames),
        );
        out.layer(
            "store.replication.replay_ms_per_frame",
            per_unit(catchup_ms - io_ms, frames),
        );
        out.layer(
            "store.replication.fsyncs_per_frame",
            per_unit(rep.get(Method::Sync).calls as f64, frames),
        );
    }
    check_replica(stack, &touched, out);
    edited.extend(touched);
    Some(pass)
}

fn io_stats(
    stack: &Stack,
    pick: fn(&crate::stack::Io) -> &std::sync::Arc<crate::tvfs::TimingVfs>,
) -> Option<IoStats> {
    stack.io.as_ref().map(|io| pick(io).stats())
}

/// Resolves an op of the generated stream against the live musicians,
/// so that every edit changes something and none fails.
fn resolve(op: &DataOp, ids: &Ids, live: &[EntityId], db: &Database) -> Edit {
    let pick = |i: u32| live[i as usize % live.len()];
    match *op {
        DataOp::InsertMusician(i) => Edit::Insert(i),
        DataOp::ReassignPlays(i, j) => {
            let m = pick(i);
            let n = ids.instrument_ids.len();
            let mut inst = ids.instrument_ids[j as usize % n];
            let current = db.attr_value_set(m, ids.plays).unwrap_or_default();
            if current.len() == 1 && current.contains(inst) {
                inst = ids.instrument_ids[(j as usize + 1) % n];
            }
            Edit::Reassign(m, inst)
        }
        DataOp::ToggleUnion(i) => Edit::Toggle(pick(i)),
        DataOp::DeleteMusician(i) if live.len() > 1 => Edit::Delete(pick(i)),
        DataOp::DeleteMusician(i) => Edit::Toggle(pick(i)),
    }
}

/// Applies one edit; returns the entity an insert created.
fn apply(db: &mut Database, ids: &Ids, edit: Edit) -> isis_core::Result<Option<EntityId>> {
    match edit {
        Edit::Insert(i) => db
            .insert_entity(ids.musicians, &format!("extra_musician{i}"))
            .map(Some),
        Edit::Reassign(m, inst) => db.assign_multi(m, ids.plays, [inst]).map(|_| None),
        Edit::Toggle(m) => {
            let on = db.attr_value(m, ids.union_attr)?.as_set().contains(ids.yes);
            db.assign_single(m, ids.union_attr, if on { ids.no } else { ids.yes })
                .map(|_| None)
        }
        Edit::Delete(m) => db.delete_entity(m).map(|_| None),
    }
}

/// What the gesture checks compare of an edited entity: whether it
/// exists, its name, its instruments and its union flag.
fn fingerprint(
    db: &Database,
    ids: &Ids,
    e: EntityId,
) -> Option<(String, Vec<EntityId>, Vec<EntityId>)> {
    let rec = db.entity(e).ok().filter(|r| r.alive)?;
    let plays = db
        .attr_value_set(e, ids.plays)
        .map(|s| s.iter().collect())
        .unwrap_or_default();
    let union = db
        .attr_value_set(e, ids.union_attr)
        .map(|s| s.iter().collect())
        .unwrap_or_default();
    Some((rec.name.clone(), plays, union))
}

/// After a catch-up the replica serves exactly the primary's head on the
/// entities the cycle edited.
fn check_replica(stack: &Stack, touched: &[EntityId], out: &mut Outcome) {
    let ids = &stack.ids;
    let primary: Vec<_> = stack
        .shared
        .read(|db| touched.iter().map(|&e| fingerprint(db, ids, e)).collect());
    let replica: Vec<_> = stack
        .replica
        .shared()
        .read(|db| touched.iter().map(|&e| fingerprint(db, ids, e)).collect());
    out.check(primary == replica, || {
        format!("replica disagrees with the primary on {touched:?}")
    });
}

/// Acknowledged ⇔ recoverable: recovering the primary's directory from
/// disk yields the acknowledged head on every edited entity.
fn check_recovery(stack: &Stack, edited: &[EntityId], out: &mut Outcome) {
    let dir = match StoreDir::open(stack.primary.root()) {
        Ok(dir) => dir,
        Err(e) => return out.check(false, || format!("reopen primary: {e}")),
    };
    let (db, _) = match dir.recover(DB_NAME) {
        Ok(r) => r,
        Err(e) => return out.check(false, || format!("recover primary: {e}")),
    };
    let ids = &stack.ids;
    let (head, head_count) = stack.shared.read(|h| {
        let fp: Vec<_> = edited.iter().map(|&e| fingerprint(h, ids, e)).collect();
        (fp, h.members(ids.musicians).map(|m| m.len()).unwrap_or(0))
    });
    let got: Vec<_> = edited.iter().map(|&e| fingerprint(&db, ids, e)).collect();
    let got_count = db.members(ids.musicians).map(|m| m.len()).unwrap_or(0);
    out.check(head == got && head_count == got_count, || {
        format!(
            "recovered primary differs from the acknowledged head \
             ({got_count} vs {head_count} musicians)"
        )
    });
}
