//! Cross-crate persistence tests: snapshot + WAL recovery of real
//! databases, corruption injection at every byte, and crash-point sweeps.

use isis::prelude::*;
use isis::store::{read_snapshot_bytes, replay_log, write_snapshot_bytes, StoreDir, SyncPolicy};
use isis_sample::{instrumental_music, synthetic_music, Scale};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("isis_it_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn instrumental_music_full_roundtrip() {
    let root = tempdir("im");
    let dir = StoreDir::open(&root).unwrap();
    let mut im = instrumental_music().unwrap();
    // Commit the session's derived artifacts first so predicates and
    // derivations go through the codec.
    let pred = isis_sample::quartets_predicate(&mut im);
    let quartets = im
        .db
        .create_derived_subclass(im.music_groups, "quartets")
        .unwrap();
    im.db.commit_membership(quartets, pred).unwrap();
    let all_inst = im
        .db
        .create_attribute(quartets, "all_inst", im.instruments, Multiplicity::Multi)
        .unwrap();
    im.db
        .commit_derivation(all_inst, isis_sample::all_inst_derivation(&im))
        .unwrap();
    dir.save(&im.db, "Instrumental_Music").unwrap();
    let back = dir.load("Instrumental_Music").unwrap();
    assert_eq!(back.to_image(), im.db.to_image());
    assert!(back.is_consistent().unwrap());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn synthetic_database_roundtrips_at_scale() {
    let s = synthetic_music(Scale::of(400), 5).unwrap();
    let bytes = write_snapshot_bytes(&s.db);
    let back = read_snapshot_bytes(&bytes).unwrap();
    assert_eq!(back.to_image(), s.db.to_image());
}

/// Every single-byte corruption of a snapshot is detected (CRC plus the
/// decoder's structural checks — nothing loads silently wrong).
#[test]
fn single_byte_corruption_never_loads_silently() {
    let im = instrumental_music().unwrap();
    let bytes = write_snapshot_bytes(&im.db);
    let original = im.db.to_image();
    // Sampling every 37th byte keeps the test fast while covering header,
    // frame, and payload regions.
    let mut checked = 0;
    for i in (0..bytes.len()).step_by(37) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x5A;
        match read_snapshot_bytes(&bad) {
            Err(_) => {}
            Ok(db) => {
                // A lucky flip may still decode — then it must decode to
                // *identical* state (e.g. flip inside ignored padding is
                // impossible here, so this should not happen).
                assert_eq!(db.to_image(), original, "byte {i} silently altered state");
            }
        }
        checked += 1;
    }
    assert!(checked > 10);
}

/// Crash-point sweep: cut the WAL at every prefix length; recovery must
/// always yield a consistent database equal to some prefix of the history.
#[test]
fn wal_crash_point_sweep() {
    let root = tempdir("sweep");
    let dir = StoreDir::open(&root).unwrap();
    // A history of states: snapshot the image after every logged op.
    let mut history = Vec::new();
    {
        let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
        history.push(db.database().to_image());
        let m = db.create_baseclass("musicians").unwrap();
        history.push(db.database().to_image());
        let i = db.create_baseclass("instruments").unwrap();
        history.push(db.database().to_image());
        let plays = db
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        history.push(db.database().to_image());
        let e = db.insert_entity(m, "Edith").unwrap();
        history.push(db.database().to_image());
        let v = db.insert_entity(i, "viola").unwrap();
        history.push(db.database().to_image());
        db.assign_multi(e, plays, [v]).unwrap();
        history.push(db.database().to_image());
        db.delete_entity(v).unwrap();
        history.push(db.database().to_image());
    }
    let wal_path = root.join("w.wal");
    let full = std::fs::read(&wal_path).unwrap();
    for cut in 0..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let recovered = dir.load("w").unwrap();
        assert!(recovered.is_consistent().unwrap(), "cut at {cut}");
        let img = recovered.to_image();
        assert!(
            history.contains(&img),
            "cut at {cut} produced a state outside the history"
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// The WAL replays a long randomized workload to the identical image.
#[test]
fn randomized_workload_replays_exactly() {
    let root = tempdir("rand");
    let dir = StoreDir::open(&root).unwrap();
    let final_image;
    {
        let mut db = dir.open_logged("w", SyncPolicy::OsFlush).unwrap();
        let m = db.create_baseclass("m").unwrap();
        let i = db.create_baseclass("i").unwrap();
        let plays = db
            .create_attribute(m, "plays", i, Multiplicity::Multi)
            .unwrap();
        let mut insts = Vec::new();
        for k in 0..40 {
            insts.push(db.insert_entity(i, &format!("inst{k}")).unwrap());
        }
        for k in 0..120 {
            let e = db.insert_entity(m, &format!("mus{k}")).unwrap();
            db.assign_multi(
                e,
                plays,
                [insts[k % insts.len()], insts[(k * 7) % insts.len()]],
            )
            .unwrap();
            if k % 5 == 0 {
                db.rename_entity(e, &format!("renamed{k}")).unwrap();
            }
            if k % 11 == 0 {
                db.delete_entity(insts[k % insts.len()]).unwrap();
                insts.remove(k % insts.len());
                let fresh = db.insert_entity(i, &format!("fresh{k}")).unwrap();
                insts.push(fresh);
            }
        }
        final_image = db.database().to_image();
        // No checkpoint: everything recovers from the log.
    }
    let recovered = dir.load("w").unwrap();
    assert_eq!(recovered.to_image(), final_image);
    let replay = replay_log(&root.join("w.wal")).unwrap();
    assert!(!replay.torn_tail);
    assert!(replay.ops.len() > 200);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Checkpoints interleave correctly with further logging.
#[test]
fn checkpoint_then_more_ops_recovers() {
    let root = tempdir("ckpt2");
    let dir = StoreDir::open(&root).unwrap();
    let final_image;
    {
        let mut db = dir.open_logged("w", SyncPolicy::EverySync).unwrap();
        db.create_baseclass("a").unwrap();
        db.checkpoint().unwrap();
        db.create_baseclass("b").unwrap();
        db.create_baseclass("c").unwrap();
        final_image = db.database().to_image();
    }
    let recovered = dir.load("w").unwrap();
    assert_eq!(recovered.to_image(), final_image);
    std::fs::remove_dir_all(&root).unwrap();
}

/// The "entertainment" save-as flow: both databases remain independently
/// loadable, and deleting one leaves the other.
#[test]
fn save_as_keeps_both() {
    let root = tempdir("saveas");
    let dir = StoreDir::open(&root).unwrap();
    let im = instrumental_music().unwrap();
    dir.save(&im.db, "Instrumental_Music").unwrap();
    let mut copy = dir.load("Instrumental_Music").unwrap();
    let mg = copy.class_by_name("music_groups").unwrap();
    copy.create_subclass(mg, "quartets").unwrap();
    dir.save(&copy, "entertainment").unwrap();
    assert_eq!(
        dir.list().unwrap(),
        vec![
            "Instrumental_Music".to_string(),
            "entertainment".to_string()
        ]
    );
    // The original is untouched.
    let orig = dir.load("Instrumental_Music").unwrap();
    assert!(orig.class_by_name("quartets").is_err());
    dir.delete("Instrumental_Music").unwrap();
    assert!(dir.load("entertainment").is_ok());
    std::fs::remove_dir_all(&root).unwrap();
}

/// The snapshot byte stream of a fixed seeded database spanning several
/// entity-arena and column chunks, pinned by digest: the storage layout
/// behind `Database` (chunked arena, sharded name maps, chunked columns)
/// must never show through the codec. The expected digest was computed
/// with the flat `Vec`/`HashMap` layout.
#[test]
fn snapshot_bytes_of_a_multi_chunk_database_are_pinned() {
    let spec = isis_sample::SynthSpec {
        entities: 5_000,
        dist: isis_sample::ValueDist::Zipf,
        shape: isis_sample::SchemaShape::Wide,
        seed: 7,
    };
    let db = isis_sample::synthetic_scaled(spec).unwrap().s.db;
    assert!(db.entities().count() > 3 * 1024, "spans several chunks");
    let bytes = write_snapshot_bytes(&db);
    // FNV-1a, 64-bit.
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (bytes.len(), format!("{digest:016x}")),
        (650_215, "20195b84d37ab4fa".to_string()),
        "snapshot byte stream changed"
    );
}
