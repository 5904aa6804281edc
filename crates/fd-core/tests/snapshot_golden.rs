//! Golden snapshot images: the FDBK and FDSB byte formats, pinned.
//!
//! The four fixtures under `tests/corpus/snapshot/` were written by the
//! builders below at the commit *before* the per-family
//! `write_state`/`read_state` codecs replaced the struct-mirror codec
//! (d29c695), so they are the bytes a deployed monitor of that vintage
//! left on disk. Each test asserts three things:
//!
//! 1. a freshly driven bank still **encodes** to exactly those bytes;
//! 2. the image **restores** and re-encodes byte-identically;
//! 3. the restored bank **continues** the heartbeat stream with the same
//!    transitions as the twin that never crashed.
//!
//! The paper-grid fixtures use only the version-1 predictor tags, so
//! rewriting their version byte reconstructs a genuine v1 image, which
//! must keep restoring.

use fd_core::source_bank::SourceBank;
use fd_core::{all_combinations, extended_combinations, DetectorBank, SnapshotError};
use fd_sim::{SimDuration, SimTime};

const FDBK_PAPER: &[u8] = include_bytes!("corpus/snapshot/fdbk_v2_paper_40hb.bin");
const FDBK_EXTENDED: &[u8] = include_bytes!("corpus/snapshot/fdbk_v2_extended_gap.bin");
const FDSB_PAPER: &[u8] = include_bytes!("corpus/snapshot/fdsb_v2_paper_70src.bin");
const FDSB_EXTENDED: &[u8] = include_bytes!("corpus/snapshot/fdsb_v2_extended_9src_weighted.bin");

fn eta() -> SimDuration {
    SimDuration::from_secs(1)
}

fn arrival(seq: u64, delay_ms: u64) -> SimTime {
    SimTime::ZERO + eta() * seq + SimDuration::from_millis(delay_ms)
}

/// Deterministic per-source delay pattern with enough spread to drive
/// suspicion edges on some sources and not others.
fn delay_for(source: u32, seq: u64) -> u64 {
    150 + u64::from(source) * 17 + (seq * (53 + u64::from(source))) % 130
}

/// Paper grid, 40 in-order heartbeats.
fn paper_bank() -> DetectorBank {
    let mut bank = DetectorBank::new(&all_combinations(), eta());
    for seq in 0..40u64 {
        bank.observe_heartbeat(seq, arrival(seq, 180 + (seq * 53) % 90));
    }
    bank
}

/// Extended grid; the gap at seq 20..25 arms the φ flap lifecycle, so the
/// image carries live start-phase state.
fn extended_bank() -> DetectorBank {
    let mut bank = DetectorBank::new(&extended_combinations(), eta());
    for seq in (0..40u64).filter(|s| !(20..25).contains(s)) {
        bank.observe_heartbeat(seq, arrival(seq, 180 + (seq * 53) % 90));
    }
    bank
}

/// 70 sources (two suspicion words per combination) on the paper grid; a
/// ragged subset heartbeats each cycle and a sweep follows, so the image
/// is taken mid-suspicion with armed deadlines.
fn paper_source_bank() -> SourceBank {
    let n = 70usize;
    let mut bank = SourceBank::paper_grid(eta(), n);
    for seq in 0..12u64 {
        for source in 0..n as u32 {
            if (u64::from(source) + seq) % 4 != 0 {
                bank.observe_heartbeat(source, seq, arrival(seq, delay_for(source, seq)));
            }
        }
        bank.check_all_at(SimTime::ZERO + eta() * (seq + 1) + SimDuration::from_millis(350));
    }
    bank
}

/// 9 sources on the extended grid with impact weights set; source 2's
/// silence trips the φ flap machinery.
fn extended_source_bank() -> SourceBank {
    let n = 9usize;
    let mut bank = SourceBank::new(&extended_combinations(), eta(), n);
    bank.set_impact_weights(&[2.0, 1.0, 1.0, 0.5, 4.0, 0.0, 1.5, 1.0, 3.0]);
    for seq in 0..26u64 {
        for source in 0..n as u32 {
            if source == 2 && (12..17).contains(&seq) {
                continue;
            }
            bank.observe_heartbeat(source, seq, arrival(seq, delay_for(source, seq)));
        }
        bank.check_all_at(SimTime::ZERO + eta() * (seq + 1) + SimDuration::from_millis(400));
    }
    bank
}

/// Drives `twin` (never crashed) and `restored` through 30 further cycles
/// starting at `from`, one of them a long silence, asserting identical
/// edges throughout and identical bytes at the end.
fn continue_detector_banks(mut twin: DetectorBank, mut restored: DetectorBank, from: u64) {
    for seq in from..from + 30 {
        if seq == from + 10 {
            let late = arrival(seq, 30_000);
            assert_eq!(
                twin.check_at(late).to_vec(),
                restored.check_at(late).to_vec()
            );
            assert!(!twin.transitions().is_empty(), "the silence must fire");
            continue;
        }
        let at = arrival(seq, 150 + (seq * 71) % 120);
        assert_eq!(
            twin.observe_heartbeat(seq, at),
            restored.observe_heartbeat(seq, at)
        );
        assert_eq!(twin.transitions(), restored.transitions(), "seq {seq}");
    }
    assert_eq!(twin.snapshot_bytes(), restored.snapshot_bytes());
}

/// The `SourceBank` counterpart: 15 further cycles of per-source checks,
/// heartbeats and a full sweep.
fn continue_source_banks(mut twin: SourceBank, mut restored: SourceBank, from: u64) {
    let n = twin.sources() as u32;
    let mut edges = 0usize;
    for seq in from..from + 15 {
        for source in 0..n {
            // Source 1 stays silent so StartSuspect edges keep firing.
            if source == 1 {
                continue;
            }
            let at = arrival(seq, delay_for(source, seq));
            let a = twin.check_source_at(source, at).to_vec();
            assert_eq!(a, restored.check_source_at(source, at), "s{source} q{seq}");
            edges += a.len();
            twin.observe_heartbeat(source, seq, at);
            let ends = twin.transitions().to_vec();
            restored.observe_heartbeat(source, seq, at);
            assert_eq!(ends, restored.transitions(), "s{source} q{seq}");
            edges += ends.len();
        }
        let mid = SimTime::ZERO + eta() * (seq + 1) + SimDuration::from_millis(400);
        let fired = twin.check_all_at(mid).to_vec();
        assert_eq!(fired, restored.check_all_at(mid), "sweep q{seq}");
        edges += fired.len();
    }
    assert!(edges > 0, "the continuation must exercise suspicion edges");
    assert_eq!(twin.snapshot_bytes(), restored.snapshot_bytes());
}

#[test]
fn fdbk_paper_grid_image_is_pinned() {
    let twin = paper_bank();
    assert_eq!(twin.snapshot_bytes(), FDBK_PAPER, "FDBK encoding moved");
    let mut restored = DetectorBank::new(&all_combinations(), eta());
    restored.restore_bytes(FDBK_PAPER).expect("golden restore");
    assert_eq!(restored.snapshot_bytes(), FDBK_PAPER);
    assert_eq!(restored.heartbeats(), 40);
    continue_detector_banks(twin, restored, 40);
}

#[test]
fn fdbk_extended_grid_image_is_pinned() {
    let twin = extended_bank();
    assert_eq!(twin.snapshot_bytes(), FDBK_EXTENDED, "FDBK encoding moved");
    let mut restored = DetectorBank::new(&extended_combinations(), eta());
    restored
        .restore_bytes(FDBK_EXTENDED)
        .expect("golden restore");
    assert_eq!(restored.snapshot_bytes(), FDBK_EXTENDED);
    continue_detector_banks(twin, restored, 40);
}

#[test]
fn fdsb_paper_grid_image_is_pinned() {
    let twin = paper_source_bank();
    assert_eq!(twin.snapshot_bytes(), FDSB_PAPER, "FDSB encoding moved");
    assert!(
        twin.suspect_words().iter().any(|&w| w != 0),
        "the image must be taken mid-suspicion"
    );
    let mut restored = SourceBank::paper_grid(eta(), 70);
    restored.restore_bytes(FDSB_PAPER).expect("golden restore");
    assert_eq!(restored.snapshot_bytes(), FDSB_PAPER);
    continue_source_banks(twin, restored, 12);
}

#[test]
fn fdsb_extended_grid_image_is_pinned() {
    let twin = extended_source_bank();
    assert_eq!(twin.snapshot_bytes(), FDSB_EXTENDED, "FDSB encoding moved");
    let mut restored = SourceBank::new(&extended_combinations(), eta(), 9);
    restored
        .restore_bytes(FDSB_EXTENDED)
        .expect("golden restore");
    assert_eq!(restored.snapshot_bytes(), FDSB_EXTENDED);
    assert_eq!(restored.impact_weights(), twin.impact_weights());
    assert_eq!(restored.impact_total(), 14.0);
    continue_source_banks(twin, restored, 26);
}

/// A paper-grid bank uses only tags 0–4, whose encoding is unchanged since
/// version 1 — rewriting the version byte reconstructs the exact image a
/// v1 encoder produced (FDSB v1 additionally predates the one-byte impact
/// tail).
#[test]
fn version1_images_still_restore_bit_identically() {
    assert_eq!(FDBK_PAPER[4], 2, "current FDBK version is 2");
    let mut v1 = FDBK_PAPER.to_vec();
    v1[4] = 1;
    let mut bank = DetectorBank::new(&all_combinations(), eta());
    bank.restore_bytes(&v1).expect("FDBK v1 must restore");
    assert_eq!(bank.snapshot_bytes(), FDBK_PAPER);
    continue_detector_banks(paper_bank(), bank, 40);

    assert_eq!(FDSB_PAPER[4], 2, "current FDSB version is 2");
    assert_eq!(*FDSB_PAPER.last().unwrap(), 0, "weightless tail flag");
    let mut v1 = FDSB_PAPER[..FDSB_PAPER.len() - 1].to_vec();
    v1[4] = 1;
    let mut bank = SourceBank::paper_grid(eta(), 70);
    bank.restore_bytes(&v1).expect("FDSB v1 must restore");
    assert_eq!(bank.snapshot_bytes(), FDSB_PAPER);
    assert_eq!(bank.impact_weights(), None);
    continue_source_banks(paper_source_bank(), bank, 12);
}

/// `DetectorBank::restore_bytes` never panics and is all-or-nothing:
/// every rejected image — truncated anywhere, any single byte flipped,
/// trailing garbage, a newer version, another grid's shape — names its
/// reason and leaves a live bank exactly as it was.
#[test]
fn rejected_fdbk_image_leaves_the_bank_untouched() {
    let mut bank = extended_bank();
    // Move past the fixture's state so an accepted corrupt image (a
    // flipped float decodes fine — the format cannot checksum those
    // without a cost the hot path rejects) differs from a no-op.
    bank.observe_heartbeat(40, arrival(40, 210));
    let before = bank.snapshot_bytes();
    let mut reject = |image: &[u8]| {
        let err = bank
            .restore_bytes(image)
            .expect_err("image must be rejected");
        assert_eq!(bank.snapshot_bytes(), before, "{err:?} leaked state");
        err
    };
    for cut in 0..FDBK_EXTENDED.len() {
        let err = reject(&FDBK_EXTENDED[..cut]);
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
            "cut={cut}: {err:?}"
        );
    }
    let mut long = FDBK_EXTENDED.to_vec();
    long.push(0);
    assert_eq!(reject(&long), SnapshotError::TrailingBytes(1));
    let mut skewed = FDBK_EXTENDED.to_vec();
    skewed[4] = 99;
    assert_eq!(reject(&skewed), SnapshotError::UnsupportedVersion(99));
    assert!(matches!(reject(FDBK_PAPER), SnapshotError::Mismatch(_)));

    let mut rejected = 0usize;
    for i in 0..FDBK_EXTENDED.len() {
        let mut bad = FDBK_EXTENDED.to_vec();
        bad[i] ^= 0xA5;
        if bank.restore_bytes(&bad).is_err() {
            assert_eq!(bank.snapshot_bytes(), before, "flip {i} leaked state");
            rejected += 1;
        } else {
            bank.restore_bytes(&before).expect("own image restores");
        }
    }
    assert!(rejected > 0, "no single-byte flip was ever detected");
}
