//! Differential property test: the shared-computation [`DetectorBank`] and
//! the boxed single-detector path must produce **bit-identical**
//! suspect/trust behaviour on identical random heartbeat/loss/crash
//! schedules — the refactor is behaviour-preserving by construction.

use fd_core::bank::DetectorBank;
use fd_core::{
    all_combinations, Combination, FailureDetector, FdTransition, MarginKind, PredictorKind,
};
use fd_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// The combination set under test: the paper's full 30-grid, every
/// registry family not already in it (`PredictorKind::all_for_test`
/// brings in φ-accrual in both lifecycles, the adaptive μ+Kσ window and
/// the online model) under two adaptive margins each, plus a short-refit
/// ARIMA (so the fitted-model path is exercised within short schedules)
/// and an `SM_RTO` extension combination. The schedules' crash windows
/// are longer than `PHI_FLAP_GAP_MIN`, so the φ flap lifecycle crosses
/// the differential too.
fn combos_under_test() -> Vec<Combination> {
    let mut combos = all_combinations();
    for kind in PredictorKind::all_for_test() {
        if combos.iter().any(|c| c.predictor == kind) {
            continue;
        }
        combos.push(Combination::new(kind, MarginKind::Jac { phi: 1.0 }));
        combos.push(Combination::new(kind, MarginKind::Ci { gamma: 2.0 }));
    }
    combos.push(Combination::new(
        PredictorKind::Arima {
            p: 2,
            d: 1,
            q: 1,
            refit_every: 25,
        },
        MarginKind::Ci { gamma: 2.0 },
    ));
    combos.push(Combination::new(
        PredictorKind::Last,
        MarginKind::Rto { k: 4.0 },
    ));
    combos
}

/// One heartbeat cycle of the schedule: `None` = the heartbeat never
/// arrives (lost in the network or swallowed by a crash), `Some(delay_ms)`
/// = it arrives that long after its send time.
type Schedule = Vec<Option<u32>>;

/// A random schedule: i.i.d. losses plus one contiguous crash window whose
/// heartbeats are all suppressed, as SimCrash would.
fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    (
        proptest::collection::vec(
            prop_oneof![
                8 => (0u32..2_500).prop_map(Some),
                1 => Just(None),
            ],
            40..80,
        ),
        0usize..60,
        0usize..12,
    )
        .prop_map(|(mut cycles, crash_start, crash_len)| {
            let start = crash_start.min(cycles.len());
            let end = (crash_start + crash_len).min(cycles.len());
            for c in cycles.iter_mut().take(end).skip(start) {
                *c = None;
            }
            cycles
        })
}

/// Drives both implementations through one schedule, asserting identical
/// transitions, deadlines and suspicion flags at every step.
fn run_differential(schedule: &Schedule, check_jitter_ms: u32) -> Result<(), TestCaseError> {
    let eta = SimDuration::from_millis(1_000);
    let combos = combos_under_test();
    let mut bank = DetectorBank::new(&combos, eta);
    let mut boxed: Vec<FailureDetector> = combos.iter().map(|c| c.build(eta)).collect();

    for (i, cycle) in schedule.iter().enumerate() {
        let seq = i as u64;
        let sigma = SimTime::ZERO + eta * seq;

        // The monitor's clock advances to some instant within this cycle
        // and every expired deadline fires (the timer path).
        let check_now = sigma + SimDuration::from_millis(u64::from(check_jitter_ms));
        for (idx, fd) in boxed.iter_mut().enumerate() {
            let a = fd.check(check_now);
            let b = bank.check_one(idx, check_now);
            prop_assert_eq!(a, b, "check mismatch: step {}, combo {}", i, idx);
        }

        // Then the heartbeat arrives — or never does.
        if let Some(delay_ms) = cycle {
            let arrival = sigma + SimDuration::from_millis(u64::from(*delay_ms));
            // Deadlines that expired before the arrival fire first.
            for (idx, fd) in boxed.iter_mut().enumerate() {
                let a = fd.check(arrival);
                let b = bank.check_one(idx, arrival);
                prop_assert_eq!(
                    a,
                    b,
                    "pre-arrival check mismatch: step {}, combo {}",
                    i,
                    idx
                );
            }
            let boxed_ends: Vec<usize> = boxed
                .iter_mut()
                .enumerate()
                .filter_map(|(idx, fd)| {
                    fd.on_heartbeat(seq, arrival).map(|t| {
                        assert_eq!(t, FdTransition::EndSuspect);
                        idx
                    })
                })
                .collect();
            let fresh = bank.observe_heartbeat(seq, arrival);
            prop_assert!(fresh, "in-order heartbeats are always fresh");
            let bank_ends: Vec<usize> = bank.transitions().iter().map(|t| t.combo).collect();
            prop_assert_eq!(boxed_ends, bank_ends, "EndSuspect mismatch at step {}", i);
        }

        // Full state equality after every cycle: deadlines are integer
        // microseconds, so equality here is bit-identity of the whole
        // pred + margin floating-point pipeline.
        for (idx, fd) in boxed.iter().enumerate() {
            prop_assert_eq!(
                fd.next_deadline(),
                bank.next_deadline(idx),
                "deadline mismatch: step {}, combo {} ({})",
                i,
                idx,
                fd.name()
            );
            prop_assert_eq!(
                fd.is_suspecting(),
                bank.is_suspecting(idx),
                "suspicion mismatch: step {}, combo {}",
                i,
                idx
            );
        }
        prop_assert_eq!(boxed[0].heartbeats(), bank.heartbeats());
        prop_assert_eq!(boxed[0].stale_heartbeats(), bank.stale_heartbeats());
    }
    Ok(())
}

/// Drives a bank through `schedule[..split]`, round-trips it through
/// `snapshot() → to_bytes() → from_bytes() → restore()` into a freshly built
/// bank, then runs both through the rest of the schedule asserting
/// bit-identical behaviour at every step — the warm-restart guarantee the
/// supervisor relies on. Every third delivered heartbeat is re-observed one
/// cycle later, so the stale/reordering path crosses the snapshot too.
fn run_snapshot_differential(
    schedule: &Schedule,
    split: usize,
    check_jitter_ms: u32,
) -> Result<(), TestCaseError> {
    let eta = SimDuration::from_millis(1_000);
    let combos = combos_under_test();
    let mut original = DetectorBank::new(&combos, eta);
    let split = split.min(schedule.len());

    let mut feed = |bank: &mut DetectorBank, i: usize, cycle: &Option<u32>| {
        let seq = i as u64;
        let sigma = SimTime::ZERO + eta * seq;
        let check_now = sigma + SimDuration::from_millis(u64::from(check_jitter_ms));
        let mut trace: Vec<(usize, Option<FdTransition>)> = Vec::new();
        for idx in 0..bank.len() {
            trace.push((idx, bank.check_one(idx, check_now)));
        }
        if let Some(delay_ms) = cycle {
            let arrival = sigma + SimDuration::from_millis(u64::from(*delay_ms));
            bank.observe_heartbeat(seq, arrival);
            // A duplicate of an earlier heartbeat arrives out of order.
            if seq >= 3 && seq.is_multiple_of(3) {
                bank.observe_heartbeat(seq - 3, arrival + SimDuration::from_millis(1));
            }
        }
        trace
    };

    for (i, cycle) in schedule.iter().enumerate().take(split) {
        feed(&mut original, i, cycle);
    }

    // The warm-restart round trip, through the full wire format.
    let bytes = original.snapshot_bytes();
    let mut restored = DetectorBank::new(&combos, eta);
    restored
        .restore_bytes(&bytes)
        .expect("snapshot must restore into a matching bank");

    for (i, cycle) in schedule.iter().enumerate().skip(split) {
        let a = feed(&mut original, i, cycle);
        let b = feed(&mut restored, i, cycle);
        prop_assert_eq!(a, b, "transition divergence at step {}", i);
        for idx in 0..original.len() {
            prop_assert_eq!(
                original.next_deadline(idx),
                restored.next_deadline(idx),
                "deadline divergence: step {}, combo {}",
                i,
                idx
            );
            prop_assert_eq!(
                original.is_suspecting(idx),
                restored.is_suspecting(idx),
                "suspicion divergence: step {}, combo {}",
                i,
                idx
            );
        }
        prop_assert_eq!(original.heartbeats(), restored.heartbeats());
        prop_assert_eq!(original.stale_heartbeats(), restored.stale_heartbeats());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: identical suspect/trust transition sequences
    /// for all combinations, under random heartbeat delays, losses and a
    /// crash window.
    #[test]
    fn bank_matches_boxed_detectors(
        schedule in schedule_strategy(),
        jitter in 0u32..1_000,
    ) {
        run_differential(&schedule, jitter)?;
    }

    /// The warm-restart invariant: a bank restored from a byte-serialised
    /// snapshot continues bit-identically to the bank that never stopped,
    /// wherever the snapshot is taken in a random lossy/reordered schedule.
    #[test]
    fn snapshot_roundtrip_is_bit_identical(
        schedule in schedule_strategy(),
        split in 0usize..80,
        jitter in 0u32..1_000,
    ) {
        run_snapshot_differential(&schedule, split, jitter)?;
    }
}

/// A deterministic smoke case (fast path for `--test bank_differential`):
/// heavy loss plus a crash window, long enough for the short-refit ARIMA to
/// fit and refit.
#[test]
fn bank_matches_boxed_on_canned_schedule() {
    let mut schedule: Schedule = (0..120)
        .map(|i| match i % 9 {
            3 => None,
            _ => Some(150 + ((i * 97) % 700) as u32),
        })
        .collect();
    for c in schedule.iter_mut().take(70).skip(55) {
        *c = None; // the crash window
    }
    run_differential(&schedule, 500).expect("differential run");
}

/// Stale (reordered) heartbeats update predictors without touching
/// freshness — on both paths identically.
#[test]
fn bank_matches_boxed_under_reordering() {
    let eta = SimDuration::from_millis(1_000);
    let combos = combos_under_test();
    let mut bank = DetectorBank::new(&combos, eta);
    let mut boxed: Vec<FailureDetector> = combos.iter().map(|c| c.build(eta)).collect();
    // Sequence order 0, 3, 1, 2, 4: 1 and 2 arrive late (stale).
    let arrivals: [(u64, u64); 5] = [(0, 210), (3, 3_350), (1, 3_400), (2, 3_450), (4, 4_200)];
    for &(seq, at_ms) in &arrivals {
        let at = SimTime::from_millis(at_ms);
        for (idx, fd) in boxed.iter_mut().enumerate() {
            assert_eq!(fd.check(at), bank.check_one(idx, at));
        }
        for fd in boxed.iter_mut() {
            fd.on_heartbeat(seq, at);
        }
        let fresh = bank.observe_heartbeat(seq, at);
        assert_eq!(fresh, matches!(seq, 0 | 3 | 4), "seq {seq}");
        assert_eq!(boxed[0].stale_heartbeats(), bank.stale_heartbeats());
        for (idx, fd) in boxed.iter().enumerate() {
            assert_eq!(fd.next_deadline(), bank.next_deadline(idx));
            assert_eq!(fd.is_suspecting(), bank.is_suspecting(idx));
        }
    }
    assert_eq!(bank.stale_heartbeats(), 2);
}
