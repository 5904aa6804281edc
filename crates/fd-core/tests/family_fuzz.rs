//! Structure-aware fuzz over the new detector families: random
//! delay/gap sequences — including hostile floats — drive the φ-accrual
//! lifecycle, the adaptive window, the online model and the Impact-FD
//! weight plane, asserting the documented totality invariants (forecasts
//! stay finite and non-negative, state round-trips through its bytes,
//! `read_state` and restore never panic and reject state no observation
//! sequence can reach).

use fd_core::combinations::extended_combinations;
use fd_core::snapshot::{Reader, Writer};
use fd_core::{
    AdaptiveWindow, JacCore, Lpf, MlPredictor, PhiAccrual, Predictor, SnapshotError, SourceBank,
    WinMean,
};
use fd_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// The checkpoint body one `write_state` call produces.
fn encode(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    write(&mut w);
    w.into_bytes()
}

/// Overwrites the little-endian `u64`/`f64` slot at `at`.
fn patch(bytes: &[u8], at: usize, slot: [u8; 8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 8].copy_from_slice(&slot);
    out
}

/// One fuzz step: an observed delay (possibly hostile) and the sequence
/// gap carried with it.
type Step = (f64, u64);

/// Delays drawn from realistic values plus the hostile-float corners the
/// NaN/∞ audit documents.
fn delay_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        12 => 0.0f64..5_000.0,
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(-250.0),
        1 => Just(1.0e300),
        1 => Just(f64::MIN_POSITIVE),
    ]
}

/// Gaps weighted towards 0 (in-order traffic) with enough mass past the
/// flap trigger to exercise the φ lifecycle.
fn gap_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        8 => Just(0u64),
        2 => 1u64..3,
        3 => 3u64..40,
    ]
}

fn steps_strategy() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((delay_strategy(), gap_strategy()), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// φ lifecycle invariants: under any delay/gap sequence the forecast
    /// stays finite and non-negative, flaps only accumulate, the start
    /// phase never exceeds the maximally-flappy gate length, and the
    /// full state survives a round trip through its bytes exactly.
    #[test]
    fn phi_lifecycle_is_total(steps in steps_strategy()) {
        // ⌈λ·(−ln q)^(1/k)⌉ at the flappiest shape k = 0.5.
        let max_start = (4.0f64 * (-(0.1f64.ln())).powf(2.0)).ceil() as u32;
        let mut p = PhiAccrual::new(8, 1.0, true);
        let mut last_flaps = 0u64;
        for (i, &(delay, gap)) in steps.iter().enumerate() {
            p.observe_gap(delay, gap);
            let f = p.predict();
            prop_assert!(f.is_finite() && f >= 0.0, "step {}: forecast {}", i, f);
            prop_assert!(p.flaps() >= last_flaps);
            prop_assert!(p.start_left() <= max_start, "start_left {}", p.start_left());
            last_flaps = p.flaps();
        }
        prop_assert_eq!(p.observations(), steps.len() as u64);
        let bytes = encode(|w| p.write_state(w));
        let rebuilt = PhiAccrual::new(8, 1.0, true)
            .read_state(&mut Reader::new(&bytes))
            .expect("observable state must round-trip");
        prop_assert_eq!(rebuilt.predict().to_bits(), p.predict().to_bits());
        prop_assert_eq!(encode(|w| rebuilt.write_state(w)), bytes);
    }

    /// Adaptive-window and ML forecasts stay finite and non-negative
    /// under hostile floats, and their bytes round-trip exactly.
    #[test]
    fn adaptive_and_ml_are_total(steps in steps_strategy()) {
        let mut adw = AdaptiveWindow::new(8, 2.0);
        let mut ml = MlPredictor::new(4, 0.5);
        for (i, &(delay, _)) in steps.iter().enumerate() {
            adw.observe(delay);
            ml.observe(delay);
            let fa = adw.predict();
            let fm = ml.predict();
            prop_assert!(fa.is_finite() && fa >= 0.0, "step {}: ADWIN {}", i, fa);
            prop_assert!(fm.is_finite() && (0.0..=4.0e6).contains(&fm), "step {}: ML {}", i, fm);
        }
        let bytes = encode(|w| adw.write_state(w));
        let adw2 = AdaptiveWindow::new(8, 2.0)
            .read_state(&mut Reader::new(&bytes))
            .expect("adaptive state must round-trip");
        prop_assert_eq!(adw2.predict().to_bits(), adw.predict().to_bits());
        prop_assert_eq!(encode(|w| adw2.write_state(w)), bytes);
        let bytes = encode(|w| ml.write_state(w));
        let ml2 = MlPredictor::new(4, 0.5)
            .read_state(&mut Reader::new(&bytes))
            .expect("ml state must round-trip");
        prop_assert_eq!(ml2.predict().to_bits(), ml.predict().to_bits());
        prop_assert_eq!(encode(|w| ml2.write_state(w)), bytes);
    }

    /// `read_state` is total: every truncation of a family's bytes is an
    /// error, and XOR-ing any byte either errors or yields a state that
    /// re-encodes to exactly the mutated bytes and still forecasts
    /// without panicking — a decoder never invents or drops state.
    #[test]
    fn family_state_decode_is_total(
        steps in steps_strategy(),
        flip_at in 0usize..4_096,
        xor in 1u8..=255,
    ) {
        let mut phi = PhiAccrual::new(8, 1.0, true);
        let mut adw = AdaptiveWindow::new(8, 2.0);
        let mut ml = MlPredictor::new(4, 0.5);
        let mut win = WinMean::new(6);
        for &(delay, gap) in &steps {
            phi.observe_gap(delay, gap);
            adw.observe(delay);
            ml.observe(delay);
            win.observe(delay);
        }
        macro_rules! campaign {
            ($live:expr, $blank:expr) => {{
                let bytes = encode(|w| $live.write_state(w));
                for cut in 0..bytes.len() {
                    prop_assert!($blank.read_state(&mut Reader::new(&bytes[..cut])).is_err());
                }
                let mut bad = bytes.clone();
                bad[flip_at % bytes.len()] ^= xor;
                if let Ok(decoded) = $blank.read_state(&mut Reader::new(&bad)) {
                    prop_assert_eq!(encode(|w| decoded.write_state(w)), bad);
                    let _ = decoded.predict();
                }
            }};
        }
        campaign!(phi, PhiAccrual::new(8, 1.0, true));
        campaign!(adw, AdaptiveWindow::new(8, 2.0));
        campaign!(ml, MlPredictor::new(4, 0.5));
        campaign!(win, WinMean::new(6));
    }

    /// Impact-weight edge fuzz: arbitrary weight vectors (hostile floats
    /// included) sanitize to a finite total, and the trust value of any
    /// combination stays finite and inside `[0, total]` however the
    /// suspicion bitmap is arranged.
    #[test]
    fn impact_plane_is_total(
        raw in proptest::collection::vec(delay_strategy(), 5),
        lost in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let eta = SimDuration::from_secs(1);
        let mut bank = SourceBank::new(&extended_combinations(), eta, 5);
        bank.set_impact_weights(&raw);
        let total = bank.impact_total();
        prop_assert!(total.is_finite() && total >= 0.0);
        // Heartbeat everyone, then silence the `lost` subset long enough
        // to suspect it.
        for s in 0..5u32 {
            bank.observe_heartbeat(s, 0, SimTime::from_millis(200));
        }
        for s in 0..5u32 {
            if !lost[s as usize] {
                bank.observe_heartbeat(s, 1, SimTime::from_millis(1_200));
            }
        }
        bank.check_all_at(SimTime::from_secs(90));
        for combo in 0..bank.len() {
            let trust = bank.impact_trust(combo);
            prop_assert!(trust.is_finite(), "combo {} trust {}", combo, trust);
            prop_assert!(trust >= -1.0e-9 && trust <= total + 1.0e-9);
            prop_assert_eq!(bank.impact_accepts(combo, 0.0), trust >= 0.0);
        }
    }

    /// FDSB v2 restore is total: flipping any byte of an extended-grid
    /// image (φ mid-lifecycle, ML arenas, impact weights) either restores
    /// cleanly or errors — never panics, never yields non-finite trust.
    #[test]
    fn extended_snapshot_restore_is_total(
        flip_at in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        let eta = SimDuration::from_secs(1);
        let combos = extended_combinations();
        let mut bank = SourceBank::new(&combos, eta, 3);
        bank.set_impact_weights(&[1.5, 2.5, 3.0]);
        for seq in 0..12u64 {
            for s in 0..3u32 {
                // Source 1's silence trips a flap mid-image.
                if s == 1 && (4..8).contains(&seq) {
                    continue;
                }
                let at = SimTime::ZERO + eta * seq + SimDuration::from_millis(150 + u64::from(s));
                bank.observe_heartbeat(s, seq, at);
            }
        }
        let mut bytes = bank.snapshot_bytes();
        let i = flip_at % bytes.len();
        bytes[i] ^= xor;
        let mut target = SourceBank::new(&combos, eta, 3);
        if target.restore_bytes(&bytes).is_ok() {
            for combo in 0..target.len() {
                prop_assert!(target.impact_trust(combo).is_finite());
            }
        }
    }
}

/// State no observation sequence can reach is rejected by `read_state`,
/// family by family: a ring of the wrong length, a cursor or fill level
/// past the ring, an overfull window, a foreign smoothing factor, a gain
/// outside `(0, 1]` and a weight vector whose rate slot disagrees with the
/// configured rate.
#[test]
fn unreachable_family_state_is_rejected() {
    use SnapshotError::{Invalid, Mismatch};
    let mut phi = PhiAccrual::new(8, 1.0, true);
    let mut adw = AdaptiveWindow::new(8, 2.0);
    let mut ml = MlPredictor::new(4, 0.5);
    let mut win = WinMean::new(4);
    for i in 0..20 {
        let d = 100.0 + f64::from(i * 37 % 90);
        phi.observe_gap(d, if i == 9 { 6 } else { 0 });
        adw.observe(d);
        ml.observe(d);
        win.observe(d);
    }
    let phi = encode(|w| phi.write_state(w));
    let adw = encode(|w| adw.write_state(w));
    let ml = encode(|w| ml.write_state(w));
    let win = encode(|w| win.write_state(w));
    let lpf = encode(|w| Lpf::new(0.125).write_state(w));
    let jac = encode(|w| JacCore::new(0.25).write_state(w));
    let read_phi = |n, b: &[u8]| {
        PhiAccrual::new(n, 1.0, true)
            .read_state(&mut Reader::new(b))
            .map(drop)
    };
    let read_adw = |n, b: &[u8]| {
        AdaptiveWindow::new(n, 2.0)
            .read_state(&mut Reader::new(b))
            .map(drop)
    };
    let read_ml = |n, rate, b: &[u8]| {
        MlPredictor::new(n, rate)
            .read_state(&mut Reader::new(b))
            .map(drop)
    };
    let read_win = |n, b: &[u8]| WinMean::new(n).read_state(&mut Reader::new(b)).map(drop);
    let read_lpf = |b: &[u8]| Lpf::new(0.125).read_state(&mut Reader::new(b)).map(drop);
    let read_jac = |b: &[u8]| JacCore::read_state(&mut Reader::new(b)).map(drop);
    // φ's `pos` and `len` are the two u32 behind the 8-slot ring (one
    // 8-byte patch covers both); ML's rate rides in the last weight slot,
    // behind the length prefix.
    let cursor = |pos: u32, len: u32| {
        let slot = u64::from(pos) | u64::from(len) << 32;
        patch(&phi, 8 + 8 * 8, slot.to_le_bytes())
    };
    let f64_at = |bytes: &[u8], at: usize, x: f64| patch(bytes, at, x.to_le_bytes());
    let rejects = |got: Result<(), SnapshotError>, why| assert_eq!(got, Err(why));
    assert_eq!(read_phi(8, &phi), Ok(()));
    assert_eq!(read_phi(8, &cursor(7, 8)), Ok(()));
    rejects(read_phi(7, &phi), Mismatch("phi window"));
    for (pos, len) in [(8, 8), (u32::MAX, 0), (0, 9)] {
        rejects(read_phi(8, &cursor(pos, len)), Invalid("phi state"));
    }
    rejects(read_adw(7, &adw), Mismatch("adaptive window"));
    rejects(read_win(3, &win), Mismatch("window capacity"));
    // Claiming capacity 3 over the 4 stored delays is an overfull window.
    let overfull = patch(&win, 0, 3u64.to_le_bytes());
    rejects(read_win(3, &overfull), Invalid("window state"));
    assert_eq!(read_lpf(&lpf), Ok(()));
    for beta in [0.25, 0.0, f64::NAN] {
        rejects(
            read_lpf(&f64_at(&lpf, 0, beta)),
            Mismatch("smoothing factor"),
        );
    }
    assert_eq!(read_jac(&jac), Ok(()));
    for alpha in [0.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
        rejects(read_jac(&f64_at(&jac, 0, alpha)), Invalid("jacobson alpha"));
    }
    assert_eq!(read_ml(4, 0.5, &ml), Ok(()));
    rejects(read_ml(3, 0.5, &ml), Mismatch("ml lags"));
    rejects(read_ml(4, 0.75, &ml), Invalid("ml state"));
    let rate_slot = 8 + (4 + 1) * 8;
    rejects(
        read_ml(4, 0.5, &f64_at(&ml, rate_slot, 0.75)),
        Invalid("ml state"),
    );
}
