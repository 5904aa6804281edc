//! Bit-identity of the stage-4 CSS kernel with the implementation it
//! replaced: same accept/reject decisions, therefore the same coefficients.

use super::*;
use fd_net::{DelayTrace, WanProfile};
use fd_sim::{DetRng, SimDuration};
use proptest::prelude::*;

/// Stage 4 as it was before the kernel: an invertibility loop, a freshly
/// allocated innovation vector per candidate, and the SSE recomputed by the
/// comparator. Kept verbatim as the oracle; only the driver's tail is shaped
/// to the `polish` signature of [`ArimaModel::fit_with`].
mod reference {
    use super::ArimaSpec;

    pub fn ma_invertible(psi: &[f64]) -> bool {
        let q = psi.len();
        if q == 0 {
            return true;
        }
        // h_t = −Σ_j ψ_j·h_{t−j}, h_0 = 1: the inverse filter's impulse response.
        let mut hist = vec![0.0; q];
        hist[q - 1] = 1.0; // h_0, most recent last
        for _ in 1..2_000 {
            let mut h = 0.0;
            for j in 1..=q {
                h -= psi[j - 1] * hist[q - j];
            }
            if !h.is_finite() || h.abs() > 50.0 {
                return false;
            }
            hist.rotate_left(1);
            hist[q - 1] = h;
        }
        true
    }

    pub fn recursion_sse(z: &[f64], spec: ArimaSpec, beta: &[f64]) -> Option<f64> {
        let start = spec.p.max(spec.q);
        let mut innov = vec![0.0; z.len()];
        let mut sse = 0.0;
        for t in start..z.len() {
            let mut pred = beta[0];
            for i in 1..=spec.p {
                pred += beta[i] * z[t - i];
            }
            for j in 1..=spec.q {
                pred += beta[spec.p + j] * innov[t - j];
            }
            let e = z[t] - pred;
            if !e.is_finite() || e.abs() > 1e9 {
                return None;
            }
            innov[t] = e;
            sse += e * e;
        }
        sse.is_finite().then_some(sse)
    }

    pub fn css_refine(z: &[f64], spec: ArimaSpec, start_beta: Vec<f64>) -> Vec<f64> {
        let mut best = start_beta;
        let Some(mut best_sse) = recursion_sse(z, spec, &best) else {
            return best;
        };
        let mut steps: Vec<f64> = best.iter().map(|b| b.abs() * 0.1 + 0.02).collect();
        for _sweep in 0..25 {
            let mut improved = false;
            for i in 0..best.len() {
                for dir in [1.0, -1.0] {
                    let mut cand = best.clone();
                    cand[i] += dir * steps[i];
                    if !ma_invertible(&cand[1 + spec.p..]) {
                        continue;
                    }
                    if let Some(sse) = recursion_sse(z, spec, &cand) {
                        if sse < best_sse {
                            best_sse = sse;
                            best = cand;
                            improved = true;
                            break;
                        }
                    }
                }
            }
            if !improved {
                for s in &mut steps {
                    *s *= 0.5;
                }
                if steps.iter().all(|&s| s < 1e-5) {
                    break;
                }
            }
        }
        best
    }

    pub fn css_polish(z: &[f64], spec: ArimaSpec, beta: Vec<f64>) -> Option<(Vec<f64>, f64)> {
        let z_mean = z.iter().sum::<f64>() / z.len() as f64;
        let mut starts = vec![beta];
        if spec.q >= 1 {
            for psi1 in [-0.6, -0.875, -0.95] {
                let mut seed = vec![0.0; 1 + spec.p + spec.q];
                seed[0] = z_mean;
                seed[1 + spec.p] = psi1;
                starts.push(seed);
            }
        }
        let beta = starts
            .into_iter()
            .map(|s| css_refine(z, spec, s))
            .min_by(|a, b| {
                let sa = recursion_sse(z, spec, a).unwrap_or(f64::INFINITY);
                let sb = recursion_sse(z, spec, b).unwrap_or(f64::INFINITY);
                sa.partial_cmp(&sb).expect("finite or INF SSE")
            })
            .expect("at least one start");
        let sigma2 = recursion_sse(z, spec, &beta)
            .map(|sse| sse / (z.len() - spec.p.max(spec.q)) as f64)
            .unwrap_or(f64::INFINITY);
        if !sigma2.is_finite() || !ma_invertible(&beta[1 + spec.p..]) {
            return None;
        }
        Some((beta, sigma2))
    }
}

/// The paper's order, its sub-orders, the mean model, and two orders past it
/// — (5,1,5) is also past `LagStore`'s inline lags.
const ORDERS: [(usize, usize, usize); 7] = [
    (2, 1, 1),
    (0, 1, 1),
    (1, 0, 1),
    (1, 1, 0),
    (0, 0, 0),
    (3, 0, 2),
    (5, 1, 5),
];

const FAMILIES: usize = 6;

fn italy_japan(len: usize, seed: u64) -> Vec<f64> {
    let eta = SimDuration::from_secs(1);
    let mut delays = DelayTrace::record(&WanProfile::italy_japan(), 2 * len, eta, seed).delays_ms();
    delays.truncate(len);
    delays
}

fn series(family: usize, len: usize, seed: u64) -> Vec<f64> {
    if family == 0 {
        return italy_japan(len, seed);
    }
    let mut rng = DetRng::seed_from(seed);
    let (mut level, mut shock) = (0.0, 0.0);
    (0..len)
        .map(|i| match family {
            // 140 ms spikes on every 97th heartbeat.
            1 => 200.0 + rng.normal(0.0, 5.0) + if i % 97 == 0 { 140.0 } else { 0.0 },
            2 => 250.0,
            3 => 100.0 + 0.05 * i as f64 + rng.normal(0.0, 2.0),
            // Differences to an MA(1) with its root at 0.98.
            4 => {
                let a = rng.standard_normal();
                level += a - 0.98 * shock;
                shock = a;
                level
            }
            // Grows past the recursion's 1e9 divergence guard.
            _ => (0.01 * i as f64).exp() * (1.0 + 0.1 * rng.standard_normal()),
        })
        .collect()
}

fn bits(fit: Result<ArimaModel, ArimaError>) -> Result<Vec<u64>, ArimaError> {
    fit.map(|m| {
        std::iter::once(m.intercept)
            .chain(m.phi)
            .chain(m.psi)
            .chain([m.sigma2])
            .map(f64::to_bits)
            .collect()
    })
}

fn assert_fit_matches_reference(series: &[f64], spec: ArimaSpec) {
    assert_eq!(
        bits(ArimaModel::fit(series, spec)),
        bits(ArimaModel::fit_with(series, spec, reference::css_polish)),
        "{spec} on {} observations",
        series.len()
    );
}

#[test]
fn every_order_on_every_family_matches_the_reference() {
    for (p, d, q) in ORDERS {
        for family in 0..FAMILIES {
            assert_fit_matches_reference(&series(family, 400, 7), ArimaSpec::new(p, d, q));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fit_matches_the_reference(
        order in 0usize..ORDERS.len(),
        family in 0usize..FAMILIES,
        len in 40usize..3_000,
        seed in any::<u64>(),
    ) {
        let (p, d, q) = ORDERS[order];
        assert_fit_matches_reference(&series(family, len, seed), ArimaSpec::new(p, d, q));
    }
}

/// Coefficient bits `[c, φ₁, φ₂, ψ₁, σ²]` of the three fits `fdbench trace`
/// times, recorded before the kernel. They move with the link model's draw
/// stream exactly as fdbench's `paper_qos` fingerprint does.
#[test]
fn traced_fits_keep_their_coefficient_bits() {
    let delays = italy_japan(3_000, 42);
    for (window, golden) in [
        (
            300,
            [
                0x3f8b08c6e60246ce_u64,
                0x3fd5c28f5c28f5c4,
                0x3fa999999999999c,
                0xbfec28f5c28f5c2a,
                0x402f3a413b965294,
            ],
        ),
        (
            1_000,
            [
                0xbf5d78b580d3c303,
                0x3fd08f5c28f5c28c,
                0x3fc6e147ae147ae1,
                0xbfefa7ae147ae148,
                0x403b6cab68bc5067,
            ],
        ),
        (
            3_000,
            [
                0xbf47efbc056f7f20,
                0x3fc5d7a61d46cfcd,
                0x3fbd2ab42c109fee,
                0xbfef95d3d10d763c,
                0x4045aa0f905a80f4,
            ],
        ),
    ] {
        let fit = ArimaModel::fit(&delays[..window], ArimaSpec::new(2, 1, 1));
        assert_eq!(bits(fit), Ok(golden.to_vec()), "window {window}");
    }
}

/// Argument 1: where `invertible` answers without the impulse-response loop,
/// the loop would have answered the same — on both sides of every edge.
#[test]
fn invertibility_shortcut_agrees_with_the_long_loop() {
    let mut cases: Vec<Vec<f64>> = vec![vec![f64::NAN]];
    for magnitude in [
        0.0,
        1.0_f64.next_down(),
        1.0,
        1.0_f64.next_up(),
        1.0019,
        1.002,
        1.01,
        50.0,
        f64::INFINITY,
    ] {
        cases.push(vec![magnitude]);
        cases.push(vec![-magnitude]);
    }
    // q = 2, 3: Σ|ψ_j| on either side of 1, in every sign pattern.
    for total in [
        0.5,
        1.0_f64.next_down(),
        1.0,
        1.0_f64.next_up(),
        1.05,
        1.4,
        3.0,
    ] {
        for signs in 0..8u32 {
            let sign = |j: u32| if signs >> j & 1 == 0 { 1.0 } else { -1.0 };
            cases.push(vec![
                sign(0) * 0.75 * total,
                sign(1) * (total - 0.75 * total),
            ]);
            let (a, b) = (0.5 * total, 0.3 * total);
            cases.push(vec![sign(0) * a, sign(1) * b, sign(2) * (total - a - b)]);
        }
    }
    cases.push(vec![0.2, f64::NAN, 0.1]);
    cases.push(vec![f64::NEG_INFINITY, 0.1]);

    let (mut shortcut, mut looped) = (0, 0);
    for psi in &cases {
        let mut kernel = CssKernel::new(&[], ArimaSpec::new(0, 0, psi.len()));
        assert_eq!(
            kernel.invertible(psi),
            reference::ma_invertible(psi),
            "{psi:?}"
        );
        if psi.iter().map(|c| c.abs()).sum::<f64>() <= 1.0 {
            shortcut += 1;
        } else {
            looped += 1;
        }
    }
    assert!(shortcut >= 20 && looped >= 20, "{shortcut} / {looped}");
}

/// The intercept and φ coordinates inherit the incumbent's invertibility
/// instead of re-deriving it: from a start whose ψ is not invertible (but
/// too mild to blow the in-sample recursion up) they must stay put until a
/// ψ move lands on an invertible candidate, as they did.
#[test]
fn refine_from_a_non_invertible_start_matches_the_reference() {
    let spec = ArimaSpec::new(1, 1, 1);
    let z = difference(&series(1, 200, 3), 1);
    for psi in [-1.03, 1.03, -1.06] {
        let start = vec![0.0, 0.2, psi];
        assert!(!reference::ma_invertible(&start[2..]));
        assert!(reference::recursion_sse(&z, spec, &start).is_some());
        let expected = reference::css_refine(&z, spec, start.clone());
        let expected_sse = reference::recursion_sse(&z, spec, &expected).unwrap();
        let (beta, sse) = CssKernel::new(&z, spec).refine(start);
        assert_eq!(
            (
                beta.iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
                sse.to_bits()
            ),
            (
                expected.iter().map(|b| b.to_bits()).collect(),
                expected_sse.to_bits()
            ),
            "start ψ = {psi}"
        );
    }
}

/// A differenced spiky series and two stable parameter vectors for (2,·,1).
fn lane_fixture() -> (Vec<f64>, ArimaSpec, [Vec<f64>; 2]) {
    let z = difference(&series(1, 600, 11), 1);
    let betas = [vec![0.01, 0.3, 0.1, -0.7], vec![-0.02, 0.25, 0.05, -0.9]];
    (z, ArimaSpec::new(2, 1, 1), betas)
}

/// Argument 2: a lane is abandoned when its partial Σe² reaches the limit;
/// the full pass, compared afterwards, rejects exactly those lanes.
#[test]
fn abandoned_lane_is_rejected_like_the_full_pass() {
    let (z, spec, [beta, neighbour]) = lane_fixture();
    let full = reference::recursion_sse(&z, spec, &beta).unwrap();
    let beside = reference::recursion_sse(&z, spec, &neighbour).unwrap();
    // The recursion is causal: its SSE over a prefix is the partial sum there.
    let partial = |k: usize| reference::recursion_sse(&z[..k], spec, &beta).unwrap();
    assert!(partial(z.len() - 1) < full);

    let mut kernel = CssKernel::new(&z, spec);
    for limit in [
        partial(6),                     // crossed at the fourth step
        partial(z.len() / 2),           // half way
        partial(z.len() - 1).next_up(), // only the last element crosses it
        full,                           // reached, not exceeded: `sse < limit` fails
        full.next_up(),                 // never reached
        f64::INFINITY,
    ] {
        let expected = (full < limit).then_some(full).map(f64::to_bits);
        let solo = kernel.pass([&beta], [true], limit);
        assert_eq!(solo[0].map(f64::to_bits), expected, "limit {limit}");
        // Paired: the same verdict in either position; the neighbour is
        // judged against the same limit on its own sum.
        let beside_expected = (beside < limit).then_some(beside).map(f64::to_bits);
        let [a, b] = kernel.pass([&beta, &neighbour], [true; 2], limit);
        assert_eq!(
            [a, b].map(|s| s.map(f64::to_bits)),
            [expected, beside_expected]
        );
        let [b, a] = kernel.pass([&neighbour, &beta], [true; 2], limit);
        assert_eq!(
            [a, b].map(|s| s.map(f64::to_bits)),
            [expected, beside_expected]
        );
    }
}

/// Argument 3: a lane that diverges (or starts out of the running) beside a
/// healthy one leaves the healthy lane's SSE bit-equal to a solo pass.
#[test]
fn diverging_lane_leaves_its_neighbour_alone() {
    let (z, spec, [healthy, _]) = lane_fixture();
    let full = reference::recursion_sse(&z, spec, &healthy).map(f64::to_bits);
    assert!(full.is_some());
    let mut kernel = CssKernel::new(&z, spec);
    assert_eq!(
        kernel.pass([&healthy], [true], f64::INFINITY)[0].map(f64::to_bits),
        full
    );
    for diverging in [
        vec![0.01, 0.3, 0.1, 3.0],      // |e| passes 1e9 within a few dozen steps
        vec![0.01, 0.3, 0.1, -1.05],    // … within a few hundred
        vec![f64::NAN, 0.3, 0.1, -0.7], // not finite from the first step
        vec![0.01, f64::INFINITY, 0.1, -0.7],
    ] {
        assert_eq!(reference::recursion_sse(&z, spec, &diverging), None);
        let [a, b] = kernel.pass([&diverging, &healthy], [true; 2], f64::INFINITY);
        assert_eq!(
            (a, b.map(f64::to_bits)),
            (None, full),
            "{diverging:?} first"
        );
        let [a, b] = kernel.pass([&healthy, &diverging], [true; 2], f64::INFINITY);
        assert_eq!(
            (a.map(f64::to_bits), b),
            (full, None),
            "{diverging:?} second"
        );
    }
    // A lane that is not live is never a result, whatever its stripe holds.
    let [a, b] = kernel.pass([&healthy, &healthy], [false, true], f64::INFINITY);
    assert_eq!((a, b.map(f64::to_bits)), (None, full));
    let [a, b] = kernel.pass([&healthy, &healthy], [true, false], f64::INFINITY);
    assert_eq!((a.map(f64::to_bits), b), (full, None));
}
