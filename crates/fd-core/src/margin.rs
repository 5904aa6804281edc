//! The safety margins of Section 3.2.
//!
//! The margin `sm_{k+1}` is the slack added to the predicted delay to limit
//! premature time-outs. Two adaptive families are compared in the paper:
//!
//! * **`SM_CI(γ)`** — a confidence-interval-style margin that depends *only*
//!   on the delay process:
//!   `sm = γ·σ̂·sqrt(1 + 1/n + (obs_n − ō)² / Σ_j (obs_j − ō)²)`
//!   with γ ∈ {1, 2, 3.31} (low/med/high, Table 1);
//! * **`SM_JAC(φ)`** — Jacobson's RTT estimator applied to the *prediction
//!   error*: `sm_{k+1} = φ·(sm_k + α·(|obs_n − pred_k| − sm_k))` with
//!   α = 1/4 and φ ∈ {1, 2, 4}.
//!
//! The constant margin of Chen et al.'s NFD-E is provided for the baseline.

use fd_stat::RunningStats;

use crate::snapshot::{Reader, SnapshotError, Writer};

/// The γ-independent state of `SM_CI`: the Welford statistics of the
/// observed delays plus the last `σ̂·sqrt(1 + 1/n + dev²/ssd)` factor.
///
/// The CI margin is `γ × (that factor)`, so the three paper variants
/// (γ ∈ {1, 2, 3.31}) — and in fact every `SM_CI(γ)` watching the same
/// heartbeat stream — can share ONE core and apply their γ at read time.
/// [`ConfidenceMargin`] delegates to this core; the
/// [`DetectorBank`](crate::bank::DetectorBank) keeps a single core for all
/// its CI combinations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CiCore {
    stats: RunningStats,
    sigma: f64,
    inner_sqrt: f64,
}

impl CiCore {
    /// Creates an empty core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one delay observation.
    pub fn update(&mut self, obs_ms: f64) {
        self.stats.push(obs_ms);
        let n = self.stats.count();
        if n < 2 {
            self.sigma = 0.0;
            self.inner_sqrt = 0.0;
            return;
        }
        let dev = obs_ms - self.stats.mean();
        let ssd = self.stats.sum_sq_dev();
        let inner = 1.0 + 1.0 / n as f64 + if ssd > 0.0 { dev * dev / ssd } else { 0.0 };
        self.sigma = self.stats.sample_std();
        self.inner_sqrt = inner.sqrt();
    }

    /// The margin for a given γ. Zero before two observations.
    pub fn margin(&self, gamma: f64) -> f64 {
        // Left-associated exactly like the historical single-margin code
        // ((γ·σ)·sqrt), so shared and per-margin paths are bit-identical.
        gamma * self.sigma * self.inner_sqrt
    }

    /// Observations consumed so far.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Writes the checkpoint body: the Welford statistics
    /// `(n, mean, m2, min, max)`, then `sigma` and `inner_sqrt`.
    pub fn write_state(&self, w: &mut Writer) {
        let (n, mean, m2, min, max) = self.stats.raw_parts();
        w.u64(n);
        w.f64(mean);
        w.f64(m2);
        w.f64(min);
        w.f64(max);
        w.f64(self.sigma);
        w.f64(self.inner_sqrt);
    }

    /// Reads a body written by [`CiCore::write_state`].
    pub fn read_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let stats = RunningStats::from_raw_parts(r.u64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        Ok(Self {
            stats,
            sigma: r.f64()?,
            inner_sqrt: r.f64()?,
        })
    }
}

/// The φ-independent state of `SM_JAC`: the unscaled smoothed deviation
/// `base_{k+1} = base_k + α·(|err_k| − base_k)`.
///
/// The margin is `φ × base`, so every `SM_JAC(φ)` driven by the same
/// prediction-error stream (i.e. the same predictor) can share one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacCore {
    alpha: f64,
    base: f64,
}

impl JacCore {
    /// Creates a core with gain `alpha` (the paper uses 1/4).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of (0, 1]: {alpha}");
        Self { alpha, base: 0.0 }
    }

    /// Consumes one prediction error.
    pub fn update(&mut self, prediction_error_ms: f64) {
        self.base += self.alpha * (prediction_error_ms.abs() - self.base);
    }

    /// The margin for a given φ.
    pub fn margin(&self, phi: f64) -> f64 {
        phi * self.base
    }

    /// Writes the checkpoint body `(alpha, base)`.
    pub fn write_state(&self, w: &mut Writer) {
        w.f64(self.alpha);
        w.f64(self.base);
    }

    /// Reads a body written by [`JacCore::write_state`], rejecting a gain
    /// outside `(0, 1]`.
    pub fn read_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let alpha = r.f64()?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(SnapshotError::Invalid("jacobson alpha"));
        }
        Ok(Self {
            alpha,
            base: r.f64()?,
        })
    }
}

/// The k-independent state of `SM_RTO`: smoothed signed error `μ̂` and
/// smoothed absolute deviation `d̂`. The margin is `max(μ̂ + k·d̂, 0)`, so
/// every `SM_RTO(k)` over the same error stream shares one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoCore {
    gain: f64,
    mu: f64,
    dev: f64,
}

impl RtoCore {
    /// Creates a core with the classical 1/8 mean gain (deviation gain 1/4).
    pub fn new() -> Self {
        Self {
            gain: 0.125,
            mu: 0.0,
            dev: 0.0,
        }
    }

    /// Consumes one prediction error.
    pub fn update(&mut self, prediction_error_ms: f64) {
        let err = prediction_error_ms;
        self.dev += 2.0 * self.gain * ((err - self.mu).abs() - self.dev);
        self.mu += self.gain * (err - self.mu);
    }

    /// The margin for a given deviation multiplier `k` (never negative).
    pub fn margin(&self, k: f64) -> f64 {
        (self.mu + k * self.dev).max(0.0)
    }

    /// Writes the checkpoint body `(gain, mu, dev)`.
    pub fn write_state(&self, w: &mut Writer) {
        w.f64(self.gain);
        w.f64(self.mu);
        w.f64(self.dev);
    }

    /// Reads a body written by [`RtoCore::write_state`].
    pub fn read_state(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            gain: r.f64()?,
            mu: r.f64()?,
            dev: r.f64()?,
        })
    }
}

impl Default for RtoCore {
    fn default() -> Self {
        Self::new()
    }
}

/// An adaptive (or constant) safety margin over heartbeat delays.
pub trait SafetyMargin: Send {
    /// Consumes a new observation: the observed delay and the error of the
    /// prediction that had been made for it (`err = obs − pred`).
    fn update(&mut self, obs_ms: f64, prediction_error_ms: f64);

    /// The current margin `sm_{k+1}` in milliseconds.
    fn margin(&self) -> f64;

    /// The margin's label, e.g. `"SM_CI(2)"`.
    fn name(&self) -> String;
}

impl<T: SafetyMargin + ?Sized> SafetyMargin for Box<T> {
    fn update(&mut self, obs_ms: f64, prediction_error_ms: f64) {
        (**self).update(obs_ms, prediction_error_ms)
    }
    fn margin(&self) -> f64 {
        (**self).margin()
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

/// `SM_CI(γ)`: confidence-interval margin, independent of the predictor.
///
/// ```
/// use fd_core::{ConfidenceMargin, SafetyMargin};
///
/// let mut sm = ConfidenceMargin::new(ConfidenceMargin::GAMMA_MED);
/// for obs in [200.0, 207.0, 195.0, 203.0] {
///     sm.update(obs, 0.0); // the prediction error argument is ignored
/// }
/// assert!(sm.margin() > 0.0);
/// assert_eq!(sm.name(), "SM_CI(2)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceMargin {
    gamma: f64,
    core: CiCore,
}

impl ConfidenceMargin {
    /// Creates the margin with multiplier `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 0.0, "gamma must be positive, got {gamma}");
        Self {
            gamma,
            core: CiCore::new(),
        }
    }

    /// The γ multiplier.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The paper's Table 1 values: γ_low = 1, γ_med = 2, γ_high = 3.31.
    pub const GAMMA_LOW: f64 = 1.0;
    /// γ_med of Table 1.
    pub const GAMMA_MED: f64 = 2.0;
    /// γ_high of Table 1.
    pub const GAMMA_HIGH: f64 = 3.31;
}

impl SafetyMargin for ConfidenceMargin {
    fn update(&mut self, obs_ms: f64, _prediction_error_ms: f64) {
        self.core.update(obs_ms);
    }

    fn margin(&self) -> f64 {
        self.core.margin(self.gamma)
    }

    fn name(&self) -> String {
        format!("SM_CI({})", self.gamma)
    }
}

/// `SM_JAC(φ)`: Jacobson-style margin driven by the predictor's error.
///
/// ```
/// use fd_core::{JacobsonMargin, SafetyMargin};
///
/// let mut sm = JacobsonMargin::new(JacobsonMargin::PHI_LOW);
/// sm.update(0.0, 8.0); // |err| = 8 → sm = ¼·8 = 2
/// assert_eq!(sm.margin(), 2.0);
/// // A perfect predictor drives the margin back toward zero.
/// for _ in 0..100 {
///     sm.update(0.0, 0.0);
/// }
/// assert!(sm.margin() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobsonMargin {
    phi: f64,
    core: JacCore,
}

impl JacobsonMargin {
    /// Creates the margin with multiplier `phi` and the paper's α = 1/4.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not strictly positive.
    pub fn new(phi: f64) -> Self {
        Self::with_alpha(phi, 0.25)
    }

    /// Creates the margin with an explicit gain α.
    ///
    /// # Panics
    ///
    /// Panics unless `phi > 0` and `0 < alpha <= 1`.
    pub fn with_alpha(phi: f64, alpha: f64) -> Self {
        assert!(phi > 0.0, "phi must be positive, got {phi}");
        Self {
            phi,
            core: JacCore::new(alpha),
        }
    }

    /// The φ multiplier.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// The paper's Table 1 values: φ_low = 1, φ_med = 2, φ_high = 4.
    pub const PHI_LOW: f64 = 1.0;
    /// φ_med of Table 1.
    pub const PHI_MED: f64 = 2.0;
    /// φ_high of Table 1.
    pub const PHI_HIGH: f64 = 4.0;
}

impl SafetyMargin for JacobsonMargin {
    fn update(&mut self, _obs_ms: f64, prediction_error_ms: f64) {
        // sm_{k+1} = φ · (base_k + α·(|err_k| − base_k)); the recursion state
        // is the *unscaled* smoothed deviation, as in Jacobson's RTO.
        self.core.update(prediction_error_ms);
    }

    fn margin(&self) -> f64 {
        self.core.margin(self.phi)
    }

    fn name(&self) -> String {
        format!("SM_JAC({})", self.phi)
    }
}

/// The full Jacobson/Karels round-trip estimator as a safety margin:
/// `sm = μ̂ + k·d̂`, where `μ̂` is the smoothed *signed* prediction error and
/// `d̂` the smoothed absolute deviation from it (TCP's RTO structure, and
/// the margin style of Bertier, Marin & Sens's adaptable detector that the
/// paper extends). Provided as an extension beyond the paper's two margin
/// families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoMargin {
    k: f64,
    core: RtoCore,
}

impl RtoMargin {
    /// Creates the margin with deviation multiplier `k` (TCP uses 4) and
    /// the classical gains (1/8 for the mean, 1/4 for the deviation).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not strictly positive.
    pub fn new(k: f64) -> Self {
        assert!(k > 0.0, "k must be positive, got {k}");
        Self {
            k,
            core: RtoCore::new(),
        }
    }

    /// The deviation multiplier.
    pub fn k(&self) -> f64 {
        self.k
    }
}

impl SafetyMargin for RtoMargin {
    fn update(&mut self, _obs_ms: f64, prediction_error_ms: f64) {
        self.core.update(prediction_error_ms);
    }

    fn margin(&self) -> f64 {
        // A persistent negative error (over-prediction) must not drive the
        // margin negative: the time-out would precede the prediction itself.
        self.core.margin(self.k)
    }

    fn name(&self) -> String {
        format!("SM_RTO({})", self.k)
    }
}

/// The constant safety margin used by NFD-E (Chen et al.), where the value is
/// derived from QoS requirements and a probabilistic characterisation of the
/// network rather than adapted online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantMargin {
    alpha_ms: f64,
}

impl ConstantMargin {
    /// Creates a constant margin of `alpha_ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `alpha_ms` is negative or not finite.
    pub fn new(alpha_ms: f64) -> Self {
        assert!(
            alpha_ms.is_finite() && alpha_ms >= 0.0,
            "invalid constant margin {alpha_ms}"
        );
        Self { alpha_ms }
    }
}

impl SafetyMargin for ConstantMargin {
    fn update(&mut self, _obs_ms: f64, _prediction_error_ms: f64) {}
    fn margin(&self) -> f64 {
        self.alpha_ms
    }
    fn name(&self) -> String {
        format!("CONST({}ms)", self.alpha_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_margin_is_zero_before_two_observations() {
        let mut m = ConfidenceMargin::new(2.0);
        assert_eq!(m.margin(), 0.0);
        m.update(200.0, 0.0);
        assert_eq!(m.margin(), 0.0);
        m.update(210.0, 0.0);
        assert!(m.margin() > 0.0);
    }

    #[test]
    fn ci_margin_matches_formula() {
        let mut m = ConfidenceMargin::new(2.0);
        let obs = [200.0, 210.0, 190.0, 205.0];
        for &o in &obs {
            m.update(o, 0.0);
        }
        // Recompute by hand.
        let n = obs.len() as f64;
        let mean = obs.iter().sum::<f64>() / n;
        let ssd: f64 = obs.iter().map(|o| (o - mean) * (o - mean)).sum();
        let sigma = (ssd / (n - 1.0)).sqrt();
        let last_dev = obs[obs.len() - 1] - mean;
        let expect = 2.0 * sigma * (1.0 + 1.0 / n + last_dev * last_dev / ssd).sqrt();
        assert!(
            (m.margin() - expect).abs() < 1e-9,
            "{} vs {expect}",
            m.margin()
        );
    }

    #[test]
    fn ci_margin_scales_with_gamma() {
        let obs = [200.0, 195.0, 207.0, 199.0, 212.0];
        let margins: Vec<f64> = [1.0, 2.0, 3.31]
            .iter()
            .map(|&g| {
                let mut m = ConfidenceMargin::new(g);
                for &o in &obs {
                    m.update(o, 0.0);
                }
                m.margin()
            })
            .collect();
        assert!(margins[0] < margins[1] && margins[1] < margins[2]);
        assert!((margins[1] / margins[0] - 2.0).abs() < 1e-9);
        assert!((margins[2] / margins[0] - 3.31).abs() < 1e-9);
    }

    #[test]
    fn ci_margin_ignores_prediction_error() {
        let mut a = ConfidenceMargin::new(1.0);
        let mut b = ConfidenceMargin::new(1.0);
        for i in 0..10 {
            let obs = 200.0 + i as f64;
            a.update(obs, 0.0);
            b.update(obs, 1_000.0); // wildly wrong predictor
        }
        assert_eq!(a.margin(), b.margin());
    }

    #[test]
    fn ci_margin_constant_series_is_zero() {
        let mut m = ConfidenceMargin::new(3.31);
        for _ in 0..50 {
            m.update(200.0, 0.0);
        }
        assert_eq!(m.margin(), 0.0);
    }

    #[test]
    fn jac_margin_recursion() {
        let mut m = JacobsonMargin::new(1.0);
        m.update(0.0, 8.0);
        // sm_1 = 1·(0 + ¼·(8 − 0)) = 2
        assert!((m.margin() - 2.0).abs() < 1e-12);
        m.update(0.0, 10.0);
        // base = 2; sm_2 = 2 + ¼·(10 − 2) = 4
        assert!((m.margin() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn jac_margin_scaling_with_phi() {
        // With identical error streams, sm(φ) = φ · sm(1) because the
        // recursion state is the unscaled smoothed deviation.
        let errs = [5.0, -3.0, 8.0, 2.0, -7.0];
        let run = |phi: f64| {
            let mut m = JacobsonMargin::new(phi);
            for &e in &errs {
                m.update(0.0, e);
            }
            m.margin()
        };
        assert!((run(2.0) - 2.0 * run(1.0)).abs() < 1e-9);
        assert!((run(4.0) - 4.0 * run(1.0)).abs() < 1e-9);
    }

    #[test]
    fn jac_margin_tracks_error_magnitude() {
        let mut m = JacobsonMargin::new(1.0);
        for _ in 0..100 {
            m.update(0.0, 6.0);
        }
        // Converges to |err| = 6.
        assert!((m.margin() - 6.0).abs() < 0.01);
        // Perfect predictor drives it back toward zero.
        for _ in 0..100 {
            m.update(0.0, 0.0);
        }
        assert!(m.margin() < 0.01);
    }

    #[test]
    fn jac_ignores_observation_value() {
        let mut a = JacobsonMargin::new(2.0);
        let mut b = JacobsonMargin::new(2.0);
        for i in 0..10 {
            a.update(1.0, i as f64);
            b.update(9_999.0, i as f64);
        }
        assert_eq!(a.margin(), b.margin());
    }

    #[test]
    fn rto_margin_tracks_mean_plus_deviation() {
        let mut m = RtoMargin::new(4.0);
        // Alternating ±5 errors: μ̂ → 0, d̂ → 5, margin → 20.
        for i in 0..500 {
            m.update(0.0, if i % 2 == 0 { 5.0 } else { -5.0 });
        }
        assert!((m.margin() - 20.0).abs() < 1.5, "margin={}", m.margin());
        assert_eq!(m.name(), "SM_RTO(4)");
        assert_eq!(m.k(), 4.0);
    }

    #[test]
    fn rto_margin_never_negative() {
        let mut m = RtoMargin::new(1.0);
        // Persistent over-prediction: signed mean is negative, deviation → 0.
        for _ in 0..500 {
            m.update(0.0, -10.0);
        }
        assert!(m.margin() >= 0.0, "margin={}", m.margin());
    }

    #[test]
    fn rto_margin_grows_with_k() {
        let errs = [3.0, -4.0, 6.0, -1.0, 2.0];
        let run = |k: f64| {
            let mut m = RtoMargin::new(k);
            for &e in &errs {
                m.update(0.0, e);
            }
            m.margin()
        };
        assert!(run(4.0) >= run(2.0));
        assert!(run(2.0) >= run(1.0));
    }

    #[test]
    fn constant_margin_never_moves() {
        let mut m = ConstantMargin::new(150.0);
        for i in 0..100 {
            m.update(i as f64, i as f64 * 2.0);
        }
        assert_eq!(m.margin(), 150.0);
        assert_eq!(m.name(), "CONST(150ms)");
    }

    #[test]
    fn names_follow_paper_notation() {
        assert_eq!(ConfidenceMargin::new(3.31).name(), "SM_CI(3.31)");
        assert_eq!(JacobsonMargin::new(4.0).name(), "SM_JAC(4)");
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn ci_rejects_nonpositive_gamma() {
        let _ = ConfidenceMargin::new(0.0);
    }

    #[test]
    #[should_panic(expected = "phi must be positive")]
    fn jac_rejects_nonpositive_phi() {
        let _ = JacobsonMargin::new(-1.0);
    }

    /// One shared [`CiCore`] with γ applied at read time is bit-identical to
    /// three independent `ConfidenceMargin`s — the invariant the
    /// `DetectorBank` relies on to collapse the three `SM_CI(γ)` variants.
    #[test]
    fn ci_core_shared_across_gammas_is_bit_identical() {
        let gammas = [1.0, 2.0, 3.31];
        let mut core = CiCore::new();
        let mut boxed: Vec<ConfidenceMargin> =
            gammas.iter().map(|&g| ConfidenceMargin::new(g)).collect();
        let obs = [200.0, 195.5, 207.25, 199.0, 212.125, 203.0, 198.75];
        for (step, &o) in obs.iter().enumerate() {
            core.update(o);
            for m in &mut boxed {
                m.update(o, f64::NAN); // error argument must be irrelevant
            }
            for (&g, m) in gammas.iter().zip(&boxed) {
                assert_eq!(
                    core.margin(g).to_bits(),
                    m.margin().to_bits(),
                    "step {step}, gamma {g}"
                );
            }
        }
        assert_eq!(core.count(), obs.len() as u64);
    }

    /// One shared [`JacCore`] with φ applied at read time is bit-identical
    /// to independent `JacobsonMargin`s over the same error stream.
    #[test]
    fn jac_core_shared_across_phis_is_bit_identical() {
        let phis = [1.0, 2.0, 4.0];
        let mut core = JacCore::new(0.25);
        let mut boxed: Vec<JacobsonMargin> = phis.iter().map(|&p| JacobsonMargin::new(p)).collect();
        for e in [5.0, -3.25, 8.5, 0.0, -7.75, 2.125, 9.0] {
            core.update(e);
            for m in &mut boxed {
                m.update(f64::NAN, e);
            }
            for (&p, m) in phis.iter().zip(&boxed) {
                assert_eq!(core.margin(p).to_bits(), m.margin().to_bits(), "phi {p}");
            }
        }
    }

    /// One shared [`RtoCore`] with k applied at read time matches
    /// independent `RtoMargin`s bit for bit.
    #[test]
    fn rto_core_shared_across_ks_is_bit_identical() {
        let ks = [1.0, 2.0, 4.0];
        let mut core = RtoCore::new();
        let mut boxed: Vec<RtoMargin> = ks.iter().map(|&k| RtoMargin::new(k)).collect();
        for e in [3.0, -4.5, 6.25, -1.0, 2.0, -10.0] {
            core.update(e);
            for m in &mut boxed {
                m.update(f64::NAN, e);
            }
            for (&k, m) in ks.iter().zip(&boxed) {
                assert_eq!(core.margin(k).to_bits(), m.margin().to_bits(), "k {k}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Both adaptive margins are always non-negative and finite.
        #[test]
        fn margins_nonnegative(
            obs in proptest::collection::vec(0.0f64..1e4, 1..200),
            errs in proptest::collection::vec(-1e3f64..1e3, 1..200),
        ) {
            let mut ci = ConfidenceMargin::new(2.0);
            let mut jac = JacobsonMargin::new(2.0);
            for (o, e) in obs.iter().zip(&errs) {
                ci.update(*o, *e);
                jac.update(*o, *e);
                prop_assert!(ci.margin() >= 0.0 && ci.margin().is_finite());
                prop_assert!(jac.margin() >= 0.0 && jac.margin().is_finite());
            }
        }

        /// SM_JAC is bounded by φ times the running max |err|.
        #[test]
        fn jac_bounded_by_max_error(errs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let mut m = JacobsonMargin::new(4.0);
            let mut max_abs: f64 = 0.0;
            for &e in &errs {
                max_abs = max_abs.max(e.abs());
                m.update(0.0, e);
                prop_assert!(m.margin() <= 4.0 * max_abs + 1e-9);
            }
        }
    }
}
