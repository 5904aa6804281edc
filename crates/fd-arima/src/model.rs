//! ARIMA model fitting (Hannan–Rissanen) and one-step forecasting.
//!
//! The model is parameterised in regression form on the `d`-differenced
//! series `z_t`:
//!
//! ```text
//! z_t = c + Σ_{i=1..p} φ_i · z_{t−i} + Σ_{j=1..q} ψ_j · a_{t−j} + a_t
//! ```
//!
//! where `a_t` are the innovations. (`ψ_j = −θ_j` in the Box–Jenkins
//! `Θ_q(B)` sign convention used by the paper.)
//!
//! Fitting starts from the Hannan–Rissanen procedure: a long AR fit via
//! Levinson–Durbin produces innovation estimates (stage 1), ordinary least
//! squares regresses `z_t` on lagged values and lagged innovations (stage 2)
//! and once more on the innovations those coefficients imply (stage 3). That
//! is the standard fast, dependency-free ARMA estimator, but it is biased
//! when an MA root sits near the unit circle — where differenced delay
//! series live — so stage 4 polishes it by coordinate descent on the
//! conditional sum of squares from four starts.
//!
//! Cost: stages 1–3 are a few passes over the window (`O(n·m)` for the
//! order-`m` long AR, `O(n·(p+q)²)` for the regressions) and about 5 % of a
//! fit. Stage 4 is the fit: every candidate is one pass of the innovation
//! recursion, so it costs `candidates × n` serial steps — up to 800
//! candidates for the paper's (2,1,1), whatever the window. `CssKernel`
//! spends those steps and nothing else.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ar::{ar_residuals, fit_ar_yule_walker};
use crate::diff::{diff_step, difference};
use crate::linalg::least_squares;

/// The order triple `(p, d, q)` of an ARIMA model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArimaSpec {
    /// Autoregressive order.
    pub p: usize,
    /// Differencing order.
    pub d: usize,
    /// Moving-average order.
    pub q: usize,
}

impl ArimaSpec {
    /// Creates an order specification.
    pub const fn new(p: usize, d: usize, q: usize) -> Self {
        Self { p, d, q }
    }

    /// The minimum series length [`ArimaModel::fit`] accepts for this spec.
    pub fn min_series_len(&self) -> usize {
        // After differencing we need the long-AR warm-up plus enough
        // regression rows to overdetermine p + q + 1 parameters.
        self.d + self.long_ar_order() + 4 * (self.p + self.q + 1) + 8
    }

    /// Order of the stage-1 long AR model. Generous, because a
    /// near-noninvertible MA root (the common case for smoothed network
    /// delays, where the optimal EWMA gain is small) needs a long AR to
    /// approximate.
    pub(crate) fn long_ar_order(&self) -> usize {
        (2 * (self.p + self.q) + 16).max(20)
    }
}

impl fmt::Display for ArimaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ARIMA({},{},{})", self.p, self.d, self.q)
    }
}

/// Errors from [`ArimaModel::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArimaError {
    /// The series is shorter than [`ArimaSpec::min_series_len`].
    TooShort {
        /// Observations required.
        needed: usize,
        /// Observations supplied.
        got: usize,
    },
    /// The estimation system was singular and could not be regularised.
    Singular,
}

impl fmt::Display for ArimaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArimaError::TooShort { needed, got } => {
                write!(f, "series too short: need {needed} observations, got {got}")
            }
            ArimaError::Singular => write!(f, "estimation system is singular"),
        }
    }
}

impl std::error::Error for ArimaError {}

/// Stage 4 of a fit: `(z, spec, stage-3 beta)` to the polished
/// `beta = [c, φ…, ψ…]` and its innovation variance, or `None` if no start
/// yields a finite, invertible model.
type Polish = fn(&[f64], ArimaSpec, Vec<f64>) -> Option<(Vec<f64>, f64)>;

/// A fitted ARIMA model.
///
/// ```
/// use fd_arima::{ArimaModel, ArimaSpec};
/// // A noisy trend: d = 1 captures it.
/// let series: Vec<f64> = (0..300)
///     .map(|i| i as f64 * 0.5 + if i % 2 == 0 { 0.3 } else { -0.3 })
///     .collect();
/// let model = ArimaModel::fit(&series, ArimaSpec::new(0, 1, 1)).unwrap();
/// let forecasts = model.one_step_forecasts(&series);
/// let err = (series[250] - forecasts[250]).abs();
/// assert!(err < 1.5, "one-step error {err}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArimaModel {
    spec: ArimaSpec,
    intercept: f64,
    phi: Vec<f64>,
    psi: Vec<f64>,
    sigma2: f64,
}

impl ArimaModel {
    /// Fits the model to a level series by Hannan–Rissanen.
    ///
    /// # Errors
    ///
    /// * [`ArimaError::TooShort`] if the series has fewer than
    ///   [`ArimaSpec::min_series_len`] observations;
    /// * [`ArimaError::Singular`] if the regression cannot be solved even
    ///   with ridge regularisation (e.g. an exactly constant series with
    ///   `q > 0`).
    pub fn fit(series: &[f64], spec: ArimaSpec) -> Result<ArimaModel, ArimaError> {
        Self::fit_with(series, spec, css_polish)
    }

    /// [`ArimaModel::fit`] with stage 4 supplied by the caller, so the tests
    /// can run the retired stage-4 implementation behind the identical
    /// stages 1–3 and compare coefficients bit for bit.
    fn fit_with(series: &[f64], spec: ArimaSpec, polish: Polish) -> Result<ArimaModel, ArimaError> {
        let needed = spec.min_series_len();
        if series.len() < needed {
            return Err(ArimaError::TooShort {
                needed,
                got: series.len(),
            });
        }
        let z = difference(series, spec.d);

        if spec.p == 0 && spec.q == 0 {
            let mean = z.iter().sum::<f64>() / z.len() as f64;
            let sigma2 = z.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / z.len() as f64;
            return Ok(ArimaModel {
                spec,
                intercept: mean,
                phi: Vec::new(),
                psi: Vec::new(),
                sigma2,
            });
        }

        // Stage 1: long AR for innovation estimates.
        let m = spec.long_ar_order().min(z.len() / 4);
        let (c_ar, phi_ar, _) = fit_ar_yule_walker(&z, m).ok_or(ArimaError::Singular)?;
        let innovations = ar_residuals(&z, c_ar, &phi_ar);

        // Stage 2: OLS of z_t on [1, z_{t-1..t-p}, a_{t-1..t-q}].
        // Stage 3 (one refinement pass): recompute the innovations from the
        // stage-2 ARMA recursion and re-solve — this removes most of the
        // stage-2 bias when the MA root is close to the unit circle.
        let start = m.max(spec.p).max(spec.q);
        let mut innov = innovations;
        let mut fitted: Option<(Vec<f64>, f64)> = None; // (beta, sigma2)
        for _pass in 0..2 {
            let mut rows = Vec::with_capacity(z.len() - start);
            let mut targets = Vec::with_capacity(z.len() - start);
            for t in start..z.len() {
                let mut row = Vec::with_capacity(1 + spec.p + spec.q);
                row.push(1.0);
                for i in 1..=spec.p {
                    row.push(z[t - i]);
                }
                for j in 1..=spec.q {
                    row.push(innov[t - j]);
                }
                rows.push(row);
                targets.push(z[t]);
            }
            let beta = least_squares(&rows, &targets, 1e-8).ok_or(ArimaError::Singular)?;
            if beta.iter().any(|b| !b.is_finite()) {
                return Err(ArimaError::Singular);
            }
            let mut sse = 0.0;
            for (row, &target) in rows.iter().zip(&targets) {
                let pred: f64 = row.iter().zip(&beta).map(|(x, b)| x * b).sum();
                sse += (target - pred) * (target - pred);
            }
            let sigma2 = sse / rows.len() as f64;

            // Recompute innovations with the new coefficients for the next
            // pass (and as a stability check: a divergent recursion means a
            // non-invertible fit — keep the previous pass in that case).
            let mut next = vec![0.0; z.len()];
            let mut diverged = false;
            for t in spec.p.max(spec.q)..z.len() {
                let mut pred = beta[0];
                for i in 1..=spec.p {
                    pred += beta[i] * z[t - i];
                }
                for j in 1..=spec.q {
                    pred += beta[spec.p + j] * next[t - j];
                }
                next[t] = z[t] - pred;
                if !next[t].is_finite() || next[t].abs() > 1e9 {
                    diverged = true;
                    break;
                }
            }
            if diverged {
                // Non-invertible fit: its innovation recursion explodes, so
                // it cannot be used for streaming forecasts. Keep the
                // previous stable pass if any; otherwise start the CSS
                // polish from a neutral white-noise model.
                break;
            }
            fitted = Some((beta, sigma2));
            innov = next;
        }

        let beta = match fitted {
            Some((beta, _)) => beta,
            None => {
                let mut neutral = vec![0.0; 1 + spec.p + spec.q];
                neutral[0] = z.iter().sum::<f64>() / z.len() as f64;
                neutral
            }
        };

        let (beta, sigma2) = polish(&z, spec, beta).ok_or(ArimaError::Singular)?;

        let intercept = beta[0];
        let phi = beta[1..=spec.p].to_vec();
        let psi = beta[1 + spec.p..].to_vec();

        Ok(ArimaModel {
            spec,
            intercept,
            phi,
            psi,
            sigma2,
        })
    }

    /// Rebuilds a fitted model from coefficients captured via the getters.
    ///
    /// Returns `None` if the coefficient vectors do not match the spec's
    /// orders (`phi.len() != p` or `psi.len() != q`). No invertibility or
    /// stationarity check is re-run: the parts are trusted to come from a
    /// previously fitted model, so restore is bit-exact.
    pub fn from_parts(
        spec: ArimaSpec,
        intercept: f64,
        phi: Vec<f64>,
        psi: Vec<f64>,
        sigma2: f64,
    ) -> Option<ArimaModel> {
        (phi.len() == spec.p && psi.len() == spec.q).then_some(ArimaModel {
            spec,
            intercept,
            phi,
            psi,
            sigma2,
        })
    }

    /// The order specification of this model.
    pub fn spec(&self) -> ArimaSpec {
        self.spec
    }

    /// The intercept `c`.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The AR coefficients `φ_1..φ_p`.
    pub fn phi(&self) -> &[f64] {
        &self.phi
    }

    /// The MA coefficients `ψ_1..ψ_q` (regression sign convention).
    pub fn psi(&self) -> &[f64] {
        &self.psi
    }

    /// The estimated innovation variance.
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// One-step forecast on the *differenced* scale given recent differenced
    /// values and recent innovations, both most-recent-last.
    ///
    /// Returns `None` if the histories are shorter than `p`/`q`.
    pub fn forecast_diff(&self, recent_z: &[f64], recent_innov: &[f64]) -> Option<f64> {
        if recent_z.len() < self.spec.p || recent_innov.len() < self.spec.q {
            return None;
        }
        let mut acc = self.intercept;
        for (i, &p) in self.phi.iter().enumerate() {
            acc += p * recent_z[recent_z.len() - 1 - i];
        }
        for (j, &m) in self.psi.iter().enumerate() {
            acc += m * recent_innov[recent_innov.len() - 1 - j];
        }
        acc.is_finite().then_some(acc)
    }

    /// Runs the model over a level series producing one-step-ahead forecasts
    /// on the level scale.
    ///
    /// `out[t]` is the forecast of `series[t]` made from information up to
    /// `t − 1`. During warm-up (before differencing/lag histories fill) the
    /// forecast falls back to the previous level (`out[0] = series[0]`).
    pub fn one_step_forecasts(&self, series: &[f64]) -> Vec<f64> {
        let mut state = ArimaState::new(self.spec);
        let mut out = Vec::with_capacity(series.len());
        for &x in series {
            out.push(state.predict_next(Some(self)).unwrap_or(x));
            state.observe(x, Some(self));
        }
        out
    }
}

/// Stage 4: conditional-sum-of-squares refinement. Hannan–Rissanen is biased
/// when an MA root sits near the unit circle — exactly the regime of
/// differenced, noise-dominated delay series — so polish the coefficients by
/// coordinate descent on the one-step SSE. Multi-start: besides the HR
/// estimate, seed from a few canonical exponential-smoothing gains, which
/// are the classic local optima for differenced level series; keep the best
/// refined candidate.
fn css_polish(z: &[f64], spec: ArimaSpec, hr_beta: Vec<f64>) -> Option<(Vec<f64>, f64)> {
    let z_mean = z.iter().sum::<f64>() / z.len() as f64;
    let mut starts = vec![hr_beta];
    if spec.q >= 1 {
        for psi1 in [-0.6, -0.875, -0.95] {
            let mut seed = vec![0.0; 1 + spec.p + spec.q];
            seed[0] = z_mean;
            seed[1 + spec.p] = psi1;
            starts.push(seed);
        }
    }
    let mut kernel = CssKernel::new(z, spec);
    let (beta, sse) = starts
        .into_iter()
        .map(|s| kernel.refine(s))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite or INF SSE"))
        .expect("at least one start");
    let sigma2 = sse / (z.len() - spec.p.max(spec.q)) as f64;
    (sigma2.is_finite() && kernel.invertible(&beta[1 + spec.p..])).then_some((beta, sigma2))
}

/// The stage-4 workspace of one fit: the differenced series and the buffers
/// every CSS pass over it reuses.
///
/// A fit is `candidates × window` recursion steps (4 starts × ≤ 25 sweeps ×
/// `1 + p + q` coordinates × 2 directions: up to 800 candidates for the
/// paper's order), so the kernel does nothing per candidate but those steps:
/// no allocation, no invertibility loop the coefficients make redundant, and
/// no step past the point where the candidate is already rejected.
struct CssKernel<'a> {
    z: &'a [f64],
    p: usize,
    q: usize,
    /// Working storage of the pass in flight, one `z.len()` stripe per lane:
    /// the AR half of each prediction, overwritten by the innovation as the
    /// recursion passes it. Entries below `max(p, q)` are never written and
    /// stay 0.0 — the recursion's initial condition.
    stripes: [Vec<f64>; 2],
    /// Impulse-response history of [`CssKernel::invertible`]'s long loop.
    hist: Vec<f64>,
}

impl<'a> CssKernel<'a> {
    fn new(z: &'a [f64], spec: ArimaSpec) -> Self {
        Self {
            z,
            p: spec.p,
            q: spec.q,
            stripes: [vec![0.0; z.len()], vec![0.0; z.len()]],
            hist: vec![0.0; spec.q],
        }
    }

    /// `true` if the MA polynomial `1 + ψ₁B + … + ψ_qB^q` is (numerically)
    /// invertible: the impulse response of its inverse must not grow. A short
    /// in-sample recursion cannot detect marginally explosive roots, so this
    /// is checked over a long horizon regardless of the fit window's length.
    fn invertible(&mut self, psi: &[f64]) -> bool {
        // Where Σ|ψ_j| ≤ 1 the loop below can only answer `true`: every
        // |h_t| is at most the largest earlier one, up to a rounding factor
        // of (1+ε) per operation — nowhere near 50 in 2 000 steps. For a NaN
        // coefficient it can only answer `false`: h_1 is already NaN.
        let bound: f64 = psi.iter().map(|c| c.abs()).sum();
        if bound <= 1.0 {
            return true;
        }
        if bound.is_nan() {
            return false;
        }
        // h_t = −Σ_j ψ_j·h_{t−j}, h_0 = 1: the inverse filter's impulse response.
        let q = psi.len();
        let hist = &mut self.hist[..q];
        hist.fill(0.0);
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

    /// One pass of the innovation recursion over `z` for `L` parameter
    /// vectors `beta = [c, φ…, ψ…]` at once, each lane an independent
    /// dependency chain. Lane `l` yields its one-step conditional sum of
    /// squares if `live[l]`, the recursion does not diverge (non-invertible
    /// parameters) and the sum stays below `limit`; `None` otherwise.
    ///
    /// The sum only grows (its terms are non-negative and IEEE addition is
    /// monotone), so a lane whose partial sum has reached `limit` is decided
    /// and is out; the pass ends early once every lane is. A lane that is
    /// out keeps being stepped beside its neighbour: the recursion is bound
    /// by the latency of `e → ψ·e → pred → z − pred`, so the idle lane costs
    /// nothing, and it shares no arithmetic with the other.
    fn pass<const L: usize>(
        &mut self,
        betas: [&[f64]; L],
        live: [bool; L],
        limit: f64,
    ) -> [Option<f64>; L] {
        let (z, p, q) = (self.z, self.p, self.q);
        let (n, start) = (z.len(), p.max(q));
        let mut stripes = self.stripes.iter_mut();
        let stripe: [&mut [f64]; L] =
            std::array::from_fn(|_| &mut stripes.next().expect("one stripe per lane")[..]);
        // The AR half of each prediction, `c + Σ φ_i·z_{t−i}` summed in lag
        // order, does not wait on the innovations: lay it down first, one
        // streaming sweep per lag, and leave the serial loop the MA half.
        for l in 0..L {
            if live[l] {
                let (beta, ar) = (betas[l], &mut stripe[l][start..]);
                let mut lags = (1..=p).map(|i| (beta[i], &z[start - i..]));
                match lags.next() {
                    Some((phi, lag)) => ar
                        .iter_mut()
                        .zip(lag)
                        .for_each(|(a, x)| *a = beta[0] + phi * x),
                    None => ar.fill(beta[0]),
                }
                for (phi, lag) in lags {
                    ar.iter_mut().zip(lag).for_each(|(a, x)| *a += phi * x);
                }
            }
        }
        let mut out = live.map(|l| !l);
        // e_{t−1} rides in a register; older lags are read back from the
        // stripe, where e_t replaces the AR half it consumed.
        let mut prev = [0.0; L];
        let mut sse = [0.0; L];
        for t in start..n {
            if out.iter().all(|&o| o) {
                break;
            }
            for l in 0..L {
                let psi = &betas[l][1 + p..];
                let mut pred = stripe[l][t];
                if q >= 1 {
                    pred += psi[0] * prev[l];
                }
                for j in 2..=q {
                    pred += psi[j - 1] * stripe[l][t - j];
                }
                let e = z[t] - pred;
                stripe[l][t] = e;
                prev[l] = e;
                sse[l] += e * e;
                // Diverged, or already too large.
                out[l] |= !e.is_finite() || e.abs() > 1e9 || sse[l] >= limit;
            }
        }
        std::array::from_fn(|l| (!out[l] && sse[l] < limit).then_some(sse[l]))
    }

    /// Coordinate-descent CSS polish of an ARMA parameter vector. Keeps
    /// whatever it cannot improve; returns the vector with its SSE
    /// (`INFINITY` if the start itself diverges).
    fn refine(&mut self, start_beta: Vec<f64>) -> (Vec<f64>, f64) {
        let p = self.p;
        let mut best = start_beta;
        let [Some(mut best_sse)] = self.pass([&best], [true], f64::INFINITY) else {
            return (best, f64::INFINITY);
        };
        let mut steps: Vec<f64> = best.iter().map(|b| b.abs() * 0.1 + 0.02).collect();
        // The `+step` / `−step` candidates of the coordinate in hand; equal
        // to `best` everywhere else.
        let (mut up, mut down) = (best.clone(), best.clone());
        // Invertibility depends on ψ alone: the intercept and φ coordinates
        // inherit the incumbent's answer.
        let mut psi_ok = self.invertible(&best[1 + p..]);
        for _sweep in 0..25 {
            let mut improved = false;
            for i in 0..best.len() {
                up[i] = best[i] + steps[i];
                down[i] = best[i] - steps[i];
                let live = if i > p {
                    [
                        self.invertible(&up[1 + p..]),
                        self.invertible(&down[1 + p..]),
                    ]
                } else {
                    [psi_ok; 2]
                };
                let [sse_up, sse_down] = self.pass([&up, &down], live, best_sse);
                // `+` has precedence: `−` only counts where `+` was rejected.
                let accepted = sse_up
                    .map(|sse| (up[i], sse))
                    .or(sse_down.map(|sse| (down[i], sse)));
                if let Some((value, sse)) = accepted {
                    best[i] = value;
                    best_sse = sse;
                    psi_ok = true;
                    improved = true;
                }
                up[i] = best[i];
                down[i] = best[i];
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
        (best, best_sse)
    }
}

/// Lag histories of a streaming forecast recursion. The paper's orders are
/// tiny (`p, q ≤ 4`, `d ≤ 2`), so the common case stores every history
/// inline — a monitor tracking a million sources pays zero heap allocations
/// per forecaster. Exotic orders spill to heap deques with identical
/// semantics.
///
/// All histories are most recent **last**; `z`/`innov` are FIFO rings
/// trimmed to `p.max(1)` / `q.max(1)` lags, `diff` holds the last `d`
/// levels for the streaming differencer.
#[derive(Debug, Clone)]
enum LagStore {
    Inline {
        z: [f64; 4],
        innov: [f64; 4],
        diff: [f64; 2],
        z_len: u8,
        innov_len: u8,
        diff_len: u8,
    },
    Heap(Box<HeapLags>),
}

/// Heap spill for exotic orders. Boxed so the enum is sized by the inline
/// arm (the only one a paper-grid monitor ever instantiates) instead of the
/// three-deque spill nobody allocates.
#[derive(Debug, Clone)]
struct HeapLags {
    z: VecDeque<f64>,
    innov: VecDeque<f64>,
    diff: Vec<f64>,
}

impl LagStore {
    const INLINE_LAGS: usize = 4;
    const INLINE_DIFF: usize = 2;

    fn new(spec: ArimaSpec) -> Self {
        if spec.p.max(1) <= Self::INLINE_LAGS
            && spec.q.max(1) <= Self::INLINE_LAGS
            && spec.d <= Self::INLINE_DIFF
        {
            LagStore::Inline {
                z: [0.0; 4],
                innov: [0.0; 4],
                diff: [0.0; 2],
                z_len: 0,
                innov_len: 0,
                diff_len: 0,
            }
        } else {
            LagStore::Heap(Box::new(HeapLags {
                z: VecDeque::with_capacity(spec.p + 1),
                innov: VecDeque::with_capacity(spec.q + 1),
                diff: Vec::with_capacity(spec.d),
            }))
        }
    }

    /// Streaming difference: push a level, get the `d`-differenced value
    /// once `d` previous levels exist. Same arithmetic as
    /// [`Differencer::push`] (shared via `diff_step`).
    fn push_level(&mut self, d: usize, level: f64) -> Option<f64> {
        if d == 0 {
            return Some(level);
        }
        match self {
            LagStore::Inline { diff, diff_len, .. } => {
                let len = *diff_len as usize;
                if len < d {
                    diff[len] = level;
                    *diff_len += 1;
                    return None;
                }
                let z = diff_step(d, &diff[..d], level);
                diff.copy_within(1..d, 0);
                diff[d - 1] = level;
                Some(z)
            }
            LagStore::Heap(h) => {
                if h.diff.len() < d {
                    h.diff.push(level);
                    return None;
                }
                let z = diff_step(d, &h.diff, level);
                h.diff.remove(0);
                h.diff.push(level);
                Some(z)
            }
        }
    }

    /// Appends to a FIFO history capped at `cap` lags (drops the oldest).
    /// Trimming before the push leaves the same contents as the
    /// push-then-trim a `VecDeque` would do.
    fn push_capped(buf: &mut [f64; 4], len: &mut u8, cap: usize, value: f64) {
        let n = *len as usize;
        if n == cap {
            buf.copy_within(1..n, 0);
            buf[n - 1] = value;
        } else {
            buf[n] = value;
            *len += 1;
        }
    }

    fn push_z(&mut self, cap: usize, value: f64) {
        match self {
            LagStore::Inline { z, z_len, .. } => Self::push_capped(z, z_len, cap, value),
            LagStore::Heap(h) => {
                h.z.push_back(value);
                if h.z.len() > cap {
                    h.z.pop_front();
                }
            }
        }
    }

    fn push_innov(&mut self, cap: usize, value: f64) {
        match self {
            LagStore::Inline {
                innov, innov_len, ..
            } => Self::push_capped(innov, innov_len, cap, value),
            LagStore::Heap(h) => {
                h.innov.push_back(value);
                if h.innov.len() > cap {
                    h.innov.pop_front();
                }
            }
        }
    }

    fn clear_innov(&mut self) {
        match self {
            LagStore::Inline { innov_len, .. } => *innov_len = 0,
            LagStore::Heap(h) => h.innov.clear(),
        }
    }

    fn diff_recent(&self) -> &[f64] {
        match self {
            LagStore::Inline { diff, diff_len, .. } => &diff[..*diff_len as usize],
            LagStore::Heap(h) => &h.diff,
        }
    }

    /// Runs `f` over the contiguous `(recent_z, recent_innov)` views.
    fn with_slices<R>(&self, f: impl FnOnce(&[f64], &[f64]) -> R) -> R {
        match self {
            LagStore::Inline {
                z,
                innov,
                z_len,
                innov_len,
                ..
            } => f(&z[..*z_len as usize], &innov[..*innov_len as usize]),
            LagStore::Heap(h) => {
                // VecDeque slices: make contiguous views without realloc
                // churn on the hot path.
                let (za, zb) = h.z.as_slices();
                let (ia, ib) = h.innov.as_slices();
                let zvec: Vec<f64>;
                let zs: &[f64] = if zb.is_empty() {
                    za
                } else {
                    zvec = h.z.iter().copied().collect();
                    &zvec
                };
                let ivec: Vec<f64>;
                let is: &[f64] = if ib.is_empty() {
                    ia
                } else {
                    ivec = h.innov.iter().copied().collect();
                    &ivec
                };
                f(zs, is)
            }
        }
    }
}

/// Streaming forecast state: tracks the differenced history, innovations and
/// the pending one-step forecast. Shared by [`ArimaModel::one_step_forecasts`]
/// and [`crate::OnlineArima`].
///
/// A monitor tracking a million sources holds one of these per forecaster,
/// so the layout is deliberately compact: the orders live in three bytes
/// (rather than a 24-byte [`ArimaSpec`]) and the two optional `f64`s are
/// flag + value pairs instead of 16-byte `Option<f64>`s. The public API is
/// unchanged — [`ArimaState::spec`] reconstructs the spec on demand.
#[derive(Debug, Clone)]
pub struct ArimaState {
    p: u8,
    d: u8,
    q: u8,
    has_pending: bool,
    has_last: bool,
    lags: LagStore,
    /// Valid only when `has_pending`.
    pending_diff_forecast: f64,
    /// Valid only when `has_last`.
    last_level: f64,
}

fn order_u8(n: usize, what: &str) -> u8 {
    u8::try_from(n).unwrap_or_else(|_| panic!("ARIMA {what} order {n} exceeds 255"))
}

impl ArimaState {
    /// Creates empty state for the given spec.
    ///
    /// # Panics
    ///
    /// Panics if any order exceeds 255 (far beyond any fittable model).
    pub fn new(spec: ArimaSpec) -> Self {
        Self {
            p: order_u8(spec.p, "AR"),
            d: order_u8(spec.d, "differencing"),
            q: order_u8(spec.q, "MA"),
            has_pending: false,
            has_last: false,
            lags: LagStore::new(spec),
            pending_diff_forecast: 0.0,
            last_level: 0.0,
        }
    }

    /// The order specification this state was created for.
    pub fn spec(&self) -> ArimaSpec {
        ArimaSpec::new(
            usize::from(self.p),
            usize::from(self.d),
            usize::from(self.q),
        )
    }

    /// Consumes a new level observation, updating the innovation history
    /// against the forecast previously made by `model`.
    pub fn observe(&mut self, level: f64, model: Option<&ArimaModel>) {
        if let Some(z) = self.lags.push_level(usize::from(self.d), level) {
            let mut innovation = if self.has_pending {
                z - self.pending_diff_forecast
            } else {
                0.0
            };
            // Safety valve: an insane innovation indicates a corrupted model
            // or state; reset the recursion rather than propagate it.
            if !innovation.is_finite() || innovation.abs() > 1e9 {
                self.lags.clear_innov();
                innovation = 0.0;
            }
            self.lags.push_innov(usize::from(self.q).max(1), innovation);
            self.lags.push_z(usize::from(self.p).max(1), z);
        }
        self.last_level = level;
        self.has_last = true;
        let pending = model.and_then(|m| self.lags.with_slices(|zs, is| m.forecast_diff(zs, is)));
        self.has_pending = pending.is_some();
        self.pending_diff_forecast = pending.unwrap_or(0.0);
    }

    /// The one-step level forecast from the current state, or `None` during
    /// warm-up. The caller supplies `model` purely to decide the fallback;
    /// the forecast itself was computed at the last `observe`.
    pub fn predict_next(&self, _model: Option<&ArimaModel>) -> Option<f64> {
        let last = self.has_last.then_some(self.last_level);
        if self.has_pending {
            self.integrate(self.pending_diff_forecast).or(last)
        } else {
            last
        }
    }

    /// Maps a differenced-scale forecast back to the level scale, or `None`
    /// until `d` levels have been observed. Same arithmetic as
    /// [`Differencer::integrate`].
    fn integrate(&self, diff_forecast: f64) -> Option<f64> {
        let d = usize::from(self.d);
        let recent = self.lags.diff_recent();
        if recent.len() < d {
            return None;
        }
        Some(crate::diff::integrate_one_step(diff_forecast, recent, d))
    }

    /// The last observed level, if any.
    pub fn last_level(&self) -> Option<f64> {
        self.has_last.then_some(self.last_level)
    }

    /// The complete streaming state as plain data:
    /// `(diff_recent, recent_z, recent_innov, pending_diff_forecast,
    /// last_level)`, each history most recent last.
    ///
    /// Together with [`ArimaState::from_raw_parts`] this supports bit-exact
    /// checkpoint/restore of a live forecast recursion.
    pub fn raw_parts(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>, Option<f64>, Option<f64>) {
        let (zs, is) = self.lags.with_slices(|zs, is| (zs.to_vec(), is.to_vec()));
        (
            self.lags.diff_recent().to_vec(),
            zs,
            is,
            self.has_pending.then_some(self.pending_diff_forecast),
            self.has_last.then_some(self.last_level),
        )
    }

    /// Rebuilds streaming state from [`ArimaState::raw_parts`] output.
    ///
    /// Returns `None` if any history is longer than the spec allows — such
    /// state is unreachable by [`ArimaState::observe`].
    pub fn from_raw_parts(
        spec: ArimaSpec,
        diff_recent: Vec<f64>,
        recent_z: Vec<f64>,
        recent_innov: Vec<f64>,
        pending_diff_forecast: Option<f64>,
        last_level: Option<f64>,
    ) -> Option<ArimaState> {
        if recent_z.len() > spec.p.max(1)
            || recent_innov.len() > spec.q.max(1)
            || diff_recent.len() > spec.d
        {
            return None;
        }
        let mut lags = LagStore::new(spec);
        match &mut lags {
            LagStore::Inline {
                z,
                innov,
                diff,
                z_len,
                innov_len,
                diff_len,
            } => {
                z[..recent_z.len()].copy_from_slice(&recent_z);
                *z_len = recent_z.len() as u8;
                innov[..recent_innov.len()].copy_from_slice(&recent_innov);
                *innov_len = recent_innov.len() as u8;
                diff[..diff_recent.len()].copy_from_slice(&diff_recent);
                *diff_len = diff_recent.len() as u8;
            }
            LagStore::Heap(h) => {
                h.z.extend(recent_z);
                h.innov.extend(recent_innov);
                h.diff.extend(diff_recent);
            }
        }
        Some(ArimaState {
            p: order_u8(spec.p, "AR"),
            d: order_u8(spec.d, "differencing"),
            q: order_u8(spec.q, "MA"),
            has_pending: pending_diff_forecast.is_some(),
            has_last: last_level.is_some(),
            lags,
            pending_diff_forecast: pending_diff_forecast.unwrap_or(0.0),
            last_level: last_level.unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod css_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::DetRng;

    fn simulate_arma11(phi: f64, psi: f64, c: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::seed_from(seed);
        let mut xs = vec![0.0; n + 200];
        let mut prev_a = 0.0;
        for t in 1..xs.len() {
            let a = rng.standard_normal();
            xs[t] = c + phi * xs[t - 1] + psi * prev_a + a;
            prev_a = a;
        }
        xs.split_off(200)
    }

    #[test]
    fn spec_display_and_min_len() {
        let spec = ArimaSpec::new(2, 1, 1);
        assert_eq!(spec.to_string(), "ARIMA(2,1,1)");
        assert!(spec.min_series_len() > 20);
    }

    #[test]
    fn fit_rejects_short_series() {
        let spec = ArimaSpec::new(2, 1, 1);
        let err = ArimaModel::fit(&[1.0, 2.0, 3.0], spec).unwrap_err();
        assert!(matches!(err, ArimaError::TooShort { .. }));
        assert!(err.to_string().contains("too short"));
    }

    #[test]
    fn mean_model_p0d0q0() {
        let xs: Vec<f64> = (0..100)
            .map(|i| 5.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = ArimaModel::fit(&xs, ArimaSpec::new(0, 0, 0)).unwrap();
        assert!((m.intercept() - 5.0).abs() < 1e-9);
        assert!((m.sigma2() - 1.0).abs() < 1e-9);
        let f = m.one_step_forecasts(&xs);
        // After warm-up the forecast is the mean.
        assert!((f[50] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_ar1_coefficient() {
        let xs = simulate_arma11(0.6, 0.0, 0.0, 30_000, 21);
        let m = ArimaModel::fit(&xs, ArimaSpec::new(1, 0, 0)).unwrap();
        assert!((m.phi()[0] - 0.6).abs() < 0.03, "phi={:?}", m.phi());
        assert!((m.sigma2() - 1.0).abs() < 0.05, "sigma2={}", m.sigma2());
    }

    #[test]
    fn fit_recovers_arma11_coefficients() {
        let xs = simulate_arma11(0.7, 0.4, 0.0, 60_000, 22);
        let m = ArimaModel::fit(&xs, ArimaSpec::new(1, 0, 1)).unwrap();
        assert!((m.phi()[0] - 0.7).abs() < 0.05, "phi={:?}", m.phi());
        assert!((m.psi()[0] - 0.4).abs() < 0.07, "psi={:?}", m.psi());
    }

    #[test]
    fn fit_with_differencing_recovers_trend_model() {
        // Random walk with drift: x_t = x_{t-1} + 0.5 + noise.
        let mut rng = DetRng::seed_from(23);
        let mut xs = vec![0.0];
        for _ in 0..20_000 {
            let next = xs.last().unwrap() + 0.5 + 0.1 * rng.standard_normal();
            xs.push(next);
        }
        let m = ArimaModel::fit(&xs, ArimaSpec::new(0, 1, 0)).unwrap();
        assert!(
            (m.intercept() - 0.5).abs() < 0.01,
            "drift={}",
            m.intercept()
        );
        // One-step forecasts should track the walk closely.
        let f = m.one_step_forecasts(&xs);
        let errs: f64 = xs
            .iter()
            .zip(&f)
            .skip(100)
            .map(|(x, p)| (x - p) * (x - p))
            .sum::<f64>()
            / (xs.len() - 100) as f64;
        assert!(errs < 0.02, "msqerr={errs}");
    }

    #[test]
    fn one_step_forecasts_beat_naive_on_ar_process() {
        let xs = simulate_arma11(0.8, 0.0, 0.0, 20_000, 24);
        let m = ArimaModel::fit(&xs, ArimaSpec::new(1, 0, 0)).unwrap();
        let f = m.one_step_forecasts(&xs);
        let skip = 50;
        let model_err: f64 = xs[skip..]
            .iter()
            .zip(&f[skip..])
            .map(|(x, p)| (x - p) * (x - p))
            .sum();
        let naive_err: f64 = xs[skip..]
            .iter()
            .zip(&xs[skip - 1..])
            .map(|(x, prev)| (x - prev) * (x - prev))
            .sum();
        // For AR(1) with φ = 0.8 and unit innovations the optimal one-step
        // msqerr is 1.0 while LAST achieves 2·var·(1−φ) ≈ 1.11: the model
        // must sit near the optimum, clearly below naive.
        assert!(
            model_err < 0.95 * naive_err,
            "model={model_err}, naive={naive_err}"
        );
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let mean_err: f64 = xs[skip..].iter().map(|x| (x - mean) * (x - mean)).sum();
        // ...and far below the MEAN predictor (whose msqerr is the variance,
        // ≈ 1/(1−φ²) ≈ 2.78).
        assert!(
            model_err < 0.5 * mean_err,
            "model={model_err}, mean={mean_err}"
        );
    }

    #[test]
    fn forecast_diff_requires_history() {
        let xs = simulate_arma11(0.5, 0.0, 0.0, 5_000, 25);
        let m = ArimaModel::fit(&xs, ArimaSpec::new(2, 0, 1)).unwrap();
        assert!(m.forecast_diff(&[1.0], &[0.1]).is_none()); // p=2 needs 2 z's
        assert!(m.forecast_diff(&[1.0, 2.0], &[]).is_none()); // q=1 needs 1
        assert!(m.forecast_diff(&[1.0, 2.0], &[0.1]).is_some());
    }

    #[test]
    fn state_warmup_falls_back_to_last_level() {
        let spec = ArimaSpec::new(2, 1, 1);
        let mut st = ArimaState::new(spec);
        assert_eq!(st.predict_next(None), None);
        st.observe(100.0, None);
        assert_eq!(st.predict_next(None), Some(100.0));
        st.observe(105.0, None);
        assert_eq!(st.predict_next(None), Some(105.0));
        assert_eq!(st.last_level(), Some(105.0));
    }

    #[test]
    fn forecasts_are_finite_on_spiky_series() {
        // Series with large spikes should not blow up the forecasts.
        let mut rng = DetRng::seed_from(26);
        let xs: Vec<f64> = (0..2_000)
            .map(|i| {
                let base = 200.0 + rng.normal(0.0, 5.0);
                if i % 97 == 0 {
                    base + 140.0
                } else {
                    base
                }
            })
            .collect();
        let m = ArimaModel::fit(&xs, ArimaSpec::new(2, 1, 1)).unwrap();
        for f in m.one_step_forecasts(&xs) {
            assert!(f.is_finite());
        }
    }
}
