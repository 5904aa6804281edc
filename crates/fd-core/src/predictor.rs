//! The delay predictors of Section 3.1.
//!
//! Every predictor consumes the list `obs = [obs_1 … obs_n]` of observed
//! one-way heartbeat delays (in milliseconds) and forecasts the next one.
//! The paper's five choices:
//!
//! | predictor  | forecast `pred_{k+1}` |
//! |------------|------------------------|
//! | `LAST`     | `obs_n` |
//! | `MEAN`     | mean of all observations |
//! | `WINMEAN(N)` | mean of the last `N` observations (= MEAN while `n < N`) |
//! | `LPF(β)`   | `(1−β)·pred_k + β·obs_n` (exponential smoothing) |
//! | `ARIMA(p,d,q)` | one-step Box–Jenkins forecast, refit every `N_Arima` |
//!
//! All per-observation updates are `O(1)` in the length of the observation
//! list (the paper's final-remarks complexity claim); ARIMA's periodic refit
//! is amortised.

use std::collections::VecDeque;

use fd_arima::{ArimaSpec, OnlineArima};

use crate::snapshot::{read_arima, write_arima, Reader, SnapshotError, Writer};

/// A one-step forecaster of heartbeat transmission delays (milliseconds).
///
/// Implementations return 0.0 from [`Predictor::predict`] before the first
/// observation (the cold-start time-out is then just the safety margin).
pub trait Predictor: Send {
    /// Consumes the delay of a newly received heartbeat.
    fn observe(&mut self, delay_ms: f64);

    /// Consumes the delay of a newly received heartbeat together with the
    /// sequence gap that preceded it: `gap` is the number of expected
    /// heartbeats that never arrived between the previously freshest
    /// heartbeat and this one (0 for in-order and stale deliveries).
    ///
    /// Lifecycle-aware predictors (φ-accrual) override this to detect
    /// flapping; every other predictor ignores the gap.
    fn observe_gap(&mut self, delay_ms: f64, gap: u64) {
        let _ = gap;
        self.observe(delay_ms);
    }

    /// Forecasts the delay of the next heartbeat.
    fn predict(&self) -> f64;

    /// The predictor's label, e.g. `"WINMEAN(10)"`.
    fn name(&self) -> String;

    /// Number of observations consumed so far.
    fn observations(&self) -> u64;
}

impl<T: Predictor + ?Sized> Predictor for Box<T> {
    fn observe(&mut self, delay_ms: f64) {
        (**self).observe(delay_ms)
    }
    fn observe_gap(&mut self, delay_ms: f64, gap: u64) {
        (**self).observe_gap(delay_ms, gap)
    }
    fn predict(&self) -> f64 {
        (**self).predict()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn observations(&self) -> u64 {
        (**self).observations()
    }
}

/// Ceiling on a sanitized delay observation, in milliseconds (~66 minutes —
/// comfortably above the `SourceBank` deadline horizon, so no in-pipeline
/// delay ever hits it; only hostile direct feeds do).
pub(crate) const MAX_DELAY_MS: f64 = 4.0e6;

/// Clamps a delay observation into `[0, MAX_DELAY_MS]`; NaN and ±∞ map
/// to 0.0. The new-family predictors (φ-accrual, μ+Kσ, ML) sanitize every
/// input through this, so their internal state stays finite under hostile
/// floats; the paper's five predictors are left bit-for-bit unchanged.
pub(crate) fn sanitize_delay(delay_ms: f64) -> f64 {
    if delay_ms.is_finite() {
        delay_ms.clamp(0.0, MAX_DELAY_MS)
    } else {
        0.0
    }
}

/// `LAST`: the forecast is the most recent observation.
///
/// ```
/// use fd_core::{Last, Predictor};
/// let mut p = Last::new();
/// p.observe(197.0);
/// p.observe(203.5);
/// assert_eq!(p.predict(), 203.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Last {
    last: f64,
    n: u64,
}

impl Last {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the checkpoint body `(last, n)`.
    pub fn write_state(&self, w: &mut Writer) {
        w.f64(self.last);
        w.u64(self.n);
    }

    /// Reads a body written by [`Last::write_state`].
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            last: r.f64()?,
            n: r.u64()?,
        })
    }
}

impl Predictor for Last {
    fn observe(&mut self, delay_ms: f64) {
        self.last = delay_ms;
        self.n += 1;
    }
    fn predict(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.last
        }
    }
    fn name(&self) -> String {
        "LAST".to_owned()
    }
    fn observations(&self) -> u64 {
        self.n
    }
}

/// `MEAN`: the forecast is the running mean of all observations.
///
/// ```
/// use fd_core::{Mean, Predictor};
/// let mut p = Mean::new();
/// for obs in [190.0, 200.0, 210.0] {
///     p.observe(obs);
/// }
/// assert_eq!(p.predict(), 200.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mean {
    mean: f64,
    n: u64,
}

impl Mean {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the checkpoint body `(mean, n)`.
    pub fn write_state(&self, w: &mut Writer) {
        w.f64(self.mean);
        w.u64(self.n);
    }

    /// Reads a body written by [`Mean::write_state`].
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            mean: r.f64()?,
            n: r.u64()?,
        })
    }
}

impl Predictor for Mean {
    fn observe(&mut self, delay_ms: f64) {
        self.n += 1;
        self.mean += (delay_ms - self.mean) / self.n as f64;
    }
    fn predict(&self) -> f64 {
        self.mean
    }
    fn name(&self) -> String {
        "MEAN".to_owned()
    }
    fn observations(&self) -> u64 {
        self.n
    }
}

/// `WINMEAN(N)`: the forecast is the mean of the last `N` observations;
/// identical to `MEAN` while fewer than `N` observations exist.
///
/// ```
/// use fd_core::{Predictor, WinMean};
/// let mut p = WinMean::new(2);
/// for obs in [100.0, 201.0, 203.0] {
///     p.observe(obs);
/// }
/// assert_eq!(p.predict(), 202.0); // the first observation fell out
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WinMean {
    window: VecDeque<f64>,
    capacity: usize,
    sum: f64,
    n: u64,
}

impl WinMean {
    /// Creates the predictor with window size `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sum: 0.0,
            n: 0,
        }
    }

    /// The configured window size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Writes the checkpoint body `(capacity, window oldest-first, sum, n)`.
    pub fn write_state(&self, w: &mut Writer) {
        w.u64(self.capacity as u64);
        w.u64(self.window.len() as u64);
        for &x in &self.window {
            w.f64(x);
        }
        w.f64(self.sum);
        w.u64(self.n);
    }

    /// Reads a body written by a `WINMEAN` of this capacity, rejecting
    /// state unreachable by [`Predictor::observe`] (an overfull window).
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        if r.len()? != self.capacity {
            return Err(SnapshotError::Mismatch("window capacity"));
        }
        let window = r.vec_f64()?;
        if window.len() > self.capacity {
            return Err(SnapshotError::Invalid("window state"));
        }
        Ok(Self {
            window: window.into(),
            capacity: self.capacity,
            sum: r.f64()?,
            n: r.u64()?,
        })
    }
}

impl Predictor for WinMean {
    fn observe(&mut self, delay_ms: f64) {
        if self.window.len() == self.capacity {
            self.sum -= self.window.pop_front().expect("non-empty window");
        }
        self.window.push_back(delay_ms);
        self.sum += delay_ms;
        self.n += 1;
    }
    fn predict(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.sum / self.window.len() as f64
        }
    }
    fn name(&self) -> String {
        format!("WINMEAN({})", self.capacity)
    }
    fn observations(&self) -> u64 {
        self.n
    }
}

/// `LPF(β)`: exponential smoothing
/// `pred_{k+1} = pred_k + β·(obs_n − pred_k)`.
///
/// The first observation initialises the filter (`pred_1 = obs_1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lpf {
    beta: f64,
    pred: f64,
    n: u64,
}

impl Lpf {
    /// Creates the filter with smoothing factor `beta` (paper uses 1/8).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < beta <= 1`.
    pub fn new(beta: f64) -> Self {
        assert!(beta > 0.0 && beta <= 1.0, "beta out of (0, 1]: {beta}");
        Self {
            beta,
            pred: 0.0,
            n: 0,
        }
    }

    /// The smoothing factor.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Writes the checkpoint body `(beta, pred, n)`.
    pub fn write_state(&self, w: &mut Writer) {
        w.f64(self.beta);
        w.f64(self.pred);
        w.u64(self.n);
    }

    /// Reads a body written by an `LPF` of this β (any other β, valid or
    /// not, is a mismatch).
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        if r.f64()?.to_bits() != self.beta.to_bits() {
            return Err(SnapshotError::Mismatch("smoothing factor"));
        }
        Ok(Self {
            beta: self.beta,
            pred: r.f64()?,
            n: r.u64()?,
        })
    }
}

impl Predictor for Lpf {
    fn observe(&mut self, delay_ms: f64) {
        if self.n == 0 {
            self.pred = delay_ms;
        } else {
            self.pred += self.beta * (delay_ms - self.pred);
        }
        self.n += 1;
    }
    fn predict(&self) -> f64 {
        self.pred
    }
    fn name(&self) -> String {
        format!("LPF({})", self.beta)
    }
    fn observations(&self) -> u64 {
        self.n
    }
}

/// `ARIMA(p,d,q)`: one-step Box–Jenkins forecast, re-estimated every
/// `refit_every` observations (the paper's `N_Arima = 1000`).
///
/// Falls back to `LAST` behaviour until the first successful fit.
#[derive(Debug, Clone)]
pub struct ArimaPredictor {
    inner: OnlineArima,
}

impl ArimaPredictor {
    /// Creates the predictor.
    ///
    /// # Panics
    ///
    /// Panics if `refit_every` is zero.
    pub fn new(spec: ArimaSpec, refit_every: usize) -> Self {
        Self {
            inner: OnlineArima::new(spec, refit_every),
        }
    }

    /// The paper's configuration: `ARIMA(2,1,1)` refit every 1000
    /// observations (Table 2).
    pub fn paper_default() -> Self {
        Self::new(ArimaSpec::new(2, 1, 1), 1000)
    }

    /// The underlying online forecaster.
    pub fn inner(&self) -> &OnlineArima {
        &self.inner
    }

    /// Writes the full streaming state (window, model, innovation
    /// recursion, counters) as the checkpoint body.
    pub fn write_state(&self, w: &mut Writer) {
        write_arima(w, &self.inner.snapshot());
    }

    /// Reads a body written by an `ARIMA` of this order, rejecting
    /// internally inconsistent state.
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let snap = read_arima(r)?;
        if snap.spec != self.inner.spec() {
            return Err(SnapshotError::Mismatch("arima spec"));
        }
        OnlineArima::from_snapshot(snap)
            .map(|inner| Self { inner })
            .ok_or(SnapshotError::Invalid("arima state"))
    }
}

impl Predictor for ArimaPredictor {
    fn observe(&mut self, delay_ms: f64) {
        self.inner.observe(delay_ms);
    }
    fn predict(&self) -> f64 {
        // Delays are non-negative; a (rare) negative forecast on the level
        // scale is clamped.
        self.inner.predict_next().max(0.0)
    }
    fn name(&self) -> String {
        let s = self.inner.spec();
        format!("ARIMA({},{},{})", s.p, s.d, s.q)
    }
    fn observations(&self) -> u64 {
        self.inner.observed() as u64
    }
}

/// Flap trigger: a sequence gap of at least this many missing heartbeats
/// counts as a down/up transition of the source (losses are i.i.d. and
/// rarely run this long; crash windows always do).
pub const PHI_FLAP_GAP_MIN: u64 = 3;

/// Mean-uptime scale (in heartbeats) that maps flap history onto the
/// Weibull shape parameter `k`: sources whose mean uptime is well below
/// the scale look flappy (`k → 0.5`, heavy tail, long re-admission);
/// sources well above it look stable (`k → 2.0`, light tail, short
/// re-admission).
pub const PHI_WEIBULL_SCALE: f64 = 8.0;

/// Re-admission quantile: the start phase lasts until the Weibull survival
/// of another flap drops below this.
const PHI_READMIT_Q: f64 = 0.1;

/// Weibull scale parameter of the re-admission gate, in heartbeats.
const PHI_START_LAMBDA: f64 = 4.0;

/// `PHI(N,φ*)`: φ-accrual timeout over a window of the last `N` delays,
/// with a **two-phase stable/start lifecycle** for flapping sources.
///
/// The accrual model is the exponential-tail form: suspicion level
/// `φ(t) = −log10 P(delay > t)` under `delay ~ Exp(1/μ)` scaled by the
/// window's dispersion, which closes to the timeout
///
/// ```text
/// t_φ = μ + φ*·ln(10)·σ
/// ```
///
/// where `μ`, `σ` are the sample mean/standard deviation of the window.
/// **Defined degenerate behavior** (the NaN/∞ audit): a window of one
/// sample or of identical samples has `σ = 0`, so `t_φ = μ` exactly —
/// never NaN; negative variance from float cancellation is clamped to 0.
///
/// The lifecycle (SNIPPETS.md snippet 3, made executable): a sequence gap
/// of ≥ [`PHI_FLAP_GAP_MIN`] heartbeats is a *flap*. On a flap the window
/// is **cold-restarted** (the pre-crash delay distribution is stale) and
/// the predictor enters a *start phase* whose length is Weibull-gated on
/// the source's flap history — flappier sources (short mean uptimes) serve
/// longer start phases. During the start phase the dispersion is floored
/// at `μ` (a CV ≥ 1 prior), so the freshly re-admitted source is not
/// suspected on the first post-recovery jitter; once `start_left` drains,
/// the stable phase trusts the window's own `σ` again.
///
/// With `two_phase = false` the lifecycle is disabled entirely (the
/// stable-phase-only variant the flapping chaos test compares against).
#[derive(Debug, Clone, PartialEq)]
pub struct PhiAccrual {
    ring: Vec<f64>,
    cap: usize,
    pos: usize,
    len: usize,
    sum: f64,
    sumsq: f64,
    threshold: f64,
    two_phase: bool,
    start_left: u32,
    flaps: u64,
    mean_up: f64,
    up_len: u64,
    n: u64,
}

impl PhiAccrual {
    /// Creates the predictor with window size `window` and suspicion
    /// threshold `threshold` (φ*); `two_phase` enables the flap lifecycle.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `threshold` is not finite-positive.
    pub fn new(window: usize, threshold: f64, two_phase: bool) -> Self {
        assert!(window > 0, "phi window must be positive");
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "phi threshold out of range: {threshold}"
        );
        Self {
            ring: vec![0.0; window],
            cap: window,
            pos: 0,
            len: 0,
            sum: 0.0,
            sumsq: 0.0,
            threshold,
            two_phase,
            start_left: 0,
            flaps: 0,
            mean_up: 0.0,
            up_len: 0,
            n: 0,
        }
    }

    /// Remaining start-phase observations (0 in the stable phase).
    pub fn start_left(&self) -> u32 {
        self.start_left
    }

    /// Number of flaps (gap-triggered cold restarts) seen so far.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Start-phase length for the *next* flap, Weibull-gated on the flap
    /// history: `⌈λ·(−ln q)^(1/k)⌉` with shape
    /// `k = clamp(mean_uptime / scale, 0.5, 2.0)`. A source with no flap
    /// history yet is treated as maximally flappy (`k = 0.5`).
    fn start_len(&self) -> u32 {
        let k = (self.mean_up / PHI_WEIBULL_SCALE).clamp(0.5, 2.0);
        let beats = PHI_START_LAMBDA * (-(PHI_READMIT_Q.ln())).powf(1.0 / k);
        beats.ceil() as u32
    }

    /// Writes the checkpoint body
    /// `(ring, pos, len, sum, sumsq, start_left, flaps, mean_up, up_len, n)`.
    /// Configuration (`window`, `threshold`, `two_phase`) is not state and
    /// travels as part of the predictor kind.
    pub fn write_state(&self, w: &mut Writer) {
        w.vec_f64(&self.ring);
        w.u32(self.pos as u32);
        w.u32(self.len as u32);
        w.f64(self.sum);
        w.f64(self.sumsq);
        w.u32(self.start_left);
        w.u64(self.flaps);
        w.f64(self.mean_up);
        w.u64(self.up_len);
        w.u64(self.n);
    }

    /// Reads a body written by a `PHI` of this window, rejecting state
    /// unreachable by observation (a cursor or fill level past the ring).
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let ring = r.vec_f64()?;
        if ring.len() != self.cap {
            return Err(SnapshotError::Mismatch("phi window"));
        }
        let pos = r.u32()? as usize;
        let len = r.u32()? as usize;
        if pos >= self.cap || len > self.cap {
            return Err(SnapshotError::Invalid("phi state"));
        }
        Ok(Self {
            ring,
            cap: self.cap,
            pos,
            len,
            sum: r.f64()?,
            sumsq: r.f64()?,
            threshold: self.threshold,
            two_phase: self.two_phase,
            start_left: r.u32()?,
            flaps: r.u64()?,
            mean_up: r.f64()?,
            up_len: r.u64()?,
            n: r.u64()?,
        })
    }
}

impl Predictor for PhiAccrual {
    fn observe(&mut self, delay_ms: f64) {
        self.observe_gap(delay_ms, 0);
    }
    fn observe_gap(&mut self, delay_ms: f64, gap: u64) {
        let d = sanitize_delay(delay_ms);
        if self.two_phase && gap >= PHI_FLAP_GAP_MIN && self.n > 0 {
            // Flap: fold the finished uptime into the history, cold-restart
            // the window (the pre-crash distribution is stale) and serve a
            // Weibull-gated start phase.
            self.flaps += 1;
            self.mean_up += (self.up_len as f64 - self.mean_up) / self.flaps as f64;
            self.up_len = 0;
            self.len = 0;
            self.pos = 0;
            self.sum = 0.0;
            self.sumsq = 0.0;
            self.start_left = self.start_len();
        }
        if self.len == self.cap {
            let old = self.ring[self.pos];
            self.sum -= old;
            self.sumsq -= old * old;
        } else {
            self.len += 1;
        }
        self.ring[self.pos] = d;
        self.sum += d;
        self.sumsq += d * d;
        self.pos = (self.pos + 1) % self.cap;
        if self.start_left > 0 {
            self.start_left -= 1;
        }
        self.up_len += 1;
        self.n += 1;
    }
    fn predict(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let mu = self.sum / self.len as f64;
        let sigma = if self.len < 2 {
            0.0
        } else {
            let var = (self.sumsq - self.sum * self.sum / self.len as f64) / (self.len - 1) as f64;
            var.max(0.0).sqrt()
        };
        // Start phase: dispersion floored at μ (CV ≥ 1 prior), so a window
        // cold-restarted after a flap does not collapse to t_φ ≈ μ.
        let spread = if self.start_left > 0 {
            sigma.max(mu)
        } else {
            sigma
        };
        mu + self.threshold * std::f64::consts::LN_10 * spread
    }
    fn name(&self) -> String {
        if self.two_phase {
            format!("PHI({},{})", self.cap, self.threshold)
        } else {
            format!("PHI-S({},{})", self.cap, self.threshold)
        }
    }
    fn observations(&self) -> u64 {
        self.n
    }
}

/// `ADWIN(N,K)`: adaptive μ+Kσ timeout over a ring of the last `N` delays
/// (SNIPPETS.md snippets 1–2): forecast `μ + K·σ` of the window.
///
/// **Defined degenerate behavior** (the NaN/∞ audit): with a single sample
/// the forecast is that sample (`σ` undefined ⇒ treated as 0); an empty
/// window forecasts 0.0 like every other predictor; negative variance from
/// float cancellation clamps to 0. Inputs are sanitized through
/// [`sanitize_delay`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveWindow {
    ring: Vec<f64>,
    cap: usize,
    k: f64,
    sum: f64,
    sumsq: f64,
    n: u64,
}

impl AdaptiveWindow {
    /// Creates the predictor with window size `window` and deviation
    /// multiplier `k`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `k` is not finite-nonnegative.
    pub fn new(window: usize, k: f64) -> Self {
        assert!(window > 0, "adaptive window must be positive");
        assert!(k.is_finite() && k >= 0.0, "adaptive K out of range: {k}");
        Self {
            ring: vec![0.0; window],
            cap: window,
            k,
            sum: 0.0,
            sumsq: 0.0,
            n: 0,
        }
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.cap
    }

    /// The deviation multiplier K.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Writes the checkpoint body `(ring, sum, sumsq, n)`; configuration
    /// travels as part of the predictor kind.
    pub fn write_state(&self, w: &mut Writer) {
        w.vec_f64(&self.ring);
        w.f64(self.sum);
        w.f64(self.sumsq);
        w.u64(self.n);
    }

    /// Reads a body written by an `ADWIN` of this window.
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let ring = r.vec_f64()?;
        if ring.len() != self.cap {
            return Err(SnapshotError::Mismatch("adaptive window"));
        }
        Ok(Self {
            ring,
            cap: self.cap,
            k: self.k,
            sum: r.f64()?,
            sumsq: r.f64()?,
            n: r.u64()?,
        })
    }
}

impl Predictor for AdaptiveWindow {
    fn observe(&mut self, delay_ms: f64) {
        let d = sanitize_delay(delay_ms);
        let idx = (self.n % self.cap as u64) as usize;
        if self.n >= self.cap as u64 {
            let old = self.ring[idx];
            self.sum -= old;
            self.sumsq -= old * old;
        }
        self.ring[idx] = d;
        self.sum += d;
        self.sumsq += d * d;
        self.n += 1;
    }
    fn predict(&self) -> f64 {
        let len = self.n.min(self.cap as u64) as usize;
        if len == 0 {
            return 0.0;
        }
        let mu = self.sum / len as f64;
        if len < 2 {
            return mu; // single sample: σ undefined, documented as 0
        }
        let var = (self.sumsq - self.sum * self.sum / len as f64) / (len - 1) as f64;
        mu + self.k * var.max(0.0).sqrt()
    }
    fn name(&self) -> String {
        format!("ADWIN({},{})", self.cap, self.k)
    }
    fn observations(&self) -> u64 {
        self.n
    }
}

/// Weight magnitude ceiling of the online model: a single hostile update
/// cannot launch the weights to ±∞.
const ML_W_CLAMP: f64 = 1.0e4;

/// Forecast ceiling of the online model, matching the sanitized input
/// ceiling [`MAX_DELAY_MS`].
pub(crate) const ML_PRED_CLAMP: f64 = MAX_DELAY_MS;

/// Regularizer of the normalized update denominator.
const ML_EPS: f64 = 1.0e-6;

/// Predicts the next delay from the model weights and the lag ring.
/// `hist[(n-1-j) % lags]` is the j-th most recent delay. Shared verbatim by
/// the scalar predictor and the `SourceBank` column arenas, so the two
/// paths are bit-identical by construction.
pub(crate) fn ml_raw_predict(w: &[f64], hist: &[f64], lags: usize, n: u64) -> f64 {
    let mut y = w[lags]; // bias term
    for (j, wj) in w.iter().enumerate().take(lags) {
        let idx = ((n - 1 - j as u64) % lags as u64) as usize;
        y += wj * hist[idx];
    }
    y
}

/// One normalized-LMS update step followed by the ring push; the shared
/// core of [`MlPredictor::observe`] and the `SourceBank` ML column.
pub(crate) fn ml_observe_core(w: &mut [f64], hist: &mut [f64], lags: usize, n: u64, d: f64) {
    if n >= lags as u64 {
        let yhat = ml_raw_predict(w, hist, lags, n);
        let err = d - yhat;
        let mut norm = 1.0 + ML_EPS;
        for j in 0..lags {
            let idx = ((n - 1 - j as u64) % lags as u64) as usize;
            norm += hist[idx] * hist[idx];
        }
        let g = (w[lags + 1] * err) / norm;
        for (j, wj) in w.iter_mut().enumerate().take(lags) {
            let idx = ((n - 1 - j as u64) % lags as u64) as usize;
            *wj += g * hist[idx];
        }
        w[lags] += g;
        for wj in w.iter_mut().take(lags + 1) {
            // Total under hostile floats: clamp magnitudes, reset NaN.
            *wj = if wj.is_finite() {
                wj.clamp(-ML_W_CLAMP, ML_W_CLAMP)
            } else {
                0.0
            };
        }
    }
    hist[(n % lags as u64) as usize] = d;
}

/// `ML(p,r)`: a tiny online-trained model — normalized LMS over the last
/// `p` delays plus a bias, learning rate `r` (the Li & Marin direction,
/// with no new dependencies).
///
/// Until `p` delays exist the forecast falls back to `LAST`; afterwards it
/// is the clamped linear model output. **Defined degenerate behavior**
/// (the NaN/∞ audit): inputs are sanitized through [`sanitize_delay`],
/// weights are magnitude-clamped per update and any non-finite weight is
/// reset to 0, so the model state and forecast stay finite under hostile
/// float sequences.
///
/// The weight vector layout is `[w_0 … w_{p-1}, bias, rate]` — the rate
/// rides in the arena so the column path shares one buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct MlPredictor {
    lags: usize,
    w: Vec<f64>,
    hist: Vec<f64>,
    n: u64,
}

impl MlPredictor {
    /// Creates the model with `lags` autoregressive inputs and the given
    /// learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lags` is zero or `rate` is not in `(0, 2]`.
    pub fn new(lags: usize, rate: f64) -> Self {
        assert!(lags > 0, "ml lags must be positive");
        assert!(
            rate.is_finite() && rate > 0.0 && rate <= 2.0,
            "ml rate out of (0, 2]: {rate}"
        );
        let mut w = vec![0.0; lags + 2];
        w[lags + 1] = rate;
        Self {
            lags,
            w,
            hist: vec![0.0; lags],
            n: 0,
        }
    }

    /// The number of autoregressive inputs.
    pub fn lags(&self) -> usize {
        self.lags
    }

    /// The learning rate.
    pub fn rate(&self) -> f64 {
        self.w[self.lags + 1]
    }

    /// Writes the checkpoint body
    /// `(weights incl. bias and rate, lag ring, n)`.
    pub fn write_state(&self, w: &mut Writer) {
        w.vec_f64(&self.w);
        w.vec_f64(&self.hist);
        w.u64(self.n);
    }

    /// Reads a body written by an `ML` of these lags and rate. The rate
    /// slot is configuration riding in the weight vector: it must match.
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let w = r.vec_f64()?;
        let hist = r.vec_f64()?;
        if hist.len() != self.lags {
            return Err(SnapshotError::Mismatch("ml lags"));
        }
        if w.len() != self.lags + 2 || w[self.lags + 1] != self.rate() {
            return Err(SnapshotError::Invalid("ml state"));
        }
        Ok(Self {
            lags: self.lags,
            w,
            hist,
            n: r.u64()?,
        })
    }
}

impl Predictor for MlPredictor {
    fn observe(&mut self, delay_ms: f64) {
        let d = sanitize_delay(delay_ms);
        ml_observe_core(&mut self.w, &mut self.hist, self.lags, self.n, d);
        self.n += 1;
    }
    fn predict(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if self.n < self.lags as u64 {
            // LAST fallback while the lag ring fills.
            return self.hist[((self.n - 1) % self.lags as u64) as usize];
        }
        ml_raw_predict(&self.w, &self.hist, self.lags, self.n).clamp(0.0, ML_PRED_CLAMP)
    }
    fn name(&self) -> String {
        format!("ML({},{})", self.lags, self.rate())
    }
    fn observations(&self) -> u64 {
        self.n
    }
}

/// Runs a predictor over a delay series, returning the one-step forecasts:
/// `out[t]` is the prediction of `series[t]` made before observing it.
///
/// This is the exact procedure of the paper's accuracy experiment: the
/// prediction error sequence is `series[t] − out[t]` and its mean square is
/// the `msqerr` of Table 3.
pub fn one_step_predictions(predictor: &mut dyn Predictor, series: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(series.len());
    for &x in series {
        out.push(predictor.predict());
        predictor.observe(x);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_tracks_latest() {
        let mut p = Last::new();
        assert_eq!(p.predict(), 0.0);
        p.observe(5.0);
        p.observe(7.0);
        assert_eq!(p.predict(), 7.0);
        assert_eq!(p.observations(), 2);
        assert_eq!(p.name(), "LAST");
    }

    #[test]
    fn mean_is_running_mean() {
        let mut p = Mean::new();
        for x in [2.0, 4.0, 6.0] {
            p.observe(x);
        }
        assert!((p.predict() - 4.0).abs() < 1e-12);
        assert_eq!(p.name(), "MEAN");
    }

    #[test]
    fn winmean_equals_mean_until_window_fills() {
        let mut w = WinMean::new(3);
        let mut m = Mean::new();
        for x in [1.0, 2.0] {
            w.observe(x);
            m.observe(x);
        }
        assert_eq!(w.predict(), m.predict());
        // Window full: only the last 3 count.
        for x in [3.0, 10.0] {
            w.observe(x);
        }
        assert!((w.predict() - 5.0).abs() < 1e-12); // (2 + 3 + 10) / 3
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.name(), "WINMEAN(3)");
    }

    #[test]
    fn winmean_sliding_window_is_exact() {
        let mut w = WinMean::new(2);
        for x in [10.0, 20.0, 30.0, 40.0] {
            w.observe(x);
        }
        assert!((w.predict() - 35.0).abs() < 1e-12);
        assert_eq!(w.observations(), 4);
    }

    #[test]
    fn lpf_recurrence() {
        let mut p = Lpf::new(0.125);
        p.observe(100.0); // initialises to the first observation
        assert_eq!(p.predict(), 100.0);
        p.observe(108.0);
        assert!((p.predict() - 101.0).abs() < 1e-12); // 100 + (108-100)/8
        assert_eq!(p.name(), "LPF(0.125)");
        assert_eq!(p.beta(), 0.125);
    }

    #[test]
    fn lpf_beta_one_is_last() {
        let mut lpf = Lpf::new(1.0);
        let mut last = Last::new();
        for x in [3.0, 9.0, 1.0, 4.5] {
            lpf.observe(x);
            last.observe(x);
            assert_eq!(lpf.predict(), last.predict());
        }
    }

    #[test]
    #[should_panic(expected = "beta out of")]
    fn lpf_rejects_zero_beta() {
        let _ = Lpf::new(0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn winmean_rejects_zero_window() {
        let _ = WinMean::new(0);
    }

    #[test]
    fn arima_predictor_cold_start_is_last() {
        let mut p = ArimaPredictor::paper_default();
        p.observe(200.0);
        assert_eq!(p.predict(), 200.0);
        assert_eq!(p.name(), "ARIMA(2,1,1)");
    }

    #[test]
    fn arima_predictor_never_negative() {
        let mut p = ArimaPredictor::new(ArimaSpec::new(1, 1, 0), 50);
        // Steeply decreasing series would extrapolate below zero.
        for i in 0..300 {
            p.observe(300.0 - i as f64);
        }
        assert!(p.predict() >= 0.0);
    }

    #[test]
    fn one_step_predictions_align() {
        let mut p = Last::new();
        let series = [1.0, 2.0, 3.0];
        let preds = one_step_predictions(&mut p, &series);
        assert_eq!(preds, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn phi_zero_variance_window_predicts_mu_exactly() {
        let mut p = PhiAccrual::new(8, 1.0, true);
        assert_eq!(p.predict(), 0.0);
        p.observe(200.0);
        // One sample: σ treated as 0, t_φ = μ — defined, not NaN.
        assert_eq!(p.predict(), 200.0);
        for _ in 0..20 {
            p.observe(200.0);
        }
        // Identical samples: σ = 0, still exactly μ.
        assert_eq!(p.predict(), 200.0);
        assert_eq!(p.name(), "PHI(8,1)");
    }

    #[test]
    fn phi_timeout_grows_with_dispersion_and_threshold() {
        let feed = |thr: f64| {
            let mut p = PhiAccrual::new(8, thr, true);
            for x in [100.0, 300.0, 100.0, 300.0, 100.0, 300.0] {
                p.observe(x);
            }
            p.predict()
        };
        let lo = feed(1.0);
        let hi = feed(2.0);
        assert!(lo > 200.0, "dispersion must push t_φ above μ: {lo}");
        assert!(hi > lo, "higher φ* must mean a longer timeout");
    }

    #[test]
    fn phi_flap_cold_restarts_window_and_serves_start_phase() {
        let mut p = PhiAccrual::new(16, 1.0, true);
        for _ in 0..16 {
            p.observe(100.0);
        }
        assert_eq!(p.flaps(), 0);
        assert_eq!(p.start_left(), 0);
        // The source comes back after a 10-heartbeat silence: flap.
        p.observe_gap(150.0, 10);
        assert_eq!(p.flaps(), 1);
        assert!(p.start_left() > 0, "start phase must be armed");
        // Window was cold-restarted: forecast reflects only the new sample,
        // with the start-phase σ-floor on top (σ := μ while starting).
        let mu = 150.0;
        let floored = mu + 1.0 * std::f64::consts::LN_10 * mu;
        assert!((p.predict() - floored).abs() < 1e-9, "got {}", p.predict());
        // The stable-only variant never flaps.
        let mut s = PhiAccrual::new(16, 1.0, false);
        for _ in 0..16 {
            s.observe(100.0);
        }
        s.observe_gap(150.0, 10);
        assert_eq!(s.flaps(), 0);
        assert_eq!(s.name(), "PHI-S(16,1)");
    }

    #[test]
    fn phi_weibull_gate_serves_flappy_sources_longer() {
        // A chronically flapping source (short uptimes) must be gated
        // longer than a source with long stable uptimes.
        let start_after = |up: u64| {
            let mut p = PhiAccrual::new(16, 1.0, true);
            // Two full up/down cycles establish the uptime history.
            for _ in 0..2 {
                for _ in 0..up {
                    p.observe(100.0);
                }
                p.observe_gap(100.0, 10);
            }
            p.start_left()
        };
        let flappy = start_after(2);
        let stable = start_after(64);
        assert!(
            flappy > stable,
            "flappy gate {flappy} must exceed stable gate {stable}"
        );
    }

    #[test]
    fn adaptive_window_mu_plus_k_sigma() {
        let mut p = AdaptiveWindow::new(4, 2.0);
        assert_eq!(p.predict(), 0.0);
        p.observe(100.0);
        // Single sample: documented behavior is μ (σ treated as 0).
        assert_eq!(p.predict(), 100.0);
        p.observe(200.0);
        // μ = 150, sample σ = √((100-150)² + (200-150)²) / √1 = 70.71…
        let sigma = 5000.0f64.sqrt();
        assert!((p.predict() - (150.0 + 2.0 * sigma)).abs() < 1e-9);
        // Eviction: push two more, then two that displace the first pair.
        for x in [200.0, 100.0, 200.0, 100.0] {
            p.observe(x);
        }
        assert!((p.predict() - (150.0 + 2.0 * (10000.0f64 / 3.0).sqrt())).abs() < 1e-9);
        assert_eq!(p.name(), "ADWIN(4,2)");
        assert_eq!(p.observations(), 6);
    }

    #[test]
    fn ml_last_fallback_then_learns_constant_series() {
        let mut p = MlPredictor::new(4, 0.5);
        assert_eq!(p.predict(), 0.0);
        p.observe(120.0);
        assert_eq!(p.predict(), 120.0, "LAST fallback while the ring fills");
        for _ in 0..400 {
            p.observe(100.0);
        }
        let err = (p.predict() - 100.0).abs();
        assert!(err < 5.0, "NLMS must converge on a constant series: {err}");
        assert_eq!(p.name(), "ML(4,0.5)");
    }

    #[test]
    fn new_predictors_survive_hostile_floats() {
        let hostile = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            -0.0,
            1.0e308,
            -1.0e308,
            4.9e-324,
        ];
        let mut preds: Vec<Box<dyn Predictor>> = vec![
            Box::new(PhiAccrual::new(4, 1.0, true)),
            Box::new(PhiAccrual::new(4, 1.0, false)),
            Box::new(AdaptiveWindow::new(4, 2.0)),
            Box::new(MlPredictor::new(3, 0.5)),
        ];
        for p in &mut preds {
            for (i, &x) in hostile.iter().cycle().take(64).enumerate() {
                p.observe_gap(x, (i % 7) as u64);
                let y = p.predict();
                assert!(y.is_finite(), "{} poisoned: {y}", p.name());
                assert!(y >= 0.0, "{} forecast negative: {y}", p.name());
            }
        }
    }

    #[test]
    fn mean_beats_last_on_iid_noise() {
        use fd_sim::DetRng;
        let mut rng = DetRng::seed_from(55);
        let series: Vec<f64> = (0..5_000).map(|_| rng.normal(200.0, 5.0)).collect();
        let mut mean = Mean::new();
        let mut last = Last::new();
        let pm = one_step_predictions(&mut mean, &series);
        let pl = one_step_predictions(&mut last, &series);
        let err = |p: &[f64]| -> f64 {
            series[10..]
                .iter()
                .zip(&p[10..])
                .map(|(o, f)| (o - f) * (o - f))
                .sum()
        };
        // For i.i.d. noise LAST has twice the msqerr of MEAN.
        assert!(err(&pm) < 0.7 * err(&pl));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// WINMEAN stays within [min, max] of its window.
        #[test]
        fn winmean_bounded(xs in proptest::collection::vec(0.0f64..1e4, 1..100), cap in 1usize..20) {
            let mut p = WinMean::new(cap);
            for &x in &xs {
                p.observe(x);
            }
            let start = xs.len().saturating_sub(cap);
            let win = &xs[start..];
            let lo = win.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = win.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p.predict() >= lo - 1e-9 && p.predict() <= hi + 1e-9);
        }

        /// LPF stays within [min, max] of the whole history.
        #[test]
        fn lpf_bounded(xs in proptest::collection::vec(0.0f64..1e4, 1..100), beta in 0.01f64..1.0) {
            let mut p = Lpf::new(beta);
            for &x in &xs {
                p.observe(x);
            }
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(p.predict() >= lo - 1e-9 && p.predict() <= hi + 1e-9);
        }

        /// MEAN is permutation invariant.
        #[test]
        fn mean_permutation_invariant(mut xs in proptest::collection::vec(0.0f64..1e4, 1..50)) {
            let mut a = Mean::new();
            for &x in &xs {
                a.observe(x);
            }
            xs.reverse();
            let mut b = Mean::new();
            for &x in &xs {
                b.observe(x);
            }
            prop_assert!((a.predict() - b.predict()).abs() < 1e-6);
        }

        /// one_step_predictions has the causal alignment: out[t] does not
        /// depend on series[t..].
        #[test]
        fn predictions_are_causal(xs in proptest::collection::vec(0.0f64..1e3, 2..40)) {
            let mut full = WinMean::new(5);
            let preds_full = one_step_predictions(&mut full, &xs);
            let cut = xs.len() / 2;
            let mut prefix = WinMean::new(5);
            let preds_prefix = one_step_predictions(&mut prefix, &xs[..cut]);
            for t in 0..cut {
                prop_assert_eq!(preds_full[t], preds_prefix[t]);
            }
        }
    }
}
