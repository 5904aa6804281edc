//! The many-source detector engine: N heartbeat sources × M combinations
//! behind one struct-of-arrays state machine.
//!
//! [`DetectorBank`](crate::bank::DetectorBank) made the 30-combination step
//! cheap for **one** source. A large-scale monitor watches millions of
//! sources, and allocating a `DetectorBank` per source brings back exactly
//! the overheads the bank removed — scattered allocations, per-object
//! bookkeeping, and a virtual boundary per source in the hot loop.
//!
//! [`SourceBank`] is the same shared-computation engine with the source
//! dimension folded into the arrays:
//!
//! * forecaster state is laid out as **columns** — one [`PredCol`] per
//!   distinct predictor, each holding only the bytes that predictor kind
//!   actually needs per source (8 B for `LAST`/`MEAN`/`LPF` instead of a
//!   328-byte uniform enum slot), with the window-mean rings packed into
//!   one shared arena;
//! * the Welford core of `SM_CI` and the error cores of `SM_JAC`/`SM_RTO`
//!   are columns too, and their construction-time constants (α, the RTO
//!   gain) are hoisted out of the per-source state;
//! * every heartbeat touches every predictor column and the Welford core
//!   exactly once, so the Welford count doubles as the per-source
//!   observation count — `MEAN`, `WINMEAN` and `LPF` carry no counter of
//!   their own;
//! * deadlines are laid out **combo-major** — one contiguous `u32` array
//!   per combination (`deadlines[combo * N + source]`, `u32::MAX` = none;
//!   armed freshness points are asserted inside the ~71.6-virtual-minute
//!   µs horizon, the same clock the streaming QoS accumulator uses) — so
//!   a full freshness sweep ([`check_all_at`](SourceBank::check_all_at))
//!   is M linear array scans, not N×M virtual calls;
//! * each source carries an amortized **freshest-deadline cache**
//!   (`min_deadline[source]` = a lower bound on its earliest pending
//!   non-suspecting deadline), so the per-source check
//!   ([`check_source_at`](SourceBank::check_source_at)) is O(1) until a
//!   deadline can actually have expired;
//! * [`observe_all`](SourceBank::observe_all) consumes a whole batch of
//!   heartbeats in one call: a plain loop over the per-heartbeat path
//!   (EXPERIMENTS.md, "Retired paths", records why nothing fancier
//!   measured better).
//!
//! Every operation has one implementation: the per-heartbeat observe, the
//! per-source check the sharded engine's timers drive, and the lane-swept
//! full sweep. The `_into` variants of the first two only forward the
//! edges to an [`EventSink`] instead of buffering them.
//!
//! The per-heartbeat arithmetic is **bit-identical** to `DetectorBank`
//! (which is itself bit-identical to the boxed single-detector path): the
//! operations happen in the same order on the same values. `predict()` is
//! pure, so recomputing the pre-observation forecast for the error term
//! yields exactly the value the bank reads from its cache, and the
//! post-observation forecasts live in a per-call scratch stripe instead of
//! an N×P cache.

use fd_arima::ArimaSpec;
use fd_sim::{SimDuration, SimTime};
use fd_stat::EventSink;

use crate::combinations::{Combination, MarginKind, PredictorKind};
use crate::detector::FdTransition;
use crate::predictor::{
    ml_observe_core, ml_raw_predict, sanitize_delay, AdaptiveWindow, ArimaPredictor, MlPredictor,
    PhiAccrual, Predictor, ML_PRED_CLAMP,
};

/// `highest_seq` sentinel for "no fresh heartbeat seen yet". Stored
/// sequence numbers are asserted below it; a sequence that far along would
/// overflow the deadline horizon first for any realistic η.
const SEQ_NONE: u32 = u32::MAX;

/// `deadlines` sentinel for "no freshness point armed".
const NO_DEADLINE: u32 = u32::MAX;

/// Shared `SM_JAC` gain: the paper's α = 1/4, the value `DetectorBank`
/// hands `JacCore::new`. Hoisting it lets the bank keep one smoothed-|err|
/// column per predictor instead of (α, base) pairs per source.
const JAC_ALPHA: f64 = 0.25;

/// Shared `SM_RTO` mean gain (deviation gain `2 × RTO_GAIN`), as in
/// `RtoCore::new`.
const RTO_GAIN: f64 = 0.125;

/// A fully-set dirty bitmap covering `n_words` suspicion words, with the
/// unused tail bits of the last word kept clear so set-bit iteration never
/// names a word index past the suspicion array.
fn all_dirty(n_words: usize) -> Vec<u64> {
    let mut v = vec![u64::MAX; n_words.div_ceil(64)];
    if let Some(last) = v.last_mut() {
        let rem = n_words % 64;
        if rem != 0 {
            *last = (1u64 << rem) - 1;
        }
    }
    v
}

/// One heartbeat arrival, addressed to a source, for the batch API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatObs {
    /// The monitored source the heartbeat came from.
    pub source: u32,
    /// The heartbeat sequence number.
    pub seq: u64,
    /// Arrival time at the monitor.
    pub arrival: SimTime,
}

/// A suspect/trust edge of one (source, combination) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceTransition {
    /// The monitored source.
    pub source: u32,
    /// Index of the combination (position in the slice the bank was built
    /// from).
    pub combo: u32,
    /// The edge.
    pub transition: FdTransition,
}

/// Per-source state of one distinct predictor, as parallel columns indexed
/// by source. Each variant stores only what its forecast function needs;
/// the shared observation count (the Welford count in [`CiCol`]) supplies
/// `n` where the scalar predictors kept their own.
#[derive(Debug, Clone)]
enum PredCol {
    /// `LAST`: forecast = most recent delay (0 before the first — the
    /// initial value, so no primed flag is needed).
    Last { last: Vec<f64> },
    /// `MEAN`: running mean of all observed delays.
    Mean { mean: Vec<f64> },
    /// `WINMEAN(cap)`: mean of the last `cap` delays. The per-source rings
    /// live in one arena, `ring[s * cap..][..cap]`, written cyclically at
    /// `n % cap`.
    WinMean {
        cap: usize,
        sum: Vec<f64>,
        ring: Vec<f64>,
    },
    /// `LPF(β)`: exponential smoothing; β is per-kind, not per-source.
    Lpf { beta: f64, pred: Vec<f64> },
    /// `ARIMA`: the full streaming forecaster per source.
    Arima(Vec<ArimaPredictor>),
    /// `PHI`: the full φ-accrual lifecycle per source. The stable/start
    /// state machine (flap counters, Weibull gate, cold-restarted window)
    /// does not columnize any better than ARIMA's model state, so this is
    /// the same vec-of-scalar shape — and bit-identical by construction.
    Phi(Vec<PhiAccrual>),
    /// `ADWIN(cap, k)`: ring arena (`ring[s * cap..][..cap]`, written at
    /// `n % cap`) plus running sum and sum-of-squares columns; the shared
    /// observation count supplies `n` exactly as for `WINMEAN`.
    Adw {
        cap: usize,
        k: f64,
        sum: Vec<f64>,
        sumsq: Vec<f64>,
        ring: Vec<f64>,
    },
    /// `ML(lags, rate)`: normalized-LMS weight arena
    /// (`w[s * (lags + 2)..][..lags + 2]`, the per-source
    /// `[w_0 … w_{lags-1}, bias, rate]` layout of the scalar model) and
    /// lag-ring arena (`hist[s * lags..][..lags]`). Both paths call the
    /// same `ml_raw_predict`/`ml_observe_core`, so they are bit-identical
    /// by construction.
    Ml {
        lags: usize,
        rate: f64,
        w: Vec<f64>,
        hist: Vec<f64>,
    },
}

impl PredCol {
    fn new(kind: PredictorKind, n_sources: usize) -> Self {
        match kind {
            PredictorKind::Last => PredCol::Last {
                last: vec![0.0; n_sources],
            },
            PredictorKind::Mean => PredCol::Mean {
                mean: vec![0.0; n_sources],
            },
            PredictorKind::WinMean { window } => {
                assert!(window > 0, "window capacity must be positive");
                PredCol::WinMean {
                    cap: window,
                    sum: vec![0.0; n_sources],
                    ring: vec![0.0; n_sources * window],
                }
            }
            PredictorKind::Lpf { beta } => {
                assert!(beta > 0.0 && beta <= 1.0, "beta out of (0, 1]: {beta}");
                PredCol::Lpf {
                    beta,
                    pred: vec![0.0; n_sources],
                }
            }
            PredictorKind::Arima {
                p,
                d,
                q,
                refit_every,
            } => PredCol::Arima(vec![
                ArimaPredictor::new(
                    ArimaSpec::new(p, d, q),
                    refit_every
                );
                n_sources
            ]),
            PredictorKind::PhiAccrual {
                window,
                threshold,
                two_phase,
            } => PredCol::Phi(vec![
                PhiAccrual::new(window, threshold, two_phase);
                n_sources
            ]),
            PredictorKind::AdaptiveWindow { window, k } => {
                // Mirror the scalar constructor's validation.
                let probe = AdaptiveWindow::new(window, k);
                PredCol::Adw {
                    cap: probe.window(),
                    k: probe.k(),
                    sum: vec![0.0; n_sources],
                    sumsq: vec![0.0; n_sources],
                    ring: vec![0.0; n_sources * window],
                }
            }
            PredictorKind::MlPredictor { lags, rate } => {
                let probe = MlPredictor::new(lags, rate);
                let stride = lags + 2;
                let mut w = vec![0.0; n_sources * stride];
                for s in 0..n_sources {
                    w[s * stride + lags + 1] = rate;
                }
                PredCol::Ml {
                    lags: probe.lags(),
                    rate: probe.rate(),
                    w,
                    hist: vec![0.0; n_sources * lags],
                }
            }
        }
    }

    /// The current forecast for source `s` after `n_obs` observations —
    /// pure, bit-identical to `PredictorState::predict` on the same
    /// history.
    fn predict(&self, s: usize, n_obs: u32) -> f64 {
        match self {
            PredCol::Last { last } => last[s],
            PredCol::Mean { mean } => mean[s],
            PredCol::WinMean { cap, sum, .. } => {
                let len = (n_obs as usize).min(*cap);
                if len == 0 {
                    0.0
                } else {
                    sum[s] / len as f64
                }
            }
            PredCol::Lpf { pred, .. } => pred[s],
            PredCol::Arima(col) => col[s].predict(),
            PredCol::Phi(col) => col[s].predict(),
            PredCol::Adw {
                cap, k, sum, sumsq, ..
            } => {
                let len = (n_obs as usize).min(*cap);
                if len == 0 {
                    return 0.0;
                }
                let mu = sum[s] / len as f64;
                if len < 2 {
                    return mu; // single sample: σ undefined, treated as 0
                }
                let var = (sumsq[s] - sum[s] * sum[s] / len as f64) / (len - 1) as f64;
                mu + *k * var.max(0.0).sqrt()
            }
            PredCol::Ml { lags, w, hist, .. } => {
                let n = u64::from(n_obs);
                if n == 0 {
                    return 0.0;
                }
                let hist_s = &hist[s * *lags..][..*lags];
                if n < *lags as u64 {
                    // LAST fallback while the lag ring fills.
                    return hist_s[((n - 1) % *lags as u64) as usize];
                }
                let w_s = &w[s * (*lags + 2)..][..*lags + 2];
                ml_raw_predict(w_s, hist_s, *lags, n).clamp(0.0, ML_PRED_CLAMP)
            }
        }
    }

    /// Consumes one delay observation for source `s`, its `n_before`-th
    /// (0-based), carrying the heartbeat's sequence `gap` (missing
    /// heartbeats before it; only the φ lifecycle reads it). Same
    /// operations in the same order as the scalar predictors.
    fn observe(&mut self, s: usize, delay_ms: f64, n_before: u32, gap: u64) {
        match self {
            PredCol::Last { last } => last[s] = delay_ms,
            PredCol::Mean { mean } => {
                mean[s] += (delay_ms - mean[s]) / f64::from(n_before + 1);
            }
            PredCol::WinMean { cap, sum, ring } => {
                // `sum -= oldest` before `sum += new`, exactly like the
                // deque path pops before pushing.
                let pos = s * *cap + n_before as usize % *cap;
                if n_before as usize >= *cap {
                    sum[s] -= ring[pos];
                }
                ring[pos] = delay_ms;
                sum[s] += delay_ms;
            }
            PredCol::Lpf { beta, pred } => {
                if n_before == 0 {
                    pred[s] = delay_ms;
                } else {
                    pred[s] += *beta * (delay_ms - pred[s]);
                }
            }
            PredCol::Arima(col) => col[s].observe(delay_ms),
            PredCol::Phi(col) => col[s].observe_gap(delay_ms, gap),
            PredCol::Adw {
                cap,
                sum,
                sumsq,
                ring,
                ..
            } => {
                let d = sanitize_delay(delay_ms);
                let idx = s * *cap + n_before as usize % *cap;
                if n_before as usize >= *cap {
                    let old = ring[idx];
                    sum[s] -= old;
                    sumsq[s] -= old * old;
                }
                ring[idx] = d;
                sum[s] += d;
                sumsq[s] += d * d;
            }
            PredCol::Ml { lags, w, hist, .. } => {
                let d = sanitize_delay(delay_ms);
                let w_s = &mut w[s * (*lags + 2)..][..*lags + 2];
                let hist_s = &mut hist[s * *lags..][..*lags];
                ml_observe_core(w_s, hist_s, *lags, u64::from(n_before), d);
            }
        }
    }
}

/// The shared-γ Welford core of `SM_CI`, one slot per source: the running
/// count/mean/M2 plus the cached `σ̂` and `sqrt(1 + 1/n + dev²/ssd)`
/// factors (which depend on the *last* observation and so cannot be
/// recomputed from the moments alone). Same recurrences as
/// `RunningStats::push` + `CiCore::update`; min/max are dropped because no
/// margin reads them.
#[derive(Debug, Clone)]
struct CiCol {
    /// Observation count — also the bank-wide per-source observation
    /// count feeding [`PredCol`].
    n: Vec<u32>,
    mean: Vec<f64>,
    m2: Vec<f64>,
    sigma: Vec<f64>,
    inner_sqrt: Vec<f64>,
}

impl CiCol {
    fn new(n_sources: usize) -> Self {
        Self {
            n: vec![0; n_sources],
            mean: vec![0.0; n_sources],
            m2: vec![0.0; n_sources],
            sigma: vec![0.0; n_sources],
            inner_sqrt: vec![0.0; n_sources],
        }
    }

    fn update(&mut self, s: usize, obs_ms: f64) {
        let n = self.n[s] + 1;
        self.n[s] = n;
        let delta = obs_ms - self.mean[s];
        self.mean[s] += delta / f64::from(n);
        self.m2[s] += delta * (obs_ms - self.mean[s]);
        if n < 2 {
            self.sigma[s] = 0.0;
            self.inner_sqrt[s] = 0.0;
            return;
        }
        let dev = obs_ms - self.mean[s];
        let ssd = self.m2[s];
        let inner = 1.0 + 1.0 / f64::from(n) + if ssd > 0.0 { dev * dev / ssd } else { 0.0 };
        self.sigma[s] = (self.m2[s] / f64::from(n - 1)).sqrt();
        self.inner_sqrt[s] = inner.sqrt();
    }

    fn margin(&self, s: usize, gamma: f64) -> f64 {
        // Left-associated exactly like `CiCore::margin`.
        gamma * self.sigma[s] * self.inner_sqrt[s]
    }
}

/// Per-source `SM_RTO` error core (gain hoisted to [`RTO_GAIN`]).
#[derive(Debug, Clone)]
struct RtoCol {
    mu: Vec<f64>,
    dev: Vec<f64>,
}

/// Narrows an armed freshness point to the u32 µs deadline clock.
fn deadline32(us: u64) -> u32 {
    assert!(
        us < u64::from(NO_DEADLINE),
        "freshness point {us} µs beyond the ~71.6-virtual-minute u32 horizon"
    );
    us as u32
}

/// The N-source × M-combination struct-of-arrays detector engine.
///
/// ```
/// use fd_core::source_bank::{HeartbeatObs, SourceBank};
/// use fd_sim::{SimDuration, SimTime};
///
/// let eta = SimDuration::from_secs(1);
/// let mut bank = SourceBank::paper_grid(eta, 100);
/// assert_eq!(bank.sources(), 100);
/// assert_eq!(bank.len(), 30);
///
/// // One batch delivers heartbeat m_0 from every source.
/// let batch: Vec<HeartbeatObs> = (0..100)
///     .map(|s| HeartbeatObs {
///         source: s,
///         seq: 0,
///         arrival: SimTime::from_millis(200),
///     })
///     .collect();
/// assert_eq!(bank.observe_all(&batch), 100);
///
/// // Nothing arrives for a long time: every pair starts suspecting.
/// let fired = bank.check_all_at(SimTime::from_secs(60)).len();
/// assert_eq!(fired, 100 * 30);
/// ```
#[derive(Debug, Clone)]
pub struct SourceBank {
    eta: SimDuration,
    combos: Vec<Combination>,
    /// `pred_of_combo[i]` = distinct-predictor index for combination `i`.
    pred_of_combo: Vec<usize>,
    n_sources: usize,
    /// Number of distinct predictors per source (5 for the paper grid).
    n_pred: usize,
    /// Words per combination in the `suspecting` bitmap.
    words: usize,
    /// One column of per-source forecaster state per distinct predictor.
    cols: Vec<PredCol>,
    /// `jac[p]` = the per-source smoothed-|error| column of predictor
    /// `p`'s `SM_JAC` core, present only when some combination needs it.
    jac: Vec<Option<Vec<f64>>>,
    /// `rto[p]` = predictor `p`'s `SM_RTO` core columns, ditto.
    rto: Vec<Option<RtoCol>>,
    /// One shared Welford core per source (serves every `SM_CI(γ)`); its
    /// count is also the per-source observation count.
    ci: CiCol,
    /// Post-observation forecast of each distinct predictor for the source
    /// currently being observed — scratch for the combo fan-out.
    pred_scratch: Vec<f64>,
    /// Combo-major: `deadlines[combo * n_sources + source]`, microseconds,
    /// [`NO_DEADLINE`] when unarmed. One contiguous array per combination.
    deadlines: Vec<u32>,
    /// Combo-major bitmap: bit `source` of combination `combo` lives at
    /// word `combo * words + source / 64`.
    suspecting: Vec<u64>,
    /// Word-granular dirty bitmap over [`suspecting`](Self::suspecting):
    /// bit `w % 64` of word `w / 64` is set when suspicion word `w` may
    /// have changed since the last [`clear_dirty`](Self::clear_dirty).
    /// Fresh and freshly-restored banks report every word dirty.
    dirty: Vec<u64>,
    /// Per source: highest fresh sequence seen ([`SEQ_NONE`] = none).
    highest_seq: Vec<u32>,
    /// Per source: lower bound on the earliest pending deadline among
    /// non-suspecting combinations (the amortized freshest-deadline
    /// cache). [`NO_DEADLINE`] when nothing is pending.
    min_deadline: Vec<u32>,
    heartbeats: u64,
    stale_heartbeats: u64,
    transitions: Vec<SourceTransition>,
    /// Impact-FD plane: per-source impact weights (`None` = every source
    /// weighs 1). Sanitized at [`set_impact_weights`](Self::set_impact_weights).
    impact_weights: Option<Vec<f64>>,
    /// Cached Σ of the impact weights (`n_sources` when unweighted), the
    /// ceiling of [`impact_trust`](Self::impact_trust).
    impact_total: f64,
}

impl SourceBank {
    /// Builds a bank over `n_sources` sources, each running the given
    /// combinations with heartbeat period `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is zero or `n_sources` exceeds `u32` range.
    pub fn new(combos: &[Combination], eta: SimDuration, n_sources: usize) -> Self {
        assert!(!eta.is_zero(), "heartbeat period must be positive");
        assert!(
            u32::try_from(n_sources).is_ok(),
            "source count must fit in u32"
        );
        // Dedup distinct predictors exactly like DetectorBank::new, so
        // combination indices map to the same shared state.
        let mut kinds: Vec<PredictorKind> = Vec::new();
        let mut pred_of_combo = Vec::with_capacity(combos.len());
        for combo in combos {
            let p_idx = match kinds.iter().position(|k| *k == combo.predictor) {
                Some(i) => i,
                None => {
                    kinds.push(combo.predictor);
                    kinds.len() - 1
                }
            };
            pred_of_combo.push(p_idx);
        }
        let n_pred = kinds.len();
        let mut jac: Vec<Option<Vec<f64>>> = vec![None; n_pred];
        let mut rto: Vec<Option<RtoCol>> = vec![None; n_pred];
        for (combo, &p_idx) in combos.iter().zip(&pred_of_combo) {
            match combo.margin {
                MarginKind::Ci { .. } => {}
                MarginKind::Jac { .. } => {
                    jac[p_idx].get_or_insert_with(|| vec![0.0; n_sources]);
                }
                MarginKind::Rto { .. } => {
                    rto[p_idx].get_or_insert_with(|| RtoCol {
                        mu: vec![0.0; n_sources],
                        dev: vec![0.0; n_sources],
                    });
                }
            }
        }
        let cols: Vec<PredCol> = kinds.iter().map(|&k| PredCol::new(k, n_sources)).collect();
        let words = n_sources.div_ceil(64);
        Self {
            eta,
            pred_of_combo,
            n_sources,
            n_pred,
            words,
            cols,
            jac,
            rto,
            ci: CiCol::new(n_sources),
            pred_scratch: vec![0.0; n_pred],
            deadlines: vec![NO_DEADLINE; combos.len() * n_sources],
            suspecting: vec![0u64; combos.len() * words],
            dirty: all_dirty(combos.len() * words),
            highest_seq: vec![SEQ_NONE; n_sources],
            min_deadline: vec![NO_DEADLINE; n_sources],
            heartbeats: 0,
            stale_heartbeats: 0,
            transitions: Vec::new(),
            impact_weights: None,
            impact_total: n_sources as f64,
            combos: combos.to_vec(),
        }
    }

    /// Builds the bank over the paper's full 30-combination grid.
    pub fn paper_grid(eta: SimDuration, n_sources: usize) -> Self {
        Self::new(&crate::combinations::all_combinations(), eta, n_sources)
    }

    /// Number of combinations per source.
    pub fn len(&self) -> usize {
        self.combos.len()
    }

    /// `true` if the bank has no combinations.
    pub fn is_empty(&self) -> bool {
        self.combos.is_empty()
    }

    /// Number of monitored sources.
    pub fn sources(&self) -> usize {
        self.n_sources
    }

    /// The heartbeat period η (shared by all sources).
    pub fn eta(&self) -> SimDuration {
        self.eta
    }

    /// The combinations, in index order.
    pub fn combos(&self) -> &[Combination] {
        &self.combos
    }

    /// Number of distinct predictor state machines per source.
    pub fn distinct_predictor_count(&self) -> usize {
        self.n_pred
    }

    /// Heartbeats observed so far (fresh + stale), across all sources.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats
    }

    /// Heartbeats that arrived out of order (did not advance freshness).
    pub fn stale_heartbeats(&self) -> u64 {
        self.stale_heartbeats
    }

    /// The next freshness point `τ_{k+1}` of `(source, combo)`.
    pub fn next_deadline(&self, source: u32, combo: usize) -> Option<SimTime> {
        let us = self.deadlines[combo * self.n_sources + source as usize];
        (us != NO_DEADLINE).then(|| SimTime::from_micros(u64::from(us)))
    }

    /// `true` while combination `combo` suspects `source`.
    pub fn is_suspecting(&self, source: u32, combo: usize) -> bool {
        let s = source as usize;
        self.suspecting[combo * self.words + s / 64] & (1u64 << (s % 64)) != 0
    }

    /// Words per combination row of the suspicion bitmap
    /// (`ceil(sources / 64)`).
    pub fn words_per_combo(&self) -> usize {
        self.words
    }

    /// The raw combo-major suspicion bitmap: `len() × words_per_combo()`
    /// words, where bit `s % 64` of word
    /// `combo * words_per_combo() + s / 64` is set while combination
    /// `combo` suspects source `s`.
    ///
    /// This is the snapshot-export surface of the serving plane: a
    /// publisher copies these words into a `SuspectView` buffer without
    /// touching any per-combo detector state.
    pub fn suspect_words(&self) -> &[u64] {
        &self.suspecting
    }

    /// Word-granular dirty bitmap over [`suspect_words`](Self::suspect_words):
    /// bit `w % 64` of word `w / 64` is set when suspicion word `w` may have
    /// changed since the last [`clear_dirty`](Self::clear_dirty). Fresh and
    /// freshly-restored banks report every word dirty, so an incremental
    /// publisher's first publication after construction or a warm restart is
    /// always a full one.
    pub fn dirty_words(&self) -> &[u64] {
        &self.dirty
    }

    /// Resets the dirty bitmap. An incremental publisher calls this right
    /// after consuming [`dirty_words`](Self::dirty_words) for a
    /// publication; every suspicion mutation from then on re-marks its word.
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    // -----------------------------------------------------------------
    // Impact-FD plane: weighted trust over the suspicion bitmaps.
    // -----------------------------------------------------------------

    /// Assigns each source an impact weight for the Impact-FD plane
    /// (Rossetto et al.'s flexible failure detector, PAPERS.md): the
    /// bank's [`impact_trust`](Self::impact_trust) of a combination is
    /// the summed weight of the sources it does **not** suspect, and an
    /// application accepts the system state while the trust stays at or
    /// above its acceptable margin.
    ///
    /// Weights are sanitized — a non-finite or negative entry contributes
    /// 0 — so the trust value is always finite. Without weights every
    /// source weighs 1 and the trust is simply `sources() − |suspected|`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.sources()`.
    pub fn set_impact_weights(&mut self, weights: &[f64]) {
        assert_eq!(
            weights.len(),
            self.n_sources,
            "impact weights must cover every source"
        );
        let w: Vec<f64> = weights
            .iter()
            .map(|&x| if x.is_finite() && x >= 0.0 { x } else { 0.0 })
            .collect();
        self.impact_total = w.iter().sum();
        self.impact_weights = Some(w);
    }

    /// Drops the impact weights, returning to the unweighted plane
    /// (every source weighs 1).
    pub fn clear_impact_weights(&mut self) {
        self.impact_weights = None;
        self.impact_total = self.n_sources as f64;
    }

    /// The current per-source impact weights, if set.
    pub fn impact_weights(&self) -> Option<&[f64]> {
        self.impact_weights.as_deref()
    }

    /// The trust ceiling: Σ of the impact weights (`sources()` when
    /// unweighted).
    pub fn impact_total(&self) -> f64 {
        self.impact_total
    }

    /// The Impact-FD trust value of combination `combo`: the summed
    /// impact weight of the sources it currently trusts — a weighted
    /// popcount over the combination's suspicion words, reusing the
    /// bitmaps the serving plane already publishes.
    pub fn impact_trust(&self, combo: usize) -> f64 {
        let words = &self.suspecting[combo * self.words..(combo + 1) * self.words];
        match &self.impact_weights {
            None => {
                let suspected: u32 = words.iter().map(|w| w.count_ones()).sum();
                self.impact_total - f64::from(suspected)
            }
            Some(wts) => {
                let mut lost = 0.0;
                for (wi, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        lost += wts[wi * 64 + bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                    }
                }
                self.impact_total - lost
            }
        }
    }

    /// `true` while combination `combo`'s trust is at or above the
    /// application's acceptable margin `threshold`.
    pub fn impact_accepts(&self, combo: usize, threshold: f64) -> bool {
        self.impact_trust(combo) >= threshold
    }

    /// The earliest pending deadline of `source` over its non-suspecting
    /// combinations — the instant its next check can possibly fire
    /// (`None` when nothing is pending).
    pub fn next_wakeup(&self, source: u32) -> Option<SimTime> {
        let us = self.min_deadline[source as usize];
        (us != NO_DEADLINE).then(|| SimTime::from_micros(u64::from(us)))
    }

    /// The current forecast feeding `(source, combo)`, in milliseconds.
    pub fn predicted_delay_ms(&self, source: u32, combo: usize) -> f64 {
        let s = source as usize;
        self.cols[self.pred_of_combo[combo]].predict(s, self.ci.n[s])
    }

    /// The current safety margin of `(source, combo)`, in milliseconds.
    pub fn margin_ms(&self, source: u32, combo: usize) -> f64 {
        self.margin_of(source as usize, combo)
    }

    fn margin_of(&self, s: usize, combo: usize) -> f64 {
        let p_idx = self.pred_of_combo[combo];
        match self.combos[combo].margin {
            MarginKind::Ci { gamma } => self.ci.margin(s, gamma),
            MarginKind::Jac { phi } => {
                let base = self.jac[p_idx]
                    .as_ref()
                    .expect("Jac column allocated for Jac combo");
                phi * base[s]
            }
            MarginKind::Rto { k } => {
                let col = self.rto[p_idx]
                    .as_ref()
                    .expect("Rto column allocated for Rto combo");
                (col.mu[s] + k * col.dev[s]).max(0.0)
            }
        }
    }

    /// The current time-out component `δ = pred + sm` of `(source, combo)`.
    pub fn current_timeout_ms(&self, source: u32, combo: usize) -> f64 {
        self.predicted_delay_ms(source, combo) + self.margin_ms(source, combo)
    }

    /// The transitions produced by the most recent observe/check call.
    ///
    /// Ordered by `(source slot in the call, combination index)`: a batch
    /// yields transitions in batch order, [`check_all_at`] in ascending
    /// `(source, combo)` order.
    ///
    /// [`check_all_at`]: Self::check_all_at
    pub fn transitions(&self) -> &[SourceTransition] {
        &self.transitions
    }

    /// Handles one heartbeat from `source`, exactly like
    /// [`DetectorBank::observe_heartbeat`] on that source's private bank.
    ///
    /// Returns `true` if the heartbeat was fresh. `EndSuspect` edges land
    /// in [`transitions`](Self::transitions).
    ///
    /// [`DetectorBank::observe_heartbeat`]:
    ///     crate::bank::DetectorBank::observe_heartbeat
    pub fn observe_heartbeat(&mut self, source: u32, seq: u64, arrival: SimTime) -> bool {
        self.transitions.clear();
        self.observe_inner(source, seq, arrival)
    }

    /// Consumes a whole batch of heartbeats in arrival order — the
    /// linear-sweep cycle path. Returns the number of fresh heartbeats.
    ///
    /// Equivalent to calling [`observe_heartbeat`] per element, except
    /// that [`transitions`](Self::transitions) accumulates the edges of
    /// the whole batch (in batch order).
    ///
    /// [`observe_heartbeat`]: Self::observe_heartbeat
    pub fn observe_all(&mut self, batch: &[HeartbeatObs]) -> usize {
        self.transitions.clear();
        let mut fresh = 0usize;
        for obs in batch {
            fresh += usize::from(self.observe_inner(obs.source, obs.seq, obs.arrival));
        }
        fresh
    }

    /// Feeds one observed delay to a source's predictor columns, error
    /// cores and the shared Welford core, leaving each distinct
    /// predictor's post-observation forecast in `pred_scratch`. The same
    /// operations in the same order as the per-source bank: error against
    /// the pre-observation forecast, observe, error-core advance,
    /// forecast refresh. `gap` is the heartbeat's sequence gap (missing
    /// heartbeats before it), consumed by the φ lifecycle only.
    fn advance_source(&mut self, s: usize, delay_ms: f64, gap: u64) {
        let n_before = self.ci.n[s];
        for (p, col) in self.cols.iter_mut().enumerate() {
            let err = delay_ms - col.predict(s, n_before);
            col.observe(s, delay_ms, n_before, gap);
            if let Some(base) = self.jac[p].as_mut() {
                base[s] += JAC_ALPHA * (err.abs() - base[s]);
            }
            if let Some(rto) = self.rto[p].as_mut() {
                let mu = rto.mu[s];
                rto.dev[s] += 2.0 * RTO_GAIN * ((err - mu).abs() - rto.dev[s]);
                rto.mu[s] = mu + RTO_GAIN * (err - mu);
            }
            self.pred_scratch[p] = col.predict(s, n_before + 1);
        }
        self.ci.update(s, delay_ms);
    }

    fn observe_inner(&mut self, source: u32, seq: u64, arrival: SimTime) -> bool {
        let s = source as usize;
        assert!(s < self.n_sources, "source {source} out of range");
        self.heartbeats += 1;

        // Observed transmission delay, clamped exactly like the bank.
        let sigma = SimTime::ZERO + self.eta * seq;
        let delay_ms = arrival
            .checked_duration_since(sigma)
            .map_or(0.0, |d| d.as_millis_f64());

        // Sequence gap against the pre-update freshness bookkeeping,
        // exactly like `DetectorBank::observe_heartbeat`.
        let hs = self.highest_seq[s];
        let gap = if hs != SEQ_NONE && seq > u64::from(hs) {
            seq - u64::from(hs) - 1
        } else {
            0
        };
        self.advance_source(s, delay_ms, gap);

        let fresh = hs == SEQ_NONE || seq > u64::from(hs);
        if !fresh {
            self.stale_heartbeats += 1;
            return false;
        }
        assert!(
            seq < u64::from(SEQ_NONE),
            "sequence {seq} exceeds the u32 freshness horizon"
        );
        self.highest_seq[s] = seq as u32;

        // Fan out: M freshness points, suspicion edges, and the refreshed
        // freshest-deadline cache, one tight loop.
        let sigma_next = SimTime::ZERO + self.eta * (seq + 1);
        let mut min_dl = NO_DEADLINE;
        let word = s / 64;
        let bit = 1u64 << (s % 64);
        for idx in 0..self.combos.len() {
            let p_idx = self.pred_of_combo[idx];
            let margin = self.margin_of(s, idx);
            let timeout_ms = self.pred_scratch[p_idx] + margin;
            let delta = SimDuration::from_millis_f64(timeout_ms.max(0.0));
            let dl = deadline32((sigma_next + delta).as_micros());
            self.deadlines[idx * self.n_sources + s] = dl;
            min_dl = min_dl.min(dl);
            let w = idx * self.words + word;
            if self.suspecting[w] & bit != 0 {
                self.suspecting[w] &= !bit;
                self.dirty[w / 64] |= 1u64 << (w % 64);
                self.transitions.push(SourceTransition {
                    source,
                    combo: idx as u32,
                    transition: FdTransition::EndSuspect,
                });
            }
        }
        self.min_deadline[s] = min_dl;
        true
    }

    /// Evaluates the freshness condition of every combination of `source`
    /// at `now` — the per-source deadline-timer path.
    ///
    /// O(1) while `now` is before the source's cached freshest deadline;
    /// scans the source's M combinations only when something can actually
    /// have expired. Returns the `StartSuspect` edges fired, in
    /// combination-index order.
    pub fn check_source_at(&mut self, source: u32, now: SimTime) -> &[SourceTransition] {
        self.transitions.clear();
        self.check_source_inner(source, now);
        &self.transitions
    }

    fn check_source_inner(&mut self, source: u32, now: SimTime) {
        let s = source as usize;
        assert!(s < self.n_sources, "source {source} out of range");
        let now_us = now.as_micros();
        if now_us < u64::from(self.min_deadline[s]) {
            return;
        }
        let word = s / 64;
        let bit = 1u64 << (s % 64);
        let mut min_dl = NO_DEADLINE;
        for idx in 0..self.combos.len() {
            let w = idx * self.words + word;
            if self.suspecting[w] & bit != 0 {
                continue;
            }
            let dl = self.deadlines[idx * self.n_sources + s];
            if dl == NO_DEADLINE {
                continue;
            }
            if now_us >= u64::from(dl) {
                self.suspecting[w] |= bit;
                self.dirty[w / 64] |= 1u64 << (w % 64);
                self.transitions.push(SourceTransition {
                    source,
                    combo: idx as u32,
                    transition: FdTransition::StartSuspect,
                });
            } else {
                min_dl = min_dl.min(dl);
            }
        }
        self.min_deadline[s] = min_dl;
    }

    /// Evaluates the freshness condition of **every** (source, combo) pair
    /// at `now`: M contiguous array sweeps, the batch analog of calling
    /// [`DetectorBank::check_at`] on every source.
    ///
    /// Returns the `StartSuspect` edges fired, in ascending
    /// `(source, combo)` order — identical to checking each source's
    /// private bank in source order.
    ///
    /// The sweep is lane-wise: each combination's contiguous deadline row
    /// is walked in 64-source lanes paired with the single suspicion word
    /// covering them. An inner branch-free loop builds a `due` bitmask,
    /// newly fired lanes are `due & !word`, and the word absorbs them
    /// with one OR, so only words with new fires pay any per-source work.
    ///
    /// [`DetectorBank::check_at`]: crate::bank::DetectorBank::check_at
    pub fn check_all_at(&mut self, now: SimTime) -> &[SourceTransition] {
        self.transitions.clear();
        // Clamp the scan instant onto the u32 deadline clock. Armed
        // deadlines are strictly below `NO_DEADLINE` (asserted at
        // arming), so a scan at or past `u32::MAX − 1` µs compares
        // identically to one at the horizon while unarmed pairs can
        // never fire.
        let now_us = now.as_micros().min(u64::from(NO_DEADLINE) - 1) as u32;
        let n = self.n_sources;
        let wpc = self.words;
        let scan = &mut self.transitions;
        let all_deadlines = &self.deadlines;
        let all_words = &mut self.suspecting;
        let dirty = &mut self.dirty;
        for idx in 0..self.combos.len() {
            let deadlines = &all_deadlines[idx * n..(idx + 1) * n];
            let words = &mut all_words[idx * wpc..(idx + 1) * wpc];
            let mut chunks = deadlines.chunks_exact(64);
            let mut w = 0usize;
            for lanes in chunks.by_ref() {
                // Two 32-lane halves: building a u32 mask from u32
                // compares keeps the mask element the same width as the
                // data, which is the shape LLVM turns into packed
                // compare + movemask.
                let mut lo = 0u32;
                for (lane, &dl) in lanes[..32].iter().enumerate() {
                    lo |= u32::from(dl <= now_us) << lane;
                }
                let mut hi = 0u32;
                for (lane, &dl) in lanes[32..].iter().enumerate() {
                    hi |= u32::from(dl <= now_us) << lane;
                }
                let due = u64::from(lo) | (u64::from(hi) << 32);
                let mut fired = due & !words[w];
                if fired != 0 {
                    words[w] |= fired;
                    let gw = idx * wpc + w;
                    dirty[gw / 64] |= 1u64 << (gw % 64);
                    let base = (w * 64) as u32;
                    while fired != 0 {
                        scan.push(SourceTransition {
                            source: base + fired.trailing_zeros(),
                            combo: idx as u32,
                            transition: FdTransition::StartSuspect,
                        });
                        fired &= fired - 1;
                    }
                }
                w += 1;
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let mut due = 0u64;
                for (lane, &dl) in rem.iter().enumerate() {
                    due |= u64::from(dl <= now_us) << lane;
                }
                let mut fired = due & !words[w];
                if fired != 0 {
                    words[w] |= fired;
                    let gw = idx * wpc + w;
                    dirty[gw / 64] |= 1u64 << (gw % 64);
                    let base = (w * 64) as u32;
                    while fired != 0 {
                        scan.push(SourceTransition {
                            source: base + fired.trailing_zeros(),
                            combo: idx as u32,
                            transition: FdTransition::StartSuspect,
                        });
                        fired &= fired - 1;
                    }
                }
            }
        }
        // Report source-major like a per-source loop over DetectorBanks
        // would, and refresh the cache of every source that fired.
        self.transitions
            .sort_unstable_by_key(|t| (t.source, t.combo));
        let mut i = 0;
        while i < self.transitions.len() {
            let s = self.transitions[i].source as usize;
            while i < self.transitions.len() && self.transitions[i].source as usize == s {
                i += 1;
            }
            self.refresh_min_deadline(s);
        }
        &self.transitions
    }

    /// [`check_source_at`](Self::check_source_at), emitting straight into
    /// `sink`. Returns the number of edges fired.
    pub fn check_source_into<S: EventSink>(
        &mut self,
        source: u32,
        now: SimTime,
        sink: &mut S,
    ) -> usize {
        self.transitions.clear();
        self.check_source_inner(source, now);
        for t in &self.transitions {
            sink.start_suspect(now, t.source, t.combo);
        }
        self.transitions.len()
    }

    /// [`observe_heartbeat`](Self::observe_heartbeat), emitting the
    /// `EndSuspect` edges straight into `sink` (stamped `arrival`).
    /// Returns `true` if the heartbeat was fresh.
    pub fn observe_heartbeat_into<S: EventSink>(
        &mut self,
        source: u32,
        seq: u64,
        arrival: SimTime,
        sink: &mut S,
    ) -> bool {
        let fresh = self.observe_heartbeat(source, seq, arrival);
        for t in &self.transitions {
            sink.end_suspect(arrival, t.source, t.combo);
        }
        fresh
    }

    /// Recomputes `min_deadline[s]` exactly (min pending deadline over
    /// non-suspecting combinations).
    fn refresh_min_deadline(&mut self, s: usize) {
        let word = s / 64;
        let bit = 1u64 << (s % 64);
        let mut min_dl = NO_DEADLINE;
        for idx in 0..self.combos.len() {
            if self.suspecting[idx * self.words + word] & bit != 0 {
                continue;
            }
            let dl = self.deadlines[idx * self.n_sources + s];
            if dl != NO_DEADLINE {
                min_dl = min_dl.min(dl);
            }
        }
        self.min_deadline[s] = min_dl;
    }
}

// ---------------------------------------------------------------------------
// Snapshot/restore: the warm-restart image of the whole bank.
// ---------------------------------------------------------------------------

/// Magic of the [`SourceBank`] snapshot format (the many-source sibling of
/// `FDBK`, the [`DetectorBank`](crate::bank::DetectorBank) image; the two
/// share their predictor tags and the per-source φ and ARIMA bodies).
const SB_MAGIC: &[u8; 4] = b"FDSB";
/// Current format version. v2 = v1 plus the new-family predictor column
/// tags and a trailing Impact-FD weight section; v1 images (written
/// before the extended families existed) still restore bit-identically.
const SB_VERSION: u8 = 2;
/// Oldest version [`SourceBank::restore_bytes`] still accepts.
const SB_OLDEST_READABLE_VERSION: u8 = 1;

use crate::bank::tag;
use crate::snapshot::{Reader, SnapshotError, Writer};

impl SourceBank {
    /// Serializes the bank's complete mutable state — every predictor
    /// column (including full per-source ARIMA windows and models), the
    /// shared Welford core, the error cores, the combo-major deadline
    /// arrays, the suspicion bitmaps, freshness counters and the
    /// freshest-deadline cache — as a versioned little-endian byte image
    /// (`FDSB`, every `f64` via [`f64::to_bits`]).
    ///
    /// A bank restored from these bytes continues the heartbeat stream
    /// **bit-identically**: same forecasts, same deadlines, same edges.
    /// Per-call scratch (the transition buffer) is not state and is not
    /// stored.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(SB_MAGIC);
        w.u8(SB_VERSION);
        w.u64(self.eta.as_micros());
        w.u64(self.n_sources as u64);
        w.u64(self.combos.len() as u64);
        w.u64(self.n_pred as u64);
        for col in &self.cols {
            match col {
                PredCol::Last { last } => {
                    w.u8(tag::LAST);
                    w.vec_f64(last);
                }
                PredCol::Mean { mean } => {
                    w.u8(tag::MEAN);
                    w.vec_f64(mean);
                }
                PredCol::WinMean { cap, sum, ring } => {
                    w.u8(tag::WINMEAN);
                    w.u64(*cap as u64);
                    w.vec_f64(sum);
                    w.vec_f64(ring);
                }
                PredCol::Lpf { beta, pred } => {
                    w.u8(tag::LPF);
                    w.f64(*beta);
                    w.vec_f64(pred);
                }
                PredCol::Arima(col) => {
                    w.u8(tag::ARIMA);
                    w.u64(col.len() as u64);
                    for p in col {
                        p.write_state(&mut w);
                    }
                }
                PredCol::Phi(col) => {
                    w.u8(tag::PHI);
                    w.u64(col.len() as u64);
                    for p in col {
                        p.write_state(&mut w);
                    }
                }
                PredCol::Adw {
                    cap,
                    k,
                    sum,
                    sumsq,
                    ring,
                } => {
                    w.u8(tag::ADW);
                    w.u64(*cap as u64);
                    w.f64(*k);
                    w.vec_f64(sum);
                    w.vec_f64(sumsq);
                    w.vec_f64(ring);
                }
                PredCol::Ml {
                    lags,
                    rate,
                    w: weights,
                    hist,
                } => {
                    w.u8(tag::ML);
                    w.u64(*lags as u64);
                    w.f64(*rate);
                    w.vec_f64(weights);
                    w.vec_f64(hist);
                }
            }
        }
        for jac in &self.jac {
            match jac {
                Some(base) => {
                    w.u8(1);
                    w.vec_f64(base);
                }
                None => w.u8(0),
            }
        }
        for rto in &self.rto {
            match rto {
                Some(col) => {
                    w.u8(1);
                    w.vec_f64(&col.mu);
                    w.vec_f64(&col.dev);
                }
                None => w.u8(0),
            }
        }
        w.vec_u32(&self.ci.n);
        w.vec_f64(&self.ci.mean);
        w.vec_f64(&self.ci.m2);
        w.vec_f64(&self.ci.sigma);
        w.vec_f64(&self.ci.inner_sqrt);
        w.vec_u32(&self.deadlines);
        w.vec_u64(&self.suspecting);
        w.vec_u32(&self.highest_seq);
        w.vec_u32(&self.min_deadline);
        w.u64(self.heartbeats);
        w.u64(self.stale_heartbeats);
        // v2 tail: the Impact-FD weight section. A v1 image is exactly a
        // v2 image of an old-grid bank with this flag byte removed.
        match &self.impact_weights {
            Some(weights) => {
                w.u8(1);
                w.vec_f64(weights);
            }
            None => w.u8(0),
        }
        w.into_bytes()
    }

    /// Restores the state serialized by [`snapshot_bytes`] into this bank.
    ///
    /// The bank must have the **same shape** as the snapshotted one (η,
    /// source count, combination grid — configuration is validated, not
    /// stored): construct it with the same [`SourceBank::new`] arguments,
    /// then restore. Never panics on malformed input; truncated,
    /// corrupted, version-skewed or wrong-shape bytes yield a
    /// [`SnapshotError`] and leave the bank unspecified but safe (restore
    /// again, or discard it).
    ///
    /// [`snapshot_bytes`]: Self::snapshot_bytes
    pub fn restore_bytes(&mut self, data: &[u8]) -> Result<(), SnapshotError> {
        let mut r = Reader::new(data);
        if r.bytes(4)? != SB_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        if !(SB_OLDEST_READABLE_VERSION..=SB_VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if r.u64()? != self.eta.as_micros() {
            return Err(SnapshotError::Mismatch("eta"));
        }
        if r.len()? != self.n_sources {
            return Err(SnapshotError::Mismatch("source count"));
        }
        if r.len()? != self.combos.len() {
            return Err(SnapshotError::Mismatch("combination count"));
        }
        if r.len()? != self.n_pred {
            return Err(SnapshotError::Mismatch("predictor count"));
        }
        let n = self.n_sources;
        let expect = |v: &[f64]| -> Result<(), SnapshotError> {
            if v.len() == n {
                Ok(())
            } else {
                Err(SnapshotError::Mismatch("column length"))
            }
        };
        for col in &mut self.cols {
            let tag = r.u8()?;
            match (tag, &mut *col) {
                (tag::LAST, PredCol::Last { last }) => {
                    let v = r.vec_f64()?;
                    expect(&v)?;
                    *last = v;
                }
                (tag::MEAN, PredCol::Mean { mean }) => {
                    let v = r.vec_f64()?;
                    expect(&v)?;
                    *mean = v;
                }
                (tag::WINMEAN, PredCol::WinMean { cap, sum, ring }) => {
                    if r.len()? != *cap {
                        return Err(SnapshotError::Mismatch("window capacity"));
                    }
                    let s = r.vec_f64()?;
                    expect(&s)?;
                    let rg = r.vec_f64()?;
                    if rg.len() != n * *cap {
                        return Err(SnapshotError::Mismatch("ring length"));
                    }
                    *sum = s;
                    *ring = rg;
                }
                (tag::LPF, PredCol::Lpf { beta, pred }) => {
                    if r.f64()?.to_bits() != beta.to_bits() {
                        return Err(SnapshotError::Mismatch("lpf beta"));
                    }
                    let v = r.vec_f64()?;
                    expect(&v)?;
                    *pred = v;
                }
                (tag::ARIMA, PredCol::Arima(col)) => {
                    if r.len()? != n {
                        return Err(SnapshotError::Mismatch("arima column length"));
                    }
                    let mut restored = Vec::with_capacity(n);
                    for cur in col.iter() {
                        restored.push(cur.read_state(&mut r)?);
                    }
                    *col = restored;
                }
                (tag::PHI, PredCol::Phi(col)) => {
                    if r.len()? != n {
                        return Err(SnapshotError::Mismatch("phi column length"));
                    }
                    let mut restored = Vec::with_capacity(n);
                    for cur in col.iter() {
                        restored.push(cur.read_state(&mut r)?);
                    }
                    *col = restored;
                }
                (
                    tag::ADW,
                    PredCol::Adw {
                        cap,
                        k,
                        sum,
                        sumsq,
                        ring,
                    },
                ) => {
                    if r.len()? != *cap {
                        return Err(SnapshotError::Mismatch("adaptive window capacity"));
                    }
                    if r.f64()?.to_bits() != k.to_bits() {
                        return Err(SnapshotError::Mismatch("adaptive k"));
                    }
                    let sv = r.vec_f64()?;
                    expect(&sv)?;
                    let sq = r.vec_f64()?;
                    expect(&sq)?;
                    let rg = r.vec_f64()?;
                    if rg.len() != n * *cap {
                        return Err(SnapshotError::Mismatch("adaptive ring length"));
                    }
                    *sum = sv;
                    *sumsq = sq;
                    *ring = rg;
                }
                (
                    tag::ML,
                    PredCol::Ml {
                        lags,
                        rate,
                        w: weights,
                        hist,
                    },
                ) => {
                    if r.len()? != *lags {
                        return Err(SnapshotError::Mismatch("ml lags"));
                    }
                    if r.f64()?.to_bits() != rate.to_bits() {
                        return Err(SnapshotError::Mismatch("ml rate"));
                    }
                    let stride = *lags + 2;
                    let wv = r.vec_f64()?;
                    if wv.len() != n * stride {
                        return Err(SnapshotError::Mismatch("ml weight arena length"));
                    }
                    let hv = r.vec_f64()?;
                    if hv.len() != n * *lags {
                        return Err(SnapshotError::Mismatch("ml history arena length"));
                    }
                    // The per-source rate slot is configuration riding in
                    // the arena: it must match the bank's.
                    for s in 0..n {
                        if wv[s * stride + stride - 1].to_bits() != rate.to_bits() {
                            return Err(SnapshotError::Invalid("ml state"));
                        }
                    }
                    *weights = wv;
                    *hist = hv;
                }
                (t, _) if t <= tag::MAX => {
                    return Err(SnapshotError::Mismatch("predictor kind"));
                }
                (t, _) => return Err(SnapshotError::BadTag(t)),
            }
        }
        for jac in &mut self.jac {
            match (r.flag()?, &mut *jac) {
                (true, Some(base)) => {
                    let v = r.vec_f64()?;
                    expect(&v)?;
                    *base = v;
                }
                (false, None) => {}
                _ => return Err(SnapshotError::Mismatch("jac core layout")),
            }
        }
        for rto in &mut self.rto {
            match (r.flag()?, &mut *rto) {
                (true, Some(col)) => {
                    let mu = r.vec_f64()?;
                    expect(&mu)?;
                    let dev = r.vec_f64()?;
                    expect(&dev)?;
                    col.mu = mu;
                    col.dev = dev;
                }
                (false, None) => {}
                _ => return Err(SnapshotError::Mismatch("rto core layout")),
            }
        }
        let ci_n = r.vec_u32()?;
        if ci_n.len() != n {
            return Err(SnapshotError::Mismatch("welford length"));
        }
        let ci_mean = r.vec_f64()?;
        expect(&ci_mean)?;
        let ci_m2 = r.vec_f64()?;
        expect(&ci_m2)?;
        let ci_sigma = r.vec_f64()?;
        expect(&ci_sigma)?;
        let ci_inner = r.vec_f64()?;
        expect(&ci_inner)?;
        let deadlines = r.vec_u32()?;
        if deadlines.len() != self.combos.len() * n {
            return Err(SnapshotError::Mismatch("deadline array length"));
        }
        let suspecting = r.vec_u64()?;
        if suspecting.len() != self.combos.len() * self.words {
            return Err(SnapshotError::Mismatch("suspicion bitmap length"));
        }
        // Bits past the last source are unreachable by observation; a
        // corrupt image must not smuggle them in (the Impact-FD weighted
        // popcount walks every set bit of a combination's row).
        let tail = n % 64;
        if tail != 0 && self.words > 0 {
            let ghost = !((1u64 << tail) - 1);
            for c in 0..self.combos.len() {
                if suspecting[(c + 1) * self.words - 1] & ghost != 0 {
                    return Err(SnapshotError::Invalid("suspicion tail bits"));
                }
            }
        }
        let highest_seq = r.vec_u32()?;
        if highest_seq.len() != n {
            return Err(SnapshotError::Mismatch("freshness length"));
        }
        let min_deadline = r.vec_u32()?;
        if min_deadline.len() != n {
            return Err(SnapshotError::Mismatch("deadline cache length"));
        }
        let heartbeats = r.u64()?;
        let stale_heartbeats = r.u64()?;
        // v1 images end here; v2 appends the Impact-FD weight section.
        let impact_weights = if version >= 2 && r.flag()? {
            let v = r.vec_f64()?;
            expect(&v)?;
            if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(SnapshotError::Invalid("impact weights"));
            }
            Some(v)
        } else {
            None
        };
        if r.remaining() > 0 {
            return Err(SnapshotError::TrailingBytes(r.remaining()));
        }
        self.ci.n = ci_n;
        self.ci.mean = ci_mean;
        self.ci.m2 = ci_m2;
        self.ci.sigma = ci_sigma;
        self.ci.inner_sqrt = ci_inner;
        self.deadlines = deadlines;
        self.suspecting = suspecting;
        self.highest_seq = highest_seq;
        self.min_deadline = min_deadline;
        self.heartbeats = heartbeats;
        self.stale_heartbeats = stale_heartbeats;
        self.impact_total = impact_weights
            .as_ref()
            .map_or(self.n_sources as f64, |w| w.iter().sum());
        self.impact_weights = impact_weights;
        // Scratch is per-call, not state — but stale transitions from the
        // pre-restore life must not leak into the next report.
        self.transitions.clear();
        // A restored bank cannot know which words changed relative to an
        // incremental publisher's last publication, so the next publish
        // must treat every word as dirty (warm-restart safety: the dirty
        // set must stay a superset of the words that actually changed).
        self.dirty = all_dirty(self.suspecting.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::DetectorBank;
    use crate::combinations::all_combinations;

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

    #[test]
    fn paper_grid_shape() {
        let bank = SourceBank::paper_grid(eta(), 12);
        assert_eq!(bank.len(), 30);
        assert_eq!(bank.sources(), 12);
        assert_eq!(bank.distinct_predictor_count(), 5);
        assert!(!bank.is_empty());
        assert_eq!(bank.eta(), eta());
        assert_eq!(bank.next_wakeup(3), None);
    }

    /// The core equivalence claim: a SourceBank over N sources is
    /// bit-identical to N private DetectorBanks — deadlines, margins,
    /// forecasts, suspicion flags and transition sequences — through a
    /// schedule with skips (suspicion edges), stale heartbeats and
    /// periodic full checks.
    #[test]
    fn matches_independent_detector_banks() {
        let combos = all_combinations();
        let n: u32 = 7;
        let mut source_bank = SourceBank::new(&combos, eta(), n as usize);
        let mut banks: Vec<DetectorBank> =
            (0..n).map(|_| DetectorBank::new(&combos, eta())).collect();

        for seq in 0..40u64 {
            for source in 0..n {
                // Source 2 goes silent for a stretch; source 5 replays a
                // stale heartbeat every 8th step.
                if source == 2 && (10..20).contains(&seq) {
                    continue;
                }
                let (use_seq, at) = if source == 5 && seq % 8 == 7 && seq > 0 {
                    (seq - 1, arrival(seq, delay_for(source, seq)))
                } else {
                    (seq, arrival(seq, delay_for(source, seq)))
                };
                // Check-then-observe, like the monitor's event loop.
                let a = banks[source as usize].check_at(at).to_vec();
                let b = source_bank.check_source_at(source, at).to_vec();
                assert_eq!(a.len(), b.len(), "check count s{source} q{seq}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.combo as u32, y.combo);
                    assert_eq!(x.transition, y.transition);
                    assert_eq!(y.source, source);
                }
                let fresh_a = banks[source as usize].observe_heartbeat(use_seq, at);
                let ends_a: Vec<usize> = banks[source as usize]
                    .transitions()
                    .iter()
                    .map(|t| t.combo)
                    .collect();
                let fresh_b = source_bank.observe_heartbeat(source, use_seq, at);
                let ends_b: Vec<usize> = source_bank
                    .transitions()
                    .iter()
                    .map(|t| t.combo as usize)
                    .collect();
                assert_eq!(fresh_a, fresh_b, "freshness s{source} q{seq}");
                assert_eq!(ends_a, ends_b, "EndSuspect s{source} q{seq}");
            }
            for source in 0..n {
                let bank = &banks[source as usize];
                for idx in 0..combos.len() {
                    assert_eq!(
                        bank.next_deadline(idx),
                        source_bank.next_deadline(source, idx),
                        "deadline s{source} q{seq} c{idx}"
                    );
                    assert_eq!(
                        bank.margin_ms(idx).to_bits(),
                        source_bank.margin_ms(source, idx).to_bits(),
                        "margin s{source} q{seq} c{idx}"
                    );
                    assert_eq!(
                        bank.predicted_delay_ms(idx).to_bits(),
                        source_bank.predicted_delay_ms(source, idx).to_bits(),
                    );
                    assert_eq!(
                        bank.is_suspecting(idx),
                        source_bank.is_suspecting(source, idx)
                    );
                }
            }
        }
        let total: u64 = banks.iter().map(|b| b.heartbeats()).sum();
        assert_eq!(source_bank.heartbeats(), total);
        let stale: u64 = banks.iter().map(|b| b.stale_heartbeats()).sum();
        assert_eq!(source_bank.stale_heartbeats(), stale);
    }

    /// `observe_all` is the same machine as per-heartbeat calls: identical
    /// state, with the batch's transitions concatenated in batch order.
    #[test]
    fn batch_observe_equals_looped_observe() {
        let n = 9usize;
        let mut batched = SourceBank::paper_grid(eta(), n);
        let mut looped = SourceBank::paper_grid(eta(), n);

        for seq in 0..25u64 {
            let batch: Vec<HeartbeatObs> = (0..n as u32)
                .map(|source| HeartbeatObs {
                    source,
                    seq,
                    arrival: arrival(seq, delay_for(source, seq)),
                })
                .collect();
            let fresh = batched.observe_all(&batch);
            let mut loop_fresh = 0;
            let mut loop_edges = Vec::new();
            for obs in &batch {
                if looped.observe_heartbeat(obs.source, obs.seq, obs.arrival) {
                    loop_fresh += 1;
                }
                loop_edges.extend_from_slice(looped.transitions());
            }
            assert_eq!(fresh, loop_fresh);
            assert_eq!(batched.transitions(), &loop_edges[..]);
        }
        for source in 0..n as u32 {
            for idx in 0..30 {
                assert_eq!(
                    batched.next_deadline(source, idx),
                    looped.next_deadline(source, idx)
                );
                assert_eq!(
                    batched.margin_ms(source, idx).to_bits(),
                    looped.margin_ms(source, idx).to_bits()
                );
            }
        }
    }

    /// Dirty words track exactly the suspicion words that change between
    /// publications, and never miss one: replaying any mutation sequence,
    /// the dirty set names a superset of the words that differ from the
    /// last `clear_dirty` checkpoint.
    #[test]
    fn dirty_words_cover_every_suspicion_change() {
        let n = 70usize; // two bitmap words per combo
        let mut bank = SourceBank::paper_grid(eta(), n);
        // A fresh bank is fully dirty (first publish must be full).
        let total_words = bank.len() * bank.words_per_combo();
        let set_bits: u32 = bank.dirty_words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(set_bits as usize, total_words);

        let checkpoint = |b: &SourceBank| b.suspect_words().to_vec();
        let verify = |b: &SourceBank, before: &[u64]| {
            for (w, (&now, &then)) in b.suspect_words().iter().zip(before).enumerate() {
                if now != then {
                    assert!(
                        b.dirty_words()[w / 64] & (1u64 << (w % 64)) != 0,
                        "word {w} changed but was not marked dirty"
                    );
                }
            }
        };

        bank.clear_dirty();
        assert!(bank.dirty_words().iter().all(|&w| w == 0));
        let mut before = checkpoint(&bank);

        // Heartbeats arm deadlines; a long silence then fires suspicions
        // through the lane sweep.
        for seq in 0..3u64 {
            let batch: Vec<HeartbeatObs> = (0..n as u32)
                .map(|source| HeartbeatObs {
                    source,
                    seq,
                    arrival: arrival(seq, delay_for(source, seq)),
                })
                .collect();
            bank.observe_all(&batch);
        }
        verify(&bank, &before);

        bank.clear_dirty();
        before = checkpoint(&bank);
        let late = SimTime::from_secs(120);
        assert!(!bank.check_all_at(late).is_empty(), "sweep fired nothing");
        verify(&bank, &before);
        let changed: usize = bank
            .suspect_words()
            .iter()
            .zip(&before)
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0);

        // Fresh heartbeats clear suspicion again: EndSuspect edges via the
        // batch path must mark their words too.
        bank.clear_dirty();
        before = checkpoint(&bank);
        let batch: Vec<HeartbeatObs> = (0..n as u32)
            .map(|source| HeartbeatObs {
                source,
                seq: 200,
                arrival: late + SimDuration::from_millis(u64::from(source)),
            })
            .collect();
        assert!(bank.observe_all(&batch) > 0);
        verify(&bank, &before);

        // A restored bank is fully dirty again.
        let snap = bank.snapshot_bytes();
        bank.clear_dirty();
        bank.restore_bytes(&snap).expect("restore");
        let set_bits: u32 = bank.dirty_words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(set_bits as usize, total_words);
    }

    /// The freshest-deadline cache answers early checks in O(1) without
    /// touching per-combo state, and `next_wakeup` exposes the earliest
    /// instant a check can fire.
    #[test]
    fn min_deadline_cache_gates_checks() {
        let mut bank = SourceBank::paper_grid(eta(), 3);
        bank.observe_heartbeat(1, 0, arrival(0, 200));
        let wakeup = bank.next_wakeup(1).expect("armed after heartbeat");
        assert!(bank
            .check_source_at(1, wakeup - SimDuration::from_micros(1))
            .is_empty());
        // At the wakeup instant at least one combination fires.
        assert!(!bank.check_source_at(1, wakeup).is_empty());
        // Sources without heartbeats never fire.
        assert!(bank.check_source_at(0, SimTime::from_secs(900)).is_empty());
    }

    /// The exported bitmap words agree bit-for-bit with `is_suspecting`.
    #[test]
    fn suspect_words_mirror_is_suspecting() {
        let n = 70usize; // spans two words per combo
        let mut bank = SourceBank::paper_grid(eta(), n);
        assert_eq!(bank.words_per_combo(), 2);
        assert_eq!(bank.suspect_words().len(), 30 * 2);
        for source in 0..n as u32 {
            if source % 3 != 0 {
                bank.observe_heartbeat(source, 0, arrival(0, delay_for(source, 0)));
            }
        }
        bank.check_all_at(SimTime::from_secs(120));
        let words = bank.suspect_words().to_vec();
        for combo in 0..30 {
            for source in 0..n as u32 {
                let s = source as usize;
                let bit = words[combo * 2 + s / 64] & (1u64 << (s % 64)) != 0;
                assert_eq!(bit, bank.is_suspecting(source, combo), "s{source} c{combo}");
            }
        }
    }

    /// The lane-swept full scan fires the same edges and leaves the same
    /// state as per-source `check_source_at` calls in source order (the
    /// path the sharded engine runs), including across partial trailing
    /// words and repeated sweeps.
    #[test]
    fn lane_sweep_matches_per_source_checks() {
        for n in [1usize, 63, 64, 65, 130] {
            let mut lane = SourceBank::paper_grid(eta(), n);
            let mut stepped = SourceBank::paper_grid(eta(), n);
            let per_source = |bank: &mut SourceBank, at: SimTime| {
                let mut fired = Vec::new();
                for source in 0..n as u32 {
                    fired.extend_from_slice(bank.check_source_at(source, at));
                }
                fired
            };
            for seq in 0..4u64 {
                for source in 0..n as u32 {
                    // A ragged subset heartbeats each cycle so deadlines
                    // and suspicion flags diverge across sources.
                    if (u64::from(source) + seq) % 3 != 0 {
                        let at = arrival(seq, delay_for(source, seq));
                        lane.observe_heartbeat(source, seq, at);
                        stepped.observe_heartbeat(source, seq, at);
                    }
                }
                // Sweep at a time that catches some but not all deadlines.
                let mid = SimTime::ZERO + eta() * (seq + 1) + SimDuration::from_millis(400);
                let fired = lane.check_all_at(mid).to_vec();
                assert_eq!(fired, per_source(&mut stepped, mid), "n={n} seq={seq}");
            }
            let late = SimTime::from_secs(900);
            assert_eq!(
                lane.check_all_at(late).to_vec(),
                per_source(&mut stepped, late),
                "n={n} late sweep"
            );
            assert_eq!(lane.snapshot_bytes(), stepped.snapshot_bytes(), "n={n}");
            // Every armed pair now suspects; sweeping again is idempotent.
            assert!((0..n as u32).all(|s| lane.is_suspecting(s, 0)));
            assert!(lane.check_all_at(SimTime::from_secs(901)).is_empty());
        }
    }

    /// The sink-emission variants report exactly the buffered transitions,
    /// stamped with the right instants.
    #[test]
    fn sink_paths_mirror_buffered_paths() {
        use fd_stat::RetainedKind;

        let n = 5usize;
        let mut sunk = SourceBank::paper_grid(eta(), n);
        let mut buffered = SourceBank::paper_grid(eta(), n);
        let mut sink = fd_stat::RetainSink::new();

        for source in 0..n as u32 {
            let at = arrival(0, delay_for(source, 0));
            assert_eq!(
                sunk.observe_heartbeat_into(source, 0, at, &mut sink),
                buffered.observe_heartbeat(source, 0, at)
            );
        }
        let late = SimTime::from_secs(60);
        let mut expected = Vec::new();
        let mut fired = 0usize;
        for source in 0..n as u32 {
            fired += sunk.check_source_into(source, late, &mut sink);
            expected.extend_from_slice(buffered.check_source_at(source, late));
        }
        assert_eq!(fired, expected.len());
        assert_eq!(fired, n * 30);
        let starts: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, RetainedKind::StartSuspect(_)))
            .collect();
        assert_eq!(starts.len(), fired);
        assert!(starts.iter().all(|e| e.at == late));
        assert_eq!(
            starts
                .iter()
                .map(|e| {
                    let RetainedKind::StartSuspect(c) = e.kind else {
                        unreachable!()
                    };
                    (e.source, c)
                })
                .collect::<Vec<_>>(),
            expected
                .iter()
                .map(|t| (t.source, t.combo))
                .collect::<Vec<_>>()
        );

        // Fresh heartbeats now clear the suspicions: EndSuspect edges
        // arrive through the sink stamped with each arrival.
        let mut sink2 = fd_stat::RetainSink::new();
        let mut expected = Vec::new();
        for source in 0..n as u32 {
            // Sequence 70 is past the sweep instant.
            let at = late + SimDuration::from_millis(100 + u64::from(source));
            assert_eq!(
                sunk.observe_heartbeat_into(source, 70, at, &mut sink2),
                buffered.observe_heartbeat(source, 70, at)
            );
            expected.extend(
                buffered
                    .transitions()
                    .iter()
                    .map(|t| (t.source, t.combo, at)),
            );
        }
        let ends: Vec<_> = sink2
            .events()
            .iter()
            .map(|e| {
                let RetainedKind::EndSuspect(c) = e.kind else {
                    panic!("only EndSuspect expected, got {:?}", e.kind)
                };
                (e.source, c, e.at)
            })
            .collect();
        assert_eq!(ends.len(), n * 30);
        assert_eq!(ends, expected);
    }

    #[test]
    #[should_panic(expected = "heartbeat period must be positive")]
    fn zero_eta_rejected() {
        let _ = SourceBank::new(&all_combinations(), SimDuration::ZERO, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_rejected() {
        let mut bank = SourceBank::paper_grid(eta(), 2);
        bank.observe_heartbeat(2, 0, SimTime::from_millis(100));
    }

    /// A mid-stream bank, with live suspicions and armed deadlines, for the
    /// snapshot tests.
    fn warm_bank(n: usize, cycles: u64) -> SourceBank {
        let mut bank = SourceBank::paper_grid(eta(), n);
        for seq in 0..cycles {
            for source in 0..n as u32 {
                // A ragged subset heartbeats so suspicions accumulate.
                if (u64::from(source) + seq) % 4 != 0 {
                    bank.observe_heartbeat(source, seq, arrival(seq, delay_for(source, seq)));
                }
            }
            let mid = SimTime::ZERO + eta() * (seq + 1) + SimDuration::from_millis(350);
            bank.check_all_at(mid);
        }
        bank
    }

    /// The snapshot acceptance criterion: a restored bank continues the
    /// stream bit-identically to the bank it was taken from — same
    /// observables immediately, same edges, forecasts and deadlines after
    /// more traffic.
    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let n = 7usize;
        let cut = 20u64;
        let mut original = warm_bank(n, cut);
        let bytes = original.snapshot_bytes();
        let mut restored = SourceBank::paper_grid(eta(), n);
        restored.restore_bytes(&bytes).expect("restore");

        assert_eq!(restored.heartbeats(), original.heartbeats());
        assert_eq!(restored.stale_heartbeats(), original.stale_heartbeats());
        for source in 0..n as u32 {
            assert_eq!(restored.next_wakeup(source), original.next_wakeup(source));
            for idx in 0..30 {
                assert_eq!(
                    restored.next_deadline(source, idx),
                    original.next_deadline(source, idx)
                );
                assert_eq!(
                    restored.is_suspecting(source, idx),
                    original.is_suspecting(source, idx)
                );
                assert_eq!(
                    restored.predicted_delay_ms(source, idx).to_bits(),
                    original.predicted_delay_ms(source, idx).to_bits()
                );
                assert_eq!(
                    restored.margin_ms(source, idx).to_bits(),
                    original.margin_ms(source, idx).to_bits()
                );
            }
        }

        // Continue both banks through further cycles, including checks;
        // every edge and every observable must stay identical.
        for seq in cut..cut + 15 {
            for source in 0..n as u32 {
                let at = arrival(seq, delay_for(source, seq));
                let a = original.check_source_at(source, at).to_vec();
                let b = restored.check_source_at(source, at).to_vec();
                assert_eq!(a, b, "check diverged s{source} q{seq}");
                original.observe_heartbeat(source, seq, at);
                let ea = original.transitions().to_vec();
                restored.observe_heartbeat(source, seq, at);
                assert_eq!(
                    ea,
                    restored.transitions(),
                    "edges diverged s{source} q{seq}"
                );
            }
        }
        assert_eq!(
            original.snapshot_bytes(),
            restored.snapshot_bytes(),
            "post-restore trajectories diverged"
        );
    }

    #[test]
    fn snapshot_truncation_and_corruption_never_panic() {
        let bytes = warm_bank(3, 12).snapshot_bytes();
        for cut in 0..bytes.len().min(600) {
            let err = SourceBank::paper_grid(eta(), 3)
                .restore_bytes(&bytes[..cut])
                .unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut={cut}: {err:?}"
            );
        }
        // Tail cuts (past the cheap prefix) and single-byte flips: never a
        // panic, always an error or a clean decode.
        for cut in (0..bytes.len()).rev().take(200) {
            assert!(SourceBank::paper_grid(eta(), 3)
                .restore_bytes(&bytes[..cut])
                .is_err());
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            let _ = SourceBank::paper_grid(eta(), 3).restore_bytes(&bad);
        }
    }

    #[test]
    fn snapshot_shape_mismatches_rejected() {
        let bytes = warm_bank(4, 10).snapshot_bytes();
        // Wrong source count.
        assert_eq!(
            SourceBank::paper_grid(eta(), 5)
                .restore_bytes(&bytes)
                .unwrap_err(),
            SnapshotError::Mismatch("source count")
        );
        // Wrong eta.
        assert_eq!(
            SourceBank::paper_grid(SimDuration::from_secs(2), 4)
                .restore_bytes(&bytes)
                .unwrap_err(),
            SnapshotError::Mismatch("eta")
        );
        // Version skew.
        let mut skewed = bytes.clone();
        skewed[4] = 99;
        assert_eq!(
            SourceBank::paper_grid(eta(), 4)
                .restore_bytes(&skewed)
                .unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            SourceBank::paper_grid(eta(), 4)
                .restore_bytes(&long)
                .unwrap_err(),
            SnapshotError::TrailingBytes(1)
        );
        // A healthy restore still works after all the failures above.
        let mut ok = SourceBank::paper_grid(eta(), 4);
        ok.restore_bytes(&bytes).expect("clean restore");
        assert_eq!(ok.snapshot_bytes(), bytes);
    }

    /// The bit-identity claim extended to the new families: over the
    /// 54-combination extended grid — φ-accrual (both lifecycles),
    /// adaptive μ+Kσ and the online model — a SourceBank matches N
    /// private DetectorBanks through a schedule whose silences are long
    /// enough to trip the φ flap lifecycle.
    #[test]
    fn extended_grid_matches_independent_detector_banks() {
        let combos = crate::combinations::extended_combinations();
        let n: u32 = 6;
        let mut source_bank = SourceBank::new(&combos, eta(), n as usize);
        let mut banks: Vec<DetectorBank> =
            (0..n).map(|_| DetectorBank::new(&combos, eta())).collect();

        for seq in 0..45u64 {
            for source in 0..n {
                // Source 1 flaps twice (gaps of 6 and 5 — both past
                // PHI_FLAP_GAP_MIN); source 3 flaps once; source 5
                // replays a stale heartbeat every 9th step (gap 0 path).
                if source == 1 && ((10..16).contains(&seq) || (28..33).contains(&seq)) {
                    continue;
                }
                if source == 3 && (20..24).contains(&seq) {
                    continue;
                }
                let use_seq = if source == 5 && seq % 9 == 8 {
                    seq - 1
                } else {
                    seq
                };
                let at = arrival(seq, delay_for(source, seq));
                let a = banks[source as usize].check_at(at).to_vec();
                let b = source_bank.check_source_at(source, at).to_vec();
                assert_eq!(a.len(), b.len(), "check count s{source} q{seq}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.combo as u32, y.combo);
                    assert_eq!(x.transition, y.transition);
                }
                let fresh_a = banks[source as usize].observe_heartbeat(use_seq, at);
                let ends_a: Vec<usize> = banks[source as usize]
                    .transitions()
                    .iter()
                    .map(|t| t.combo)
                    .collect();
                let fresh_b = source_bank.observe_heartbeat(source, use_seq, at);
                let ends_b: Vec<usize> = source_bank
                    .transitions()
                    .iter()
                    .map(|t| t.combo as usize)
                    .collect();
                assert_eq!(fresh_a, fresh_b, "freshness s{source} q{seq}");
                assert_eq!(ends_a, ends_b, "EndSuspect s{source} q{seq}");
            }
            for source in 0..n {
                let bank = &banks[source as usize];
                for idx in 0..combos.len() {
                    assert_eq!(
                        bank.next_deadline(idx),
                        source_bank.next_deadline(source, idx),
                        "deadline s{source} q{seq} c{idx}"
                    );
                    assert_eq!(
                        bank.predicted_delay_ms(idx).to_bits(),
                        source_bank.predicted_delay_ms(source, idx).to_bits(),
                        "forecast s{source} q{seq} c{idx}"
                    );
                    assert_eq!(
                        bank.margin_ms(idx).to_bits(),
                        source_bank.margin_ms(source, idx).to_bits(),
                        "margin s{source} q{seq} c{idx}"
                    );
                    assert_eq!(
                        bank.is_suspecting(idx),
                        source_bank.is_suspecting(source, idx)
                    );
                }
            }
        }
    }

    /// The Impact-FD plane: trust is the weighted complement of the
    /// suspicion bitmap, weights are sanitized, and the unweighted
    /// default counts sources.
    #[test]
    fn impact_trust_is_weighted_popcount_complement() {
        let mut bank = SourceBank::paper_grid(eta(), 5);
        for s in 0..5u32 {
            bank.observe_heartbeat(s, 0, arrival(0, 150 + u64::from(s)));
        }
        // Unweighted: every source weighs 1.
        assert_eq!(bank.impact_total(), 5.0);
        assert_eq!(bank.impact_trust(0), 5.0);
        assert!(bank.impact_accepts(0, 5.0));

        // Nothing arrives: every pair suspects, trust collapses to 0.
        bank.check_all_at(SimTime::from_secs(60));
        assert_eq!(bank.impact_trust(0), 0.0);
        assert!(!bank.impact_accepts(0, 1.0));

        // Weighted plane; NaN and negative entries contribute 0.
        bank.set_impact_weights(&[4.0, 1.0, f64::NAN, -3.0, 0.5]);
        assert_eq!(bank.impact_weights().unwrap(), &[4.0, 1.0, 0.0, 0.0, 0.5]);
        assert_eq!(bank.impact_total(), 5.5);
        assert_eq!(bank.impact_trust(0), 0.0);

        // Sources 0 and 2 recover: combo 0 trusts weight 4.0 + 0.0.
        bank.observe_heartbeat(0, 1, arrival(1, 150));
        bank.observe_heartbeat(2, 1, arrival(1, 152));
        assert_eq!(bank.impact_trust(0), 4.0);
        assert!(bank.impact_accepts(0, 4.0));
        assert!(!bank.impact_accepts(0, 4.5));

        bank.clear_impact_weights();
        assert_eq!(bank.impact_trust(0), 2.0);
        assert_eq!(bank.impact_total(), 5.0);
    }

    #[test]
    #[should_panic(expected = "impact weights must cover every source")]
    fn impact_weights_must_match_source_count() {
        SourceBank::paper_grid(eta(), 3).set_impact_weights(&[1.0, 2.0]);
    }

    /// The v2 impact tail: a weightless image ends in one flag byte,
    /// weights round-trip, and a malformed tail is rejected totally. (That
    /// a v1 image — no tail — still restores is pinned on the golden
    /// fixture in `tests/snapshot_golden.rs`.)
    #[test]
    fn snapshot_impact_tail_round_trips_and_rejects_garbage() {
        let v2 = warm_bank(5, 14).snapshot_bytes();
        assert_eq!(*v2.last().unwrap(), 0, "weightless tail is one flag byte");

        // A bad impact flag byte in a v2 image errors, never panics.
        let mut bad_flag = v2.clone();
        *bad_flag.last_mut().unwrap() = 9;
        assert_eq!(
            SourceBank::paper_grid(eta(), 5)
                .restore_bytes(&bad_flag)
                .unwrap_err(),
            SnapshotError::BadTag(9)
        );

        // Weights round-trip; a NaN smuggled into the weight section is
        // rejected as invalid rather than poisoning the trust value.
        let mut weighted = warm_bank(5, 14);
        weighted.set_impact_weights(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let wb = weighted.snapshot_bytes();
        let mut back = SourceBank::paper_grid(eta(), 5);
        back.restore_bytes(&wb).expect("weighted restore");
        assert_eq!(back.impact_weights().unwrap(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(back.impact_total(), 15.0);
        let mut nan = wb.clone();
        let off = nan.len() - 8; // last weight's 8 little-endian bytes
        nan[off..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            SourceBank::paper_grid(eta(), 5)
                .restore_bytes(&nan)
                .unwrap_err(),
            SnapshotError::Invalid("impact weights")
        );
    }

    /// The extended grid's snapshot round-trips exactly — φ lifecycle
    /// state (mid-start-phase), ADWIN sums and the ML arenas all survive
    /// — and truncating the image anywhere never panics.
    #[test]
    fn extended_grid_snapshot_round_trips() {
        let combos = crate::combinations::extended_combinations();
        let n = 4usize;
        let mut original = SourceBank::new(&combos, eta(), n);
        original.set_impact_weights(&[2.0, 1.0, 1.0, 0.5]);
        for seq in 0..26u64 {
            for source in 0..n as u32 {
                // Source 2's silence trips the φ flap machinery so the
                // snapshot carries live start-phase state.
                if source == 2 && (12..17).contains(&seq) {
                    continue;
                }
                original.observe_heartbeat(source, seq, arrival(seq, delay_for(source, seq)));
            }
            let mid = SimTime::ZERO + eta() * (seq + 1) + SimDuration::from_millis(400);
            original.check_all_at(mid);
        }
        let bytes = original.snapshot_bytes();
        let mut restored = SourceBank::new(&combos, eta(), n);
        restored.restore_bytes(&bytes).expect("restore");
        assert_eq!(restored.snapshot_bytes(), bytes);
        assert_eq!(restored.impact_weights(), original.impact_weights());

        // Continue both; the trajectories must not diverge.
        for seq in 26..36u64 {
            for source in 0..n as u32 {
                let at = arrival(seq, delay_for(source, seq));
                original.observe_heartbeat(source, seq, at);
                let ea = original.transitions().to_vec();
                restored.observe_heartbeat(source, seq, at);
                assert_eq!(ea, restored.transitions(), "s{source} q{seq}");
            }
        }
        assert_eq!(original.snapshot_bytes(), restored.snapshot_bytes());

        // Totality: any truncation errors cleanly.
        for cut in (0..bytes.len()).step_by(61) {
            assert!(SourceBank::new(&combos, eta(), n)
                .restore_bytes(&bytes[..cut])
                .is_err());
        }
        // Kind mismatch: the paper grid cannot absorb an extended image.
        assert!(SourceBank::paper_grid(eta(), n)
            .restore_bytes(&bytes)
            .is_err());
    }
}
