//! The shared-computation detector bank behind the 30-combination monitor.
//!
//! The paper's experiments run every predictor × margin combination
//! simultaneously so all of them perceive identical network conditions. As
//! independent [`FailureDetector`](crate::FailureDetector)s that costs 30
//! virtual-dispatch predictor updates and 30 margin updates per heartbeat —
//! even though the grid contains only **5 distinct predictors**, the three
//! `SM_CI(γ)` margins differ **only by the γ factor** (one shared Welford
//! statistic suffices), and the `SM_JAC(φ)` / `SM_RTO(k)` recursions are
//! φ/k-independent per error stream.
//!
//! [`DetectorBank`] exploits exactly that structure:
//!
//! * each **distinct** predictor is updated once per heartbeat (ARIMA fits
//!   and refits once, not once per margin variant), via enum dispatch
//!   ([`PredictorState`]) instead of `Box<dyn Predictor>`;
//! * one [`CiCore`] serves every `SM_CI(γ)` combination (γ at read time);
//! * one [`JacCore`] / [`RtoCore`] per distinct predictor serves every
//!   `SM_JAC(φ)` / `SM_RTO(k)` combination over that predictor's error
//!   stream (φ/k at read time);
//! * the per-combination state (freshness point, suspicion flag) is laid
//!   out struct-of-arrays and updated in one tight loop.
//!
//! The arithmetic is arranged to be **bit-identical** to the boxed
//! single-detector path: the differential property test
//! `tests/bank_differential.rs` drives both implementations on shared random
//! heartbeat/loss/crash schedules and asserts identical transition
//! sequences, deadlines and suspicion flags for all 30 combinations.
//!
//! A bank checkpoints as a versioned `FDBK` byte image
//! ([`DetectorBank::snapshot_bytes`] / [`DetectorBank::restore_bytes`]):
//! a small frame around each predictor's and margin core's own
//! `write_state` bytes, restored all-or-nothing.

use fd_arima::ArimaSpec;
use fd_sim::{SimDuration, SimTime};

use crate::combinations::{Combination, MarginKind, PredictorKind};
use crate::detector::FdTransition;
use crate::margin::{CiCore, JacCore, RtoCore};
use crate::predictor::{
    AdaptiveWindow, ArimaPredictor, Last, Lpf, Mean, MlPredictor, PhiAccrual, Predictor, WinMean,
};
use crate::snapshot::{Reader, SnapshotError, Writer};

/// Predictor-family tag bytes, shared by the `FDBK` and `FDSB` images.
/// Tags 0–4 are the paper's five predictors (format version 1); 5–7 the
/// extended families added in version 2.
pub(crate) mod tag {
    pub(crate) const LAST: u8 = 0;
    pub(crate) const MEAN: u8 = 1;
    pub(crate) const WINMEAN: u8 = 2;
    pub(crate) const LPF: u8 = 3;
    pub(crate) const ARIMA: u8 = 4;
    pub(crate) const PHI: u8 = 5;
    pub(crate) const ADW: u8 = 6;
    pub(crate) const ML: u8 = 7;
    /// The highest tag any version assigns.
    pub(crate) const MAX: u8 = ML;
}

const MAGIC: &[u8; 4] = b"FDBK";
/// Version 2 added the new-family predictor tags (φ-accrual, adaptive
/// window, ML). The body layout of version 1 is unchanged — its tags 0–4
/// decode exactly as before — so v1 bytes restore bit-identically.
const VERSION: u8 = 2;
const OLDEST_READABLE_VERSION: u8 = 1;

/// Enum-dispatched predictor state, mirroring [`PredictorKind`].
///
/// Holds the same concrete predictor structs the boxed path uses, so the
/// floating-point trajectories are identical; only the dispatch differs.
// A bank holds at most one state per *distinct* predictor (five for the
// paper grid); keeping ARIMA inline trades a few hundred bytes for zero
// pointer chasing in the per-heartbeat observe loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PredictorState {
    /// `LAST`.
    Last(Last),
    /// `MEAN`.
    Mean(Mean),
    /// `WINMEAN(N)`.
    WinMean(WinMean),
    /// `LPF(β)`.
    Lpf(Lpf),
    /// `ARIMA(p,d,q)` with periodic refit.
    Arima(ArimaPredictor),
    /// `PHI(N,φ*)` with the two-phase flap lifecycle.
    Phi(PhiAccrual),
    /// `ADWIN(N,K)` adaptive μ+Kσ window.
    Adw(AdaptiveWindow),
    /// `ML(p,r)` online-trained model.
    Ml(MlPredictor),
}

impl PredictorState {
    /// Instantiates the state machine for a [`PredictorKind`].
    pub fn from_kind(kind: PredictorKind) -> Self {
        match kind {
            PredictorKind::Last => PredictorState::Last(Last::new()),
            PredictorKind::Mean => PredictorState::Mean(Mean::new()),
            PredictorKind::WinMean { window } => PredictorState::WinMean(WinMean::new(window)),
            PredictorKind::Lpf { beta } => PredictorState::Lpf(Lpf::new(beta)),
            PredictorKind::Arima {
                p,
                d,
                q,
                refit_every,
            } => PredictorState::Arima(ArimaPredictor::new(ArimaSpec::new(p, d, q), refit_every)),
            PredictorKind::PhiAccrual {
                window,
                threshold,
                two_phase,
            } => PredictorState::Phi(PhiAccrual::new(window, threshold, two_phase)),
            PredictorKind::AdaptiveWindow { window, k } => {
                PredictorState::Adw(AdaptiveWindow::new(window, k))
            }
            PredictorKind::MlPredictor { lags, rate } => {
                PredictorState::Ml(MlPredictor::new(lags, rate))
            }
        }
    }

    /// Consumes one delay observation together with the sequence gap that
    /// preceded it (0 for in-order and stale heartbeats; only the
    /// lifecycle-aware φ-accrual predictor reads the gap).
    pub fn observe(&mut self, delay_ms: f64, gap: u64) {
        match self {
            PredictorState::Last(p) => p.observe(delay_ms),
            PredictorState::Mean(p) => p.observe(delay_ms),
            PredictorState::WinMean(p) => p.observe(delay_ms),
            PredictorState::Lpf(p) => p.observe(delay_ms),
            PredictorState::Arima(p) => p.observe(delay_ms),
            PredictorState::Phi(p) => p.observe_gap(delay_ms, gap),
            PredictorState::Adw(p) => p.observe(delay_ms),
            PredictorState::Ml(p) => p.observe(delay_ms),
        }
    }

    /// The current one-step forecast.
    pub fn predict(&self) -> f64 {
        match self {
            PredictorState::Last(p) => p.predict(),
            PredictorState::Mean(p) => p.predict(),
            PredictorState::WinMean(p) => p.predict(),
            PredictorState::Lpf(p) => p.predict(),
            PredictorState::Arima(p) => p.predict(),
            PredictorState::Phi(p) => p.predict(),
            PredictorState::Adw(p) => p.predict(),
            PredictorState::Ml(p) => p.predict(),
        }
    }

    /// Observations consumed so far.
    pub fn observations(&self) -> u64 {
        match self {
            PredictorState::Last(p) => p.observations(),
            PredictorState::Mean(p) => p.observations(),
            PredictorState::WinMean(p) => p.observations(),
            PredictorState::Lpf(p) => p.observations(),
            PredictorState::Arima(p) => p.observations(),
            PredictorState::Phi(p) => p.observations(),
            PredictorState::Adw(p) => p.observations(),
            PredictorState::Ml(p) => p.observations(),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            PredictorState::Last(_) => tag::LAST,
            PredictorState::Mean(_) => tag::MEAN,
            PredictorState::WinMean(_) => tag::WINMEAN,
            PredictorState::Lpf(_) => tag::LPF,
            PredictorState::Arima(_) => tag::ARIMA,
            PredictorState::Phi(_) => tag::PHI,
            PredictorState::Adw(_) => tag::ADW,
            PredictorState::Ml(_) => tag::ML,
        }
    }

    /// Writes the family tag byte followed by the family's own body.
    pub fn write_state(&self, w: &mut Writer) {
        w.u8(self.tag());
        match self {
            PredictorState::Last(p) => p.write_state(w),
            PredictorState::Mean(p) => p.write_state(w),
            PredictorState::WinMean(p) => p.write_state(w),
            PredictorState::Lpf(p) => p.write_state(w),
            PredictorState::Arima(p) => p.write_state(w),
            PredictorState::Phi(p) => p.write_state(w),
            PredictorState::Adw(p) => p.write_state(w),
            PredictorState::Ml(p) => p.write_state(w),
        }
    }

    /// Reads a tagged body into a state of this variant and configuration;
    /// bytes of another family or of other parameters are a mismatch.
    pub fn read_state(&self, r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            t if t == self.tag() => {}
            t if t <= tag::MAX => return Err(SnapshotError::Mismatch("predictor kind")),
            t => return Err(SnapshotError::BadTag(t)),
        }
        Ok(match self {
            PredictorState::Last(p) => PredictorState::Last(p.read_state(r)?),
            PredictorState::Mean(p) => PredictorState::Mean(p.read_state(r)?),
            PredictorState::WinMean(p) => PredictorState::WinMean(p.read_state(r)?),
            PredictorState::Lpf(p) => PredictorState::Lpf(p.read_state(r)?),
            PredictorState::Arima(p) => PredictorState::Arima(p.read_state(r)?),
            PredictorState::Phi(p) => PredictorState::Phi(p.read_state(r)?),
            PredictorState::Adw(p) => PredictorState::Adw(p.read_state(r)?),
            PredictorState::Ml(p) => PredictorState::Ml(p.read_state(r)?),
        })
    }

    /// The underlying ARIMA predictor, if this is the ARIMA variant
    /// (observation/refit counters for diagnostics and tests).
    pub fn as_arima(&self) -> Option<&ArimaPredictor> {
        match self {
            PredictorState::Arima(p) => Some(p),
            _ => None,
        }
    }
}

/// A suspect/trust edge of one bank combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankTransition {
    /// Index of the combination (position in the slice the bank was built
    /// from).
    pub combo: usize,
    /// The edge.
    pub transition: FdTransition,
}

/// Per-distinct-predictor shared margin state: the error-stream-driven
/// cores, allocated only when some combination actually reads them.
/// (Shared with [`crate::source_bank::SourceBank`], which replicates this
/// layout per source.)
#[derive(Debug, Clone, Default)]
pub(crate) struct ErrorCores {
    pub(crate) jac: Option<JacCore>,
    pub(crate) rto: Option<RtoCore>,
}

/// The shared-computation, enum-dispatch engine running many
/// predictor × margin combinations over one heartbeat stream.
///
/// ```
/// use fd_core::bank::DetectorBank;
/// use fd_core::all_combinations;
/// use fd_sim::{SimDuration, SimTime};
///
/// let eta = SimDuration::from_secs(1);
/// let mut bank = DetectorBank::new(&all_combinations(), eta);
/// assert_eq!(bank.len(), 30);
/// assert_eq!(bank.distinct_predictor_count(), 5);
///
/// // Heartbeat m_0 arrives after 200 ms: every combination gets a deadline.
/// assert!(bank.observe_heartbeat(0, SimTime::from_millis(200)));
/// assert!(bank.next_deadline(0).is_some());
///
/// // Nothing arrives for a long time: every combination starts suspecting.
/// let started = bank.check_at(SimTime::from_secs(60)).len();
/// assert_eq!(started, 30);
/// ```
#[derive(Debug, Clone)]
pub struct DetectorBank {
    eta: SimDuration,
    combos: Vec<Combination>,
    /// Distinct predictors, each updated once per heartbeat.
    predictors: Vec<PredictorState>,
    /// `pred_of_combo[i]` = index into `predictors` for combination `i`.
    pred_of_combo: Vec<usize>,
    /// One Welford core shared by every `SM_CI(γ)` combination (the CI
    /// margin depends only on the observation stream).
    ci: CiCore,
    /// Per distinct predictor: the φ/k-independent error-stream cores.
    error_cores: Vec<ErrorCores>,
    /// Scratch: post-observation prediction per distinct predictor.
    predictions: Vec<f64>,
    // Struct-of-arrays per-combination state.
    next_freshness: Vec<Option<SimTime>>,
    suspecting: Vec<bool>,
    // Freshness bookkeeping depends only on the sequence stream, so it is
    // shared by all combinations.
    highest_seq: Option<u64>,
    heartbeats: u64,
    stale_heartbeats: u64,
    transitions: Vec<BankTransition>,
}

impl DetectorBank {
    /// Builds a bank over the given combinations with heartbeat period
    /// `eta`. Duplicate predictors across combinations are collapsed into
    /// one state machine each.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is zero.
    pub fn new(combos: &[Combination], eta: SimDuration) -> Self {
        assert!(!eta.is_zero(), "heartbeat period must be positive");
        let mut predictors: Vec<PredictorState> = Vec::new();
        let mut kinds: Vec<PredictorKind> = Vec::new();
        let mut pred_of_combo = Vec::with_capacity(combos.len());
        for combo in combos {
            let p_idx = match kinds.iter().position(|k| *k == combo.predictor) {
                Some(i) => i,
                None => {
                    kinds.push(combo.predictor);
                    predictors.push(PredictorState::from_kind(combo.predictor));
                    predictors.len() - 1
                }
            };
            pred_of_combo.push(p_idx);
        }
        let mut error_cores = vec![ErrorCores::default(); predictors.len()];
        for combo in combos {
            let p_idx = kinds
                .iter()
                .position(|k| *k == combo.predictor)
                .expect("predictor registered above");
            match combo.margin {
                MarginKind::Ci { .. } => {}
                MarginKind::Jac { phi: _ } => {
                    error_cores[p_idx]
                        .jac
                        .get_or_insert_with(|| JacCore::new(0.25));
                }
                MarginKind::Rto { k: _ } => {
                    error_cores[p_idx].rto.get_or_insert_with(RtoCore::new);
                }
            }
        }
        let n = combos.len();
        Self {
            eta,
            combos: combos.to_vec(),
            predictions: vec![0.0; predictors.len()],
            predictors,
            pred_of_combo,
            ci: CiCore::new(),
            error_cores,
            next_freshness: vec![None; n],
            suspecting: vec![false; n],
            highest_seq: None,
            heartbeats: 0,
            stale_heartbeats: 0,
            transitions: Vec::new(),
        }
    }

    /// Builds the bank over the paper's full 30-combination grid.
    pub fn paper_grid(eta: SimDuration) -> Self {
        Self::new(&crate::combinations::all_combinations(), eta)
    }

    /// Number of combinations.
    pub fn len(&self) -> usize {
        self.combos.len()
    }

    /// `true` if the bank has no combinations.
    pub fn is_empty(&self) -> bool {
        self.combos.is_empty()
    }

    /// The heartbeat period η.
    pub fn eta(&self) -> SimDuration {
        self.eta
    }

    /// The combinations, in index order.
    pub fn combos(&self) -> &[Combination] {
        &self.combos
    }

    /// The combination labels, in index order (e.g. `"LAST+SM_JAC(2)"`).
    pub fn labels(&self) -> Vec<String> {
        self.combos.iter().map(|c| c.label()).collect()
    }

    /// Number of distinct predictor state machines (5 for the paper grid).
    pub fn distinct_predictor_count(&self) -> usize {
        self.predictors.len()
    }

    /// The distinct predictor states (diagnostics, tests).
    pub fn predictor_states(&self) -> &[PredictorState] {
        &self.predictors
    }

    /// Heartbeats observed so far (fresh + stale), shared by all
    /// combinations.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats
    }

    /// Heartbeats that arrived out of order (did not advance freshness).
    pub fn stale_heartbeats(&self) -> u64 {
        self.stale_heartbeats
    }

    /// The next freshness point `τ_{k+1}` of combination `idx`.
    pub fn next_deadline(&self, idx: usize) -> Option<SimTime> {
        self.next_freshness[idx]
    }

    /// `true` while combination `idx` suspects the monitored process.
    pub fn is_suspecting(&self, idx: usize) -> bool {
        self.suspecting[idx]
    }

    /// The current forecast feeding combination `idx`, in milliseconds.
    pub fn predicted_delay_ms(&self, idx: usize) -> f64 {
        self.predictions[self.pred_of_combo[idx]]
    }

    /// The current safety margin of combination `idx`, in milliseconds.
    pub fn margin_ms(&self, idx: usize) -> f64 {
        let p_idx = self.pred_of_combo[idx];
        match self.combos[idx].margin {
            MarginKind::Ci { gamma } => self.ci.margin(gamma),
            MarginKind::Jac { phi } => self.error_cores[p_idx]
                .jac
                .expect("JacCore allocated for Jac combo")
                .margin(phi),
            MarginKind::Rto { k } => self.error_cores[p_idx]
                .rto
                .expect("RtoCore allocated for Rto combo")
                .margin(k),
        }
    }

    /// The current time-out component `δ = pred + sm` of combination `idx`.
    pub fn current_timeout_ms(&self, idx: usize) -> f64 {
        self.predicted_delay_ms(idx) + self.margin_ms(idx)
    }

    /// The transitions produced by the most recent
    /// [`observe_heartbeat`](Self::observe_heartbeat) or
    /// [`check_at`](Self::check_at) call, in combination-index order.
    pub fn transitions(&self) -> &[BankTransition] {
        &self.transitions
    }

    /// Handles the arrival of heartbeat `seq` at global time `arrival` for
    /// **all** combinations at once: each distinct predictor observes the
    /// delay once, the shared margin cores advance once per error stream,
    /// and the 30 freshness points are refreshed in one loop.
    ///
    /// Returns `true` if the heartbeat was fresh (advanced the shared
    /// freshness bookkeeping). `EndSuspect` edges are collected in
    /// [`transitions`](Self::transitions), ordered by combination index.
    pub fn observe_heartbeat(&mut self, seq: u64, arrival: SimTime) -> bool {
        self.transitions.clear();
        self.heartbeats += 1;

        // Observed transmission delay, clamped exactly like the boxed path.
        let sigma = SimTime::ZERO + self.eta * seq;
        let delay_ms = arrival
            .checked_duration_since(sigma)
            .map_or(0.0, |d| d.as_millis_f64());

        // The sequence gap this heartbeat closes (0 for stale deliveries),
        // computed against the pre-update freshness bookkeeping exactly
        // like the boxed path.
        let gap = match self.highest_seq {
            Some(h) if seq > h => seq - h - 1,
            _ => 0,
        };

        // Each DISTINCT predictor: one error, one observe (ARIMA refits
        // once here, not once per margin variant), one error-core advance.
        for (p_idx, predictor) in self.predictors.iter_mut().enumerate() {
            let err = delay_ms - predictor.predict();
            predictor.observe(delay_ms, gap);
            let cores = &mut self.error_cores[p_idx];
            if let Some(jac) = cores.jac.as_mut() {
                jac.update(err);
            }
            if let Some(rto) = cores.rto.as_mut() {
                rto.update(err);
            }
            self.predictions[p_idx] = predictor.predict();
        }
        // The CI margin depends only on the observation stream: one Welford
        // update serves every SM_CI(γ) combination.
        self.ci.update(delay_ms);

        let fresh = self.highest_seq.is_none_or(|h| seq > h);
        if !fresh {
            self.stale_heartbeats += 1;
            return false;
        }
        self.highest_seq = Some(seq);

        // Fan out: 30 freshness points and suspicion edges, one tight loop.
        let sigma_next = SimTime::ZERO + self.eta * (seq + 1);
        for idx in 0..self.combos.len() {
            let timeout_ms = self.current_timeout_ms(idx);
            let delta = SimDuration::from_millis_f64(timeout_ms.max(0.0));
            self.next_freshness[idx] = Some(sigma_next + delta);
            if self.suspecting[idx] {
                self.suspecting[idx] = false;
                self.transitions.push(BankTransition {
                    combo: idx,
                    transition: FdTransition::EndSuspect,
                });
            }
        }
        true
    }

    /// Evaluates the freshness condition of **every** combination at `now`.
    ///
    /// Returns the `StartSuspect` edges fired at this instant, ordered by
    /// combination index (also available via
    /// [`transitions`](Self::transitions)).
    pub fn check_at(&mut self, now: SimTime) -> &[BankTransition] {
        self.transitions.clear();
        for idx in 0..self.combos.len() {
            if self.suspecting[idx] {
                continue;
            }
            if let Some(deadline) = self.next_freshness[idx] {
                if now >= deadline {
                    self.suspecting[idx] = true;
                    self.transitions.push(BankTransition {
                        combo: idx,
                        transition: FdTransition::StartSuspect,
                    });
                }
            }
        }
        &self.transitions
    }

    /// Evaluates the freshness condition of one combination at `now` (the
    /// per-deadline timer path of the monitor layer).
    pub fn check_one(&mut self, idx: usize, now: SimTime) -> Option<FdTransition> {
        if self.suspecting[idx] {
            return None;
        }
        match self.next_freshness[idx] {
            Some(deadline) if now >= deadline => {
                self.suspecting[idx] = true;
                Some(FdTransition::StartSuspect)
            }
            _ => None,
        }
    }

    /// Serializes the bank's complete mutable state — the distinct
    /// predictor states (including the full ARIMA window, model and
    /// innovation recursion), the shared Welford core, the per-predictor
    /// error cores and the per-combination freshness points and suspicion
    /// flags — as a versioned `FDBK` byte image.
    ///
    /// Restoring the image into a bank built over the same combinations
    /// (via [`restore_bytes`](Self::restore_bytes)) is **bit-exact**: the
    /// restored bank produces transitions, deadlines and margins identical
    /// to an uncrashed bank fed the same subsequent heartbeats.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u8(VERSION);
        w.u64(self.eta.as_micros());
        w.u64(self.combos.len() as u64);
        w.u64(self.predictors.len() as u64);
        for p in &self.predictors {
            p.write_state(&mut w);
        }
        self.ci.write_state(&mut w);
        for cores in &self.error_cores {
            w.u8(cores.jac.is_some() as u8);
            if let Some(jac) = &cores.jac {
                jac.write_state(&mut w);
            }
            w.u8(cores.rto.is_some() as u8);
            if let Some(rto) = &cores.rto {
                rto.write_state(&mut w);
            }
        }
        w.vec_f64(&self.predictions);
        for nf in &self.next_freshness {
            w.opt_u64(nf.map(|t| t.as_micros()));
        }
        for &s in &self.suspecting {
            w.u8(s as u8);
        }
        w.opt_u64(self.highest_seq);
        w.u64(self.heartbeats);
        w.u64(self.stale_heartbeats);
        w.into_bytes()
    }

    /// Replaces this bank's mutable state with the image written by
    /// [`snapshot_bytes`](Self::snapshot_bytes).
    ///
    /// The bank must have been built over the **same** combinations and η
    /// as the snapshotted one — configuration is validated, not stored.
    /// Never panics on malformed input, and restore is all-or-nothing:
    /// truncated, corrupted, version-skewed or wrong-shape bytes yield a
    /// [`SnapshotError`] and leave the bank exactly as it was.
    pub fn restore_bytes(&mut self, data: &[u8]) -> Result<(), SnapshotError> {
        let mut r = Reader::new(data);
        if r.bytes(4)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u8()?;
        if !(OLDEST_READABLE_VERSION..=VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        if r.u64()? != self.eta.as_micros() {
            return Err(SnapshotError::Mismatch("heartbeat period"));
        }
        if r.len()? != self.combos.len() {
            return Err(SnapshotError::Mismatch("combination count"));
        }
        if r.len()? != self.predictors.len() {
            return Err(SnapshotError::Mismatch("distinct predictor count"));
        }
        // Decode everything into locals first; `self` is only touched
        // once the whole image has been accepted.
        let mut predictors = Vec::with_capacity(self.predictors.len());
        for current in &self.predictors {
            predictors.push(current.read_state(&mut r)?);
        }
        let ci = CiCore::read_state(&mut r)?;
        let mut error_cores = Vec::with_capacity(self.error_cores.len());
        for current in &self.error_cores {
            let jac = match r.flag()? {
                true => Some(JacCore::read_state(&mut r)?),
                false => None,
            };
            let rto = match r.flag()? {
                true => Some(RtoCore::read_state(&mut r)?),
                false => None,
            };
            if jac.is_some() != current.jac.is_some() || rto.is_some() != current.rto.is_some() {
                return Err(SnapshotError::Mismatch("error-core allocation"));
            }
            error_cores.push(ErrorCores { jac, rto });
        }
        let predictions = r.vec_f64()?;
        if predictions.len() != self.predictors.len() {
            return Err(SnapshotError::Invalid("prediction count"));
        }
        let mut next_freshness = Vec::with_capacity(self.combos.len());
        for _ in 0..self.combos.len() {
            next_freshness.push(r.opt_u64()?.map(SimTime::from_micros));
        }
        let mut suspecting = Vec::with_capacity(self.combos.len());
        for _ in 0..self.combos.len() {
            suspecting.push(r.flag()?);
        }
        let highest_seq = r.opt_u64()?;
        let heartbeats = r.u64()?;
        let stale_heartbeats = r.u64()?;
        if r.remaining() > 0 {
            return Err(SnapshotError::TrailingBytes(r.remaining()));
        }
        self.predictors = predictors;
        self.ci = ci;
        self.error_cores = error_cores;
        self.predictions = predictions;
        self.next_freshness = next_freshness;
        self.suspecting = suspecting;
        self.highest_seq = highest_seq;
        self.heartbeats = heartbeats;
        self.stale_heartbeats = stale_heartbeats;
        self.transitions.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinations::all_combinations;
    use fd_arima::OnlineArima;

    fn eta() -> SimDuration {
        SimDuration::from_secs(1)
    }

    fn arrival(seq: u64, delay_ms: u64) -> SimTime {
        SimTime::ZERO + eta() * seq + SimDuration::from_millis(delay_ms)
    }

    #[test]
    fn paper_grid_has_five_distinct_predictors() {
        let bank = DetectorBank::paper_grid(eta());
        assert_eq!(bank.len(), 30);
        assert_eq!(bank.distinct_predictor_count(), 5);
        assert_eq!(bank.labels().len(), 30);
        assert!(!bank.is_empty());
        assert_eq!(bank.eta(), eta());
    }

    #[test]
    fn bank_matches_boxed_on_fixed_schedule() {
        let combos = all_combinations();
        let mut bank = DetectorBank::new(&combos, eta());
        let mut boxed: Vec<_> = combos.iter().map(|c| c.build(eta())).collect();
        let delays = [200u64, 220, 190, 1_950, 240, 200, 3_000, 210];
        for (i, &d) in delays.iter().enumerate() {
            let seq = i as u64;
            let at = arrival(seq, d);
            // Monitor order: deadlines first, then the heartbeat.
            for (idx, fd) in boxed.iter_mut().enumerate() {
                let a = fd.check(at);
                let b = bank.check_one(idx, at);
                assert_eq!(a, b, "check mismatch at step {i} combo {idx}");
            }
            let boxed_ends: Vec<usize> = boxed
                .iter_mut()
                .enumerate()
                .filter_map(|(idx, fd)| fd.on_heartbeat(seq, at).map(|_| idx))
                .collect();
            bank.observe_heartbeat(seq, at);
            let bank_ends: Vec<usize> = bank.transitions().iter().map(|t| t.combo).collect();
            assert_eq!(boxed_ends, bank_ends, "EndSuspect mismatch at step {i}");
            for (idx, fd) in boxed.iter().enumerate() {
                assert_eq!(
                    fd.next_deadline(),
                    bank.next_deadline(idx),
                    "deadline mismatch at step {i} combo {idx} ({})",
                    fd.name()
                );
                assert_eq!(fd.is_suspecting(), bank.is_suspecting(idx));
            }
        }
    }

    #[test]
    fn stale_heartbeats_update_predictors_but_not_freshness() {
        let mut bank = DetectorBank::paper_grid(eta());
        assert!(bank.observe_heartbeat(5, arrival(5, 200)));
        let deadlines: Vec<_> = (0..bank.len()).map(|i| bank.next_deadline(i)).collect();
        assert!(!bank.observe_heartbeat(3, arrival(3, 2_250)));
        assert_eq!(bank.stale_heartbeats(), 1);
        assert_eq!(bank.heartbeats(), 2);
        for idx in 0..bank.len() {
            assert_eq!(bank.next_deadline(idx), deadlines[idx]);
        }
        // But every distinct predictor saw both observations.
        for p in bank.predictor_states() {
            assert_eq!(p.observations(), 2);
        }
    }

    /// The single-ARIMA-refit invariant, asserted by counters: with all six
    /// ARIMA × margin combinations in the bank, the ARIMA model observes
    /// each heartbeat ONCE and refits on the same schedule as a directly
    /// driven `OnlineArima` — while six boxed detectors observe 6× and
    /// refit 6×.
    #[test]
    fn arima_observes_and_refits_once_per_heartbeat() {
        let arima = PredictorKind::Arima {
            p: 2,
            d: 1,
            q: 1,
            refit_every: 100,
        };
        let combos: Vec<Combination> = MarginKind::paper_set()
            .into_iter()
            .map(|m| Combination::new(arima, m))
            .collect();
        assert_eq!(combos.len(), 6);
        let mut bank = DetectorBank::new(&combos, eta());
        let mut boxed: Vec<_> = combos.iter().map(|c| c.build(eta())).collect();
        let mut reference = OnlineArima::new(ArimaSpec::new(2, 1, 1), 100);

        let n = 350u64;
        for seq in 0..n {
            let delay = 200 + (seq * 37) % 50;
            let at = arrival(seq, delay);
            bank.observe_heartbeat(seq, at);
            for fd in &mut boxed {
                fd.on_heartbeat(seq, at);
            }
            let sigma = SimTime::ZERO + eta() * seq;
            reference.observe(at.checked_duration_since(sigma).unwrap().as_millis_f64());
        }

        assert_eq!(bank.distinct_predictor_count(), 1);
        let bank_arima = bank.predictor_states()[0]
            .as_arima()
            .expect("ARIMA predictor state")
            .inner();
        // The bank observed each heartbeat once and refit on schedule …
        assert_eq!(bank_arima.observed() as u64, n);
        assert_eq!(bank_arima.refits(), reference.refits());
        assert!(bank_arima.refits() >= 3, "refits={}", bank_arima.refits());
        // … while the boxed path fed six private ARIMA models, each
        // observing (and refitting over) the full stream.
        let boxed_total: u64 = boxed.iter().map(|fd| fd.predictor_observations()).sum();
        assert_eq!(boxed_total, 6 * n);
    }

    /// The shared-Welford γ-scaling invariant: the three `SM_CI(γ)` margins
    /// read one core and differ exactly by γ.
    #[test]
    fn shared_welford_gamma_scaling() {
        let combos: Vec<Combination> = [1.0, 2.0, 3.31]
            .iter()
            .map(|&gamma| Combination::new(PredictorKind::Last, MarginKind::Ci { gamma }))
            .collect();
        let mut bank = DetectorBank::new(&combos, eta());
        for seq in 0..20u64 {
            let delay = 180 + (seq * 53) % 80;
            bank.observe_heartbeat(seq, arrival(seq, delay));
        }
        let m1 = bank.margin_ms(0);
        let m2 = bank.margin_ms(1);
        let m331 = bank.margin_ms(2);
        assert!(m1 > 0.0);
        // Bit-exact scaling: the values come from one core, γ applied last.
        assert_eq!((1.0 * m1 / 1.0).to_bits(), m1.to_bits());
        assert_eq!(m2.to_bits(), (2.0 * (m1 / 1.0)).to_bits());
        assert_eq!(m331.to_bits(), (3.31 * (m1 / 1.0)).to_bits());
        // And they match three independent boxed margins bit for bit.
        let boxed: Vec<_> = combos.iter().map(|c| c.build(eta())).collect();
        let mut check = DetectorBank::new(&combos, eta());
        let mut boxed = boxed;
        for seq in 0..20u64 {
            let delay = 180 + (seq * 53) % 80;
            let at = arrival(seq, delay);
            check.observe_heartbeat(seq, at);
            for fd in &mut boxed {
                fd.on_heartbeat(seq, at);
            }
        }
        for (idx, fd) in boxed.iter().enumerate() {
            assert_eq!(fd.margin_ms().to_bits(), check.margin_ms(idx).to_bits());
        }
    }

    #[test]
    fn check_at_fires_all_expired_combos_in_index_order() {
        let mut bank = DetectorBank::paper_grid(eta());
        bank.observe_heartbeat(0, arrival(0, 200));
        let fired = bank.check_at(SimTime::from_secs(120)).to_vec();
        assert_eq!(fired.len(), 30);
        for (i, t) in fired.iter().enumerate() {
            assert_eq!(t.combo, i);
            assert_eq!(t.transition, FdTransition::StartSuspect);
        }
        // Idempotent while suspecting.
        assert!(bank.check_at(SimTime::from_secs(121)).is_empty());
        // A fresh heartbeat ends every suspicion, in index order.
        bank.observe_heartbeat(1, SimTime::from_secs(121));
        let ends = bank.transitions();
        assert_eq!(ends.len(), 30);
        assert!(ends
            .iter()
            .all(|t| t.transition == FdTransition::EndSuspect));
    }

    #[test]
    #[should_panic(expected = "heartbeat period must be positive")]
    fn zero_eta_rejected() {
        let _ = DetectorBank::new(&all_combinations(), SimDuration::ZERO);
    }

    /// Warm restart is bit-exact: a bank restored mid-run from a
    /// serialized snapshot continues identically to the uncrashed original
    /// for every combination — deadlines, margins, suspicion flags and
    /// transition sequences.
    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let combos = all_combinations();
        let mut original = DetectorBank::new(&combos, eta());
        for seq in 0..25u64 {
            let delay = 150 + (seq * 71) % 120;
            original.observe_heartbeat(seq, arrival(seq, delay));
        }
        // Serialize through the byte format — the restored bank sees only
        // what would survive a real crash.
        let bytes = original.snapshot_bytes();
        let mut restored = DetectorBank::new(&combos, eta());
        restored.restore_bytes(&bytes).unwrap();

        for seq in 25..60u64 {
            // A gap at seq 40 exercises suspicion edges on both banks.
            if seq == 40 {
                let late = arrival(seq, 30_000);
                let a = original.check_at(late).to_vec();
                let b = restored.check_at(late).to_vec();
                assert_eq!(a, b);
                continue;
            }
            let delay = 150 + (seq * 71) % 120;
            let at = arrival(seq, delay);
            original.observe_heartbeat(seq, at);
            restored.observe_heartbeat(seq, at);
            assert_eq!(original.transitions(), restored.transitions());
            for idx in 0..combos.len() {
                assert_eq!(original.next_deadline(idx), restored.next_deadline(idx));
                assert_eq!(
                    original.margin_ms(idx).to_bits(),
                    restored.margin_ms(idx).to_bits(),
                    "margin mismatch combo {idx}"
                );
                assert_eq!(original.is_suspecting(idx), restored.is_suspecting(idx));
            }
        }
        assert_eq!(original.heartbeats(), restored.heartbeats());
        assert_eq!(original.stale_heartbeats(), restored.stale_heartbeats());
    }

    #[test]
    fn restore_rejects_mismatched_bank() {
        let bytes = DetectorBank::paper_grid(eta()).snapshot_bytes();
        // Different combination count.
        let mut small = DetectorBank::new(&all_combinations()[..4], eta());
        assert_eq!(
            small.restore_bytes(&bytes),
            Err(SnapshotError::Mismatch("combination count"))
        );
        // Different eta.
        let mut other_eta = DetectorBank::paper_grid(SimDuration::from_millis(500));
        assert_eq!(
            other_eta.restore_bytes(&bytes),
            Err(SnapshotError::Mismatch("heartbeat period"))
        );
        // Same shape, another predictor family in the slot.
        let combos = crate::combinations::extended_combinations();
        let mut other_kind = DetectorBank::new(&combos[combos.len() - 1..], eta());
        assert_eq!(
            other_kind.restore_bytes(&DetectorBank::new(&combos[..1], eta()).snapshot_bytes()),
            Err(SnapshotError::Mismatch("predictor kind"))
        );
        // Matching bank accepts it.
        let mut ok = DetectorBank::paper_grid(eta());
        assert!(ok.restore_bytes(&bytes).is_ok());
    }
}
