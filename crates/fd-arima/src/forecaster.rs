//! Streaming ARIMA forecasting with periodic refit.
//!
//! The paper re-estimates the ARIMA(2,1,1) coefficients every
//! `N_Arima = 1000` observations "so the model can adapt to the variable
//! condition of the network". [`OnlineArima`] reproduces exactly that usage:
//! observe a delay, predict the next one, refit every `refit_every`
//! observations on a sliding window.

use crate::model::{ArimaModel, ArimaSpec, ArimaState};

/// Default sliding-window multiplier: the fit window holds up to
/// `WINDOW_FACTOR × refit_every` recent observations.
const WINDOW_FACTOR: usize = 8;

/// A streaming one-step ARIMA forecaster with periodic refitting.
///
/// Until the first successful fit, [`OnlineArima::predict_next`] falls back
/// to the last observed value (the `LAST` predictor), which is also the
/// paper's natural cold-start behaviour.
#[derive(Debug, Clone)]
pub struct OnlineArima {
    refit_every: u32,
    max_window: u32,
    /// Recent observations, oldest first. The fit window is its trailing
    /// `max_window`; up to `refit_every` older ones linger until the next
    /// slide.
    window: Vec<f64>,
    /// Boxed: a fitted model is ~90 B of coefficients, but most forecasters
    /// in a million-source monitor never reach their first fit — the
    /// indirection keeps the unfitted forecaster small.
    model: Option<Box<ArimaModel>>,
    state: ArimaState,
    observed: u64,
    refits: u32,
    failed_fits: u32,
}

impl OnlineArima {
    /// Creates a forecaster for `spec`, refitting every `refit_every`
    /// observations.
    ///
    /// # Panics
    ///
    /// Panics if `refit_every` is zero or does not fit in `u32`.
    pub fn new(spec: ArimaSpec, refit_every: usize) -> Self {
        assert!(refit_every > 0, "refit_every must be positive");
        let refit_every = u32::try_from(refit_every).expect("refit_every fits u32");
        let max_window = (WINDOW_FACTOR * refit_every as usize).max(spec.min_series_len());
        Self {
            refit_every,
            max_window: u32::try_from(max_window).expect("fit window fits u32"),
            window: Vec::new(),
            model: None,
            state: ArimaState::new(spec),
            observed: 0,
            refits: 0,
            failed_fits: 0,
        }
    }

    /// The model order (held by the streaming state; not duplicated here).
    pub fn spec(&self) -> ArimaSpec {
        self.state.spec()
    }

    /// Observations consumed so far.
    pub fn observed(&self) -> usize {
        self.observed as usize
    }

    /// Successful refits performed so far.
    pub fn refits(&self) -> usize {
        self.refits as usize
    }

    /// Fit attempts that failed (model kept from before).
    pub fn failed_fits(&self) -> usize {
        self.failed_fits as usize
    }

    /// The current fitted model, if any.
    pub fn model(&self) -> Option<&ArimaModel> {
        self.model.as_deref()
    }

    /// Consumes one observation.
    pub fn observe(&mut self, value: f64) {
        let max_window = self.max_window as usize;
        let len = self.window.len();
        if len >= max_window {
            // Full: slide. Shifting the whole window per observation is a
            // `max_window`-sized move on every heartbeat, so the buffer runs
            // `refit_every` past `max_window` and sheds that many at once;
            // readers take the trailing `max_window` (`trailing`).
            let slack = self.refit_every as usize;
            if len == max_window + slack {
                self.window.drain(..slack);
            } else if len == self.window.capacity() {
                self.window.reserve_exact(max_window + slack - len);
            }
        } else if len == self.window.capacity() {
            // Grow in measured steps instead of `push`'s doubling: a cold
            // forecaster (a handful of observations) keeps a right-sized
            // buffer instead of rounding up to the next power of two. The
            // small +2 steps after the initial ramp matter at monitor scale:
            // a short run parks most windows at 10 slots (one 80-byte
            // allocation per source) rather than overshooting to 12.
            let cap = self.window.capacity();
            let grow = if cap < 8 {
                4
            } else if cap < 16 {
                2
            } else {
                cap / 2
            }
            .min(max_window - cap);
            self.window.reserve_exact(grow);
        }
        self.window.push(value);
        self.observed += 1;

        // (Re)fit on schedule, and as soon as the window first becomes
        // large enough. "Large enough" is more than the bare algebraic
        // minimum: coefficient estimates from a few dozen points are
        // unstable enough to be worse than the LAST fallback.
        let refit_every = self.refit_every as u64;
        let spec = self.state.spec();
        let first_fit_at = spec
            .min_series_len()
            .max((self.refit_every as usize).min(300));
        let window = trailing(&self.window, max_window);
        let due = self.observed.is_multiple_of(refit_every)
            || (self.model.is_none() && window.len() == first_fit_at);
        if due && window.len() >= first_fit_at {
            match ArimaModel::fit(window, spec) {
                Ok(m) => {
                    self.model = Some(Box::new(m));
                    self.refits += 1;
                }
                Err(_) => self.failed_fits += 1,
            }
        }

        self.state.observe(value, self.model.as_deref());
    }

    /// The one-step forecast of the next observation.
    ///
    /// Falls back to the last observation before the first fit, and to 0.0
    /// if nothing has been observed at all.
    pub fn predict_next(&self) -> f64 {
        self.state
            .predict_next(self.model.as_deref())
            .unwrap_or(0.0)
    }

    /// Captures the complete streaming state as plain data.
    ///
    /// Restoring via [`OnlineArima::from_snapshot`] is bit-exact: the
    /// restored forecaster consumes further observations and produces
    /// forecasts identical to the original, including refit schedules.
    pub fn snapshot(&self) -> ArimaSnapshot {
        let (diff_recent, recent_z, recent_innov, pending_diff_forecast, last_level) =
            self.state.raw_parts();
        ArimaSnapshot {
            spec: self.state.spec(),
            refit_every: self.refit_every as usize,
            window: trailing(&self.window, self.max_window as usize).to_vec(),
            model: self.model.as_deref().map(|m| {
                (
                    m.intercept(),
                    m.phi().to_vec(),
                    m.psi().to_vec(),
                    m.sigma2(),
                )
            }),
            diff_recent,
            recent_z,
            recent_innov,
            pending_diff_forecast,
            last_level,
            observed: self.observed as usize,
            refits: self.refits as usize,
            failed_fits: self.failed_fits as usize,
        }
    }

    /// Rebuilds a forecaster from a snapshot.
    ///
    /// Returns `None` if the snapshot is internally inconsistent (zero
    /// refit interval, oversized fit window, coefficient/order mismatch, or
    /// histories longer than the spec allows).
    pub fn from_snapshot(s: ArimaSnapshot) -> Option<OnlineArima> {
        let refit_every = u32::try_from(s.refit_every).ok()?;
        if refit_every == 0 {
            return None;
        }
        let max_window = (WINDOW_FACTOR * s.refit_every).max(s.spec.min_series_len());
        if s.window.len() > max_window {
            return None;
        }
        let model = match s.model {
            Some((intercept, phi, psi, sigma2)) => Some(Box::new(ArimaModel::from_parts(
                s.spec, intercept, phi, psi, sigma2,
            )?)),
            None => None,
        };
        let state = ArimaState::from_raw_parts(
            s.spec,
            s.diff_recent,
            s.recent_z,
            s.recent_innov,
            s.pending_diff_forecast,
            s.last_level,
        )?;
        Some(OnlineArima {
            refit_every,
            max_window: u32::try_from(max_window).ok()?,
            window: s.window,
            model,
            state,
            observed: s.observed as u64,
            refits: s.refits as u32,
            failed_fits: s.failed_fits as u32,
        })
    }
}

/// The fit window proper: the trailing `max_window` observations of a buffer
/// that [`OnlineArima::observe`] lets run past it between slides.
fn trailing(buffer: &[f64], max_window: usize) -> &[f64] {
    &buffer[buffer.len().saturating_sub(max_window)..]
}

/// A plain-data image of an [`OnlineArima`]'s complete streaming state,
/// produced by [`OnlineArima::snapshot`].
///
/// Every field is public so callers (the detector-bank checkpoint codec)
/// can serialize it in whatever format they need.
#[derive(Debug, Clone, PartialEq)]
pub struct ArimaSnapshot {
    /// The model order.
    pub spec: ArimaSpec,
    /// Refit interval in observations.
    pub refit_every: usize,
    /// The sliding fit window, oldest first.
    pub window: Vec<f64>,
    /// `(intercept, phi, psi, sigma2)` of the fitted model, if any.
    pub model: Option<(f64, Vec<f64>, Vec<f64>, f64)>,
    /// Levels retained by the streaming differencer (at most `spec.d`).
    pub diff_recent: Vec<f64>,
    /// Recent differenced values, most recent last.
    pub recent_z: Vec<f64>,
    /// Recent innovations, most recent last.
    pub recent_innov: Vec<f64>,
    /// The forecast pending from the last observation, if any.
    pub pending_diff_forecast: Option<f64>,
    /// The last observed level, if any.
    pub last_level: Option<f64>,
    /// Observations consumed so far.
    pub observed: usize,
    /// Successful refits so far.
    pub refits: usize,
    /// Failed fit attempts so far.
    pub failed_fits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::DetRng;

    #[test]
    fn cold_start_predicts_last() {
        let mut f = OnlineArima::new(ArimaSpec::new(2, 1, 1), 1000);
        assert_eq!(f.predict_next(), 0.0);
        f.observe(42.0);
        assert_eq!(f.predict_next(), 42.0);
        f.observe(50.0);
        assert_eq!(f.predict_next(), 50.0);
    }

    #[test]
    fn refits_happen_on_schedule() {
        let mut f = OnlineArima::new(ArimaSpec::new(1, 0, 0), 100);
        let mut rng = DetRng::seed_from(31);
        for _ in 0..500 {
            f.observe(10.0 + rng.standard_normal());
        }
        // First fit as soon as min_series_len is reached, then every 100.
        assert!(f.refits() >= 4, "refits={}", f.refits());
        assert!(f.model().is_some());
        assert_eq!(f.observed(), 500);
    }

    #[test]
    fn tracks_ar1_process_better_than_naive() {
        let mut rng = DetRng::seed_from(32);
        let mut xs = vec![0.0];
        for _ in 0..6_000 {
            let next = 0.8 * xs.last().unwrap() + rng.standard_normal();
            xs.push(next);
        }
        let mut f = OnlineArima::new(ArimaSpec::new(1, 0, 0), 500);
        let mut model_err = 0.0;
        let mut naive_err = 0.0;
        let mut n = 0u32;
        for (t, &x) in xs.iter().enumerate() {
            if t > 1_000 {
                let pred = f.predict_next();
                model_err += (x - pred) * (x - pred);
                naive_err += (x - xs[t - 1]) * (x - xs[t - 1]);
                n += 1;
            }
            f.observe(x);
        }
        assert!(n > 0);
        // Optimal/naive msqerr ratio for AR(1) φ = 0.8 is 1/(2(1−φ)) ≈ 0.9.
        assert!(
            model_err < 0.95 * naive_err,
            "model={model_err}, naive={naive_err}"
        );
    }

    #[test]
    fn adapts_after_level_shift() {
        // Constant 100, then constant 200: after refit the forecasts follow.
        let mut f = OnlineArima::new(ArimaSpec::new(0, 1, 1), 200);
        let mut rng = DetRng::seed_from(33);
        for _ in 0..600 {
            f.observe(100.0 + 0.1 * rng.standard_normal());
        }
        for _ in 0..600 {
            f.observe(200.0 + 0.1 * rng.standard_normal());
        }
        let pred = f.predict_next();
        assert!((pred - 200.0).abs() < 5.0, "pred={pred}");
    }

    #[test]
    fn window_is_bounded() {
        let mut f = OnlineArima::new(ArimaSpec::new(1, 0, 0), 50);
        let max_window = f.max_window as usize;
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64 % 17.0).collect();
        for (i, &x) in xs.iter().enumerate() {
            f.observe(x);
            // Well past 8 × refit_every, the buffer never holds more than
            // one slide's worth beyond the fit window, and the window a
            // snapshot carries is exactly the most recent `max_window`.
            assert!(f.window.len() <= max_window + 50);
            if i % 37 == 0 || i + 1 == xs.len() {
                let seen = &xs[..=i];
                let recent = &seen[seen.len().saturating_sub(max_window)..];
                assert_eq!(f.snapshot().window, recent, "after {} observations", i + 1);
            }
        }
        assert_eq!(f.observed(), 10_000);
    }

    /// `scale_wide` holds one forecaster per source: the slide must not cost
    /// a field.
    #[test]
    fn forecaster_size_is_pinned() {
        assert_eq!(std::mem::size_of::<OnlineArima>(), 168);
    }

    /// 20 000 observations at `refit_every` 100 cross the 8 × boundary at
    /// 800 and slide every 100 from there. Forecast bits and refit count were
    /// recorded from the implementation that shifted the window on every
    /// observation.
    #[test]
    fn sliding_matches_the_per_observation_shift() {
        let mut rng = DetRng::seed_from(61);
        let mut f = OnlineArima::new(ArimaSpec::new(2, 1, 1), 100);
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..20_000u32 {
            let spike = if i % 97 == 0 { 140.0 } else { 0.0 };
            f.observe(200.0 + 5.0 * rng.standard_normal() + spike);
            fold = (fold ^ f.predict_next().to_bits()).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(fold, 0xa576_58df_e9c3_5cca);
        assert_eq!((f.refits(), f.failed_fits()), (200, 0));
    }

    #[test]
    fn predictions_stay_finite_on_constant_series() {
        // A constant series makes most estimators degenerate; the forecaster
        // must keep producing finite, sensible predictions regardless.
        let mut f = OnlineArima::new(ArimaSpec::new(2, 1, 1), 100);
        for _ in 0..1_000 {
            f.observe(250.0);
        }
        let p = f.predict_next();
        assert!(p.is_finite());
        assert!((p - 250.0).abs() < 1.0, "pred={p}");
    }

    #[test]
    #[should_panic(expected = "refit_every must be positive")]
    fn zero_refit_rejected() {
        let _ = OnlineArima::new(ArimaSpec::new(1, 0, 0), 0);
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        // Snapshot before the window fills (900 of 2 400), and past the
        // 8 × refit_every boundary with the buffer between two slides.
        for taken_at in [900, 2_550] {
            let mut rng = DetRng::seed_from(47);
            let mut f = OnlineArima::new(ArimaSpec::new(2, 1, 1), 300);
            for _ in 0..taken_at {
                f.observe(120.0 + 15.0 * rng.standard_normal());
            }
            assert!(f.model().is_some(), "fit should have happened");
            let snapshot = f.snapshot();
            assert_eq!(snapshot.window.len(), taken_at.min(2_400));
            let mut restored = OnlineArima::from_snapshot(snapshot).unwrap();
            // Identical inputs after restore must give bit-identical
            // forecasts, through the next scheduled refits and (from 2 550)
            // the original's slide at 2 700 and the restored twin's later one.
            for _ in 0..700 {
                let x = 120.0 + 15.0 * rng.standard_normal();
                f.observe(x);
                restored.observe(x);
                assert_eq!(
                    f.predict_next().to_bits(),
                    restored.predict_next().to_bits()
                );
            }
            assert_eq!(f.snapshot(), restored.snapshot());
            assert_eq!(f.refits(), restored.refits());
            assert_eq!(f.observed(), restored.observed());
        }
    }

    #[test]
    fn snapshot_rejects_inconsistent_state() {
        let f = OnlineArima::new(ArimaSpec::new(1, 0, 0), 100);
        let mut s = f.snapshot();
        s.refit_every = 0;
        assert!(OnlineArima::from_snapshot(s).is_none());
        let mut s = f.snapshot();
        s.model = Some((0.0, vec![0.5, 0.1], Vec::new(), 1.0)); // phi order mismatch
        assert!(OnlineArima::from_snapshot(s).is_none());
        let mut s = f.snapshot();
        s.recent_z = vec![0.0; 50]; // longer than p.max(1)
        assert!(OnlineArima::from_snapshot(s).is_none());
    }
}
