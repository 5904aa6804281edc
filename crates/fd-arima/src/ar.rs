//! Autocovariance and autoregressive fitting.
//!
//! The Hannan–Rissanen ARMA estimator first fits a long pure-AR model to
//! recover innovation estimates; Yule–Walker via Levinson–Durbin does that in
//! `O(n·m + m²)` — `m + 1` autocovariance passes over the series, recomputed
//! from scratch at every refit. For the ARIMA fit that is the cheap part: see
//! the cost note in [`crate::model`].

/// Sample autocovariance at lags `0..=max_lag` (biased estimator, divides by
/// `n`, which keeps the autocovariance sequence positive semi-definite).
///
/// # Panics
///
/// Panics if the series is empty.
pub fn autocovariance(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    assert!(n > 0, "autocovariance of empty series");
    let mean = series.iter().sum::<f64>() / n as f64;
    (0..=max_lag.min(n - 1))
        .map(|lag| {
            series
                .iter()
                .zip(&series[lag..])
                .map(|(a, b)| (a - mean) * (b - mean))
                .sum::<f64>()
                / n as f64
        })
        .collect()
}

/// Levinson–Durbin recursion: solves the Yule–Walker equations for an AR(m)
/// model given the autocovariances `γ_0..γ_m`.
///
/// Returns `(phi, sigma2)`: the AR coefficients and the innovation variance.
/// Returns `None` if the recursion breaks down (degenerate series).
///
/// # Panics
///
/// Panics if fewer than `order + 1` autocovariances are supplied.
pub fn levinson_durbin(autocov: &[f64], order: usize) -> Option<(Vec<f64>, f64)> {
    assert!(
        autocov.len() > order,
        "need {} autocovariances, got {}",
        order + 1,
        autocov.len()
    );
    let mut phi = vec![0.0; order];
    let mut prev = vec![0.0; order];
    let mut sigma2 = autocov[0];
    if sigma2 <= 0.0 {
        return None;
    }
    for k in 1..=order {
        let mut acc = autocov[k];
        for j in 1..k {
            acc -= phi[j - 1] * autocov[k - j];
        }
        let reflection = acc / sigma2;
        if !reflection.is_finite() {
            return None;
        }
        prev[..k - 1].copy_from_slice(&phi[..k - 1]);
        phi[k - 1] = reflection;
        for j in 1..k {
            phi[j - 1] = prev[j - 1] - reflection * prev[k - 1 - j];
        }
        sigma2 *= 1.0 - reflection * reflection;
        if sigma2 <= 0.0 {
            // Perfectly predictable series; coefficients so far are exact.
            sigma2 = 0.0;
            break;
        }
    }
    Some((phi, sigma2))
}

/// Fits an AR(`order`) model to `series` by Yule–Walker.
///
/// Returns `(intercept, phi, sigma2)` where the model is
/// `x_t = intercept + Σ φ_i x_{t−i} + ε_t`.
///
/// Returns `None` for degenerate series (constant, or shorter than the
/// order + 1).
pub fn fit_ar_yule_walker(series: &[f64], order: usize) -> Option<(f64, Vec<f64>, f64)> {
    if series.len() <= order || order == 0 {
        if order == 0 && !series.is_empty() {
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / series.len() as f64;
            return Some((mean, Vec::new(), var));
        }
        return None;
    }
    let autocov = autocovariance(series, order);
    if autocov[0] < 1e-12 {
        // (Nearly) constant series: the mean predicts perfectly.
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        return Some((mean, vec![0.0; order], 0.0));
    }
    let (phi, sigma2) = levinson_durbin(&autocov, order)?;
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    let intercept = mean * (1.0 - phi.iter().sum::<f64>());
    Some((intercept, phi, sigma2))
}

/// Computes the innovation (residual) sequence of an AR model over `series`:
/// `ε_t = x_t − c − Σ φ_i x_{t−i}` for `t ≥ order`. The first `order`
/// residuals are set to zero (standard Hannan–Rissanen initialisation).
pub fn ar_residuals(series: &[f64], intercept: f64, phi: &[f64]) -> Vec<f64> {
    let order = phi.len();
    let mut res = vec![0.0; series.len()];
    for t in order..series.len() {
        let mut pred = intercept;
        for (i, &p) in phi.iter().enumerate() {
            pred += p * series[t - 1 - i];
        }
        res[t] = series[t] - pred;
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_sim::DetRng;

    /// Simulates an AR(p) process with standard-normal innovations.
    fn simulate_ar(phi: &[f64], intercept: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = DetRng::seed_from(seed);
        let mut xs = vec![0.0; n + 200];
        for t in phi.len()..xs.len() {
            let mut x = intercept + rng.standard_normal();
            for (i, &p) in phi.iter().enumerate() {
                x += p * xs[t - 1 - i];
            }
            xs[t] = x;
        }
        xs.split_off(200) // discard burn-in
    }

    #[test]
    fn autocov_lag0_is_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let g = autocovariance(&xs, 2);
        let mean = 2.5;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
        assert!((g[0] - var).abs() < 1e-12);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn autocov_of_white_noise_decays() {
        let mut rng = DetRng::seed_from(3);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.standard_normal()).collect();
        let g = autocovariance(&xs, 3);
        assert!((g[0] - 1.0).abs() < 0.05);
        assert!(g[1].abs() < 0.03);
        assert!(g[2].abs() < 0.03);
    }

    #[test]
    fn levinson_recovers_ar1() {
        let xs = simulate_ar(&[0.7], 0.0, 50_000, 11);
        let (_, phi, sigma2) = fit_ar_yule_walker(&xs, 1).unwrap();
        assert!((phi[0] - 0.7).abs() < 0.02, "phi={phi:?}");
        assert!((sigma2 - 1.0).abs() < 0.05, "sigma2={sigma2}");
    }

    #[test]
    fn levinson_recovers_ar2() {
        let xs = simulate_ar(&[0.5, -0.3], 0.0, 50_000, 12);
        let (_, phi, _) = fit_ar_yule_walker(&xs, 2).unwrap();
        assert!((phi[0] - 0.5).abs() < 0.02, "phi={phi:?}");
        assert!((phi[1] + 0.3).abs() < 0.02, "phi={phi:?}");
    }

    #[test]
    fn intercept_recovers_process_mean() {
        // x_t = c + 0.5 x_{t-1} + ε, mean = c / (1 - 0.5) = 10.
        let xs = simulate_ar(&[0.5], 5.0, 50_000, 13);
        let (c, phi, _) = fit_ar_yule_walker(&xs, 1).unwrap();
        let implied_mean = c / (1.0 - phi[0]);
        assert!((implied_mean - 10.0).abs() < 0.3, "mean={implied_mean}");
    }

    #[test]
    fn order_zero_returns_mean_model() {
        let (c, phi, sigma2) = fit_ar_yule_walker(&[2.0, 4.0, 6.0], 0).unwrap();
        assert_eq!(c, 4.0);
        assert!(phi.is_empty());
        assert!(sigma2 > 0.0);
    }

    #[test]
    fn constant_series_is_handled() {
        let xs = vec![5.0; 100];
        let (c, phi, sigma2) = fit_ar_yule_walker(&xs, 3).unwrap();
        assert_eq!(c, 5.0);
        assert!(phi.iter().all(|&p| p == 0.0));
        assert_eq!(sigma2, 0.0);
    }

    #[test]
    fn too_short_series_returns_none() {
        assert!(fit_ar_yule_walker(&[1.0, 2.0], 5).is_none());
    }

    #[test]
    fn residuals_of_exact_ar_are_zero() {
        // x_t = 2 + 0.5 x_{t-1}, no noise.
        let mut xs = vec![4.0];
        for _ in 0..50 {
            let next = 2.0 + 0.5 * xs.last().unwrap();
            xs.push(next);
        }
        let res = ar_residuals(&xs, 2.0, &[0.5]);
        assert!(res.iter().skip(1).all(|r| r.abs() < 1e-9));
    }

    #[test]
    fn residual_variance_matches_innovations() {
        let xs = simulate_ar(&[0.6], 0.0, 30_000, 14);
        let (c, phi, _) = fit_ar_yule_walker(&xs, 1).unwrap();
        let res = ar_residuals(&xs, c, &phi);
        let var = res[1..].iter().map(|r| r * r).sum::<f64>() / (res.len() - 1) as f64;
        assert!((var - 1.0).abs() < 0.05, "residual var = {var}");
    }
}
