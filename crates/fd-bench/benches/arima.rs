//! ARIMA estimation costs: fit time by order, the forecast pass, and the
//! identification grid (the paper's Table 2 procedure). Fit time by window
//! length is `fdbench trace`'s `fd-arima.fit_{300,1000,3000}_ms`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fd_arima::{select_best_model, ArimaModel, ArimaSpec};
use fd_net::{DelayTrace, WanProfile};
use fd_sim::SimDuration;

fn delays(n: usize) -> Vec<f64> {
    DelayTrace::record(&WanProfile::italy_japan(), n, SimDuration::from_secs(1), 9).delays_ms()
}

fn bench_fit_by_order(c: &mut Criterion) {
    let data = delays(2_048);
    let mut group = c.benchmark_group("arima_fit_by_order");
    group.sample_size(10);
    for (p, d, q) in [(0, 1, 1), (1, 0, 0), (2, 1, 1), (3, 1, 2)] {
        let spec = ArimaSpec::new(p, d, q);
        group.bench_with_input(BenchmarkId::from_parameter(spec), &spec, |b, &spec| {
            b.iter(|| black_box(ArimaModel::fit(&data, spec).expect("fit")));
        });
    }
    group.finish();
}

fn bench_forecast(c: &mut Criterion) {
    let data = delays(2_048);
    let model = ArimaModel::fit(&data, ArimaSpec::new(2, 1, 1)).expect("fit");
    c.bench_function("arima_one_step_forecast_pass", |b| {
        b.iter(|| black_box(model.one_step_forecasts(&data).len()));
    });
}

fn bench_selection_grid(c: &mut Criterion) {
    // The Table 2 identification on a reduced grid (the full [0,10]³ search
    // is the same loop, 1331 candidates instead of 12).
    let data = delays(1_024);
    let mut group = c.benchmark_group("table2_identification");
    group.sample_size(10);
    group.bench_function("grid_3x1x2", |b| {
        b.iter(|| black_box(select_best_model(&data, 2, 1, 1)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fit_by_order,
    bench_forecast,
    bench_selection_grid
);
criterion_main!(benches);
