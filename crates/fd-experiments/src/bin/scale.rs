//! Scaling baseline for the many-source monitor: runs the sharded
//! engine across source counts and the 1000-source cycle benchmark, and
//! writes `BENCH_scale.json`.
//!
//! ```text
//! scale [--smoke] [--sources 1k,10k,100k,1M] [--cycles N]
//!       [--shards N | --threads N] [--seed N] [--out PATH] [--no-isolate]
//! ```
//!
//! `--sources` accepts `1k` / `10k` / `100k` / `1M` style counts
//! (comma-separated). `--smoke` is the CI configuration: a small
//! population, a shard-invariance assertion (the streaming digest over
//! 1, 2 and 3 shards must be identical), and no file written.
//!
//! Each row runs in a **child process** by default: peak RSS comes from
//! `VmHWM`, a process-lifetime high-water mark, so rows sharing a
//! process would all inherit the biggest row's peak. `--no-isolate`
//! (and the hidden `--one-row` child mode) run in-process.

use fd_experiments::scale::{
    cycle_benchmark, render_json_from_rows, render_row_json, run_scale_row, sweep_benchmark,
    PR1_CYCLE_BASELINE_MS,
};

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses `1000`, `1k`, `10K`, `1m`, `1M` style source counts.
fn parse_count(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k' | 'K') => (&t[..t.len() - 1], 1_000),
        Some('m' | 'M') => (&t[..t.len() - 1], 1_000_000),
        _ => (t, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// Runs one row in this process and prints its JSON line (child mode) or
/// returns it (in-process fallback). The human-readable line goes to
/// stderr so parents can pipe stdout as pure data.
fn one_row(sources: usize, cycles: u64, shards: usize, seed: u64) -> String {
    let row = run_scale_row(sources, cycles, shards, seed);
    eprintln!(
        "  {:>9} sources: {:>10.1} ms wall, {:>8.1} cycles/s, {:>7.3} µs/source/cycle, \
         {} hb, {} events, {} episodes, rss {} KiB ({:.0} B/source), {} threads",
        row.sources,
        row.wall_ms,
        row.cycles_per_sec,
        row.us_per_source_cycle,
        row.heartbeats,
        row.events,
        row.mistakes,
        row.peak_rss_kb.unwrap_or(0),
        row.rss_per_source_bytes.unwrap_or(0.0),
        row.threads,
    );
    render_row_json(&row)
}

/// Runs one row in a fresh child process so its `VmHWM` is honest.
/// Falls back to in-process measurement if the child cannot be spawned
/// (then the row's RSS inherits this process's prior peak).
fn isolated_row(sources: usize, cycles: u64, shards: usize, seed: u64) -> String {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("  (no current_exe ({e}); measuring row in-process)");
            return one_row(sources, cycles, shards, seed);
        }
    };
    let out = std::process::Command::new(exe)
        .args([
            "--one-row".to_string(),
            "--sources".to_string(),
            sources.to_string(),
            "--cycles".to_string(),
            cycles.to_string(),
            "--shards".to_string(),
            shards.to_string(),
            "--seed".to_string(),
            seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output();
    match out {
        Ok(o) if o.status.success() => {
            let line = String::from_utf8_lossy(&o.stdout).trim().to_string();
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "child row produced no JSON: {line:?}"
            );
            line
        }
        Ok(o) => panic!("child row failed with {}", o.status),
        Err(e) => {
            eprintln!("  (cannot spawn child ({e}); measuring row in-process)");
            one_row(sources, cycles, shards, seed)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42u64);
    let cycles = arg_value(&args, "--cycles")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10u64);
    let shards = arg_value(&args, "--threads")
        .or_else(|| arg_value(&args, "--shards"))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });

    if args.iter().any(|a| a == "--one-row") {
        let sources = arg_value(&args, "--sources")
            .and_then(parse_count)
            .expect("--one-row needs --sources");
        println!("{}", one_row(sources, cycles, shards, seed));
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        run_smoke(seed, shards);
        return;
    }

    let counts: Vec<usize> = match arg_value(&args, "--sources") {
        Some(list) => list
            .split(',')
            .map(|s| parse_count(s).unwrap_or_else(|| panic!("bad source count: {s}")))
            .collect(),
        None => vec![1_000, 10_000, 100_000],
    };
    let out = arg_value(&args, "--out").unwrap_or("BENCH_scale.json");
    let isolate = !args.iter().any(|a| a == "--no-isolate");

    println!("scale: sources={counts:?} cycles={cycles} threads={shards} seed={seed}");
    let row_jsons: Vec<String> = counts
        .iter()
        .map(|&n| {
            if isolate {
                isolated_row(n, cycles, shards, seed)
            } else {
                one_row(n, cycles, shards, seed)
            }
        })
        .collect();

    println!("cycle benchmark (1000 sources × 30 combos, PR 1 methodology):");
    let bench = cycle_benchmark(1_000, 64, 50);
    println!(
        "  DetectorBank loop: {:.3} ms/cycle   SourceBank batch: {:.3} ms/cycle   \
         speedup {:.2}×   (PR 1 baseline {PR1_CYCLE_BASELINE_MS:.1} ms)",
        bench.detector_bank_ms, bench.source_bank_ms, bench.speedup,
    );

    println!("deadline sweep (100k sources × 30 combos, steady-state no-fire scan):");
    let sweep = sweep_benchmark(100_000, 50);
    println!("  lane-swept: {:.4} ms/scan", sweep.lane_ms);

    let doc = render_json_from_rows(&row_jsons, &bench, &sweep, shards, seed);
    std::fs::write(out, &doc).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}

/// CI gate: small population, streaming-digest shard invariance asserted
/// across 1, 2 and 3 shards, nothing written.
fn run_smoke(seed: u64, threads: usize) {
    println!("scale --smoke: 192 sources × 4 cycles, digest invariance over 1/2/3 shards");
    let a = run_scale_row(192, 4, 1, seed);
    for shards in [2usize, 3] {
        let b = run_scale_row(192, 4, shards, seed);
        assert_eq!(
            a.digest, b.digest,
            "shard-count invariance violated at {shards} shards: {:016x} vs {:016x}",
            a.digest, b.digest
        );
        assert_eq!(a.heartbeats, b.heartbeats);
        assert_eq!(
            a.mistakes, b.mistakes,
            "QoS roll-up diverged at {shards} shards"
        );
    }
    assert!(a.heartbeats > 0);
    // And one row at the requested thread count (CI passes --threads 2).
    let t = run_scale_row(192, 4, threads.max(1), seed);
    assert_eq!(a.digest, t.digest);
    let bench = cycle_benchmark(64, 8, 4);
    assert!(bench.source_bank_ms > 0.0 && bench.detector_bank_ms > 0.0);
    println!(
        "  ok: digest {:016x}, {} heartbeats, {} events, {} episodes; \
         cycle bench {:.3} ms (bank loop) vs {:.3} ms (batch)",
        a.digest, a.heartbeats, a.events, a.mistakes, bench.detector_bank_ms, bench.source_bank_ms,
    );
}
