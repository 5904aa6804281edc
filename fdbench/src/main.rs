//! `fdbench` command line. See `README.md` beside the crate.
//!
//! ```text
//! fdbench all   [--seed N] [--seconds S] [--smoke]   every workload, own child process each
//! fdbench trace <workload|all> [--seed N] [--smoke]  the traced run: 56 per-layer metrics
//! fdbench aa    [--seed N] [--seconds S] [--smoke]   the whole set twice, must agree within bounds
//! fdbench run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!                                                    one workload in this process (what the
//!                                                    driver and the commands above execute)
//! fdbench manifest                                   print BENCHMARK.json
//! ```

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use fdbench::harness::{self, ParsedRow, RunOptions};
use fdbench::spec::{self, Metric, Sizes, Workload, LAYER_METRICS, RUN_SECONDS};
use fdbench::stats::Quartiles;
use fdbench::trace;
use fdbench::workload::Check;

/// Parsed command-line flags, shared by every subcommand.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            workload: None,
            seed: spec::REFERENCE_SEED,
            seconds: None,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--workload" => flags.workload = Some(value("--workload")?),
                "--seed" => {
                    flags.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let s: f64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    flags.seconds = Some(s);
                }
                "--trace" => {
                    flags.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--smoke" => flags.smoke = true,
                other if !other.starts_with("--") && flags.workload.is_none() => {
                    flags.workload = Some(other.to_string())
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(flags)
    }

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.5 } else { RUN_SECONDS as f64 })
    }

    /// The workloads a `<workload|all>` argument names.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.workload.as_deref() {
            None | Some("all") => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::from_name(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {name}")),
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_header(what: &str, flags: &Flags) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("fdbench {what}");
    println!(
        "  git {}   nproc {nproc}   {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
    );
    println!(
        "  seed {}   sizes 1/{}   {} s of timed repeats per workload (at least {}), {} set-ups",
        flags.seed,
        flags.sizes().divisor,
        flags.seconds(),
        harness::MIN_REPEATS,
        harness::SETUPS
    );
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_checks(checks: &[Check]) {
    for c in checks {
        println!(
            "  check {} {}",
            if c.ok { "ok    " } else { "FAILED" },
            c.what
        );
    }
}

/// `fdbench run`: one workload in this process; the last line of output
/// is the driver's JSON object.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let name = flags.workload.as_deref().ok_or("run needs --workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    if flags.trace {
        let report = trace::run(workload, flags.seed, flags.sizes())?;
        println!("  {}", report.description);
        for (m, value) in LAYER_METRICS.iter().zip(&report.values) {
            println!(
                "  {:<17}{:<46}{:<6} {:<16.4} [{}]",
                workload.name(),
                m.name,
                m.unit,
                value,
                m.moves
            );
        }
        print_checks(&report.checks);
        println!("  spans written to {}", report.span_file.display());
        let failed = report.checks.iter().filter(|c| !c.ok).count() as u64;
        let metrics: Vec<(&str, f64, &str)> = LAYER_METRICS
            .iter()
            .zip(&report.values)
            .map(|(m, &v)| (m.name, v, m.unit))
            .collect();
        println!(
            "{}",
            harness::result_json(failed == 0, report.attempted.max(1), failed, &metrics)
        );
        return Ok(exit_code(failed == 0));
    }

    let report = harness::run(RunOptions {
        workload,
        seed: flags.seed,
        seconds: flags.seconds(),
        sizes: flags.sizes(),
    });
    println!("  {}: {}", workload.name(), report.description);
    println!(
        "  {} timed repeats, fingerprint {:#018x}, ops {} failed {}",
        report.repeats, report.fingerprint, report.attempted, report.failed
    );
    for row in &report.rows {
        println!("{}", harness::format_row(workload, row));
        if let Some(tail) = &row.tail {
            println!(
                "  {:<40} p{} = {:.4} us is the highest percentile with 10 samples beyond it (n = {}){}",
                "",
                tail.percentile,
                tail.value_us,
                tail.samples,
                harness::p99_note(tail).map_or(String::new(), |note| format!("; {note}")),
            );
        }
    }
    print_checks(&report.checks);
    let metrics: Vec<(&str, f64, &str)> = report
        .rows
        .iter()
        .map(|r| (r.metric.name(), r.value, r.metric.unit()))
        .collect();
    println!(
        "{}",
        harness::result_json(report.correct(), report.attempted, report.failed, &metrics)
    );
    Ok(exit_code(report.correct()))
}

/// Runs one workload in a child process of its own (honest `VmHWM`),
/// echoes what it printed — except the driver's JSON line and, for
/// `all`/`aa`, the probe-filled rows — and returns its metric rows.
fn child(workload: Workload, flags: &Flags, trace: bool) -> Result<(bool, Vec<ParsedRow>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut rows = Vec::new();
    for line in stdout.lines() {
        if line.starts_with('{') {
            continue;
        }
        match harness::parse_row(line) {
            Some(row) if !row.defined => rows.push(row),
            Some(row) => {
                println!("{line}");
                rows.push(row);
            }
            None => println!("{line}"),
        }
    }
    Ok((out.status.success(), rows))
}

/// `fdbench all` (tracing off) and `fdbench trace` (the traced run): every
/// named workload in a child process of its own.
fn each_workload(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    print_header(
        if trace {
            "trace: per-layer metrics from the traced run"
        } else {
            "all: end-to-end metrics, tracing off"
        },
        &flags,
    );
    let mut ok = true;
    for workload in flags.workloads()? {
        println!();
        ok &= child(workload, &flags, trace)?.0;
    }
    println!(
        "\n{}",
        if ok {
            "all checks passed"
        } else {
            "FAILED: see the checks above"
        }
    );
    Ok(exit_code(ok))
}

/// `fdbench aa`: the whole end-to-end set twice on the same build, in
/// alternate order; every (metric, workload) pair must agree within the
/// metric's bound.
fn aa(args: &[String]) -> Result<ExitCode, String> {
    const ROUNDS: usize = 3;
    let flags = Flags::parse(args)?;
    print_header(
        "aa: two sets of runs of the same build must agree within the bounds",
        &flags,
    );
    let workloads = flags.workloads()?;
    // values[(workload, metric)][set] = one value per round
    let mut values: BTreeMap<(Workload, Metric), [Vec<f64>; 2]> = BTreeMap::new();
    let mut ok = true;
    for round in 0..ROUNDS {
        // A B, then B A, then A B: neither set always runs first.
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            println!(
                "\n--- round {} of {ROUNDS}, set {} ---",
                round + 1,
                ["A", "B"][set]
            );
            for &workload in &workloads {
                let (passed, rows) = child(workload, &flags, false)?;
                ok &= passed;
                for row in rows.into_iter().filter(|r| r.defined) {
                    values.entry((row.workload, row.metric)).or_default()[set].push(row.value);
                }
            }
        }
    }
    println!("\n  workload         metric            unit   A median (q1 .. q3)              B median (q1 .. q3)              B vs A   bound   spread");
    for ((workload, metric), [a, b]) in &values {
        let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
        // Same code on both sides: a difference either way counts, taken
        // like the driver takes it, as a share of the first set's median.
        let agree = (qb.median / qa.median - 1.0).abs() <= metric.bound();
        ok &= agree;
        println!(
            "  {:<17}{:<18}{:<6} {:<12.4} ({:.4} .. {:.4})   {:<12.4} ({:.4} .. {:.4})   {:>+6.1}%  {:>5.1}%  {:>5.1}%  {}",
            workload.name(),
            metric.name(),
            metric.unit(),
            qa.median,
            qa.q1,
            qa.q3,
            qb.median,
            qb.q1,
            qb.q3,
            100.0 * harness::worsening(*metric, qa.median, qb.median),
            100.0 * metric.bound(),
            100.0 * qa.spread().max(qb.spread()),
            if agree { "" } else { "DISAGREE" },
        );
    }
    println!(
        "\n{}",
        if ok {
            "the two sets agree within every bound"
        } else {
            "FAILED: a check failed or a pair differs by more than its bound"
        }
    );
    Ok(exit_code(ok))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("help", &args[..]),
    };
    let result = match command {
        "run" => run(rest),
        "all" => each_workload(rest, false),
        "trace" => each_workload(rest, true),
        "aa" => aa(rest),
        "manifest" => {
            print!("{}", spec::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: fdbench <all|trace|aa|run|manifest> [--seed N] [--seconds S] [--smoke] (see README.md)".to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("fdbench: {message}");
        ExitCode::from(2)
    })
}
