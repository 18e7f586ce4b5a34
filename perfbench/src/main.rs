//! `perfbench` — the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --netd PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `mc_lenet`, `train_lenet`, `serve_light`, `serve_heavy`
//! (or `all`, which runs each in its own process). Every input is made
//! from `--seed`; the programs under test only receive generated inputs.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it replays the workload with spans around the calls into
//! each layer and reports the per-layer metrics. The last stdout line is
//! the result object; the line before it records the host fingerprint,
//! the settings and the workload's details. See `perfbench/README.md`.

mod client;
mod host;
mod mc;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["mc_lenet", "train_lenet", "serve_light", "serve_heavy"];

/// End-to-end metrics: every untraced run reports each of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer metrics: every traced run reports each of them. A layer the
/// workload does no work in reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    // cn-analog engine, mc_lenet.
    ("analog.mask_draw_ms", "ms"),
    ("analog.compile_ms", "ms"),
    ("analog.evaluate_ms", "ms"),
    ("analog.deployments", "count"),
    // cn-nn inference at batch 32, mc_lenet.
    ("nn.infer.conv1_us", "us"),
    ("nn.infer.conv2_us", "us"),
    ("nn.infer.pool_us", "us"),
    ("nn.infer.fc_us", "us"),
    ("nn.infer.conv1_gmacs", "GMAC/s"),
    ("nn.infer.conv2_gmacs", "GMAC/s"),
    // cn-tensor kernels, mc_lenet.
    ("tensor.gemm.square256_gmacs", "GMAC/s"),
    ("tensor.im2col_us", "us"),
    // cn-nn training and correctnet, train_lenet.
    ("nn.train.forward_ms", "ms"),
    ("nn.train.backward_ms", "ms"),
    ("nn.train.conv1_fwd_us", "us"),
    ("nn.train.conv1_bwd_us", "us"),
    ("nn.train.conv2_fwd_us", "us"),
    ("nn.train.conv2_bwd_us", "us"),
    ("core.lipschitz_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("nn.noise.resample_ms", "ms"),
    ("nn.train.batches", "count"),
    // cn-serve, serve_light and serve_heavy.
    ("serve.queue_to_reply_p50_us", "us"),
    ("serve.queue_to_reply_p99_us", "us"),
    ("serve.rows_per_batch", "rows"),
    ("serve.batch_fill", "ratio"),
    ("serve.worker_panics", "count"),
    // cn-net, serve_light and serve_heavy.
    ("net.overhead_p50_us", "us"),
    ("net.codec.encode_request_us", "us"),
    ("net.codec.decode_request_us", "us"),
    ("net.codec.encode_reply_us", "us"),
    ("net.routed", "count"),
    ("net.shed", "count"),
    // cn-analog session on the served model.
    ("analog.infer_b1_us", "us"),
    ("analog.infer_b8_us", "us"),
    // The benchmark's own client.
    ("client.lateness_ms_p99", "ms"),
    ("client.requests", "count"),
    ("client.max_rps", "1/s"),
    // The tracing itself.
    ("trace.overhead_pct", "%"),
    ("trace.self_coverage_pct", "%"),
    ("trace.spans", "count"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Path of the `cn-netd` binary the serve workloads start.
    pub netd: PathBuf,
}

impl Args {
    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut netd = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not a valid {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("duration"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("duration (0 < s ≤ 600)"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag (0 or 1)")),
                })
            }
            "--netd" => netd = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?} or all)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        netd: netd.ok_or("--netd is required")?,
    })
}

/// A run's outcome: operations attempted and failed, the metrics, and
/// the details printed alongside them.
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(String, String)>,
}

impl Report {
    fn new(trace: bool) -> Report {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a failed operation; the first few reasons are printed.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Counts a failed operation unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Sets metric `name`, which must belong to this run's table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        assert!(
            table.iter().any(|(n, _)| *n == name),
            "metric {name} is not in this run's table"
        );
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.insert(name, value);
    }

    /// Records a detail for the line printed before the result.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    fn print(&mut self, args: &Args, host: &host::Fingerprint) {
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in table {
            let missing = !self.metrics.contains_key(name);
            if missing && !self.trace {
                // An end-to-end metric must be measured on every workload.
                self.fail(format!("end-to-end metric {name} was not measured"));
            }
        }
        let mut info = vec![
            format!("\"workload\":{}", json_str(&args.workload)),
            format!("\"seed\":{}", args.seed),
            format!("\"seconds\":{}", args.seconds),
            format!("\"trace\":{}", args.trace),
            format!("\"nproc\":{}", host.nproc),
            format!("\"cpu_model\":{}", json_str(&host.cpu_model)),
            format!("\"kernel\":{}", json_str(&host.kernel)),
            format!("\"cn_threads\":{}", json_str(&host.cn_threads)),
        ];
        info.extend(
            self.info
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))),
        );
        info.push(format!(
            "\"failures\":[{}]",
            self.failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(",")
        ));
        println!("{{\"perfbench\":{{{}}}}}", info.join(","));
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A seed for purpose `stream`, derived from the run seed through the
/// workspace's stream splitter.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = cn_tensor::SeededRng::new(seed).fork(stream);
    let hi = rng.index(1 << 31) as u64;
    let lo = rng.index(1 << 31) as u64;
    (hi << 31) | lo
}

/// Runs `setup` `times` times and returns the last result with the
/// median wall time in seconds. Repeating the set-up keeps `setup_s`
/// steady enough to guard.
pub fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        last = Some(setup());
        walls.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&walls))
}

/// Writes the traced run's spans to `.bench_out/` and reports the
/// tracing bookkeeping metrics of the span tree under `root`.
pub fn finish_trace(
    tracer: &trace::Tracer,
    root: usize,
    args: &Args,
    report: &mut Report,
    overhead_pct: f64,
) {
    let spans = tracer.spans();
    let coverage = trace::self_time_coverage(spans, root) * 100.0;
    report.check((coverage - 100.0).abs() < 1e-6, || {
        format!("self times under the root add up to {coverage}% of its wall time")
    });
    report.set("trace.self_coverage_pct", coverage);
    report.set("trace.spans", spans.len() as f64);
    report.set("trace.overhead_pct", overhead_pct);
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => report.info("spans_file", path.display()),
        Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
    }
}

fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--netd")
            .arg(&args.netd)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let host = host::Fingerprint::detect();
    let mut report = Report::new(args.trace);
    let outcome = match args.workload.as_str() {
        "mc_lenet" => {
            mc::run(&args, &mut report);
            Ok(())
        }
        "train_lenet" => {
            train::run(&args, &mut report);
            Ok(())
        }
        "serve_light" => serve::run(&args, serve::Load::Light, &mut report),
        "serve_heavy" => serve::run(&args, serve::Load::Heavy, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        // A run that could not measure prints no result.
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    report.print(&args, &host);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_meet_the_naming_rules() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(5, 1), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 1), derive_seed(5, 2));
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }

    #[test]
    fn failed_checks_are_failed_operations() {
        let mut r = Report::new(false);
        r.attempt(3);
        r.check(true, || unreachable!());
        r.check(false, || "accuracy 0.5 != 0.25".to_string());
        r.set("p50_ms", f64::NAN);
        assert_eq!((r.attempted, r.failed), (3, 2));
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload mc_lenet --seed 3 --seconds 2 --trace 1 --netd x",
        ))
        .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse_args(&argv("--workload nope --netd x")).is_err());
        assert!(parse_args(&argv("--workload mc_lenet --trace 2 --netd x")).is_err());
        assert!(parse_args(&argv("--workload mc_lenet")).is_err());
    }
}
