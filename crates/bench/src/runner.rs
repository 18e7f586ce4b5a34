//! The experiment runner: resolves registry names, shares one trained-
//! model cache across a sweep, stamps wall-clock times, prints the
//! human-readable tables and writes the JSON report files.

use crate::cache::{cache_dir, ModelCache};
use crate::experiments::{self, Ctx};
use crate::profile::Scale;
use crate::report::ExperimentReport;
use std::path::PathBuf;
use std::time::Instant;

/// Default master seed of experiment runs (kept from the legacy binaries
/// so cached models carry over between CLI and shims).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Options of one `cn-experiments run` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Scale profile (CLI `--scale`, else `CN_SCALE`, else quick).
    pub scale: Scale,
    /// Directory for JSON reports; `None` skips writing them.
    pub out_dir: Option<PathBuf>,
    /// Trained-model cache directory.
    pub cache_dir: PathBuf,
    /// Master seed.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            scale: Scale::from_env(),
            out_dir: Some(PathBuf::from("results")),
            cache_dir: cache_dir(),
            seed: DEFAULT_SEED,
        }
    }
}

/// Outcome of one experiment within a sweep.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The experiment's structured report (wall clock stamped).
    pub report: ExperimentReport,
    /// Where the JSON report was written, when requested.
    pub json_path: Option<PathBuf>,
}

/// Runs one registered experiment against an existing cache.
///
/// # Errors
///
/// Returns a message for unknown names or unwritable output directories.
pub fn run_one(name: &str, opts: &RunOptions, cache: &ModelCache) -> Result<RunSummary, String> {
    let experiment = experiments::find(name)
        .ok_or_else(|| format!("unknown experiment `{name}` (try `cn-experiments list`)"))?;
    let ctx = Ctx::new(opts.scale, opts.seed, cache);
    eprintln!(
        "[run] {name} (scale {}, seed {:#x})",
        opts.scale.name(),
        opts.seed
    );
    let started = Instant::now();
    let mut report = experiment.run(&ctx);
    report.wall_clock_secs = started.elapsed().as_secs_f64();
    print!("{}", report.render_text());
    println!("wall clock: {:.1}s", report.wall_clock_secs);

    let json_path = match &opts.out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
            let path = dir.join(format!("{name}_{}.json", opts.scale.name()));
            std::fs::write(&path, report.to_json().render_pretty())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
            Some(path)
        }
        None => None,
    };
    Ok(RunSummary { report, json_path })
}

/// Runs a sweep of experiments sharing one trained-model cache, so any
/// base model needed by several experiments is trained at most once.
///
/// # Errors
///
/// Fails fast on the first unknown name or I/O failure.
pub fn run_many(names: &[String], opts: &RunOptions) -> Result<Vec<RunSummary>, String> {
    let cache = ModelCache::new(&opts.cache_dir);
    let mut summaries = Vec::new();
    for name in names {
        summaries.push(run_one(name, opts, &cache)?);
    }
    let stats = cache.stats();
    eprintln!(
        "[cache] {} hit(s), {} miss(es), {} model(s) trained this run",
        stats.hits, stats.misses, stats.trained
    );
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_rejected() {
        let opts = RunOptions {
            out_dir: None,
            ..RunOptions::default()
        };
        let cache = ModelCache::new(std::env::temp_dir().join("cn_runner_test_cache"));
        let err = run_one("not_an_experiment", &opts, &cache).unwrap_err();
        assert!(err.contains("unknown experiment"));
    }
}
