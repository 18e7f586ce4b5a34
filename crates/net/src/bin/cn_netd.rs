//! `cn-netd` — serve a model-zoo MLP over TCP through the cn-net shard
//! router.
//!
//! Binds, prints `cn-netd listening on ADDR` (so harnesses can scrape the
//! ephemeral port when `--addr` ends in `:0`), then blocks until a
//! `{"cmd":"drain"}` control frame gracefully drains the fleet, and
//! exits 0.

use cn_analog::engine::{AnalogBackend, DigitalBackend};
use cn_analog::DeploymentMode;
use cn_net::{Frontend, FrontendConfig, RouterConfig, ShardRouter};
use cn_nn::zoo::mlp;
use cn_serve::ServeConfig;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
cn-netd — TCP frontend over a multi-shard CorrectNet serving fleet

USAGE:
    cn-netd [OPTIONS]

OPTIONS:
    --addr ADDR        listen address (default 127.0.0.1:7070; use port 0
                       for an ephemeral port, scraped from stdout)
    --layers L1,L2,..  MLP layer widths (default 16,32,10); the first is
                       the input width clients must send
    --shards N         independent serving shards (default 4)
    --workers N        worker threads per shard (default 2)
    --max-batch N      most rows a shard worker runs as one batch
                       (default 8); a free worker runs what is queued at
                       once and never waits for a batch to fill
    --queue N          per-shard admission queue capacity (default 64)
    --handlers N       connection-handler pool size (default 4)
    --sigma S          deployment weight-variation sigma (default 0 =
                       exact digital backend)
    --seed N           deployment seed (default 7)
    -h, --help         print this help

The process exits 0 after a graceful drain (send {\"cmd\":\"drain\"} via
cn-loadgen control, or ctrl-c to abort hard).";

struct Options {
    addr: String,
    layers: Vec<usize>,
    shards: usize,
    workers: usize,
    max_batch: usize,
    queue: usize,
    handlers: usize,
    sigma: f32,
    seed: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            addr: "127.0.0.1:7070".into(),
            layers: vec![16, 32, 10],
            shards: 4,
            workers: 2,
            max_batch: 8,
            queue: 64,
            handlers: 4,
            sigma: 0.0,
            seed: 7,
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Err(String::new());
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not a valid {what}");
        let count = || match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(bad("positive count")),
        };
        match flag.as_str() {
            "--addr" => opts.addr = value.clone(),
            "--layers" => {
                opts.layers = value
                    .split(',')
                    .map(|w| w.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("comma-separated width list"))?;
                if opts.layers.len() < 2 || opts.layers.contains(&0) {
                    return Err(format!("{flag}: need ≥ 2 positive widths"));
                }
            }
            "--shards" => opts.shards = count()?,
            "--workers" => opts.workers = count()?,
            "--max-batch" => opts.max_batch = count()?,
            "--queue" => opts.queue = count()?,
            "--handlers" => opts.handlers = count()?,
            "--sigma" => opts.sigma = value.parse().map_err(|_| bad("number"))?,
            "--seed" => opts.seed = value.parse().map_err(|_| bad("number"))?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(opts) => opts,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("cn-netd: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let model = mlp(&opts.layers, opts.seed);
    let serve = ServeConfig::new(opts.max_batch)
        .queue_capacity(opts.queue)
        .workers(opts.workers);
    let config = RouterConfig::new(serve);
    let sample_dims = [opts.layers[0]];
    let router = if opts.sigma > 0.0 {
        let backend = AnalogBackend::new(DeploymentMode::WeightLognormal { sigma: opts.sigma });
        ShardRouter::new(
            &model,
            backend,
            opts.shards,
            opts.seed,
            &sample_dims,
            &config,
        )
    } else {
        ShardRouter::new(
            &model,
            DigitalBackend,
            opts.shards,
            opts.seed,
            &sample_dims,
            &config,
        )
    };

    let frontend = match Frontend::bind(
        opts.addr.as_str(),
        Arc::new(router),
        FrontendConfig::default().handlers(opts.handlers),
    ) {
        Ok(frontend) => frontend,
        Err(e) => {
            eprintln!("cn-netd: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("cn-netd listening on {}", frontend.local_addr());
    println!(
        "cn-netd serving mlp{:?} on {} shard(s), input [{}], sigma {}",
        opts.layers,
        frontend.router().shards(),
        opts.layers[0],
        opts.sigma
    );

    // Blocks until a control-plane drain flushes the fleet.
    let router = frontend.join();
    match Arc::try_unwrap(router) {
        Ok(router) => router.shutdown(),
        Err(_) => unreachable!("all frontend threads exited"),
    }
    println!("cn-netd drained; bye");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_options(&args)
    }

    #[test]
    fn counts_parse() {
        let opts = parse("--shards 3 --workers 1 --max-batch 16 --queue 32 --handlers 2").unwrap();
        assert_eq!(
            (
                opts.shards,
                opts.workers,
                opts.max_batch,
                opts.queue,
                opts.handlers
            ),
            (3, 1, 16, 32, 2)
        );
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for flag in [
            "--shards",
            "--workers",
            "--max-batch",
            "--queue",
            "--handlers",
        ] {
            let err = parse(&format!("{flag} 0")).err().expect(flag);
            assert!(
                err.contains(flag) && err.contains("positive count"),
                "{err}"
            );
        }
    }

    #[test]
    fn max_wait_is_an_unknown_flag() {
        let err = parse("--max-wait-us 1000").err().expect("rejected");
        assert_eq!(err, "unknown flag `--max-wait-us`");
    }
}
