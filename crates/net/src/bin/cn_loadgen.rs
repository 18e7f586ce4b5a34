//! `cn-loadgen` — drive a cn-netd frontend with open- or closed-loop
//! load and print a client-observed latency report, or send one-shot
//! control commands (`stats`, `drain`, `swap`, raw JSON).

use cn_net::frame::{write_frame, Frame, FrameReader, Payload, PollFrame};
use cn_net::{loadgen, LoadgenConfig, Mode};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
cn-loadgen — load generator and control client for cn-netd

USAGE:
    cn-loadgen --addr ADDR [OPTIONS]            run a load test
    cn-loadgen control --addr ADDR COMMAND      one-shot control command

LOAD OPTIONS:
    --addr ADDR        frontend address (required)
    --connections N    concurrent TCP connections (default 4)
    --requests N       total requests across connections (default 256)
    --batch-rows N     rows per request batch (default 1)
    --dims D1,D2,..    sample row shape (default 16; must match the
                       server model's input width)
    --mode closed|open traffic discipline (default closed)
    --window N         closed loop: outstanding requests per connection
                       (default 4)
    --qps Q            open loop: aggregate target request rate
                       (default 1000)
    --seed N           payload seed (default 0)
    --idle-conns N     also hold N connections open that never send
                       (default 0)
    --slow-clients N   also hold N connections open that send one frame
                       header byte per 100 ms (default 0)
    -h, --help         print this help

CONTROL COMMANDS:
    stats              pretty-print the aggregated /stats document
    drain              begin the graceful drain (cn-netd exits when done)
    JSON               any raw JSON control object, sent verbatim

EXIT STATUS: 0 when every request completed (load) or the server said
ok (control); 1 otherwise. A connection that gets no reply for 10 s
gives up: its unanswered requests count as lost.";

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{addr}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{addr}` resolves to no address"))
}

fn parse_load(args: &[String]) -> Result<(SocketAddr, LoadgenConfig), String> {
    let mut addr = None;
    let mut config = LoadgenConfig::new(&[16]);
    let mut mode = "closed".to_string();
    let mut window = 4usize;
    let mut qps = 1000.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "-h" || flag == "--help" {
            return Err(String::new());
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not a valid {what}");
        match flag.as_str() {
            "--addr" => addr = Some(resolve(value)?),
            "--connections" => config.connections = value.parse().map_err(|_| bad("count"))?,
            "--requests" => config.requests = value.parse().map_err(|_| bad("count"))?,
            "--batch-rows" => config.batch_rows = value.parse().map_err(|_| bad("count"))?,
            "--dims" => {
                config.sample_dims = value
                    .split(',')
                    .map(|d| d.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("comma-separated dim list"))?;
                if config.sample_dims.is_empty() || config.sample_dims.contains(&0) {
                    return Err(format!("{flag}: need positive dims"));
                }
            }
            "--mode" => mode = value.clone(),
            "--window" => window = value.parse().map_err(|_| bad("count"))?,
            "--qps" => qps = value.parse().map_err(|_| bad("rate"))?,
            "--seed" => config.seed = value.parse().map_err(|_| bad("number"))?,
            "--idle-conns" => config.idle_conns = value.parse().map_err(|_| bad("count"))?,
            "--slow-clients" => config.slow_clients = value.parse().map_err(|_| bad("count"))?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    config.mode = match mode.as_str() {
        "closed" => Mode::Closed { window },
        "open" => Mode::Open { qps },
        other => return Err(format!("--mode: `{other}` is not closed|open")),
    };
    let addr = addr.ok_or("--addr is required")?;
    Ok((addr, config))
}

fn run_load(args: &[String]) -> Result<bool, String> {
    let (addr, config) = parse_load(args)?;
    let report = loadgen::run(addr, &config).map_err(|e| format!("load run failed: {e}"))?;
    println!(
        "cn-loadgen report ({:?} over {} conns, {} idle, {} slow):",
        config.mode, config.connections, config.idle_conns, config.slow_clients
    );
    println!(
        "  completed      {:>8}   ({:.1} req/s)",
        report.completed, report.throughput_rps
    );
    println!("  backpressured  {:>8}", report.backpressured);
    println!("  draining       {:>8}", report.rejected_draining);
    println!("  errored        {:>8}", report.errored);
    println!("  mispaired      {:>8}", report.mispaired);
    println!("  lost           {:>8}", report.lost);
    println!(
        "  latency (µs)   p50 {:.0}   p95 {:.0}   p99 {:.0}",
        report.p50_us, report.p95_us, report.p99_us
    );
    println!("  elapsed        {:.3} s", report.elapsed.as_secs_f64());
    let clean = report.completed == config.requests as u64
        && report.mispaired == 0
        && report.content_mismatched == 0
        && report.lost == 0;
    Ok(clean)
}

/// Sends one control frame and prints the reply. Returns the server's
/// `ok` verdict (a reply not containing `"ok":true` counts as failure).
fn run_control(args: &[String]) -> Result<bool, String> {
    let mut addr = None;
    let mut command = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => {
                let value = it.next().ok_or("--addr needs a value")?;
                addr = Some(resolve(value)?);
            }
            other => command = Some(other.to_string()),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    let command = command.ok_or("control needs a COMMAND (stats | drain | JSON)")?;
    let text = match command.as_str() {
        "stats" => "{\"cmd\":\"stats\"}".to_string(),
        "drain" => "{\"cmd\":\"drain\"}".to_string(),
        raw => raw.to_string(),
    };

    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| format!("socket setup: {e}"))?;
    write_frame(&mut stream, &Frame::new(0, Payload::Control(text)))
        .map_err(|e| format!("send failed: {e}"))?;

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(&mut stream) {
            Ok(PollFrame::Frame(frame)) => {
                return match frame.payload {
                    Payload::ControlReply(reply) => {
                        println!("{reply}");
                        Ok(reply.contains("\"ok\": true") || reply.contains("\"ok\":true"))
                    }
                    other => Err(format!("unexpected reply frame: {other:?}")),
                };
            }
            Ok(PollFrame::Pending) => {
                if std::time::Instant::now() >= deadline {
                    return Err("timed out waiting for the control reply".into());
                }
            }
            Ok(PollFrame::Eof) => return Err("server closed before replying".into()),
            Err(e) => return Err(format!("control read failed: {e}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("control") {
        run_control(&args[1..])
    } else {
        run_load(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("cn-loadgen: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
