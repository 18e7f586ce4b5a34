//! The benchmark's own open-loop client for `cn-netd`.
//!
//! One sender thread writes requests on a fixed schedule over two
//! connections, alternating between them; one receiver thread waits on
//! both with `poll(2)` and timestamps every reply as it lands. Each
//! request is timed from its *scheduled* send time, so a stall in the
//! sender shows up in the latency of every request it delays, and the
//! sender's own lateness is kept as a separate figure. Latencies are
//! kept per request, exactly — no histogram buckets.

use cn_net::frame::{decode, Frame, FrameError, Payload, DEFAULT_MAX_PAYLOAD};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Requests from the workload's input pool, pre-encoded, with the
/// expected reply of each.
pub struct RequestPool {
    /// Encoded `InferRequest` frames; the request id is patched in at
    /// send time.
    pub frames: Vec<Vec<u8>>,
    /// Expected argmax class per pool row.
    pub classes: Vec<u32>,
    /// Expected logits per pool row.
    pub logits: Vec<Vec<f32>>,
}

impl RequestPool {
    /// The pool row request `id` carries.
    pub fn row(&self, id: u64) -> usize {
        (id % self.frames.len() as u64) as usize
    }

    /// Whether a reply to request `id` is exactly the expected one.
    pub fn reply_ok(&self, id: u64, classes: &[u32], logits: &[f32]) -> bool {
        let row = self.row(id);
        let want = &self.logits[row];
        classes == [self.classes[row]]
            && logits.len() == want.len()
            && logits
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// A time source, so the pacing logic can be tested on a fake clock.
pub trait Clock {
    /// Nanoseconds since an arbitrary epoch.
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= t_ns`.
    fn sleep_until(&self, t_ns: u64);
}

/// The real clock.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// Scheduled send time of request `i` at `rate` requests per second,
/// starting at `start_ns`.
pub fn due_ns(start_ns: u64, rate: f64, i: usize) -> u64 {
    start_ns + (i as f64 * 1e9 / rate) as u64
}

/// Sends `n` requests on schedule: waits for each one's due time, sends
/// every request that is due, and returns how late each send was (ns).
///
/// # Errors
///
/// Stops at the first send error and returns it.
pub fn pace(
    clock: &impl Clock,
    start_ns: u64,
    rate: f64,
    n: usize,
    mut send: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<Vec<u64>> {
    let mut lateness = Vec::with_capacity(n);
    for i in 0..n {
        let due = due_ns(start_ns, rate, i);
        if clock.now_ns() < due {
            clock.sleep_until(due);
        }
        lateness.push(clock.now_ns().saturating_sub(due));
        send(i)?;
    }
    Ok(lateness)
}

/// What one phase of open-loop load measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcome {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Latency from scheduled send to reply, per answered request (µs),
    /// in request order.
    pub latency_us: Vec<f64>,
    /// Median latency over the last tenth of the schedule (µs): a
    /// backlog that grows during the phase shows here.
    pub last_tenth_p50_us: f64,
    /// How late the sender ran, per request (µs).
    pub lateness_us: Vec<f64>,
    /// Replies that matched the expected classes and logits.
    pub completed: usize,
    /// Replies whose content was wrong.
    pub mismatched: usize,
    /// Requests answered with an error frame (shed, draining, …).
    pub errored: usize,
    /// Requests never answered before the drain deadline.
    pub lost: usize,
    /// Wall time from the first scheduled send to the last reply (s).
    pub wall_s: f64,
}

impl PhaseOutcome {
    /// Builds the outcome from per-request scheduled and reply times
    /// (`recv_ns[i] == 0`: no good reply).
    pub fn from_times(
        rate: f64,
        due: &[u64],
        recv_ns: &[u64],
        lateness_ns: &[u64],
    ) -> PhaseOutcome {
        let latency_us: Vec<f64> = due
            .iter()
            .zip(recv_ns)
            .filter(|(_, &r)| r > 0)
            .map(|(&d, &r)| r.saturating_sub(d) as f64 / 1e3)
            .collect();
        let tenth = due.len().div_ceil(10);
        let last: Vec<f64> = due[due.len() - tenth..]
            .iter()
            .zip(&recv_ns[due.len() - tenth..])
            .map(|(&d, &r)| {
                if r > 0 {
                    r.saturating_sub(d) as f64 / 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let first = due.first().copied().unwrap_or(0);
        let end = recv_ns.iter().copied().max().unwrap_or(first).max(first);
        PhaseOutcome {
            rate,
            sent: due.len(),
            completed: latency_us.len(),
            latency_us,
            last_tenth_p50_us: crate::stats::median(&last),
            lateness_us: lateness_ns.iter().map(|&l| l as f64 / 1e3).collect(),
            wall_s: (end - first) as f64 / 1e9,
            ..PhaseOutcome::default()
        }
    }

    /// The phase's p99 in µs as a rate-ladder rung sees it: infinite when
    /// a request went without its correct reply or the backlog grew (the
    /// last tenth's median is over `limit_us`).
    pub fn rung_p99_us(&self, limit_us: f64) -> f64 {
        if self.completed < self.sent || self.last_tenth_p50_us > limit_us {
            return f64::INFINITY;
        }
        crate::stats::percentile(&self.latency_us, 99.0).unwrap_or(f64::INFINITY)
    }
}

/// How long the receiver waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(2);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Waits up to `timeout_ms` for any of `streams` to become readable and
/// returns which are.
fn readable(streams: &[&TcpStream; 2], timeout_ms: i32) -> io::Result<[bool; 2]> {
    let mut fds = streams.map(|s| PollFd {
        fd: s.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    });
    // SAFETY: `fds` is a live, properly aligned array of two `pollfd`
    // structs (same layout as the C struct via `repr(C)`), `nfds` matches
    // its length, and the descriptors stay open for the whole call
    // because `streams` borrows the sockets.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok([false; 2])
        } else {
            Err(err)
        };
    }
    Ok(fds.map(|f| f.revents != 0))
}

/// Runs one open-loop phase of `n` requests at `rate` over `conns`,
/// with request ids `first_id..first_id + n`.
///
/// # Errors
///
/// A connection that fails (write error, reset, undecodable bytes)
/// fails the phase.
pub fn run_phase(
    conns: &[TcpStream; 2],
    pool: &RequestPool,
    rate: f64,
    n: usize,
    first_id: u64,
) -> io::Result<PhaseOutcome> {
    for c in conns {
        c.set_read_timeout(Some(Duration::from_secs(1)))?;
        c.set_write_timeout(Some(Duration::from_secs(5)))?;
    }
    let clock = WallClock(Instant::now());
    // A short lead so the first request is not born late.
    let start_ns = clock.now_ns() + 2_000_000;
    let due: Vec<u64> = (0..n).map(|i| due_ns(start_ns, rate, i)).collect();
    let deadline = AtomicU64::new(u64::MAX);
    let (lateness, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(conns, pool, n, first_id, &clock, &deadline));
        let mut frame = Vec::new();
        let sent = pace(&clock, start_ns, rate, n, |i| {
            let id = first_id + i as u64;
            frame.clear();
            frame.extend_from_slice(&pool.frames[pool.row(id)]);
            frame[4..12].copy_from_slice(&id.to_le_bytes());
            (&conns[i % 2]).write_all(&frame)
        });
        deadline.store(clock.now_ns() + DRAIN.as_nanos() as u64, Ordering::SeqCst);
        let received = receiver.join().expect("receiver thread panicked");
        (sent, received)
    });
    let lateness = lateness?;
    let received = received?;
    let mut out = PhaseOutcome::from_times(rate, &due, &received.recv_ns, &lateness);
    out.mismatched = received.mismatched;
    out.errored = received.errored;
    // Saturating: a stray reply to no request of this phase also counts
    // as mismatched.
    out.lost = n.saturating_sub(out.completed + out.mismatched + out.errored);
    Ok(out)
}

struct Received {
    recv_ns: Vec<u64>,
    mismatched: usize,
    errored: usize,
}

fn receive(
    conns: &[TcpStream; 2],
    pool: &RequestPool,
    n: usize,
    first_id: u64,
    clock: &WallClock,
    deadline: &AtomicU64,
) -> io::Result<Received> {
    for c in conns {
        c.set_read_timeout(Some(Duration::from_secs(1)))?;
    }
    let mut out = Received {
        recv_ns: vec![0; n],
        mismatched: 0,
        errored: 0,
    };
    let mut answered = 0usize;
    let mut bufs = [Vec::new(), Vec::new()];
    let mut chunk = vec![0u8; 64 * 1024];
    while answered < n && clock.now_ns() < deadline.load(Ordering::SeqCst) {
        let ready = readable(&[&conns[0], &conns[1]], 5)?;
        for (k, is_ready) in ready.into_iter().enumerate() {
            if !is_ready {
                continue;
            }
            let got = (&conns[k]).read(&mut chunk)?;
            if got == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ));
            }
            let now = clock.now_ns();
            bufs[k].extend_from_slice(&chunk[..got]);
            let mut at = 0;
            loop {
                match decode(&bufs[k][at..], DEFAULT_MAX_PAYLOAD) {
                    Ok((frame, used)) => {
                        at += used;
                        answered += settle(frame, pool, first_id, now, &mut out);
                    }
                    Err(FrameError::Truncated { .. }) => break,
                    Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
                }
            }
            bufs[k].drain(..at);
        }
    }
    Ok(out)
}

/// Records one reply frame; returns 1 if it answered a request of this
/// phase for the first time.
fn settle(frame: Frame, pool: &RequestPool, first_id: u64, now: u64, out: &mut Received) -> usize {
    let index = frame.request_id.wrapping_sub(first_id) as usize;
    if index >= out.recv_ns.len() || out.recv_ns[index] != 0 {
        out.mismatched += 1;
        return 0;
    }
    match frame.payload {
        Payload::InferReply {
            classes, logits, ..
        } => {
            if pool.reply_ok(frame.request_id, &classes, &logits) {
                out.recv_ns[index] = now.max(1);
            } else {
                out.mismatched += 1;
            }
        }
        Payload::Error { .. } => out.errored += 1,
        _ => out.mismatched += 1,
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when the code under test sleeps, plus an
    /// injected stall before one send.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }

        fn sleep_until(&self, t_ns: u64) {
            self.now.set(self.now.get().max(t_ns));
        }
    }

    #[test]
    fn a_stall_makes_every_request_it_delays_late() {
        let clock = FakeClock { now: Cell::new(0) };
        // 1000 rps: request i is due at i ms. Sending request 2 stalls
        // the sender for 3.5 ms.
        let lateness = pace(&clock, 0, 1000.0, 6, |i| {
            if i == 2 {
                clock.now.set(clock.now.get() + 3_500_000);
            }
            Ok(())
        })
        .expect("fake sends never fail");
        assert_eq!(lateness, vec![0, 0, 0, 2_500_000, 1_500_000, 500_000]);

        // Replies 100 µs after each actual send: latency from the
        // scheduled time carries the stall, latency from the actual send
        // would not.
        let due: Vec<u64> = (0..6).map(|i| due_ns(0, 1000.0, i)).collect();
        let recv: Vec<u64> = due
            .iter()
            .zip(&lateness)
            .map(|(d, l)| d + l + 100_000)
            .collect();
        let out = PhaseOutcome::from_times(1000.0, &due, &recv, &lateness);
        assert_eq!(
            out.latency_us,
            vec![100.0, 100.0, 100.0, 2600.0, 1600.0, 600.0]
        );
        assert_eq!(out.lateness_us[3], 2500.0);
        assert_eq!(out.completed, 6);
    }

    #[test]
    fn unanswered_requests_fail_the_limit() {
        let due = [0, 1_000_000, 2_000_000];
        let ok = PhaseOutcome::from_times(1000.0, &due, &[500_000, 1_500_000, 2_500_000], &[0; 3]);
        assert_eq!(ok.rung_p99_us(1_000.0), 500.0);
        // A backlog: the last tenth's median is over the limit.
        assert_eq!(ok.rung_p99_us(100.0), f64::INFINITY);
        let lost = PhaseOutcome::from_times(1000.0, &due, &[500_000, 1_500_000, 0], &[0; 3]);
        assert_eq!(lost.completed, 2);
        assert_eq!(lost.last_tenth_p50_us, f64::INFINITY);
        assert_eq!(lost.rung_p99_us(1_000.0), f64::INFINITY);
    }

    #[test]
    fn a_corrupted_reply_is_rejected() {
        let pool = RequestPool {
            frames: vec![vec![0; 16]; 2],
            classes: vec![3, 1],
            logits: vec![vec![0.5, -1.0], vec![2.0, 4.0]],
        };
        assert!(pool.reply_ok(4, &[3], &[0.5, -1.0]));
        assert!(!pool.reply_ok(4, &[1], &[0.5, -1.0]));
        assert!(!pool.reply_ok(4, &[3], &[0.5, -1.000_000_1]));
        assert!(!pool.reply_ok(5, &[3], &[0.5, -1.0]));
        // A reply to an id outside the phase, or a second reply to one
        // request, is a mismatch.
        let mut out = Received {
            recv_ns: vec![0; 2],
            mismatched: 0,
            errored: 0,
        };
        let reply = |id: u64| {
            Frame::new(
                id,
                Payload::InferReply {
                    classes: vec![3],
                    logits: vec![0.5, -1.0],
                    width: 2,
                },
            )
        };
        assert_eq!(settle(reply(10), &pool, 10, 7, &mut out), 1);
        assert_eq!(settle(reply(10), &pool, 10, 8, &mut out), 0);
        assert_eq!(settle(reply(99), &pool, 10, 9, &mut out), 0);
        assert_eq!((out.recv_ns[0], out.mismatched), (7, 2));
    }
}
