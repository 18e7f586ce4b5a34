//@ path: crates/net/src/pool.rs
// The fixed shape: each iteration's work runs under catch_unwind, so a
// panicking handler costs one connection, not a pool thread — plus one
// deliberately-suppressed site whose death is observed by a join.

fn start(shared: &Shared) -> Vec<std::thread::JoinHandle<()>> {
    (0..4)
        .map(|h| {
            // cn-lint: allow(unbounded-thread-spawn, reason = "fixture: bounded by the map range; joined by the pool owner")
            std::thread::Builder::new()
                .name(format!("handler-{h}"))
                .spawn(move || handler_loop(shared))
                .expect("spawn handler")
        })
        .collect()
}

fn handler_loop(shared: &Shared) {
    loop {
        let conn = shared.conns.pop();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(conn);
        }));
        if unwound.is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn start_watched(shared: &Shared) -> std::thread::JoinHandle<()> {
    // cn-lint: allow(unbounded-thread-spawn, reason = "fixture: exactly one thread; joined below")
    // cn-lint: allow(panic-unsafe-pool-thread, reason = "fixture: demonstrates a suppressed site; the supervisor joins this handle and restarts the thread on panic")
    std::thread::spawn(move || loop {
        shared.tick();
    })
}

fn start_workers(shared: &Shared) -> Vec<std::thread::JoinHandle<()>> {
    (0..2)
        .map(|w| {
            parallel::spawn_worker(format!("worker-{w}"), move || worker_loop(shared))
                .expect("spawn worker")
        })
        .collect()
}

fn worker_loop(shared: &Shared) {
    loop {
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.run_batch();
        }));
        if unwound.is_err() {
            shared.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}
