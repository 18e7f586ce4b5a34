//@ path: crates/net/src/pool.rs
// The cn-net handler-pool bug, re-introduced: a panic in one handler
// kills its pool thread, and the frontend silently loses capacity until
// it serves nothing.

fn start(shared: &Shared) -> Vec<std::thread::JoinHandle<()>> {
    (0..4)
        .map(|h| {
            // cn-lint: allow(unbounded-thread-spawn, reason = "fixture: panic-safety is under test; the pool is bounded by the map range")
            std::thread::Builder::new()
                .name(format!("handler-{h}"))
                .spawn(move || handler_loop(shared)) //~ panic-unsafe-pool-thread
                .expect("spawn handler")
        })
        .collect()
}

fn handler_loop(shared: &Shared) {
    loop {
        let conn = shared.conns.pop();
        handle_connection(conn);
    }
}

fn start_inline(shared: &Shared) -> std::thread::JoinHandle<()> {
    // cn-lint: allow(unbounded-thread-spawn, reason = "fixture: panic-safety is under test; exactly one thread")
    std::thread::spawn(move || loop { //~ panic-unsafe-pool-thread
        shared.tick();
    })
}

fn start_workers(shared: &Shared) -> Vec<std::thread::JoinHandle<()>> {
    (0..2)
        .map(|w| {
            parallel::spawn_worker(format!("worker-{w}"), move || loop { //~ panic-unsafe-pool-thread
                shared.run_batch();
            })
            .expect("spawn worker")
        })
        .collect()
}
