//! `panic-unsafe-pool-thread` — pool threads whose loop can die silently.
//!
//! PR 8's handler-pool bug: `cn-net`'s frontend spawned a fixed pool of
//! handler threads, each running `loop { handle(conn) }`. A panic in
//! one handler killed that thread; the pool shrank permanently and the
//! frontend quietly lost capacity until it served nothing. The fix
//! wraps each iteration's work in `std::panic::catch_unwind` and counts
//! the panic instead of dying.
//!
//! This rule finds long-lived pool threads — `thread::Builder::spawn`,
//! `thread::spawn` or `cn_tensor::parallel::spawn_worker` (the serve
//! workers' spawn helper) whose closure contains an unconditional
//! `loop { … }` — with no `catch_unwind` anywhere in the closure or in
//! same-file functions it calls (one level deep). `while`/`for` loops
//! don't fire: a bounded loop dying with its thread is ordinary
//! fan-out/join, not a silently shrinking pool.
//!
//! Heuristic, so severity is `Warning`: a spawn whose panic *is*
//! propagated (e.g. the spawner joins and checks) earns a suppression
//! saying who observes the death.

use crate::engine::{Rule, Severity, Sink};
use crate::source::SourceFile;
use crate::syntax::{visit_block, Block, Expr, FileSyntax, LoopKind};

/// Flags pool threads running `loop { … }` without `catch_unwind`.
pub struct PanicUnsafePoolThread;

impl Rule for PanicUnsafePoolThread {
    fn id(&self) -> &'static str {
        "panic-unsafe-pool-thread"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn summary(&self) -> &'static str {
        "pool thread loops forever without catch_unwind; one panic silently shrinks the pool"
    }

    fn check(&self, file: &SourceFile, sink: &mut Sink<'_>) {
        let syntax = file.syntax();
        for f in &syntax.fns {
            let Some(body) = &f.body else { continue };
            visit_block(body, &mut |e| {
                if let Some((name_tok, worker)) = spawn_site(e) {
                    if loops_without_catch_unwind(syntax, worker) {
                        sink.report(
                            name_tok,
                            "pool thread runs `loop { … }` with no catch_unwind: one \
                             panicking iteration kills the thread and silently shrinks \
                             the pool (the cn-net handler-pool bug); wrap the loop body \
                             in std::panic::catch_unwind and count the panic, or \
                             suppress stating who observes the thread's death",
                        );
                    }
                }
            });
        }
    }
}

/// If `e` is a pool-thread spawn, returns the token to report at and
/// the expression that runs on the new thread.
fn spawn_site(e: &Expr) -> Option<(usize, &Expr)> {
    match e {
        // thread::Builder::new().name(...).spawn(closure)
        Expr::Method {
            recv,
            name,
            name_tok,
            args,
        } if name == "spawn" && chain_mentions_builder(recv) => {
            args.first().map(|w| (*name_tok, w))
        }
        Expr::Call { callee, args } => match callee.as_ref() {
            // thread::spawn(closure) / std::thread::spawn(closure)
            Expr::Path { segs, last_tok, .. }
                if segs.last().map(String::as_str) == Some("spawn")
                    && segs.iter().any(|s| s == "thread") =>
            {
                args.first().map(|w| (*last_tok, w))
            }
            // parallel::spawn_worker(name, closure)
            Expr::Path { segs, last_tok, .. }
                if segs.last().map(String::as_str) == Some("spawn_worker") =>
            {
                args.last().map(|w| (*last_tok, w))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Whether a method-chain receiver goes back to `thread::Builder`.
fn chain_mentions_builder(recv: &Expr) -> bool {
    let mut found = false;
    crate::syntax::visit(recv, &mut |x| {
        if let Expr::Path { segs, .. } = x {
            if segs.iter().any(|s| s == "Builder") {
                found = true;
            }
        }
    });
    found
}

/// Whether the spawned worker contains an unconditional `loop` and no
/// `catch_unwind`, looking through same-file callees one level deep.
fn loops_without_catch_unwind(syntax: &FileSyntax, worker: &Expr) -> bool {
    let mut has_loop = false;
    let mut has_catch = false;
    let mut callees: Vec<String> = Vec::new();
    scan(worker, &mut has_loop, &mut has_catch, &mut callees);
    for name in callees {
        if let Some(f) = syntax.fn_named(&name) {
            if let Some(body) = &f.body {
                scan_block(body, &mut has_loop, &mut has_catch, &mut Vec::new());
            }
        }
    }
    has_loop && !has_catch
}

fn scan(e: &Expr, has_loop: &mut bool, has_catch: &mut bool, callees: &mut Vec<String>) {
    crate::syntax::visit(e, &mut |x| match x {
        Expr::Loop {
            kind: LoopKind::Loop,
            ..
        } => *has_loop = true,
        Expr::Method { name, .. } if name == "catch_unwind" => *has_catch = true,
        Expr::Call { callee, .. } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if segs.last().map(String::as_str) == Some("catch_unwind") {
                    *has_catch = true;
                }
                // A plain lowercase call may be the worker body factored
                // into a same-file fn (`|| worker_loop(rx)`).
                if segs.len() == 1 && segs[0].chars().next().is_some_and(|c| c.is_lowercase()) {
                    callees.push(segs[0].clone());
                }
            }
        }
        // `spawn(worker_loop)` passed as a bare fn reference.
        Expr::Path { segs, .. }
            if segs.len() == 1 && segs[0].chars().next().is_some_and(|c| c.is_lowercase()) =>
        {
            callees.push(segs[0].clone());
        }
        _ => {}
    });
}

fn scan_block(b: &Block, has_loop: &mut bool, has_catch: &mut bool, callees: &mut Vec<String>) {
    visit_block(b, &mut |x| {
        scan(x, has_loop, has_catch, callees);
    });
}
