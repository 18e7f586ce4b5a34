//! `alloc-in-hot-loop` — heap allocation inside a steady-state serving
//! or inference loop.
//!
//! The serving and Monte-Carlo hot paths are allocation-free end to end:
//! sessions grow their ping-pong activation scratch once and reuse it
//! across batches and rebinds, workers stage batches and recycle reply
//! buffers, handlers reuse frame-encode scratch — and counting-allocator
//! regression tests pin
//! **zero heap allocations per request** in steady state. An innocent
//! `Vec::new`/`to_vec`/`.clone()` added to one of those loops silently
//! reintroduces a per-request allocation long before the perf harness
//! notices. Inside the named hot functions an allocating call is
//! presumed per-request until justified; warmup/setup allocations are
//! suppressed with that argument.

use crate::engine::{Rule, Sink};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Files holding the scratch-reusing hot loops.
const HOT_PATHS: &[&str] = &[
    "crates/serve/src/",
    "crates/net/src/",
    "crates/analog/src/engine/",
    "crates/nn/src/model.rs",
];

/// Functions whose bodies form the per-request steady state: the serve
/// worker loop and its batch step, the session entry points (including
/// the Monte-Carlo `evaluate` pass), the scratch-threaded sequential
/// forward, and the connection-handler loop with its per-connection
/// step (`Conn::serve`).
const HOT_FNS: &[&str] = &[
    "worker_loop",
    "run_batch",
    "infer_batch",
    "logits_batch",
    "logits_ref",
    "infer_logits_preds",
    "evaluate",
    "infer_with",
    "handler_loop",
    "serve",
    "flush_ready",
    "fulfill",
];

/// Flags heap-allocating calls inside the zero-alloc hot loops.
pub struct AllocInHotLoop;

impl Rule for AllocInHotLoop {
    fn id(&self) -> &'static str {
        "alloc-in-hot-loop"
    }

    fn summary(&self) -> &'static str {
        "heap allocation in a zero-alloc serving/inference loop; reuse the session scratch"
    }

    fn applies_to(&self, path: &str) -> bool {
        HOT_PATHS.iter().any(|p| path.contains(p))
    }

    fn check(&self, file: &SourceFile, sink: &mut Sink<'_>) {
        let mut i = 0;
        while i < file.tokens.len() {
            if !file.is_ident(i, "fn")
                || i + 1 >= file.tokens.len()
                || file.tokens[i + 1].kind != TokenKind::Ident
                || !HOT_FNS.contains(&file.tok(i + 1))
            {
                i += 1;
                continue;
            }
            // Find the body: the first `{` after the signature (brace-free
            // in this workspace's signatures).
            let mut j = i + 2;
            while j < file.tokens.len() && file.tok(j) != "{" {
                j += 1;
            }
            if j >= file.tokens.len() {
                return;
            }
            let mut depth = 1usize;
            j += 1;
            while j < file.tokens.len() && depth > 0 {
                match file.tok(j) {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => check_alloc_at(file, j, sink),
                }
                j += 1;
            }
            i = j;
        }
    }
}

/// Reports token `j` if it is the head of a heap-allocating call:
/// `vec![…]`, `Vec::new(…)`, `Vec::with_capacity(…)`, `.to_vec()` or
/// `.clone()`.
fn check_alloc_at(file: &SourceFile, j: usize, sink: &mut Sink<'_>) {
    if file.tokens[j].kind != TokenKind::Ident {
        return;
    }
    let next = |k: usize| {
        if j + k < file.tokens.len() {
            file.tok(j + k)
        } else {
            ""
        }
    };
    let prev = if j > 0 { file.tok(j - 1) } else { "" };
    let hit = match file.tok(j) {
        "vec" => next(1) == "!",
        "Vec" => next(1) == "::" && matches!(next(2), "new" | "with_capacity"),
        "to_vec" => prev == "." && next(1) == "(",
        "clone" => prev == "." && next(1) == "(",
        _ => false,
    };
    if hit {
        sink.report(
            j,
            "heap allocation in a zero-alloc hot loop: this path is covered by the \
             counting-allocator regression tests (zero allocations per request in steady \
             state); reuse the warmed scratch (activations, staging buffers, pooled replies), \
             or suppress with an argument for why this allocation is warmup/once-per-\
             deployment rather than per-request",
        );
    }
}
