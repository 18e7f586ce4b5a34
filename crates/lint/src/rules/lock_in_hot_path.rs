//! `lock-in-hot-path` — Mutex/RwLock in per-sample code paths.
//!
//! PR 4 replaced a per-sample `Mutex<Vec>` gather in `engine::monte_carlo`
//! with lock-free per-worker buffers: a lock acquired once per sample (or
//! per matrix row) serializes exactly the code the workspace exists to
//! parallelize. In the kernel tree (`tensor::ops`), the inference engine
//! (`analog::engine`) and the serving data plane (`serve::{server,router}`)
//! a blocking lock is presumed hot until justified — a provably cold lock
//! (acquired once per deployment swap, not per batch) is suppressed with
//! that argument.

use crate::engine::{Rule, Sink};
use crate::lexer::TokenKind;
use crate::rules::in_use_decl;
use crate::source::SourceFile;

/// Paths where a blocking lock is presumed to sit on a hot path.
const HOT_PATHS: &[&str] = &[
    "crates/tensor/src/ops/",
    "crates/analog/src/engine/",
    "crates/serve/src/server.rs",
    "crates/serve/src/router.rs",
];

/// Lock types that block.
const LOCK_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

/// Flags blocking lock types in the kernel/engine/serving hot paths.
pub struct LockInHotPath;

impl Rule for LockInHotPath {
    fn id(&self) -> &'static str {
        "lock-in-hot-path"
    }

    fn summary(&self) -> &'static str {
        "Mutex/RwLock in a per-sample path serializes the parallel work; prefer per-worker buffers/atomics"
    }

    fn applies_to(&self, path: &str) -> bool {
        HOT_PATHS.iter().any(|p| path.contains(p))
    }

    fn check(&self, file: &SourceFile, sink: &mut Sink<'_>) {
        for i in 0..file.tokens.len() {
            if file.tokens[i].kind != TokenKind::Ident || !LOCK_TYPES.contains(&file.tok(i)) {
                continue;
            }
            // Imports are just names; the usage sites carry the finding.
            if in_use_decl(file, i) {
                continue;
            }
            sink.report(
                i,
                "blocking lock in a hot path: a per-sample lock serialized the Monte-Carlo \
                 gather (fixed in the engine with per-worker buffers); use lock-free \
                 per-worker state or atomics, or suppress with an argument for why this \
                 lock is cold (e.g. taken once per deployment swap, not per batch)",
            );
        }
    }
}
