//! Machine-readable export of experiment artifacts.
//!
//! - [`json`]: a dependency-free JSON value type with a renderer and a
//!   strict parser — the substrate of the `cn-experiments` report files.
//! - [`model`]: a self-describing container for trained models (JSON
//!   metadata + binary state dict) with a save/load round-trip, backing
//!   the experiment runner's trained-model cache.

pub mod json;
pub mod model;
