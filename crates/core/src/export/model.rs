//! Self-describing trained-model container (`.cnm`).
//!
//! Layout (little-endian):
//!
//! ```text
//! file := "CNM1" u32(meta_len) meta_json_bytes state_dict_bytes
//! ```
//!
//! The metadata is an arbitrary [`Json`] document — the experiment
//! runner stores its cache key there (architecture fingerprint, dataset
//! seed, training configuration) so a cache hit can verify it is loading
//! exactly the model it would otherwise train. The payload is the
//! `cn-tensor` `CNSD` state dict.

use super::json::Json;
use cn_nn::Sequential;
use cn_tensor::error::{Result, TensorError};
use cn_tensor::io::{state_dict_from_bytes, state_dict_to_bytes};
use cn_tensor::Tensor;
use std::path::Path;

const MODEL_MAGIC: &[u8; 4] = b"CNM1";

/// Serializes metadata plus a named state dict into the container bytes.
pub fn model_to_bytes(meta: &Json, dict: &[(String, Tensor)]) -> Vec<u8> {
    let meta_bytes = meta.render().into_bytes();
    let dict_bytes = state_dict_to_bytes(dict);
    let mut out = Vec::with_capacity(8 + meta_bytes.len() + dict_bytes.len());
    out.extend_from_slice(MODEL_MAGIC);
    out.extend_from_slice(&(meta_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&meta_bytes);
    out.extend_from_slice(&dict_bytes);
    out
}

/// Deserializes container bytes into metadata plus the state dict.
///
/// # Errors
///
/// Returns [`TensorError::Malformed`] on bad magic, truncation, or an
/// unparseable metadata document.
pub fn model_from_bytes(bytes: &[u8]) -> Result<(Json, Vec<(String, Tensor)>)> {
    if bytes.len() < 8 || &bytes[..4] != MODEL_MAGIC {
        return Err(TensorError::Malformed("bad model container magic".into()));
    }
    let meta_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    // The header length is attacker-controlled: near-usize::MAX values
    // must fail as "truncated", not wrap the offset past the check.
    let dict_start = meta_len
        .checked_add(8)
        .filter(|&end| end <= bytes.len())
        .ok_or_else(|| TensorError::Malformed("truncated model metadata".into()))?;
    let meta_text = std::str::from_utf8(&bytes[8..dict_start])
        .map_err(|_| TensorError::Malformed("model metadata is not utf-8".into()))?;
    let meta = Json::parse(meta_text)
        .map_err(|e| TensorError::Malformed(format!("model metadata: {e}")))?;
    let dict = state_dict_from_bytes(&bytes[dict_start..])?;
    Ok((meta, dict))
}

/// Saves a trained model with its metadata to `path`.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on filesystem failures.
pub fn save_model(path: impl AsRef<Path>, meta: &Json, model: &Sequential) -> Result<()> {
    std::fs::write(path, model_to_bytes(meta, &model.state_dict()))?;
    Ok(())
}

/// Loads metadata and state dict from `path` (the caller restores the
/// state dict into a structurally identical model).
///
/// # Errors
///
/// Returns [`TensorError::Io`] on filesystem failures and
/// [`TensorError::Malformed`] on corrupt containers.
pub fn load_model(path: impl AsRef<Path>) -> Result<(Json, Vec<(String, Tensor)>)> {
    let bytes = std::fs::read(path)?;
    model_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_nn::layers::{Dense, Relu};
    use cn_tensor::SeededRng;

    fn small_model(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        Sequential::new(vec![
            Box::new(Dense::new(3, 5, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, &mut rng)),
        ])
    }

    #[test]
    fn save_load_roundtrip_restores_weights_and_meta() {
        let dir = std::env::temp_dir().join("cn_export_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.cnm");

        let model = small_model(1);
        let meta = Json::obj([("arch", Json::str(model.arch_fingerprint()))]);
        save_model(&path, &meta, &model).unwrap();

        let (meta_back, dict) = load_model(&path).unwrap();
        assert_eq!(meta_back, meta);
        let mut other = small_model(2);
        other.load_state_dict(&dict).unwrap();

        let mut rng = SeededRng::new(3);
        let x = rng.normal_tensor(&[2, 3], 0.0, 1.0);
        assert_eq!(
            model.clone().forward(&x, false),
            other.forward(&x, false),
            "restored model must compute identically"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_meta_len_fails_without_wrapping_the_offset() {
        // A header claiming u32::MAX metadata bytes: `8 + meta_len` used to
        // be computed unchecked, so on 32-bit-usize targets it wrapped small
        // and the slice below read out of bounds. Must fail as truncation.
        let mut bytes = Vec::from(MODEL_MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = model_from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("truncated model metadata"),
            "{err}"
        );

        // One past the actual payload is also truncation, not a panic.
        let mut bytes = Vec::from(MODEL_MAGIC);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"{}");
        let err = model_from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("truncated model metadata"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_container_is_rejected() {
        assert!(model_from_bytes(b"NOPE").is_err());
        let model = small_model(4);
        let mut bytes = model_to_bytes(&Json::Null, &model.state_dict());
        bytes.truncate(bytes.len() / 2);
        assert!(model_from_bytes(&bytes).is_err());
    }
}
