//! Compact binary serialization for tensors and named state dicts.
//!
//! Format (little-endian):
//!
//! ```text
//! tensor     := "CNT1" u32(rank) u64(dim)* f32(data)*
//! state dict := "CNSD" u32(count) entry*
//! entry      := u32(name_len) name_bytes tensor
//! ```
//!
//! Used to persist trained models between pipeline stages (e.g. the
//! Lipschitz-trained base model reused by compensator training and the RL
//! search).

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

const TENSOR_MAGIC: &[u8; 4] = b"CNT1";
const DICT_MAGIC: &[u8; 4] = b"CNSD";

/// Sanity cap on deserialized tensor sizes (1 GiB of f32s) to fail fast on
/// corrupted streams instead of attempting absurd allocations.
const MAX_ELEMENTS: u64 = 1 << 28;

/// Little-endian cursor over untrusted bytes. Reads panic past the end,
/// so every read is preceded by a [`remaining`](Self::remaining) check.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        head
    }

    fn get_array<const N: usize>(&mut self) -> [u8; N] {
        self.take(N).try_into().expect("take returns N bytes")
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.get_array())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.get_array())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.get_array())
    }
}

/// Serializes a tensor into a byte buffer.
pub fn tensor_to_bytes(t: &Tensor) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + t.rank() * 8 + t.numel() * 4);
    put_tensor(&mut buf, t);
    buf
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.extend_from_slice(TENSOR_MAGIC);
    buf.extend_from_slice(&(t.rank() as u32).to_le_bytes());
    for &d in t.dims() {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &x in t.data() {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

/// Deserializes a tensor from the front of `buf`, advancing it past the
/// tensor.
///
/// # Errors
///
/// Returns [`TensorError::Malformed`] on bad magic, truncated data or
/// implausible sizes.
pub fn tensor_from_bytes(buf: &mut &[u8]) -> Result<Tensor> {
    let mut reader = Reader { buf };
    let t = read_tensor(&mut reader)?;
    *buf = reader.buf;
    Ok(t)
}

fn read_tensor(buf: &mut Reader<'_>) -> Result<Tensor> {
    if buf.remaining() < 8 {
        return Err(TensorError::Malformed("truncated header".into()));
    }
    let magic = buf.take(4);
    if magic != TENSOR_MAGIC {
        return Err(TensorError::Malformed(format!(
            "bad tensor magic {magic:?}"
        )));
    }
    let rank = buf.get_u32_le() as usize;
    if rank > 8 {
        return Err(TensorError::Malformed(format!("implausible rank {rank}")));
    }
    if buf.remaining() < rank * 8 {
        return Err(TensorError::Malformed("truncated dims".into()));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut numel: u64 = 1;
    for _ in 0..rank {
        let d = buf.get_u64_le();
        numel = numel.saturating_mul(d.max(1));
        dims.push(d as usize);
    }
    if numel > MAX_ELEMENTS {
        return Err(TensorError::Malformed(format!(
            "implausible element count {numel}"
        )));
    }
    let count: usize = dims.iter().product();
    // `count` came off the wire: the byte-budget product must be checked
    // so a huge dimension can't wrap it small and pass the check.
    let need = count
        .checked_mul(4)
        .ok_or_else(|| TensorError::Malformed("implausible element count".into()))?;
    if buf.remaining() < need {
        return Err(TensorError::Malformed("truncated data".into()));
    }
    let mut data = Vec::with_capacity(count);
    for _ in 0..count {
        data.push(buf.get_f32_le());
    }
    Tensor::try_from_vec(data, &dims)
}

/// Serializes a named state dict (ordered) into a byte buffer.
pub fn state_dict_to_bytes(entries: &[(String, Tensor)]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(DICT_MAGIC);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, t) in entries {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        put_tensor(&mut buf, t);
    }
    buf
}

/// Deserializes a named state dict.
///
/// # Errors
///
/// Returns [`TensorError::Malformed`] on structural corruption.
pub fn state_dict_from_bytes(bytes: &[u8]) -> Result<Vec<(String, Tensor)>> {
    let mut buf = Reader { buf: bytes };
    if buf.remaining() < 8 {
        return Err(TensorError::Malformed("truncated dict header".into()));
    }
    let magic = buf.take(4);
    if magic != DICT_MAGIC {
        return Err(TensorError::Malformed(format!("bad dict magic {magic:?}")));
    }
    let count = buf.get_u32_le() as usize;
    if count > 100_000 {
        return Err(TensorError::Malformed(format!(
            "implausible entry count {count}"
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 4 {
            return Err(TensorError::Malformed("truncated entry".into()));
        }
        let name_len = buf.get_u32_le() as usize;
        if buf.remaining() < name_len {
            return Err(TensorError::Malformed("truncated name".into()));
        }
        let name = String::from_utf8(buf.take(name_len).to_vec())
            .map_err(|e| TensorError::Malformed(format!("invalid name utf8: {e}")))?;
        let tensor = read_tensor(&mut buf)?;
        out.push((name, tensor));
    }
    Ok(out)
}

/// Writes a state dict to a file.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on filesystem errors.
pub fn save_state_dict(path: impl AsRef<Path>, entries: &[(String, Tensor)]) -> Result<()> {
    let bytes = state_dict_to_bytes(entries);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Reads a state dict from a file.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on filesystem errors and
/// [`TensorError::Malformed`] on corrupt content.
pub fn load_state_dict(path: impl AsRef<Path>) -> Result<Vec<(String, Tensor)>> {
    let mut f = File::open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    state_dict_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn tensor_roundtrip() {
        let mut rng = SeededRng::new(1);
        let t = rng.normal_tensor(&[3, 4, 5], 0.0, 1.0);
        let bytes = tensor_to_bytes(&t);
        let mut buf = bytes.as_slice();
        let back = tensor_from_bytes(&mut buf).unwrap();
        assert_eq!(back, t);
        assert!(buf.is_empty());
    }

    #[test]
    fn scalar_roundtrip() {
        let t = Tensor::scalar(-2.5);
        let bytes = tensor_to_bytes(&t);
        assert_eq!(tensor_from_bytes(&mut bytes.as_slice()).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf: &[u8] = b"XXXX\x01\x00\x00\x00";
        assert!(matches!(
            tensor_from_bytes(&mut buf),
            Err(TensorError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_data_rejected() {
        let t = Tensor::ones(&[10]);
        let full = tensor_to_bytes(&t);
        let mut cut = &full[..full.len() - 4];
        assert!(matches!(
            tensor_from_bytes(&mut cut),
            Err(TensorError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_dims_rejected_before_allocation() {
        // A wire header claiming a huge dimension must die at the size
        // checks — `numel` saturates, the byte budget is checked_mul'd —
        // and never reach `Vec::with_capacity`.
        let header = |d0: u64, d1: u64| {
            let mut buf = TENSOR_MAGIC.to_vec();
            buf.extend_from_slice(&2u32.to_le_bytes());
            buf.extend_from_slice(&d0.to_le_bytes());
            buf.extend_from_slice(&d1.to_le_bytes());
            buf
        };
        let err = tensor_from_bytes(&mut header(u64::MAX / 2, 3).as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("implausible element count"),
            "{err}"
        );

        // Dims whose product wraps usize exactly (2^32 * 2^32 on 64-bit)
        // would pass a naive `count * 4` budget; the saturating numel cap
        // catches it first.
        assert!(matches!(
            tensor_from_bytes(&mut header(1 << 32, 1 << 32).as_slice()),
            Err(TensorError::Malformed(_))
        ));
    }

    #[test]
    fn state_dict_roundtrip_preserves_order() {
        let mut rng = SeededRng::new(2);
        let entries = vec![
            (
                "conv1.weight".to_string(),
                rng.normal_tensor(&[6, 1, 5, 5], 0.0, 1.0),
            ),
            ("conv1.bias".to_string(), rng.normal_tensor(&[6], 0.0, 1.0)),
            (
                "fc.weight".to_string(),
                rng.normal_tensor(&[10, 84], 0.0, 1.0),
            ),
        ];
        let back = state_dict_from_bytes(&state_dict_to_bytes(&entries)).unwrap();
        assert_eq!(back.len(), 3);
        for ((n1, t1), (n2, t2)) in entries.iter().zip(back.iter()) {
            assert_eq!(n1, n2);
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cn_tensor_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cnsd");
        let entries = vec![("w".to_string(), Tensor::arange(16).into_reshaped(&[4, 4]))];
        save_state_dict(&path, &entries).unwrap();
        let back = load_state_dict(&path).unwrap();
        assert_eq!(back[0].1, entries[0].1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_state_dict("/definitely/not/a/path.cnsd").unwrap_err();
        assert!(matches!(err, TensorError::Io(_)));
    }

    #[test]
    fn empty_dict_roundtrip() {
        let back = state_dict_from_bytes(&state_dict_to_bytes(&[])).unwrap();
        assert!(back.is_empty());
    }

    /// The on-disk format is fixed: these bytes were written by the
    /// original serializer, so `.cnm` files saved by older builds load.
    #[test]
    fn format_is_pinned() {
        let t = Tensor::from_vec(vec![1.5, -2.0, 0.0, 3.25, -0.0, 7.0], &[2, 3]);
        let tensor_bytes: &[u8] = &[
            67, 78, 84, 49, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 192,
            63, 0, 0, 0, 192, 0, 0, 0, 0, 0, 0, 80, 64, 0, 0, 0, 128, 0, 0, 224, 64,
        ];
        assert_eq!(tensor_to_bytes(&t), tensor_bytes);
        assert_eq!(tensor_from_bytes(&mut &tensor_bytes[..]).unwrap(), t);

        let dict = vec![
            ("w".to_string(), Tensor::from_vec(vec![0.5, -1.0], &[2])),
            ("b".to_string(), Tensor::scalar(2.0)),
        ];
        let dict_bytes: &[u8] = &[
            67, 78, 83, 68, 2, 0, 0, 0, 1, 0, 0, 0, 119, 67, 78, 84, 49, 1, 0, 0, 0, 2, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 63, 0, 0, 128, 191, 1, 0, 0, 0, 98, 67, 78, 84, 49, 0, 0, 0, 0, 0, 0,
            0, 64,
        ];
        assert_eq!(state_dict_to_bytes(&dict), dict_bytes);
        assert_eq!(state_dict_from_bytes(dict_bytes).unwrap(), dict);
    }
}
