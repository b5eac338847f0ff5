//! LEB128 variable-length integers — the byte-level primitive of the store
//! format. Small values (the common case for gap-coded adjacency deltas)
//! take one byte; a full `u64` takes at most ten.

use crate::error::{corrupt, StoreError};

/// Append the LEB128 encoding of `v` to `buf`.
#[inline]
pub fn encode_into(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode one varint at `*pos`, advancing `*pos` past it.
#[inline]
pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| corrupt(format!("varint runs past end of data at byte {}", *pos)))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows u64"));
        }
        out |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Skip `count` varints without materializing their values — how the reader
/// jumps over whole adjacency records when seeking to an edge index.
#[inline]
pub fn skip(bytes: &[u8], pos: &mut usize, count: usize) -> Result<(), StoreError> {
    let mut remaining = count;
    while remaining > 0 {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| corrupt(format!("varint runs past end of data at byte {}", *pos)))?;
        *pos += 1;
        if byte & 0x80 == 0 {
            remaining -= 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maximum encoded length of a `u64`: ten 7-bit groups.
    const MAX_LEN: usize = 10;

    #[test]
    fn round_trips_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_into(&mut buf, v);
            assert!(buf.len() <= MAX_LEN);
            let mut pos = 0;
            assert_eq!(decode(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn skip_advances_exactly_like_decode() {
        let mut buf = Vec::new();
        let values = [0u64, 300, 7, u64::MAX, 128, 5];
        for &v in &values {
            encode_into(&mut buf, v);
        }
        let mut p1 = 0;
        skip(&buf, &mut p1, values.len()).unwrap();
        assert_eq!(p1, buf.len());
        let mut p2 = 0;
        skip(&buf, &mut p2, 3).unwrap();
        assert_eq!(decode(&buf, &mut p2).unwrap(), u64::MAX);
    }

    #[test]
    fn truncated_and_overlong_inputs_are_rejected() {
        let mut pos = 0;
        assert!(decode(&[0x80, 0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(decode(&[0xff; 11], &mut pos).is_err());
        let mut pos = 0;
        assert!(skip(&[0x80], &mut pos, 1).is_err());
        // 10-byte encoding whose top byte sets bits beyond u64 range.
        let mut pos = 0;
        let mut overflow = vec![0xff; 9];
        overflow.push(0x02);
        assert!(decode(&overflow, &mut pos).is_err());
    }
}
