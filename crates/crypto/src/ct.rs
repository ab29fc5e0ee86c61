//! Constant-time comparison helpers.
//!
//! Protocol code must never compare MACs or keys with a short-circuiting
//! equality, otherwise the comparison time leaks the position of the first
//! mismatching byte. These helpers compare whole buffers in time that
//! depends only on their length.

/// Compares two byte slices in constant time (for equal-length inputs).
///
/// Returns `false` immediately if the lengths differ — the *length* of a MAC
/// is public information, only its *content* is secret.
///
/// # Example
///
/// ```
/// use neuropuls_crypto::ct::ct_eq;
///
/// assert!(ct_eq(b"tag", b"tag"));
/// assert!(!ct_eq(b"tag", b"tab"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    // Map the accumulator to 0/1 without a data-dependent branch.
    acc_to_bool(acc)
}

fn acc_to_bool(acc: u8) -> bool {
    // acc == 0 ⟺ equal. `(acc | acc.wrapping_neg()) >> 7` is 1 iff acc != 0.
    ((acc | acc.wrapping_neg()) >> 7) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(&[0u8; 64], &[0u8; 64]));
    }

    #[test]
    fn unequal_slices() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(&[0u8; 32], &[1u8; 32]));
        // Difference only in the last byte must still be caught.
        let mut a = [7u8; 32];
        let b = a;
        a[31] ^= 0x80;
        assert!(!ct_eq(&a, &b));
    }
}
