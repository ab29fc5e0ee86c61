//! Enrollment-time selection masks.
//!
//! The filtering method produces, per device, the set of CRP positions
//! that survived the threshold window. The mask is *public* helper data:
//! it reveals which positions are used, not their values (the same model
//! as fuzzy-extractor helper data).

/// A boolean keep/drop mask over CRP positions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectionMask {
    keep: Vec<bool>,
}

impl SelectionMask {
    /// Builds from an iterator of keep flags.
    pub fn from_flags(flags: impl IntoIterator<Item = bool>) -> Self {
        SelectionMask {
            keep: flags.into_iter().collect(),
        }
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// True when the mask covers no positions.
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Number of kept positions.
    pub fn kept(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Indices of kept positions.
    pub fn kept_indices(&self) -> Vec<usize> {
        self.keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect()
    }

    /// Applies the mask to a bit slice, returning only kept bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than the mask.
    pub fn apply(&self, bits: &[u8]) -> Vec<u8> {
        assert!(
            bits.len() >= self.keep.len(),
            "bit string shorter than mask"
        );
        self.keep
            .iter()
            .zip(bits.iter())
            .filter_map(|(&k, &b)| k.then_some(b))
            .collect()
    }
}

impl FromIterator<bool> for SelectionMask {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_flags(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_selects_kept_bits() {
        let mask = SelectionMask::from_flags([true, false, true, true]);
        assert_eq!(mask.apply(&[1, 0, 1, 0]), vec![1, 1, 0]);
        assert_eq!(mask.kept(), 3);
        assert_eq!(mask.kept_indices(), vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "shorter than mask")]
    fn apply_rejects_short_input() {
        let mask = SelectionMask::from_flags([true, true]);
        let _ = mask.apply(&[1]);
    }
}
