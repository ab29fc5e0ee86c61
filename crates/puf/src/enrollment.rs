//! Enrollment: collecting golden CRPs at manufacturing time.
//!
//! Two enrollment styles appear in the paper:
//!
//! * the classic **CRP database** (Suh & Devadas \[16\]) that the mutual
//!   authentication section argues is too heavy — kept here as the
//!   baseline for experiment E4's storage comparison;
//! * the **single shared CRP** of HSC-IoT \[19\], which the database type
//!   also seeds.

use crate::bits::{Challenge, Response};
use crate::traits::{Puf, PufError};
use neuropuls_rt::codec::{CodecError, FromBytes, Reader, ToBytes, Writer};
use neuropuls_rt::Rng;

/// One enrolled challenge–response pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crp {
    /// The challenge.
    pub challenge: Challenge,
    /// The golden (majority-voted) response.
    pub response: Response,
}

impl ToBytes for Crp {
    fn write_into(&self, out: &mut Writer) {
        self.challenge.write_into(out);
        self.response.write_into(out);
    }
}

impl FromBytes for Crp {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Crp {
            challenge: Challenge::read_from(r)?,
            response: Response::read_from(r)?,
        })
    }
}

/// A verifier-side database of enrolled CRPs for one device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrpDatabase {
    entries: Vec<Crp>,
}

impl ToBytes for CrpDatabase {
    fn write_into(&self, out: &mut Writer) {
        out.u64(self.entries.len() as u64);
        for crp in &self.entries {
            crp.write_into(out);
        }
    }
}

impl FromBytes for CrpDatabase {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = r.u64()? as usize;
        // Each CRP needs at least two bit-length words on the wire;
        // bound the preallocation by what the input could really hold.
        let mut entries = Vec::with_capacity(count.min(r.remaining() / 16 + 1));
        for _ in 0..count {
            entries.push(Crp::read_from(r)?);
        }
        Ok(CrpDatabase { entries })
    }
}

impl CrpDatabase {
    /// An empty database.
    pub fn new() -> Self {
        CrpDatabase::default()
    }

    /// Enrolls `count` random challenges against `puf`, majority-voting
    /// each response over `reads` evaluations.
    ///
    /// # Errors
    ///
    /// Propagates PUF evaluation errors.
    pub fn enroll<P: Puf, R: Rng + ?Sized>(
        puf: &mut P,
        count: usize,
        reads: usize,
        rng: &mut R,
    ) -> Result<Self, PufError> {
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let challenge = Challenge::random(puf.challenge_bits(), rng);
            let response = puf.respond_golden(&challenge, reads)?;
            entries.push(Crp {
                challenge,
                response,
            });
        }
        Ok(CrpDatabase { entries })
    }

    /// Adds one CRP.
    pub fn push(&mut self, crp: Crp) {
        self.entries.push(crp);
    }

    /// Number of stored CRPs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no CRPs are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the stored CRPs.
    pub fn iter(&self) -> std::slice::Iter<'_, Crp> {
        self.entries.iter()
    }

    /// Pops a fresh CRP for one authentication round (database-style
    /// protocols burn one CRP per round — the scalability problem §III-A
    /// avoids).
    pub fn pop(&mut self) -> Option<Crp> {
        self.entries.pop()
    }

    /// Storage footprint in bytes when packed (challenge + response bits
    /// per entry) — the quantity compared in experiment E4.
    pub fn storage_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|crp| crp.challenge.len().div_ceil(8) + crp.response.len().div_ceil(8))
            .sum()
    }
}

impl FromIterator<Crp> for CrpDatabase {
    fn from_iter<I: IntoIterator<Item = Crp>>(iter: I) -> Self {
        CrpDatabase {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<Crp> for CrpDatabase {
    fn extend<I: IntoIterator<Item = Crp>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterPuf;
    use crate::traits::Puf;
    use neuropuls_photonic::process::DieId;
    use neuropuls_rt::rngs::StdRng;
    use neuropuls_rt::SeedableRng;

    fn puf() -> ArbiterPuf {
        ArbiterPuf::fabricate(DieId(1), 64, 3)
    }

    #[test]
    fn enroll_collects_requested_count() {
        let mut p = puf();
        let mut rng = StdRng::seed_from_u64(1);
        let db = CrpDatabase::enroll(&mut p, 25, 5, &mut rng).unwrap();
        assert_eq!(db.len(), 25);
        assert!(!db.is_empty());
    }

    #[test]
    fn golden_responses_verify_against_device() {
        let mut p = puf();
        let mut rng = StdRng::seed_from_u64(2);
        let db = CrpDatabase::enroll(&mut p, 10, 9, &mut rng).unwrap();
        let mut agreements = 0usize;
        for crp in db.iter() {
            let fresh = p.respond_golden(&crp.challenge, 9).unwrap();
            if fresh == crp.response {
                agreements += 1;
            }
        }
        assert!(agreements >= 8, "only {agreements}/10 CRPs verify");
    }

    #[test]
    fn push_then_pop() {
        let mut db = CrpDatabase::new();
        let crp = Crp {
            challenge: Challenge::from_u64(5, 8),
            response: Response::from_u64(3, 4),
        };
        db.push(crp.clone());
        assert_eq!(db.pop(), Some(crp));
        assert_eq!(db.pop(), None);
    }

    #[test]
    fn storage_accounting() {
        let db: CrpDatabase = (0..100)
            .map(|i| Crp {
                challenge: Challenge::from_u64(i, 64),
                response: Response::from_u64(i, 64),
            })
            .collect();
        assert_eq!(db.storage_bytes(), 100 * 16);
    }

    #[test]
    fn crp_roundtrips_through_codec() {
        let crp = Crp {
            challenge: Challenge::from_u64(0xA5A5, 17),
            response: Response::from_u64(0x3C, 7),
        };
        let bytes = crp.to_bytes();
        assert_eq!(Crp::from_bytes(&bytes).unwrap(), crp);
    }

    #[test]
    fn enrolled_database_roundtrips_through_codec() {
        let mut p = puf();
        let mut rng = StdRng::seed_from_u64(3);
        let db = CrpDatabase::enroll(&mut p, 12, 5, &mut rng).unwrap();
        let bytes = db.to_bytes();
        let back = CrpDatabase::from_bytes(&bytes).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.storage_bytes(), db.storage_bytes());
    }

    #[test]
    fn database_codec_rejects_corruption() {
        let db: CrpDatabase = (0..4)
            .map(|i| Crp {
                challenge: Challenge::from_u64(i, 16),
                response: Response::from_u64(i, 8),
            })
            .collect();
        let bytes = db.to_bytes();
        // Truncation must error, not panic or return a partial database.
        assert!(CrpDatabase::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // A corrupted (huge) count must not cause a giant preallocation.
        let mut huge = bytes.clone();
        huge[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(CrpDatabase::from_bytes(&huge).is_err());
    }

    #[test]
    fn extend_appends() {
        let mut db = CrpDatabase::new();
        db.extend((0..3).map(|i| Crp {
            challenge: Challenge::from_u64(i, 8),
            response: Response::from_u64(i, 8),
        }));
        assert_eq!(db.len(), 3);
    }
}
