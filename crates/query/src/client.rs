//! The client library: attestation, query signing, endorsement
//! verification, and the rollback-defense bookkeeping (§5.1).
//!
//! The client's entire trusted state is tiny, exactly as the paper
//! promises: the channel key, a query-id counter, and a *compressed
//! interval set* of received sequence numbers ("VeriDB leverages
//! optimizations such as maintaining intervals of successive sequence
//! numbers … to help reduce user's storage cost"). Any repeated sequence
//! number — the unavoidable signature of a rollback attack — surfaces as
//! [`Error::RollbackDetected`].

use crate::portal::{result_digest, EndorsedResult, SignedQuery};
use std::collections::BTreeMap;
use veridb_common::{Error, Result, Row};
use veridb_enclave::{attestation::QuoteVerifier, Enclave, MacKey, Measurement, QuotingEnclave};

/// A compressed set of `u64`s stored as disjoint inclusive intervals.
#[derive(Debug, Default, Clone)]
pub struct SeqIntervals {
    /// start → end (inclusive), non-overlapping, non-adjacent.
    runs: BTreeMap<u64, u64>,
}

impl SeqIntervals {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a value. Returns `false` if it was already present.
    pub fn insert(&mut self, v: u64) -> bool {
        // Find the run starting at or before v.
        if let Some((&s, &e)) = self.runs.range(..=v).next_back() {
            if v <= e {
                return false; // duplicate
            }
            if e.checked_add(1) == Some(v) {
                // extend the left run; maybe merge with the right run
                // (`checked_add` guards the v == u64::MAX boundary — there
                // can be no run starting past the maximum value)
                if let Some(succ) = v.checked_add(1) {
                    if let Some((&ns, &ne)) = self.runs.range(succ..).next() {
                        if ns == succ {
                            self.runs.remove(&ns);
                            self.runs.insert(s, ne);
                            return true;
                        }
                    }
                }
                self.runs.insert(s, v);
                return true;
            }
        }
        // Maybe prepend to the run starting at v+1.
        if let Some(succ) = v.checked_add(1) {
            if let Some((&ns, &ne)) = self.runs.range(succ..).next() {
                if ns == succ {
                    self.runs.remove(&ns);
                    self.runs.insert(v, ne);
                    return true;
                }
            }
        }
        self.runs.insert(v, v);
        true
    }

    /// Membership test.
    pub fn contains(&self, v: u64) -> bool {
        self.runs
            .range(..=v)
            .next_back()
            .map(|(_, &e)| v <= e)
            .unwrap_or(false)
    }

    /// Number of stored intervals (the client's actual storage cost).
    pub fn interval_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of values represented.
    pub fn value_count(&self) -> u64 {
        self.runs.iter().map(|(s, e)| e - s + 1).sum()
    }
}

/// A VeriDB client: signs queries, verifies endorsements, tracks
/// sequence numbers.
pub struct Client {
    key: MacKey,
    next_qid: u64,
    seqs: SeqIntervals,
}

impl Client {
    /// Establish a channel with an attested enclave:
    ///
    /// 1. send a fresh nonce, obtain a quote binding it,
    /// 2. verify the quote's signature, measurement, and nonce,
    /// 3. accept the channel key.
    ///
    /// (In real SGX step 3 is a key exchange protected by the quote; the
    /// simulation hands over the derived key after a successful verify.)
    pub fn attest(
        enclave: &Enclave,
        qe: &QuotingEnclave,
        verifier: &QuoteVerifier,
        expected: Measurement,
        channel_key: MacKey,
        nonce: &[u8],
    ) -> Result<Client> {
        let quote = enclave.quote(qe, nonce);
        verifier
            .verify(&quote, expected, nonce)
            .map_err(|e| Error::AuthFailed(format!("attestation failed: {e}")))?;
        Ok(Client::with_key(channel_key))
    }

    /// Build a client directly from a pre-exchanged key (tests, or
    /// deployments with out-of-band provisioning).
    pub fn with_key(key: MacKey) -> Client {
        Client {
            key,
            next_qid: 1,
            seqs: SeqIntervals::new(),
        }
    }

    /// Sign a query for submission.
    pub fn sign_query(&mut self, sql: &str) -> SignedQuery {
        let qid = self.next_qid;
        self.next_qid += 1;
        let mac = self.key.sign(&[&qid.to_le_bytes(), sql.as_bytes()]);
        SignedQuery {
            qid,
            sql: sql.to_owned(),
            mac,
        }
    }

    /// Verify an endorsed result against the query that produced it.
    /// Returns the rows on success; any failure is a security alarm.
    pub fn verify_result(
        &mut self,
        query: &SignedQuery,
        endorsed: &EndorsedResult,
    ) -> Result<Vec<Row>> {
        if endorsed.qid != query.qid {
            return Err(Error::AuthFailed(format!(
                "result answers qid {} but query was {}",
                endorsed.qid, query.qid
            )));
        }
        let digest = result_digest(&endorsed.result);
        let ok = self.key.verify(
            &[
                &endorsed.qid.to_le_bytes(),
                &endorsed.sequence.to_le_bytes(),
                &digest,
            ],
            &endorsed.mac,
        );
        if !ok {
            return Err(Error::AuthFailed(
                "result endorsement MAC failed verification".into(),
            ));
        }
        // Rollback defense: the portal's counter is strictly increasing,
        // so a repeated sequence number proves a rollback.
        if !self.seqs.insert(endorsed.sequence) {
            return Err(Error::RollbackDetected {
                sequence: endorsed.sequence,
            });
        }
        Ok(endorsed.result.rows.clone())
    }

    /// The client's sequence-number storage footprint, in intervals.
    pub fn sequence_intervals(&self) -> usize {
        self.seqs.interval_count()
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_qid", &self.next_qid)
            .field("seq_intervals", &self.seqs.interval_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_set_compresses_consecutive_runs() {
        let mut s = SeqIntervals::new();
        for v in 1..=100u64 {
            assert!(s.insert(v));
        }
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.value_count(), 100);
        assert!(!s.insert(50), "duplicate must be reported");
        assert!(s.contains(100));
        assert!(!s.contains(101));
    }

    #[test]
    fn interval_set_merges_gaps() {
        let mut s = SeqIntervals::new();
        assert!(s.insert(1));
        assert!(s.insert(3));
        assert_eq!(s.interval_count(), 2);
        assert!(s.insert(2)); // bridges the two runs
        assert_eq!(s.interval_count(), 1);
        assert!(s.contains(1) && s.contains(2) && s.contains(3));
    }

    #[test]
    fn interval_set_out_of_order_arrivals() {
        // Network reordering is expected (§5.1 footnote): out-of-order
        // arrivals must not be mistaken for rollbacks.
        let mut s = SeqIntervals::new();
        for v in [5u64, 2, 9, 1, 7, 3, 8, 4, 6] {
            assert!(s.insert(v), "fresh value {v} flagged as duplicate");
        }
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.value_count(), 9);
        for v in [5u64, 2, 9] {
            assert!(!s.insert(v));
        }
    }

    #[test]
    fn interval_set_prepend_merge() {
        let mut s = SeqIntervals::new();
        assert!(s.insert(10));
        assert!(s.insert(9)); // prepend to run start
        assert_eq!(s.interval_count(), 1);
        assert!(s.contains(9));
    }

    #[test]
    fn interval_set_u64_max_boundary() {
        // v + 1 overflows at the top of the domain; insert must not panic
        // and must still merge correctly from below.
        let mut s = SeqIntervals::new();
        assert!(s.insert(u64::MAX));
        assert!(!s.insert(u64::MAX));
        assert!(s.contains(u64::MAX));
        assert!(s.insert(u64::MAX - 1)); // prepend-merge below MAX
        assert_eq!(s.interval_count(), 1);
        assert!(s.insert(u64::MAX - 3));
        assert_eq!(s.interval_count(), 2);
        assert!(s.insert(u64::MAX - 2)); // bridge up to the MAX run
        assert_eq!(s.interval_count(), 1);
        assert_eq!(s.value_count(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use std::collections::HashSet;
    use veridb_common::rng::check;

    #[test]
    fn interval_set_matches_hashset() {
        check(256, |rng| {
            let values = rng.vec(0..400, |r| r.gen_range(0u64..2000));
            let mut s = SeqIntervals::new();
            let mut model = HashSet::new();
            for v in values {
                assert_eq!(s.insert(v), model.insert(v), "insert({})", v);
            }
            for v in 0u64..2000 {
                assert_eq!(s.contains(v), model.contains(&v));
            }
            assert_eq!(s.value_count() as usize, model.len());
        });
    }

    // Dense draws from a narrow range force heavy adjacent-run merging:
    // nearly every insert extends, prepends, or bridges existing runs.
    #[test]
    fn interval_set_adjacent_merge_matches_hashset() {
        check(256, |rng| {
            let values = rng.vec(0..256, |r| r.gen_range(0u64..64));
            let mut s = SeqIntervals::new();
            let mut model = HashSet::new();
            for v in values {
                assert_eq!(s.insert(v), model.insert(v), "insert({})", v);
            }
            for v in 0u64..64 {
                assert_eq!(s.contains(v), model.contains(&v));
            }
            assert_eq!(s.value_count() as usize, model.len());
            // Invariant: runs are disjoint and non-adjacent, so the interval
            // count can never exceed the distinct-value count.
            assert!(s.interval_count() <= model.len());
        });
    }

    // Exercise both ends of the u64 domain, where `v + 1` can overflow.
    #[test]
    fn interval_set_u64_boundaries_match_hashset() {
        check(256, |rng| {
            let values = rng.vec(0..128, |r| {
                if r.gen_bool(0.5) {
                    r.gen_range(0u64..16)
                } else {
                    r.gen_range((u64::MAX - 16)..=u64::MAX)
                }
            });
            let mut s = SeqIntervals::new();
            let mut model = HashSet::new();
            for v in values {
                assert_eq!(s.insert(v), model.insert(v), "insert({})", v);
            }
            for v in 0u64..16 {
                assert_eq!(s.contains(v), model.contains(&v));
            }
            for v in (u64::MAX - 16)..=u64::MAX {
                assert_eq!(s.contains(v), model.contains(&v));
            }
            assert_eq!(s.value_count() as usize, model.len());
        });
    }
}
