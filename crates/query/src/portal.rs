//! The in-enclave query portal (§5.1).
//!
//! Entry point of client queries. Responsibilities, straight from the
//! paper:
//!
//! - **Query authorization**: each query arrives with a unique id and a
//!   MAC under the pre-exchanged channel key; the portal rejects MAC
//!   failures and replayed qids (otherwise the host could synthesize or
//!   replay mutations).
//! - **Result endorsement**: results are MACed (qid ‖ sequence number ‖
//!   result digest) so the client can check they come from the genuine
//!   enclave. Endorsement is *refused* when the deferred verifier has
//!   raised an alarm — no result is endorsed over tampered storage.
//! - **Rollback defense**: a strictly increasing sequence number is
//!   assigned per query and returned with the result; any state rollback
//!   of the enclave forces the counter backwards and the client observes
//!   a repeated sequence number (`Error::RollbackDetected`).

use crate::engine::{PlanOptions, QueryEngine, QueryResult};
use crate::replay::{ReplayWindow, DEFAULT_REPLAY_WINDOW};
use std::sync::Arc;
use veridb_common::sync::Mutex;
use veridb_common::{Error, Metric, Result};
use veridb_enclave::{Enclave, Mac, MacKey};
use veridb_wrcm::VerifiedMemory;

/// A client-signed query.
#[derive(Debug, Clone)]
pub struct SignedQuery {
    /// Client-unique query id.
    pub qid: u64,
    /// The SQL text.
    pub sql: String,
    /// `MAC_k(qid ‖ sql)`.
    pub mac: Mac,
}

/// An enclave-endorsed result.
#[derive(Debug, Clone)]
pub struct EndorsedResult {
    /// Echo of the query id.
    pub qid: u64,
    /// The portal's sequence number for this query (rollback defense).
    pub sequence: u64,
    /// The query result.
    pub result: QueryResult,
    /// `MAC_k(qid ‖ sequence ‖ digest(result))`.
    pub mac: Mac,
}

/// Digest a result deterministically for endorsement.
pub(crate) fn result_digest(result: &QueryResult) -> [u8; 32] {
    let mut buf = Vec::new();
    for c in &result.columns {
        buf.extend_from_slice(c.as_bytes());
        buf.push(0);
    }
    for r in &result.rows {
        r.encode(&mut buf);
    }
    veridb_enclave::mac::sha256(&[b"result", &buf])
}

/// The in-enclave portal for one client channel.
pub struct QueryPortal {
    engine: Arc<QueryEngine>,
    mem: Arc<VerifiedMemory>,
    enclave: Enclave,
    key: MacKey,
    /// Bounded replay filter (low watermark + sliding window) — constant
    /// enclave memory no matter how many queries the channel carries.
    seen_qids: Mutex<ReplayWindow>,
    /// Planning options applied to queries through this portal.
    pub options: PlanOptions,
}

impl QueryPortal {
    /// Open a portal over `engine`, deriving the channel MAC key from the
    /// enclave (clients obtain the matching key through the attestation
    /// handshake — see [`crate::client::Client::attest`]).
    pub fn new(engine: Arc<QueryEngine>, mem: Arc<VerifiedMemory>, channel: &str) -> Self {
        Self::with_replay_window(engine, mem, channel, DEFAULT_REPLAY_WINDOW)
    }

    /// Open a portal with an explicit replay-window capacity. Concurrent
    /// remote clients with pipelined queries need a wider window than the
    /// default; `VeriDb::portal` passes `config.replay_window` through here.
    pub fn with_replay_window(
        engine: Arc<QueryEngine>,
        mem: Arc<VerifiedMemory>,
        channel: &str,
        replay_window: usize,
    ) -> Self {
        let enclave = mem.enclave().clone();
        let key = enclave.mac_key(&format!("channel-{channel}"));
        QueryPortal {
            engine,
            mem,
            enclave,
            key,
            seen_qids: Mutex::new(ReplayWindow::new(replay_window)),
            options: PlanOptions::default(),
        }
    }

    /// The channel MAC key, as handed to an attested client. Real SGX
    /// would run a key-exchange inside the attestation; the simulation
    /// hands the derived key to the holder of a verified quote.
    pub fn channel_key_for_attested_client(&self) -> MacKey {
        self.key.clone()
    }

    /// Submit an authenticated query; returns an endorsed result.
    ///
    /// The qid is consumed only when a result is endorsed: a query that
    /// fails transiently (a `PageFull`, a planner error, a poisoned-check
    /// refusal) leaves its qid unspent, so the client may retry with the
    /// original signature.
    pub fn submit(&self, q: &SignedQuery) -> Result<EndorsedResult> {
        // 1. Authorization: the MAC proves the client issued this exact
        //    query; the replay window rejects spent qids. Peek only — the
        //    qid is not consumed until endorsement (step 4).
        if !self
            .key
            .verify(&[&q.qid.to_le_bytes(), q.sql.as_bytes()], &q.mac)
        {
            return Err(Error::AuthFailed(format!(
                "query {} failed MAC verification",
                q.qid
            )));
        }
        if self.seen_qids.lock().contains(q.qid) {
            return Err(self.reject_replay(q.qid));
        }

        // Never execute over storage already known to be tampered.
        if let Some(alarm) = self.mem.poisoned() {
            return Err(alarm);
        }

        // 2. Execute inside the enclave (one ECall for the whole query —
        //    the engine and storage primitives are colocated, §3.3). An
        //    error here propagates with the qid still unspent.
        let result = self
            .enclave
            .ecall(|| self.engine.execute_with(&q.sql, &self.options))?;

        // 3. Refuse endorsement if deferred verification has found
        //    tampering at any point.
        if let Some(alarm) = self.mem.poisoned() {
            return Err(alarm);
        }

        // 4. Commit the qid now that a result will be endorsed. A
        //    concurrent duplicate submission of the same qid races here;
        //    exactly one wins the insert, the other is a replay.
        if !self.seen_qids.lock().insert(q.qid) {
            return Err(self.reject_replay(q.qid));
        }

        // 5. Endorse with the next sequence number.
        let sequence = self.enclave.next_timestamp();
        let digest = result_digest(&result);
        let mac = self
            .key
            .sign(&[&q.qid.to_le_bytes(), &sequence.to_le_bytes(), &digest]);
        Ok(EndorsedResult {
            qid: q.qid,
            sequence,
            result,
            mac,
        })
    }

    fn reject_replay(&self, qid: u64) -> Error {
        self.mem.metrics().inc(Metric::ReplaysRejected);
        Error::ReplayDetected { qid }
    }

    /// The portal's engine (for tests and examples).
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }
}

impl std::fmt::Debug for QueryPortal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seen = self.seen_qids.lock();
        f.debug_struct("QueryPortal")
            .field("replay_watermark", &seen.watermark())
            .field("tracked_qids", &seen.tracked())
            .finish_non_exhaustive()
    }
}
