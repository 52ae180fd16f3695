//! The verifying remote client.
//!
//! [`RemoteClient`] speaks the frame protocol to a `veridb serve` endpoint
//! and reuses the in-process [`veridb_query::Client`] *unchanged* for every
//! security decision: query signing, endorsement MACs, and the
//! `SeqIntervals` rollback defense. Quote verification happens once per
//! connection in `attested_connect`, the handshake the warm replica's
//! log subscription uses too. The network layer adds only transport
//! concerns — framing, timeouts, bounded-backoff reconnect — and a strict
//! error taxonomy, applied by the one request loop that
//! [`RemoteClient::query`], [`RemoteClient::query_batch`] and
//! [`RemoteClient::query_pipelined`] share (and whose frame
//! classification [`RemoteClient::stats`] reads its answer through):
//!
//! - **Transport errors** ([`Error::Net`]): retryable. A lost connection
//!   while *sending* a query is retried automatically with the *same*
//!   signed query (the portal spends a qid only on endorsement, so the
//!   retry is safe) — but only when no other query of the call is in
//!   flight, whose answer a reconnect would lose. A loss while *awaiting*
//!   a response is surfaced to the caller, because the server may already
//!   have endorsed the result and a blind retry would be
//!   indistinguishable from a replay.
//! - **Overload refusals** ([`Error::Overloaded`]): retryable by
//!   construction — the server refused the query at admission, before any
//!   portal saw it, so its qid is unspent and the *identical* signed query
//!   is resent after a bounded backoff, once the call's in-flight window
//!   (shrunk by the refusal) has room.
//! - **Duplicate responses**: a `RESULT` frame that is byte-identical to
//!   one this client already verified (same qid, same endorsement MAC) is
//!   a transport-level replay. It is refused visibly — counted in
//!   [`RemoteClient::duplicates_refused`] — but does *not* poison the
//!   session: the connection keeps serving subsequent queries. A stale
//!   qid with a *different* endorsement is a conflicting answer for a
//!   spent sequence number and goes through full verification, where the
//!   rollback defense rejects it. An `ERROR` echo for a qid that is not in
//!   flight (the portal refusing an adversary's replay of a query already
//!   answered) is skipped: the defense worked.
//! - **Verification failures** (`AuthFailed`, `RollbackDetected`,
//!   `ReplayDetected`, `VerificationFailed`, `TamperDetected`): never
//!   retried, never downgraded. They propagate exactly as the in-process
//!   client produces them.
//!
//! The client keeps its [`veridb_query::Client`] (qid counter + sequence
//! intervals) across reconnects: a server restart that resets the sequence
//! counter is then caught as [`Error::RollbackDetected`], which is
//! precisely the §5.1 rollback story extended to the wire.

use crate::frame::{net_err, read_frame, write_frame};
use crate::proto::{
    decode_error, decode_quote, decode_result, encode_hello, encode_query, MSG_BYE, MSG_ERROR,
    MSG_HELLO, MSG_QUERY, MSG_QUOTE, MSG_RESULT, MSG_STATS, MSG_STATS_OK,
};
use crate::server::SIM_ATTESTATION_ROOT;
use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::time::Duration;
use veridb_common::backoff::{Backoff, RETRY_ATTEMPTS};
use veridb_common::{Error, Result};
use veridb_enclave::attestation::{Quote, QuoteVerifier, Report};
use veridb_enclave::mac::Mac;
use veridb_enclave::{mac::sha256, MacKey, Measurement, QuotingEnclave};
use veridb_query::{Client, EndorsedResult, QueryResult, SignedQuery};

/// How many recently answered queries the client remembers, along with
/// the endorsement MAC it accepted for each. A late or replayed `RESULT`
/// frame for one of these is compared against the remembered MAC: a
/// byte-identical duplicate is refused visibly but harmlessly, while a
/// *different* endorsement for a spent qid is verified in full — its
/// sequence number is already in `SeqIntervals`, so it surfaces as
/// `RollbackDetected` instead of passing silently.
const RECENT_QUERIES: usize = 64;

/// Connect to `addr`, run the attestation handshake on `channel` with a
/// fresh nonce, and verify the enclave's quote against `expected`.
/// Returns the connection, with `timeout` set on reads and writes, and
/// the channel key the verified quote came with.
pub(crate) fn attested_connect(
    addr: &str,
    channel: &str,
    verifier: &QuoteVerifier,
    expected: Measurement,
    timeout: Duration,
) -> Result<(TcpStream, [u8; 32])> {
    let mut stream = TcpStream::connect(addr).map_err(|e| net_err(addr, "connect", e))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| net_err(addr, "set_read_timeout", e))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| net_err(addr, "set_write_timeout", e))?;
    // Fresh random nonce per handshake: a replayed quote from an old
    // session fails the nonce binding.
    let mut nonce = [0u8; 32];
    veridb_common::rng::os_random(&mut nonce);
    write_frame(&mut stream, addr, MSG_HELLO, &encode_hello(channel, &nonce))?;
    let (kind, payload) = read_frame(&mut stream, addr)?;
    if kind != MSG_QUOTE {
        return Err(net_err(
            addr,
            "handshake",
            format!("expected QUOTE, got kind {kind}"),
        ));
    }
    let msg = decode_quote(&payload)?;
    let quote = Quote {
        report: Report {
            measurement: Measurement::from_bytes(msg.measurement),
            user_data: msg.user_data,
        },
        signature: msg.signature,
    };
    verifier
        .verify(&quote, expected, &nonce)
        .map_err(|e| Error::AuthFailed(format!("attestation failed: {e}")))?;
    Ok((stream, msg.key))
}

/// [`attested_connect`] with bounded-backoff retries on transport
/// failures; verification failures abort immediately.
fn connect_retrying(
    addr: &str,
    channel: &str,
    verifier: &QuoteVerifier,
    expected: Measurement,
    timeout: Duration,
) -> Result<(TcpStream, [u8; 32])> {
    let mut backoff = Backoff::new();
    let mut last = net_err(addr, "connect", "no attempt made");
    for _ in 0..RETRY_ATTEMPTS {
        match attested_connect(addr, channel, verifier, expected, timeout) {
            Err(e) if !e.is_security_violation() => {
                last = e;
                backoff.wait();
            }
            done => return done,
        }
    }
    Err(last)
}

/// What the request loop read for a request in flight.
enum Answer {
    /// An endorsed result, not yet verified.
    Result(EndorsedResult),
    /// A server error for a qid in flight, or for qid 0 (the session).
    Error(u64, Error),
    /// A `STATS_OK` payload.
    Stats(Vec<u8>),
}

/// Fingerprint of a channel key, pinned at first attestation.
fn key_id(key: &[u8; 32]) -> [u8; 32] {
    sha256(&[b"net-channel-key", key])
}

/// A remote VeriDB client over the untrusted wire.
pub struct RemoteClient {
    addr: String,
    channel: String,
    verifier: QuoteVerifier,
    expected: Measurement,
    timeout: Duration,
    stream: Option<TcpStream>,
    /// The in-process verifying client; survives reconnects.
    inner: Client,
    /// Fingerprint of the channel key accepted at first attestation. A
    /// different key on reconnect means a different enclave instance is
    /// answering — rejected rather than silently re-keyed.
    key_id: [u8; 32],
    /// Recently answered queries and the endorsement MAC accepted for
    /// each, for classifying stale/replayed responses.
    recent: HashMap<u64, (SignedQuery, Mac)>,
    recent_order: Vec<u64>,
    /// Byte-identical duplicate `RESULT` frames refused (transport-level
    /// replays that did not disturb the session).
    duplicates_refused: u64,
}

impl RemoteClient {
    /// Connect to `addr`, run the attestation handshake on `channel`, and
    /// verify the enclave quote against `expected`. `verifier` is the
    /// client's root of trust for the quoting infrastructure.
    pub fn connect(
        addr: &str,
        channel: &str,
        verifier: QuoteVerifier,
        expected: Measurement,
        timeout: Duration,
    ) -> Result<RemoteClient> {
        let (stream, key) = connect_retrying(addr, channel, &verifier, expected, timeout)?;
        Ok(RemoteClient {
            addr: addr.to_owned(),
            channel: channel.to_owned(),
            verifier,
            expected,
            timeout,
            stream: Some(stream),
            inner: Client::with_key(MacKey::new(key)),
            key_id: key_id(&key),
            recent: HashMap::new(),
            recent_order: Vec::new(),
            duplicates_refused: 0,
        })
    }

    /// [`RemoteClient::connect`] against the simulated attestation
    /// service, expecting the enclave identity `identity` (the default
    /// `veridb serve` identity is `"veridb"`). Real deployments would ship
    /// the verifier root and expected measurement out of band.
    pub fn connect_simulated(
        addr: &str,
        channel: &str,
        identity: &str,
        timeout: Duration,
    ) -> Result<RemoteClient> {
        let verifier = QuotingEnclave::new(SIM_ATTESTATION_ROOT).verifier();
        let expected = Measurement::of_code(identity.as_bytes());
        Self::connect(addr, channel, verifier, expected, timeout)
    }

    /// (Re-)establish the TCP connection and re-run the attestation
    /// handshake with a fresh nonce, with bounded-backoff retries on
    /// transport failures. The quote must verify *and* the channel key
    /// must be the one this client's sequence history is bound to: a
    /// different key means a different enclave instance, treated as an
    /// impersonation/rollback attempt.
    pub fn reconnect(&mut self) -> Result<()> {
        self.stream = None;
        let (stream, key) = connect_retrying(
            &self.addr,
            &self.channel,
            &self.verifier,
            self.expected,
            self.timeout,
        )?;
        if key_id(&key) != self.key_id {
            return Err(Error::AuthFailed(
                "channel key changed across reconnect; refusing to re-key a live \
                 sequence history"
                    .into(),
            ));
        }
        self.stream = Some(stream);
        Ok(())
    }

    fn net_err(&self, op: &str, detail: impl std::fmt::Display) -> Error {
        net_err(&self.addr, op, detail)
    }

    /// Re-point this client at a different server — the promoted warm
    /// replica after the primary died — and re-run the attested
    /// handshake there. Everything that makes this client a *verifying*
    /// client survives the switch: the expected measurement, the pinned
    /// channel-key fingerprint (`key_id`), the qid counter, and the
    /// `SeqIntervals` endorsement history. A replica that does not hold
    /// the primary's sealed entropy derives a different channel key and
    /// is refused at the `key_id` check; a replica that rolled the
    /// sequence counter back trips `RollbackDetected` on its first
    /// answer. Failover is therefore only possible onto a replica that
    /// is cryptographically the same database.
    pub fn fail_over(&mut self, addr: &str) -> Result<()> {
        self.addr = addr.to_owned();
        self.reconnect()
    }

    fn remember(&mut self, q: SignedQuery, mac: Mac) {
        if self.recent_order.len() >= RECENT_QUERIES {
            let evict = self.recent_order.remove(0);
            self.recent.remove(&evict);
        }
        self.recent_order.push(q.qid);
        self.recent.insert(q.qid, (q, mac));
    }

    /// How many byte-identical duplicate `RESULT` frames this client has
    /// refused. Each was a transport-level replay of a response already
    /// verified; the refusal is per-frame and leaves the session usable.
    pub fn duplicates_refused(&self) -> u64 {
        self.duplicates_refused
    }

    /// Execute one query remotely with full verification: the request
    /// loop of [`RemoteClient::query_pipelined`] at depth 1. See the
    /// module docs for the retry taxonomy.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        let mut results = self.query_pipelined(&[sql], 1)?;
        Ok(results.pop().expect("one query, one result"))
    }

    /// Send `q`, reconnecting first if the connection is gone. A failed
    /// send drops the connection and is retried with the same signed
    /// query (safe: the portal spends a qid only on endorsement) — but
    /// only when `alone`, i.e. no other query of the call is in flight,
    /// because the reconnect would lose its answer.
    fn send_query(&mut self, q: &SignedQuery, alone: bool) -> Result<()> {
        let mut backoff = Backoff::new();
        let mut attempt = 0;
        loop {
            if self.stream.is_none() {
                self.reconnect()?;
            }
            let stream = self.stream.as_mut().expect("reconnect sets stream");
            let Err(e) = write_frame(stream, &self.addr, MSG_QUERY, &encode_query(q)) else {
                return Ok(());
            };
            self.stream = None;
            attempt += 1;
            if !alone || e.is_security_violation() || attempt >= RETRY_ATTEMPTS {
                return Err(e);
            }
            backoff.wait();
        }
    }

    /// Execute a batch of queries pipelined on one connection: all signed
    /// and sent up front, responses collected in any order (§5.1 expects
    /// out-of-order arrivals; `SeqIntervals` absorbs them). Results are
    /// returned in the order of `sqls`. Any verification failure aborts
    /// the whole batch.
    pub fn query_batch(&mut self, sqls: &[&str]) -> Result<Vec<QueryResult>> {
        self.query_pipelined(sqls, sqls.len().max(1))
    }

    /// Execute `sqls` with at most `depth` queries in flight at once on
    /// this connection — the one request loop every query goes through.
    /// The server processes one connection's queries serially and
    /// delivers `RESULT` frames in submission order; the loop verifies
    /// every frame that arrives (a stale endorsement carries an
    /// already-seen sequence number and trips the rollback defense rather
    /// than being skipped) and absorbs three benign interleavings:
    ///
    /// - [`Error::Overloaded`] refusals (the qid is unspent) — the
    ///   identical signed query is resent after a bounded backoff, up to
    ///   [`RETRY_ATTEMPTS`] times per query. Each refusal also shrinks
    ///   the call's in-flight window to the queries still in flight, so
    ///   resends wait for answers instead of keeping the server's queue
    ///   full;
    /// - byte-identical duplicate `RESULT` frames — refused and counted
    ///   ([`RemoteClient::duplicates_refused`]) without disturbing the
    ///   in-flight window;
    /// - `ERROR` echoes for a qid not in flight, such as the portal's
    ///   refusal of a replayed query frame.
    ///
    /// At most `RECENT_QUERIES * 2` such stale frames are read per call.
    /// Results are returned in the order of `sqls`. Any verification
    /// failure aborts the whole pipeline.
    pub fn query_pipelined(&mut self, sqls: &[&str], depth: usize) -> Result<Vec<QueryResult>> {
        let mut window = depth.max(1);
        let queries: Vec<SignedQuery> = sqls.iter().map(|s| self.inner.sign_query(s)).collect();
        let mut results: Vec<Option<QueryResult>> = queries.iter().map(|_| None).collect();
        let mut answered = 0;
        let mut next = 0;
        // qid → index into `queries`, for everything in flight.
        let mut pending: HashMap<u64, usize> = HashMap::new();
        // Indices refused with Overloaded, awaiting a resend slot.
        let mut resend: VecDeque<usize> = VecDeque::new();
        let mut refusals = vec![0; queries.len()];
        let mut overload_backoff = Backoff::new();
        let mut stale = 0;
        while answered < queries.len() {
            // Keep the window full: refused queries first (they are the
            // oldest), then fresh ones.
            while pending.len() < window {
                let idx = match resend.pop_front() {
                    Some(idx) => idx,
                    None if next < queries.len() => {
                        next += 1;
                        next - 1
                    }
                    None => break,
                };
                self.send_query(&queries[idx], pending.is_empty())?;
                pending.insert(queries[idx].qid, idx);
            }
            match self.next_answer(|qid| pending.contains_key(&qid), &mut stale)? {
                Answer::Result(endorsed) => {
                    let idx = pending.remove(&endorsed.qid).expect("answer is in flight");
                    let rows = self.inner.verify_result(&queries[idx], &endorsed)?;
                    self.remember(queries[idx].clone(), endorsed.mac);
                    results[idx] = Some(QueryResult {
                        columns: endorsed.result.columns,
                        rows,
                    });
                    answered += 1;
                }
                // An admission refusal: the qid is unspent, the identical
                // signed query may be resent once the server breathes.
                Answer::Error(qid, err @ Error::Overloaded { .. }) if qid != 0 => {
                    let idx = pending.remove(&qid).expect("answer is in flight");
                    refusals[idx] += 1;
                    if refusals[idx] >= RETRY_ATTEMPTS {
                        return Err(err);
                    }
                    resend.push_back(idx);
                    window = pending.len().max(1);
                    overload_backoff.wait();
                }
                Answer::Error(_, err) => return Err(err),
                Answer::Stats(_) => {
                    return Err(self.net_err(
                        "await result",
                        format!("unexpected frame kind {MSG_STATS_OK}"),
                    ))
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every query answered"))
            .collect())
    }

    /// Read frames until one answers a request in flight: a `RESULT` or
    /// `ERROR` for a qid `in_flight` accepts, an `ERROR` for qid 0 (the
    /// session itself), or `STATS_OK`. Stale frames on the way are
    /// classified here and nowhere else. A byte-identical duplicate of a
    /// recently verified `RESULT` is a transport-level replay: refused
    /// (counted) and skipped. A *different* endorsement for a spent qid
    /// is verified in full — its sequence number is already recorded, so
    /// it trips the rollback defense. A `RESULT` for an unknown qid is
    /// unauthenticated noise (`AuthFailed`). An `ERROR` echo for a qid
    /// not in flight (e.g. the portal rejecting an adversary's replay of
    /// a query already answered) means the defense worked and is skipped.
    /// `stale` counts skipped frames across one call, which gives up at
    /// `RECENT_QUERIES * 2`.
    fn next_answer(
        &mut self,
        in_flight: impl Fn(u64) -> bool,
        stale: &mut usize,
    ) -> Result<Answer> {
        loop {
            let stream = self
                .stream
                .as_mut()
                .ok_or_else(|| net_err(&self.addr, "await result", "connection lost"))?;
            // On a read failure the server may already have endorsed a
            // query in flight; a silent resend would look like a replay.
            // Surface the transport error and drop the connection.
            let (kind, payload) = read_frame(stream, &self.addr).inspect_err(|_| {
                self.stream = None;
            })?;
            match kind {
                MSG_RESULT => {
                    let endorsed = decode_result(&payload)?;
                    if in_flight(endorsed.qid) {
                        return Ok(Answer::Result(endorsed));
                    }
                    match self.recent.get(&endorsed.qid) {
                        Some((_, mac)) if mac.0 == endorsed.mac.0 => self.duplicates_refused += 1,
                        Some((orig, _)) => {
                            self.inner.verify_result(orig, &endorsed)?;
                            // Verified but conflict-free: genuinely
                            // impossible (sequence already recorded), but
                            // be explicit rather than continue silently.
                            return Err(Error::AuthFailed(format!(
                                "unexpected duplicate result for qid {}",
                                endorsed.qid
                            )));
                        }
                        None => {
                            return Err(Error::AuthFailed(format!(
                                "result for unknown qid {}",
                                endorsed.qid
                            )))
                        }
                    }
                }
                MSG_ERROR => {
                    let (qid, err) = decode_error(&payload)?;
                    if qid == 0 || in_flight(qid) {
                        return Ok(Answer::Error(qid, err));
                    }
                }
                MSG_STATS_OK => return Ok(Answer::Stats(payload)),
                MSG_BYE => {
                    self.stream = None;
                    return Err(self.net_err("await result", "server closed the session"));
                }
                other => {
                    return Err(
                        self.net_err("await result", format!("unexpected frame kind {other}"))
                    );
                }
            }
            *stale += 1;
            if *stale >= RECENT_QUERIES * 2 {
                return Err(self.net_err("await result", "too many stale frames"));
            }
        }
    }

    /// Fetch the server's metrics snapshot as `name value` lines. The
    /// answer is read by the request loop's frame classification, so
    /// stale frames still queued on the connection are skipped.
    pub fn stats(&mut self) -> Result<String> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let stream = self.stream.as_mut().expect("reconnect sets stream");
        write_frame(stream, &self.addr, MSG_STATS, &[])?;
        match self.next_answer(|_| false, &mut 0)? {
            Answer::Stats(payload) => String::from_utf8(payload)
                .map_err(|_| Error::Codec("non-UTF-8 stats payload".into())),
            Answer::Error(_, err) => Err(err),
            Answer::Result(_) => unreachable!("no query is in flight"),
        }
    }

    /// The client's rollback-defense storage footprint, in intervals.
    pub fn sequence_intervals(&self) -> usize {
        self.inner.sequence_intervals()
    }

    /// Orderly close (best effort).
    pub fn close(&mut self) {
        if let Some(mut stream) = self.stream.take() {
            let _ = write_frame(&mut stream, &self.addr, MSG_BYE, &[]);
        }
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteClient")
            .field("addr", &self.addr)
            .field("channel", &self.channel)
            .field("connected", &self.stream.is_some())
            .field("seq_intervals", &self.sequence_intervals())
            .finish_non_exhaustive()
    }
}
