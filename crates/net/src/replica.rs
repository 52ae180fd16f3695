//! Warm-replica runtime: ship the endorsed log, apply it verified, fail
//! over.
//!
//! A warm replica is a second durable [`VeriDb`] instance that tails the
//! primary's write-ahead log over the wire and applies every record
//! through the same protected replay path recovery uses. Because the
//! records are MAC-chained by the primary's enclave and the replica runs
//! the same enclave identity from the same sealed root entropy, the
//! replica can *verify* the stream it applies — a host (or the network)
//! that reorders, edits, or truncates the feed breaks the chain at
//! `Wal::append_raw` and the batch is refused loudly.
//!
//! The flow:
//!
//! 1. [`fetch_seed`] / [`ensure_replica_seed`] — before the replica's
//!    first open, pull the primary's sealed root-entropy blob
//!    (`SHIP_META`) so both sides derive identical keys. The blob is
//!    sealed under the simulated CPU-fuse key: useless to anyone who
//!    cannot launch the same enclave.
//! 2. [`ShipSubscription`] — the attested handshake
//!    [`RemoteClient`](crate::RemoteClient) runs (the replica verifies the primary's quote like any client, on
//!    the reserved `__ship__` channel), then `SHIP_SUB(from_lsn)`;
//!    the primary answers `SHIP_META` and streams `SHIP` batches, empty
//!    batches doubling as heartbeats.
//! 3. [`run_replica`] — the apply loop: [`VeriDb::apply_shipped`] per
//!    batch (verify → append to the local WAL → replay → fsync), then
//!    `SHIP_ACK(durable_lsn)` so the primary's `log.ship_lag_records`
//!    gauge tracks how far behind this replica is. Records are never
//!    acknowledged before they are durable on the replica's own disk.
//! 4. **Failover** — when the primary stops answering and reconnects
//!    fail, the loop calls [`VeriDb::promote`]: the replica seals a
//!    fresh epoch and starts logging its own writes. Clients
//!    [`RemoteClient::fail_over`](crate::RemoteClient::fail_over) to it
//!    with their `SeqIntervals` and pinned channel key intact — the
//!    promoted replica derives the *same* per-channel keys from the
//!    shared sealed entropy, so the attestation re-check passes and no
//!    sequence number ever repeats.

use crate::client::attested_connect;
use crate::frame::{net_err, read_frame, write_frame};
use crate::proto::{
    decode_error, decode_ship, decode_ship_meta, encode_ship_ack, encode_ship_sub, ShipMeta,
    MSG_BYE, MSG_ERROR, MSG_SHIP, MSG_SHIP_ACK, MSG_SHIP_META, MSG_SHIP_SUB,
};
use crate::server::SIM_ATTESTATION_ROOT;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use veridb::{LogRecord, VeriDb};
use veridb_common::{Error, Result};
use veridb_enclave::{Measurement, QuotingEnclave};

/// Consecutive failed reconnect probes before the replica declares the
/// primary dead and promotes itself.
const PROMOTE_PROBES: u32 = 3;

/// Pause between reconnect probes.
const PROBE_PAUSE: Duration = Duration::from_millis(50);

/// How a replica run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaOutcome {
    /// The caller asked the loop to stop; the instance is still a replica.
    Stopped,
    /// The primary went away; this instance promoted itself to primary.
    Promoted,
}

/// An open log-shipping subscription to a primary.
///
/// The read timeout must comfortably exceed the primary's heartbeat
/// cadence (500 ms), or idle periods will look like transport failures.
pub struct ShipSubscription {
    stream: TcpStream,
    addr: String,
    meta: ShipMeta,
}

impl ShipSubscription {
    /// Connect to `addr`, attest the primary's enclave against
    /// `identity`, and subscribe to its log from `from_lsn`.
    pub fn open(
        addr: &str,
        identity: &str,
        from_lsn: u64,
        timeout: Duration,
    ) -> Result<ShipSubscription> {
        // The replica is a client of the primary: the same attested
        // handshake, fresh nonce, full quote verification. A fake primary
        // cannot feed us a log (and could not have MAC-chained one anyway).
        let (mut stream, _) = attested_connect(
            addr,
            "__ship__",
            &QuotingEnclave::new(SIM_ATTESTATION_ROOT).verifier(),
            Measurement::of_code(identity.as_bytes()),
            timeout,
        )?;
        write_frame(&mut stream, addr, MSG_SHIP_SUB, &encode_ship_sub(from_lsn))?;
        let (kind, payload) = read_frame(&mut stream, addr)?;
        let meta = match kind {
            MSG_SHIP_META => decode_ship_meta(&payload)?,
            MSG_ERROR => return Err(decode_error(&payload)?.1),
            other => {
                return Err(net_err(
                    addr,
                    "subscribe",
                    format!("expected SHIP_META, got kind {other}"),
                ))
            }
        };
        Ok(ShipSubscription {
            stream,
            addr: addr.to_owned(),
            meta,
        })
    }

    /// The primary's subscription metadata (epoch, durable tip, sealed
    /// seed).
    pub fn meta(&self) -> &ShipMeta {
        &self.meta
    }

    /// Block for the next SHIP batch. An empty batch is a heartbeat.
    pub fn next_batch(&mut self) -> Result<Vec<LogRecord>> {
        let (kind, payload) = read_frame(&mut self.stream, &self.addr)?;
        match kind {
            MSG_SHIP => decode_ship(&payload),
            MSG_ERROR => Err(decode_error(&payload)?.1),
            MSG_BYE => Err(net_err(
                &self.addr,
                "ship",
                "primary closed the subscription",
            )),
            other => Err(net_err(
                &self.addr,
                "ship",
                format!("unexpected frame kind {other}"),
            )),
        }
    }

    /// Acknowledge that records up to `lsn` are durable on this side.
    pub fn ack(&mut self, lsn: u64) -> Result<()> {
        write_frame(
            &mut self.stream,
            &self.addr,
            MSG_SHIP_ACK,
            &encode_ship_ack(lsn),
        )
    }

    /// Orderly close (best effort).
    pub fn close(mut self) {
        let addr = self.addr.clone();
        let _ = write_frame(&mut self.stream, &addr, MSG_BYE, &[]);
    }
}

/// Fetch the primary's sealed root-entropy blob without consuming any of
/// its log: subscribe, take the `SHIP_META`, say goodbye.
pub fn fetch_seed(addr: &str, identity: &str, timeout: Duration) -> Result<Vec<u8>> {
    let sub = ShipSubscription::open(addr, identity, 1, timeout)?;
    let seed = sub.meta.sealed_seed.clone();
    sub.close();
    Ok(seed)
}

/// Make sure `data_dir` holds the primary's sealed seed before the
/// replica's first durable open. No-op when the seed file already exists
/// (a restarted replica must keep its own — it is the same blob anyway).
pub fn ensure_replica_seed(
    data_dir: &str,
    primary: &str,
    identity: &str,
    timeout: Duration,
) -> Result<()> {
    let path = Path::new(data_dir).join(veridb::durable::SEED_FILE);
    if path.exists() {
        return Ok(());
    }
    std::fs::create_dir_all(data_dir)
        .map_err(|e| Error::Io(format!("create data dir {data_dir}: {e}")))?;
    let seed = fetch_seed(primary, identity, timeout)?;
    veridb_log::store::write_file_atomic(&path, &seed)
}

/// The warm-replica apply loop. Blocks until `stop` is raised (returns
/// [`ReplicaOutcome::Stopped`]) or the primary is declared dead after
/// `PROMOTE_PROBES` failed reconnects, in which case the database is
/// [promoted](VeriDb::promote) and the loop returns
/// [`ReplicaOutcome::Promoted`]. Security violations — a feed that fails
/// chain verification, an attestation mismatch — abort immediately and
/// are never retried.
pub fn run_replica(
    db: &VeriDb,
    primary: &str,
    identity: &str,
    timeout: Duration,
    stop: &AtomicBool,
) -> Result<ReplicaOutcome> {
    let durable = db
        .durable()
        .ok_or_else(|| {
            Error::InvalidArgument("a replica needs a durable database (data_dir)".into())
        })?
        .clone();
    let mut probes = 0u32;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(ReplicaOutcome::Stopped);
        }
        let from = durable.wal().durable_lsn() + 1;
        let mut sub = match ShipSubscription::open(primary, identity, from, timeout) {
            Ok(sub) => sub,
            Err(e) if e.is_security_violation() => return Err(e),
            Err(_) => {
                probes += 1;
                if probes >= PROMOTE_PROBES {
                    db.promote()?;
                    return Ok(ReplicaOutcome::Promoted);
                }
                std::thread::sleep(PROBE_PAUSE);
                continue;
            }
        };
        probes = 0;
        loop {
            if stop.load(Ordering::Acquire) {
                sub.close();
                return Ok(ReplicaOutcome::Stopped);
            }
            match sub.next_batch() {
                Ok(batch) => {
                    // apply_shipped verifies the chain, extends the local
                    // WAL, replays, and waits for the fsync; heartbeats
                    // just re-ack the current durable tip.
                    let acked = if batch.is_empty() {
                        durable.wal().durable_lsn()
                    } else {
                        db.apply_shipped(&batch)?
                    };
                    if sub.ack(acked).is_err() {
                        break; // transport: reconnect or promote
                    }
                }
                Err(e) if e.is_security_violation() => return Err(e),
                Err(_) => break, // transport: reconnect or promote
            }
        }
    }
}

/// [`run_replica`] on a background thread, with a stop/join handle.
pub struct ReplicaRunner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Result<ReplicaOutcome>>>,
}

impl ReplicaRunner {
    /// Start the apply loop for `db` against `primary`.
    pub fn spawn(
        db: Arc<VeriDb>,
        primary: &str,
        identity: &str,
        timeout: Duration,
    ) -> ReplicaRunner {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let primary = primary.to_owned();
        let identity = identity.to_owned();
        let thread = std::thread::Builder::new()
            .name("veridb-replica".into())
            .spawn(move || run_replica(&db, &primary, &identity, timeout, &stop2))
            .expect("spawn replica thread");
        ReplicaRunner {
            stop,
            thread: Some(thread),
        }
    }

    /// Ask the loop to stop and wait for it. Returns how the run ended —
    /// [`ReplicaOutcome::Promoted`] if failover happened before the stop
    /// request landed.
    pub fn stop(mut self) -> Result<ReplicaOutcome> {
        self.stop.store(true, Ordering::Release);
        self.join_inner()
    }

    /// Wait for the loop to end on its own (promotion or error).
    pub fn join(mut self) -> Result<ReplicaOutcome> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> Result<ReplicaOutcome> {
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| Error::Io("replica thread panicked".into()))?,
            None => Ok(ReplicaOutcome::Stopped),
        }
    }
}

impl Drop for ReplicaRunner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
