//! VeriDB networked client/server layer.
//!
//! The paper's threat model (§5.1) has a *remote* client talking to the
//! enclave across an untrusted provider: queries carry `MAC_k(qid ‖ sql)`,
//! results come back endorsed with `MAC_k(qid ‖ seq ‖ digest)`, and a
//! strictly increasing sequence number defends against rollback. This
//! crate puts that protocol on a real wire:
//!
//! - [`frame`] — versioned, length-prefixed, CRC-checked binary framing.
//!   The framing layer is *untrusted*: its checks are transport hygiene,
//!   never security (DESIGN.md §13).
//! - [`proto`] — codecs for the handshake, signed queries, endorsed
//!   results, and errors, built on the workspace's canonical codec.
//! - [`server`] — an event-driven reactor over one shared
//!   [`veridb::VeriDb`]: a single epoll loop owns every socket, decodes
//!   and classifies frames, and queues typed requests for connection
//!   turns on the shared scheduler pool; per-channel
//!   persistent portals, CAS-exact connection admission, a global query
//!   queue with retryable `Overloaded` refusals, per-connection
//!   backpressure windows, idle reaping, and graceful draining shutdown.
//! - [`client`] — [`RemoteClient`], which reuses the in-process verifying
//!   client unchanged for attestation, MACs, and the `SeqIntervals`
//!   rollback defense, adding only transport concerns.
//! - [`proxy`] — [`TamperProxy`], an adversarial man-in-the-middle for
//!   tests: bit-flips, truncation, replay, reordering, drops.
//! - [`replica`] — the warm-replica runtime: [`ShipSubscription`] tails a
//!   primary's MAC-chained log, [`ReplicaRunner`] applies it through the
//!   verified replay path and ACKs durability, and on primary loss the
//!   replica promotes itself so clients can
//!   [`RemoteClient::fail_over`] with their rollback defenses intact.

pub mod client;
pub mod frame;
mod poll;
pub mod proto;
pub mod proxy;
pub mod replica;
pub mod server;

pub use client::RemoteClient;
pub use proxy::{Dir, Tamper, TamperProxy};
pub use replica::{
    ensure_replica_seed, fetch_seed, run_replica, ReplicaOutcome, ReplicaRunner, ShipSubscription,
};
pub use server::{serve, ServerHandle, SIM_ATTESTATION_ROOT};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use veridb::{VeriDb, VeriDbConfig};

    fn test_db() -> Arc<VeriDb> {
        let db = VeriDb::open(VeriDbConfig::default()).unwrap();
        db.sql("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
            .unwrap();
        db.sql("INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        Arc::new(db)
    }

    #[test]
    fn serve_query_round_trip() {
        let db = test_db();
        let mut server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut client =
            RemoteClient::connect_simulated(&addr, "t1", "veridb", Duration::from_secs(5)).unwrap();
        let remote = client.query("SELECT k, v FROM kv WHERE k = 2").unwrap();
        let local = db.sql("SELECT k, v FROM kv WHERE k = 2").unwrap();
        assert_eq!(remote.columns, local.columns);
        assert_eq!(remote.rows, local.rows);
        client.close();
        server.shutdown();
    }

    #[test]
    fn stats_reports_net_counters() {
        let db = test_db();
        let mut server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut client =
            RemoteClient::connect_simulated(&addr, "t2", "veridb", Duration::from_secs(5)).unwrap();
        client.query("SELECT k FROM kv").unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.contains("net.accepted 1"), "stats:\n{stats}");
        assert!(stats.contains("net.frames_in"), "stats:\n{stats}");
        let wire_count: u64 = stats
            .lines()
            .find(|l| l.starts_with("net.wire_ns.count "))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(wire_count >= 1);
        server.shutdown();
    }

    #[test]
    fn wrong_expected_measurement_fails_attestation() {
        let db = test_db();
        let mut server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let err =
            RemoteClient::connect_simulated(&addr, "t3", "not-veridb", Duration::from_secs(5))
                .unwrap_err();
        assert!(err.is_security_violation(), "got {err}");
        server.shutdown();
    }

    #[test]
    fn connection_refused_is_transport_error() {
        // Nothing listens on this port (bound then dropped).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err =
            RemoteClient::connect_simulated(&addr, "t4", "veridb", Duration::from_millis(200))
                .unwrap_err();
        assert!(matches!(err, veridb::Error::Net { .. }), "got {err}");
        assert!(!err.is_security_violation());
    }
}
