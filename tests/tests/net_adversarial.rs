//! The network adversary owns the wire (paper §2 threat model). Every
//! corruption the [`TamperProxy`] applies must surface as a client-visible
//! transport or verification error — never a wrong result. These tests
//! enumerate the corruptions and pin down which defense layer catches
//! each: untrusted CRC (transport hygiene), portal MACs (integrity), the
//! portal replay window (duplicate queries), and the client's SeqIntervals
//! (duplicate/rolled-back responses).

use std::sync::Arc;
use std::time::Duration;
use veridb::{Error, Value, VeriDb, VeriDbConfig};
use veridb_net::{Dir, RemoteClient, Tamper, TamperProxy};

const TIMEOUT: Duration = Duration::from_secs(3);

/// Wire frame order per connection: client→server frame 0 is HELLO and
/// frame 1 the first QUERY; server→client frame 0 is the QUOTE and frame 1
/// the first RESULT.
const FIRST_QUERY: usize = 1;
const FIRST_RESULT: usize = 1;

struct Rig {
    db: Arc<VeriDb>,
    /// Held for its Drop impl: shuts the server down when the rig goes.
    _server: veridb_net::ServerHandle,
    proxy: TamperProxy,
}

fn rig() -> Rig {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let db = VeriDb::open(cfg).unwrap();
    db.sql("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    db.sql("INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d')")
        .unwrap();
    let db = Arc::new(db);
    let server = veridb_net::serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let proxy = TamperProxy::start(&server.local_addr().to_string()).unwrap();
    Rig {
        db,
        _server: server,
        proxy,
    }
}

impl Rig {
    fn client(&self) -> RemoteClient {
        RemoteClient::connect_simulated(
            &self.proxy.local_addr().to_string(),
            "adversarial",
            "veridb",
            TIMEOUT,
        )
        .unwrap()
    }

    /// Poll a server-side counter until it reaches `want` (the duplicate
    /// frame races the assertion otherwise).
    fn wait_counter(&self, name: &str, want: u64) -> u64 {
        for _ in 0..200 {
            let snap = self.db.metrics();
            let v = snap
                .counters()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .unwrap_or(0);
            if v >= want {
                return v;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        0
    }
}

#[test]
fn bitflipped_query_with_fixed_crc_is_caught_by_the_portal_mac() {
    // The adversary repairs the untrusted CRC after flipping a payload
    // bit, so the framing layer accepts the frame. Integrity must rest on
    // the portal MAC alone (the CRC is explicitly not load-bearing).
    let r = rig();
    r.proxy.set_tamper(
        Dir::ClientToServer,
        FIRST_QUERY,
        Tamper::BitFlip { fix_crc: true },
    );
    let mut client = r.client();
    let err = client.query("SELECT v FROM t WHERE id = 1").unwrap_err();
    assert!(err.is_security_violation(), "got: {err}");
    assert!(matches!(err, Error::AuthFailed(_)), "got: {err}");
    assert_eq!(r.proxy.applied(), 1);
}

#[test]
fn bitflipped_query_with_stale_crc_is_a_transport_error() {
    // Without the CRC fix-up the framing layer rejects the frame before
    // any MAC runs: a plain transport failure, not a security alarm.
    let r = rig();
    r.proxy.set_tamper(
        Dir::ClientToServer,
        FIRST_QUERY,
        Tamper::BitFlip { fix_crc: false },
    );
    let mut client = r.client();
    let err = client.query("SELECT v FROM t WHERE id = 1").unwrap_err();
    assert!(!err.is_security_violation(), "got: {err}");
    assert!(matches!(err, Error::Net { .. }), "got: {err}");
    assert!(r.wait_counter("net.frame_rejects", 1) >= 1);
}

#[test]
fn bitflipped_result_with_fixed_crc_fails_endorsement_verification() {
    let r = rig();
    r.proxy.set_tamper(
        Dir::ServerToClient,
        FIRST_RESULT,
        Tamper::BitFlip { fix_crc: true },
    );
    let mut client = r.client();
    let err = client.query("SELECT v FROM t WHERE id = 1").unwrap_err();
    assert!(err.is_security_violation(), "got: {err}");
    assert!(matches!(err, Error::AuthFailed(_)), "got: {err}");
}

#[test]
fn truncated_result_is_a_transport_error() {
    let r = rig();
    r.proxy
        .set_tamper(Dir::ServerToClient, FIRST_RESULT, Tamper::Truncate);
    let mut client = r.client();
    let err = client.query("SELECT v FROM t WHERE id = 1").unwrap_err();
    assert!(!err.is_security_violation(), "got: {err}");
    assert!(matches!(err, Error::Net { .. }), "got: {err}");
}

#[test]
fn replayed_query_frame_trips_the_portal_replay_window() {
    // The adversary duplicates the signed query frame. The portal executes
    // the first copy and must reject the second by qid — and the client's
    // own query still completes with the correct answer.
    let r = rig();
    r.proxy
        .set_tamper(Dir::ClientToServer, FIRST_QUERY, Tamper::Replay);
    let mut client = r.client();
    let got = client.query("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(got.rows[0].values()[0], Value::Str("b".into()));
    assert!(
        r.wait_counter("portal.replays_rejected", 1) >= 1,
        "the duplicated frame must be rejected by the replay window"
    );
}

#[test]
fn replayed_query_frame_does_not_fail_a_pipelined_batch() {
    // The portal's refusal of the duplicated query comes back as an ERROR
    // echo for a qid that was already answered. The pipelined loop must
    // skip it like a single query does, whether the echo lands in a later
    // batch or in the batch that contains the replayed query. Each rig has
    // one client: a second client on the same channel would legitimately
    // collide on qid 1.
    let batch = [
        "SELECT v FROM t WHERE id = 3",
        "SELECT v FROM t WHERE id = 4",
    ];
    let after_single = rig();
    after_single
        .proxy
        .set_tamper(Dir::ClientToServer, FIRST_QUERY, Tamper::Replay);
    let mut client = after_single.client();
    let got = client.query("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(got.rows[0].values()[0], Value::Str("b".into()));
    let results = client.query_pipelined(&batch, 2).unwrap();
    assert_eq!(results[0].rows[0].values()[0], Value::Str("c".into()));
    assert_eq!(results[1].rows[0].values()[0], Value::Str("d".into()));
    assert!(after_single.wait_counter("portal.replays_rejected", 1) >= 1);

    let in_batch = rig();
    in_batch
        .proxy
        .set_tamper(Dir::ClientToServer, FIRST_QUERY, Tamper::Replay);
    let mut client = in_batch.client();
    let results = client.query_pipelined(&batch, 2).unwrap();
    assert_eq!(results[0].rows[0].values()[0], Value::Str("c".into()));
    assert_eq!(results[1].rows[0].values()[0], Value::Str("d".into()));
    assert!(in_batch.wait_counter("portal.replays_rejected", 1) >= 1);
}

#[test]
fn replayed_query_frame_does_not_fail_a_following_stats_call() {
    // The portal's ERROR echo for the replayed query is still queued on
    // the connection when `stats` runs. `stats` must skip it like the
    // query loop does, and must consume its own STATS_OK so the next
    // query reads its own answer.
    let r = rig();
    r.proxy
        .set_tamper(Dir::ClientToServer, FIRST_QUERY, Tamper::Replay);
    let mut client = r.client();
    let got = client.query("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(got.rows[0].values()[0], Value::Str("b".into()));
    let stats = client.stats().unwrap();
    assert!(stats.contains("portal.replays_rejected"), "stats:\n{stats}");
    let got = client.query("SELECT v FROM t WHERE id = 3").unwrap();
    assert_eq!(got.rows[0].values()[0], Value::Str("c".into()));
}

#[test]
fn replayed_result_frame_is_refused_without_poisoning_the_session() {
    // The adversary duplicates an endorsed RESULT. The copy is CRC-valid
    // and MAC-valid — it is a genuine old endorsement, byte for byte — so
    // the framing and MAC layers pass it. The client must refuse it (the
    // sequence number is spent), but a transport-level duplicate is not
    // an attack on any *other* query: the refusal is visible, scoped to
    // that frame, and the session keeps working.
    let r = rig();
    r.proxy
        .set_tamper(Dir::ServerToClient, FIRST_RESULT, Tamper::Replay);
    let mut client = r.client();
    let got = client.query("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(got.rows[0].values()[0], Value::Str("b".into()));
    // The duplicate is sitting in the socket; the next exchange reads it
    // first, refuses it, and still completes its own query.
    let got = client.query("SELECT v FROM t WHERE id = 3").unwrap();
    assert_eq!(got.rows[0].values()[0], Value::Str("c".into()));
    assert_eq!(
        client.duplicates_refused(),
        1,
        "the duplicate must be refused visibly, not skipped silently"
    );
    // The session stays fully usable: a pipelined batch on the same
    // connection still verifies end to end.
    let results = client
        .query_pipelined(
            &[
                "SELECT v FROM t WHERE id = 4",
                "SELECT v FROM t WHERE id = 1",
            ],
            2,
        )
        .unwrap();
    assert_eq!(results[0].rows[0].values()[0], Value::Str("d".into()));
    assert_eq!(results[1].rows[0].values()[0], Value::Str("a".into()));
}

#[test]
fn reordered_results_in_a_pipelined_batch_still_verify() {
    // Reordering independent endorsed results is not an integrity
    // violation (§5.1 matches results to queries by qid); the pipelined
    // batch must still return every answer, correctly, in input order.
    let r = rig();
    r.proxy
        .set_tamper(Dir::ServerToClient, FIRST_RESULT, Tamper::SwapNext);
    let mut client = r.client();
    let results = client
        .query_batch(&[
            "SELECT v FROM t WHERE id = 4",
            "SELECT v FROM t WHERE id = 1",
        ])
        .unwrap();
    assert_eq!(results[0].rows[0].values()[0], Value::Str("d".into()));
    assert_eq!(results[1].rows[0].values()[0], Value::Str("a".into()));
    assert_eq!(r.proxy.applied(), 1, "the reorder must actually have fired");
}

#[test]
fn dropped_result_frame_times_out_as_transport_error() {
    let r = rig();
    r.proxy
        .set_tamper(Dir::ServerToClient, FIRST_RESULT, Tamper::Drop);
    let mut client = r.client();
    let err = client.query("SELECT v FROM t WHERE id = 1").unwrap_err();
    assert!(!err.is_security_violation(), "got: {err}");
    assert!(matches!(err, Error::Net { .. }), "got: {err}");
}

#[test]
fn corruption_sweep_never_yields_a_wrong_result() {
    // The blanket claim, mechanically: for every tamper in the catalog,
    // applied to the first query and the first result, a query either
    // returns the exact correct answer or a client-visible error. There is
    // no third outcome.
    let tampers = [
        Tamper::BitFlip { fix_crc: true },
        Tamper::BitFlip { fix_crc: false },
        Tamper::Truncate,
        Tamper::Replay,
        Tamper::SwapNext,
        Tamper::Drop,
    ];
    for dir in [Dir::ClientToServer, Dir::ServerToClient] {
        for tamper in tampers {
            let r = rig();
            let nth = if dir == Dir::ClientToServer {
                FIRST_QUERY
            } else {
                FIRST_RESULT
            };
            r.proxy.set_tamper(dir, nth, tamper);
            let mut client = r.client();
            for sql in [
                "SELECT v FROM t WHERE id = 2",
                "SELECT v FROM t WHERE id = 2",
            ] {
                match client.query(sql) {
                    Ok(got) => {
                        assert_eq!(
                            got.rows[0].values()[0],
                            Value::Str("b".into()),
                            "{dir:?}/{tamper:?}: a returned result must be the right one"
                        );
                    }
                    Err(e) => {
                        // Any error is acceptable; a wrong result is not.
                        let _ = e;
                        break;
                    }
                }
            }
            drop(client);
        }
    }
}
