//! Warm-replica log shipping over the wire, end to end: a cold replica
//! bootstraps from the primary's sealed seed, tails the MAC-chained log
//! through the verified apply path, the primary's `log.ship_lag_records`
//! gauge drains to zero, and when the primary dies the replica promotes
//! itself and remote clients fail over with their `SeqIntervals` and
//! pinned channel key intact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use veridb::{Value, VeriDb, VeriDbConfig};
use veridb_net::{ensure_replica_seed, serve, RemoteClient, ReplicaOutcome, ReplicaRunner};

const TIMEOUT: Duration = Duration::from_secs(5);
const DEADLINE: Duration = Duration::from_secs(30);

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "veridb-netrep-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &std::path::Path) -> VeriDbConfig {
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    cfg.data_dir = Some(dir.display().to_string());
    cfg.group_commit_window_us = 0;
    cfg
}

/// Poll until the replica's durable WAL tip catches the primary's.
fn wait_caught_up(primary: &VeriDb, replica: &VeriDb) {
    let target = primary.durable().unwrap().wal().durable_lsn();
    let start = Instant::now();
    while replica.durable().unwrap().wal().durable_lsn() < target {
        assert!(
            start.elapsed() < DEADLINE,
            "replica never caught up: {} < {target}",
            replica.durable().unwrap().wal().durable_lsn()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn stats_gauge(stats: &str, name: &str) -> Option<u64> {
    stats
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn cold_replica_bootstraps_ships_and_fails_over() {
    // --- Primary: durable, served, with some committed state. ---
    let pdir = tmpdir("primary");
    let primary = Arc::new(VeriDb::open(durable_config(&pdir)).unwrap());
    primary
        .sql("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
        .unwrap();
    primary
        .sql("INSERT INTO acct VALUES (1,100),(2,200)")
        .unwrap();
    let mut pserver = serve(Arc::clone(&primary), "127.0.0.1:0").unwrap();
    let paddr = pserver.local_addr().to_string();

    // --- Cold replica: fetch the sealed seed over the attested wire,
    // then open durably in replica mode and start tailing from lsn 1. ---
    let rdir = tmpdir("replica");
    ensure_replica_seed(&rdir.display().to_string(), &paddr, "veridb", TIMEOUT).unwrap();
    assert!(rdir.join("enclave.seed.sealed").exists());
    let mut rcfg = durable_config(&rdir);
    rcfg.replica_of = Some(paddr.clone());
    let replica = Arc::new(VeriDb::open(rcfg).unwrap());
    let runner = ReplicaRunner::spawn(Arc::clone(&replica), &paddr, "veridb", TIMEOUT);

    // --- A client racks up verified history against the primary. ---
    let mut client = RemoteClient::connect_simulated(&paddr, "fo", "veridb", TIMEOUT).unwrap();
    let r = client
        .query("SELECT id, bal FROM acct WHERE id = 1")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Int(100));

    // More protected writes while the subscription is live.
    primary
        .sql("UPDATE acct SET bal = 150 WHERE id = 1")
        .unwrap();
    primary.sql("INSERT INTO acct VALUES (3,300)").unwrap();
    wait_caught_up(&primary, &replica);

    // The shipped copy is queryable and identical on the replica side.
    let local = replica.sql("SELECT id, bal FROM acct").unwrap();
    assert_eq!(local.rows.len(), 3);
    replica.verify_now().unwrap();

    // The primary's lag gauge drains to zero once the replica ACKs the
    // tip (heartbeat ACKs keep refreshing it, so just poll briefly).
    let start = Instant::now();
    loop {
        let stats = client.stats().unwrap();
        match stats_gauge(&stats, "log.ship_lag_records") {
            Some(0) => break,
            got => assert!(
                start.elapsed() < DEADLINE,
                "ship lag never drained: {got:?}\n{stats}"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // --- Kill the primary. The replica must promote itself. ---
    pserver.shutdown();
    assert_eq!(runner.join().unwrap(), ReplicaOutcome::Promoted);

    // --- Serve the promoted replica; the client fails over to it. ---
    let mut rserver = serve(Arc::clone(&replica), "127.0.0.1:0").unwrap();
    let raddr = rserver.local_addr().to_string();
    client.fail_over(&raddr).unwrap();

    // Same channel key (pinned key_id passed), same data, and the
    // sequence history survives: every new endorsement still verifies
    // against the SeqIntervals accumulated on the primary.
    let r = client.query("SELECT bal FROM acct WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(150));
    let r = client.query("SELECT bal FROM acct WHERE id = 3").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(300));

    // The promoted replica accepts new protected writes and endorses
    // them at higher sequence numbers.
    client.query("INSERT INTO acct VALUES (4,400)").unwrap();
    let r = client.query("SELECT bal FROM acct WHERE id = 4").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(400));

    client.close();
    rserver.shutdown();
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn replica_restart_resumes_from_local_tip() {
    // A replica that stops and restarts must resubscribe from its own
    // durable tip, not refetch history it already holds.
    let pdir = tmpdir("primary2");
    let primary = Arc::new(VeriDb::open(durable_config(&pdir)).unwrap());
    primary.sql("CREATE TABLE t (k INT PRIMARY KEY)").unwrap();
    primary.sql("INSERT INTO t VALUES (1),(2)").unwrap();
    let mut pserver = serve(Arc::clone(&primary), "127.0.0.1:0").unwrap();
    let paddr = pserver.local_addr().to_string();

    let rdir = tmpdir("replica2");
    ensure_replica_seed(&rdir.display().to_string(), &paddr, "veridb", TIMEOUT).unwrap();
    let mut rcfg = durable_config(&rdir);
    rcfg.replica_of = Some(paddr.clone());

    // First run: catch up, then stop cleanly.
    {
        let replica = Arc::new(VeriDb::open(rcfg.clone()).unwrap());
        let runner = ReplicaRunner::spawn(Arc::clone(&replica), &paddr, "veridb", TIMEOUT);
        wait_caught_up(&primary, &replica);
        assert_eq!(runner.stop().unwrap(), ReplicaOutcome::Stopped);
    }

    // Primary moves on while the replica is down.
    primary.sql("INSERT INTO t VALUES (3),(4)").unwrap();

    // Second run: reopen the same data dir and resume from the local
    // tip; only the missing suffix ships.
    let replica = Arc::new(VeriDb::open(rcfg).unwrap());
    let before = replica.durable().unwrap().wal().durable_lsn();
    assert!(before > 0, "restart must keep the shipped prefix");
    let runner = ReplicaRunner::spawn(Arc::clone(&replica), &paddr, "veridb", TIMEOUT);
    wait_caught_up(&primary, &replica);
    let r = replica.sql("SELECT k FROM t").unwrap();
    assert_eq!(r.rows.len(), 4);
    replica.verify_now().unwrap();
    assert_eq!(runner.stop().unwrap(), ReplicaOutcome::Stopped);

    pserver.shutdown();
    drop(primary);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn ship_subscription_refused_without_durable_server() {
    // An ephemeral (no data_dir) server has no log to ship; the
    // subscription must be refused visibly, not hang.
    let mut cfg = VeriDbConfig::default();
    cfg.verify_every_ops = None;
    let db = Arc::new(VeriDb::open(cfg).unwrap());
    let mut server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let err = veridb_net::fetch_seed(&addr, "veridb", TIMEOUT).unwrap_err();
    assert!(
        matches!(err, veridb::Error::InvalidArgument(_)),
        "got {err}"
    );
    server.shutdown();
}
