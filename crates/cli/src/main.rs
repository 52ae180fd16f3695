//! `veridb` — an interactive SQL shell over a VeriDB instance.
//!
//! ```text
//! $ cargo run -p veridb-cli --release
//! veridb> CREATE TABLE t (id INT PRIMARY KEY, v TEXT)
//! veridb> INSERT INTO t VALUES (1, 'hello')
//! veridb> SELECT * FROM t
//! veridb> .verify
//! veridb> .help
//! ```
//!
//! Meta commands: `.help`, `.tables`, `.schema <table>`, `.verify`,
//! `.costs`, `.stats`, `.timing on|off`, `.demo` (loads the paper's
//! quote/inventory example), `.tpch [rows]` (loads a small TPC-H dataset),
//! `.quit`. Everything else is SQL, executed through the in-enclave engine
//! with verified storage underneath.
//!
//! Non-interactive: `veridb stats [rows]` loads a TPC-H-style workload,
//! runs the paper's query mix, and prints one `veridb-obs` metrics
//! snapshot — a quick end-to-end check that observability is wired
//! through every layer.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::Instant;
use veridb::{PlanOptions, QueryResult, VeriDb, VeriDbConfig};

/// The global flags, taken anywhere on the command line as `--flag v` or
/// `--flag=v`. All of them take a value.
const FLAGS: [&str; 8] = [
    "--workers",
    "--pool",
    "--listen",
    "--channel",
    "--max-conns",
    "--net-queue",
    "--data-dir",
    "--replica-of",
];

const USAGE: &str = "usage: veridb [flags]               interactive SQL shell\n\
     \x20      veridb [flags] stats [rows] run a TPC-H-style workload and print metrics\n\
     \x20      veridb [flags] serve        serve the verifiable protocol over TCP\n\
     \x20      veridb connect <host:port>  remote verifying SQL shell\n\
     flags:\n\
     \x20 --workers <n>         parallelism cap (DOP) on the shared scheduler\n\
     \x20                       pool, for each query and for the verification\n\
     \x20                       pass of .verify / stats\n\
     \x20                       (default: $VERIDB_WORKERS or 1)\n\
     \x20 --pool <n>            shared scheduler pool size — one pool serves all\n\
     \x20                       concurrent queries and net turns (default:\n\
     \x20                       $VERIDB_POOL, $VERIDB_WORKERS, or machine cores)\n\
     \x20 --listen <addr>       serve: listen address\n\
     \x20                       (default: $VERIDB_LISTEN or 127.0.0.1:5433)\n\
     \x20 --channel <name>      connect: portal channel name (default: repl)\n\
     \x20 --max-conns <n>       serve: concurrent connection cap\n\
     \x20                       (default: $VERIDB_MAX_CONNS or 64)\n\
     \x20 --net-queue <n>       serve: admission queue depth; queries past it\n\
     \x20                       get a retryable Overloaded error\n\
     \x20                       (default: $VERIDB_NET_QUEUE or 256)\n\
     \x20 --data-dir <path>     durable mode: MAC-chained write-ahead log,\n\
     \x20                       snapshots, sealed epoch manifests; restart\n\
     \x20                       recovers (or refuses, on rollback) from here\n\
     \x20 --replica-of <addr>   serve: run as a warm replica of the primary at\n\
     \x20                       <addr> — tail its endorsed log, auto-promote\n\
     \x20                       when it dies (requires --data-dir)\n\
     net knobs: $VERIDB_MAX_CONNS, $VERIDB_NET_TIMEOUT_MS, $VERIDB_NET_QUEUE,\n\
     \x20         $VERIDB_REPLAY_WINDOW";

fn main() {
    let mut flags: HashMap<&str, String> = HashMap::new();
    let mut positional: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--help" || !a.starts_with("--") {
            positional.push(a);
            continue;
        }
        let (name, inline) = match a.split_once('=') {
            Some((name, v)) => (name, Some(v.to_owned())),
            None => (a.as_str(), None),
        };
        let Some(&flag) = FLAGS.iter().find(|&&f| f == name) else {
            eprintln!("veridb: unknown flag {name}\n{USAGE}");
            std::process::exit(2);
        };
        match inline.or_else(|| it.next()) {
            Some(v) => {
                flags.insert(flag, v);
            }
            None => eprintln!("warning: {flag} requires a value; ignoring the flag"),
        }
    }
    let workers: Option<usize> = parse_flag(&flags, "--workers");
    let pool: Option<usize> = parse_flag(&flags, "--pool");
    let max_conns: Option<usize> = parse_flag(&flags, "--max-conns");
    let net_queue: Option<usize> = parse_flag(&flags, "--net-queue");
    let listen = flags.remove("--listen");
    let channel = flags.remove("--channel");
    let data_dir = flags.remove("--data-dir");
    let replica_of = flags.remove("--replica-of");
    let mut config = VeriDbConfig::default();
    if let Some(w) = workers {
        if !(1..=64).contains(&w) {
            eprintln!("warning: --workers {w} out of range (1..=64); clamping");
        }
        config.workers = w.clamp(1, 64);
    }
    if let Some(p) = pool {
        if !(1..=64).contains(&p) {
            eprintln!("warning: --pool {p} out of range (1..=64); clamping");
        }
        config.pool_threads = p.clamp(1, 64);
    }
    if let Some(n) = max_conns {
        config.max_conns = n.max(1);
    }
    if let Some(n) = net_queue {
        config.net_queue_depth = n.clamp(1, 1 << 20);
    }
    if let Some(d) = data_dir {
        config.data_dir = Some(d);
    }
    if let Some(p) = replica_of {
        if config.data_dir.is_none() {
            eprintln!("--replica-of requires --data-dir (the replica keeps its own endorsed log)");
            std::process::exit(2);
        }
        if positional.first().map(String::as_str) != Some("serve") {
            eprintln!("--replica-of only makes sense with the serve subcommand");
            std::process::exit(2);
        }
        config.replica_of = Some(p);
    }
    match positional.first().map(String::as_str) {
        Some("stats") => {
            let rows = positional
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(2_000);
            std::process::exit(cmd_stats(rows, config));
        }
        Some("serve") => {
            std::process::exit(cmd_serve(listen, config));
        }
        Some("connect") => {
            let Some(addr) = positional.get(1).cloned() else {
                eprintln!("usage: veridb connect <host:port> [--channel <name>]");
                std::process::exit(2);
            };
            let channel = channel.unwrap_or_else(|| "repl".to_owned());
            std::process::exit(cmd_connect(&addr, &channel, &config));
        }
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return;
        }
        _ => {}
    }
    let db = match VeriDb::open(config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to open database: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "VeriDB shell — {} RSWS partitions, verifier every {:?} ops, {} worker(s).\n\
         Type SQL, or .help for meta commands.",
        db.config().rsws_partitions,
        db.config().verify_every_ops,
        db.config().workers,
    );

    let stdin = std::io::stdin();
    let mut timing = true;
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("veridb> ");
        } else {
            print!("   ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if buffer.is_empty() && line.starts_with('.') {
            if !meta_command(&db, line, &mut timing) {
                break;
            }
            continue;
        }
        // Accumulate until a statement terminator (or take the line as-is).
        buffer.push_str(line);
        buffer.push(' ');
        if !line.ends_with(';') && line.ends_with('\\') {
            buffer.pop();
            buffer.pop(); // strip the continuation backslash
            continue;
        }
        let sql = buffer.trim().trim_end_matches(';').to_owned();
        buffer.clear();
        run_sql(&db, &sql, timing);
    }
    println!();
}

/// Parse a flag's value, warning (with the offending input named) and
/// ignoring the flag when the value is missing or unparseable — a typo
/// silently falling back to defaults is a debugging trap.
fn parse_flag<T: std::str::FromStr>(flags: &HashMap<&str, String>, flag: &str) -> Option<T> {
    let raw = flags.get(flag)?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: invalid {flag} value {raw:?}; ignoring the flag");
            None
        }
    }
}

/// `veridb stats [rows]`: load TPC-H tables, run the paper's query mix
/// (Q1, Q3, Q6, Q19), verify, and print the metrics snapshot.
fn cmd_stats(rows: usize, config: VeriDbConfig) -> i32 {
    let db = match VeriDb::open(config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to open database: {e}");
            return 1;
        }
    };
    let cfg = veridb_workloads::TpchConfig {
        lineitem_rows: rows,
        part_rows: (rows / 30).max(50),
        ..Default::default()
    };
    println!("generating TPC-H ({rows} lineitem rows)…");
    let data = veridb_workloads::TpchData::generate(&cfg);
    if let Err(e) = data.load(&db) {
        eprintln!("error loading workload: {e}");
        return 1;
    }
    // Drive the query mix through the authenticated portal so the whole
    // stack — MAC check, replay window, ECall, engine, verified scans —
    // shows up in the counters.
    use veridb_workloads::tpch;
    let portal = db.portal("stats");
    let mut client = veridb::Client::with_key(portal.channel_key_for_attested_client());
    for (name, sql) in [
        ("Q1", tpch::q1()),
        ("Q3", tpch::q3()),
        ("Q6", tpch::q6()),
        ("Q19", tpch::q19()),
    ] {
        let q = client.sign_query(sql);
        match portal.submit(&q) {
            Ok(e) => println!("{name}: {} row(s)", e.result.rows.len()),
            Err(e) => {
                eprintln!("{name} failed: {e}");
                return 1;
            }
        }
    }
    if let Err(e) = db.verify_now() {
        eprintln!("SECURITY ALARM: {e}");
        return 1;
    }
    print!("{}", db.metrics());
    0
}

/// `veridb serve [--listen addr]`: serve the verifiable protocol over TCP
/// until stdin closes or `quit` is typed. Remote clients attest, then run
/// SQL through per-channel authenticated portals.
fn cmd_serve(listen: Option<String>, config: VeriDbConfig) -> i32 {
    let addr = listen
        .or_else(|| config.listen_addr.clone())
        .unwrap_or_else(|| "127.0.0.1:5433".to_owned());
    let net_timeout = std::time::Duration::from_millis(config.net_timeout_ms);
    // A cold replica needs the primary's sealed root entropy before its
    // first durable open — fetched over the attested wire, written once.
    if let (Some(primary), Some(dir)) = (config.replica_of.clone(), config.data_dir.clone()) {
        if let Err(e) = veridb_net::ensure_replica_seed(&dir, &primary, "veridb", net_timeout) {
            eprintln!("failed to bootstrap replica seed from {primary}: {e}");
            return 1;
        }
    }
    let db = match VeriDb::open(config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("failed to open database: {e}");
            return 1;
        }
    };
    let db = std::sync::Arc::new(db);
    let runner = db.config().replica_of.clone().map(|primary| {
        veridb_net::ReplicaRunner::spawn(
            std::sync::Arc::clone(&db),
            &primary,
            "veridb",
            net_timeout,
        )
    });
    let mut server = match veridb_net::serve(std::sync::Arc::clone(&db), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            return 1;
        }
    };
    println!(
        "VeriDB serving on {} — {} max conn(s), {}-query admission queue, \
         {} ms frame timeout, replay window {}. Type 'quit' (or close stdin) to stop.",
        server.local_addr(),
        db.config().max_conns,
        db.config().net_queue_depth,
        db.config().net_timeout_ms,
        db.config().replay_window
    );
    match (&db.config().data_dir, &db.config().replica_of) {
        (Some(dir), Some(primary)) => println!(
            "durable: data dir {dir} — warm replica of {primary}, applying its endorsed \
             log through the verified path (auto-promotes if the primary dies)."
        ),
        (Some(dir), None) => println!(
            "durable: data dir {dir} — MAC-chained log, group commit, sealed epoch \
             manifests; restart recovers or refuses on rollback."
        ),
        (None, _) => println!(
            "durable: OFF — ephemeral instance; pass --data-dir to enable the endorsed log."
        ),
    }
    let stdin = std::io::stdin();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => {
                // stdin closed (e.g. daemonized in CI): keep serving until
                // the process is signalled.
                loop {
                    std::thread::park();
                }
            }
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
    }
    println!("shutting down (draining in-flight queries)…");
    server.shutdown();
    if let Some(r) = runner {
        let _ = r.stop();
    }
    0
}

/// `veridb connect <addr>`: a remote verifying SQL shell. Every result is
/// MAC-verified and sequence-checked by the client before it is printed.
fn cmd_connect(addr: &str, channel: &str, config: &VeriDbConfig) -> i32 {
    let timeout = std::time::Duration::from_millis(config.net_timeout_ms);
    let mut client =
        match veridb_net::RemoteClient::connect_simulated(addr, channel, "veridb", timeout) {
            Ok(c) => c,
            Err(e) => {
                if e.is_security_violation() {
                    eprintln!("SECURITY ALARM: {e}");
                } else {
                    eprintln!("failed to connect: {e}");
                }
                return 1;
            }
        };
    println!(
        "connected to {addr} (channel {channel:?}, enclave attested).\n\
         Type SQL, .stats for server metrics, .quit to exit."
    );
    let stdin = std::io::stdin();
    loop {
        print!("veridb[{addr}]> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" | ".q" => break,
            ".stats" => match client.stats() {
                Ok(text) => print!("{text}"),
                Err(e) => eprintln!("error: {e}"),
            },
            sql => {
                let start = Instant::now();
                match client.query(sql.trim_end_matches(';')) {
                    Ok(result) => {
                        let dt = start.elapsed();
                        print_result(&result);
                        println!("-- {:.3} ms over the wire", dt.as_secs_f64() * 1e3);
                    }
                    Err(e) if e.is_security_violation() => {
                        // Verification failures are never retried and never
                        // downgraded: surface loudly and stop trusting the
                        // session.
                        eprintln!("SECURITY ALARM: {e}");
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
    }
    client.close();
    println!();
    0
}

/// Print a statement's outcome: the affected-row count of DML/DDL, or the
/// result table and its row count.
fn print_result(result: &QueryResult) {
    if result.columns == ["rows_affected"] {
        match result.rows.first().and_then(|r| r.values().first()) {
            Some(n) => println!("ok ({n} row(s) affected)"),
            None => println!("ok"),
        }
    } else {
        print!("{}", result.to_table());
        println!("({} row(s))", result.rows.len());
    }
}

fn run_sql(db: &VeriDb, sql: &str, timing: bool) {
    let start = Instant::now();
    match db.sql(sql) {
        Ok(result) => {
            let dt = start.elapsed();
            print_result(&result);
            if timing {
                println!("-- {:.3} ms", dt.as_secs_f64() * 1e3);
            }
        }
        Err(e) => {
            if e.is_security_violation() {
                eprintln!("SECURITY ALARM: {e}");
            } else {
                eprintln!("error: {e}");
            }
        }
    }
}

/// Handle a `.meta` command; returns false to exit the shell.
fn meta_command(db: &VeriDb, line: &str, timing: &mut bool) -> bool {
    let mut parts = line.split_whitespace();
    match parts.next().unwrap_or("") {
        ".quit" | ".exit" | ".q" => return false,
        ".help" => {
            println!(
                "meta commands:\n\
                 \x20 .tables            list tables\n\
                 \x20 .schema <table>    show a table's columns and chains\n\
                 \x20 .explain <sql>     show the physical plan\n\
                 \x20 .verify            run a full verification pass\n\
                 \x20                    (at the --workers DOP)\n\
                 \x20 .costs             simulated SGX cost counters\n\
                 \x20 .stats             veridb-obs metrics snapshot (all layers)\n\
                 \x20 .timing on|off     toggle query timing\n\
                 \x20 .demo              load the paper's quote/inventory tables\n\
                 \x20 .tpch [rows]       load a small TPC-H dataset\n\
                 \x20 .quit              exit\n\
                 anything else is executed as SQL"
            );
        }
        ".tables" => {
            for name in db.catalog().table_names() {
                match db.catalog().table(&name) {
                    Ok(t) => println!("{name}  ({} rows)", t.row_count()),
                    Err(e) => eprintln!("{name}  (error: {e})"),
                }
            }
        }
        ".schema" => match parts.next() {
            Some(name) => match db.table(name) {
                Ok(t) => {
                    for (i, col) in t.schema().columns().iter().enumerate() {
                        println!(
                            "{:<3} {:<20} {:<6} {}",
                            i,
                            col.name,
                            col.ty.to_string(),
                            if col.chained { "CHAINED" } else { "" }
                        );
                    }
                }
                Err(e) => eprintln!("error: {e}"),
            },
            None => eprintln!("usage: .schema <table>"),
        },
        ".explain" => {
            let sql: String = parts.collect::<Vec<_>>().join(" ");
            match db.explain(&sql, &PlanOptions::default()) {
                Ok(plan) => print!("{plan}"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        ".verify" => {
            let start = Instant::now();
            match db.verify_now() {
                Ok(report) => println!(
                    "verification PASSED: {} pages processed ({} re-read) \
                     at DOP {} in {:.3} ms",
                    report.pages_processed,
                    report.pages_read,
                    db.memory().workers(),
                    start.elapsed().as_secs_f64() * 1e3
                ),
                Err(e) => eprintln!("SECURITY ALARM: {e}"),
            }
        }
        ".costs" => {
            for (name, value) in db.costs() {
                println!("{name} {value}");
            }
        }
        ".stats" => {
            print!("{}", db.metrics());
            let lag = db.verification_lag();
            let max_lag = lag.iter().map(|(_, l)| *l).max().unwrap_or(0);
            println!(
                "verification lag: max {max_lag} op(s) across {} partition(s)",
                lag.len()
            );
        }
        ".timing" => match parts.next() {
            Some("on") => *timing = true,
            Some("off") => *timing = false,
            _ => eprintln!("usage: .timing on|off"),
        },
        ".demo" => {
            for sql in [
                "CREATE TABLE quote (id INT PRIMARY KEY, count INT, price INT)",
                "CREATE TABLE inventory (id INT PRIMARY KEY, count INT, descr TEXT)",
                "INSERT INTO quote VALUES (1,100,100),(2,100,200),(3,500,100),(4,600,100)",
                "INSERT INTO inventory VALUES (1,50,'desc1'),(3,200,'desc3'),\
                 (4,100,'desc4'),(6,100,'desc6')",
            ] {
                if let Err(e) = db.sql(sql) {
                    eprintln!("error: {e}");
                    return true;
                }
            }
            println!("loaded quote (4 rows) and inventory (4 rows) — try:");
            println!(
                "  SELECT q.id, q.count, i.count FROM quote q, inventory i \
                 WHERE q.id = i.id AND q.count > i.count"
            );
        }
        ".tpch" => {
            let rows: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(10_000);
            let cfg = veridb_workloads::TpchConfig {
                lineitem_rows: rows,
                part_rows: (rows / 30).max(50),
                ..Default::default()
            };
            println!("generating TPC-H ({rows} lineitem rows)…");
            let data = veridb_workloads::TpchData::generate(&cfg);
            match data.load(db) {
                Ok(()) => println!("loaded lineitem and part — try Q6:\n  {}", q6_short()),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        other => eprintln!("unknown meta command {other} (.help for help)"),
    }
    true
}

fn q6_short() -> &'static str {
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
     WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
     AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
}
