//! Adversarial wire proxy for tests and demos.
//!
//! [`TamperProxy`] sits between a [`crate::RemoteClient`] and a server,
//! forwarding frames in both directions and applying scripted corruptions:
//! bit-flips (with or without fixing up the untrusted CRC), truncation,
//! frame replay, reordering, and drops. It is the concrete embodiment of
//! the paper's network adversary: it owns the wire completely, and the
//! security claim under test is that *no corruption it applies can produce
//! a wrong result* — only client-visible transport or verification errors.

use crate::frame::{frame_crc, read_raw_frame, HEADER_BYTES};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use veridb_common::sync::Mutex;

/// A corruption to apply to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Flip one payload bit. With `fix_crc` the frame CRC is recomputed so
    /// the *framing* layer accepts the frame and only the portal MACs can
    /// catch it — the test that the CRC is not load-bearing for security.
    BitFlip {
        /// Recompute the CRC over the flipped payload.
        fix_crc: bool,
    },
    /// Forward only the first half of the frame, then sever the connection.
    Truncate,
    /// Forward the frame, then forward an identical copy.
    Replay,
    /// Hold this frame and emit it after the next one (reorder).
    SwapNext,
    /// Silently drop the frame.
    Drop,
}

/// Which direction of the proxied connection a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Frames from the client toward the server (queries).
    ClientToServer,
    /// Frames from the server toward the client (quotes, results).
    ServerToClient,
}

#[derive(Debug, Clone, Copy)]
struct Rule {
    dir: Dir,
    /// Zero-based index of the frame (per direction, per connection) to hit.
    nth: usize,
    tamper: Tamper,
}

/// A man-in-the-middle proxy owning the wire between client and server.
pub struct TamperProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    rules: Arc<Mutex<Vec<Rule>>>,
    applied: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TamperProxy {
    /// Start a proxy on an ephemeral port, forwarding to `upstream`.
    pub fn start(upstream: &str) -> std::io::Result<TamperProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let rules = Arc::new(Mutex::new(Vec::new()));
        let applied = Arc::new(AtomicUsize::new(0));

        let upstream = upstream.to_owned();
        let t_shutdown = Arc::clone(&shutdown);
        let t_rules = Arc::clone(&rules);
        let t_applied = Arc::clone(&applied);
        let accept_thread = std::thread::spawn(move || {
            let mut workers = Vec::new();
            while !t_shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let Ok(server) = TcpStream::connect(&upstream) else {
                            continue;
                        };
                        let c2s = spawn_forwarder(
                            client.try_clone().expect("clone client stream"),
                            server.try_clone().expect("clone server stream"),
                            Dir::ClientToServer,
                            Arc::clone(&t_rules),
                            Arc::clone(&t_applied),
                        );
                        let s2c = spawn_forwarder(
                            server,
                            client,
                            Dir::ServerToClient,
                            Arc::clone(&t_rules),
                            Arc::clone(&t_applied),
                        );
                        workers.push(c2s);
                        workers.push(s2c);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });

        Ok(TamperProxy {
            local_addr,
            shutdown,
            rules,
            applied,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Schedule `tamper` against the `nth` frame (zero-based, counted per
    /// direction per connection) flowing in `dir`.
    pub fn set_tamper(&self, dir: Dir, nth: usize, tamper: Tamper) {
        self.rules.lock().push(Rule { dir, nth, tamper });
    }

    /// Remove all scheduled corruptions.
    pub fn clear(&self) {
        self.rules.lock().clear();
    }

    /// How many corruptions have been applied so far.
    pub fn applied(&self) -> usize {
        self.applied.load(Ordering::SeqCst)
    }
}

impl Drop for TamperProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn spawn_forwarder(
    mut src: TcpStream,
    mut dst: TcpStream,
    dir: Dir,
    rules: Arc<Mutex<Vec<Rule>>>,
    applied: Arc<AtomicUsize>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut frame_idx = 0usize;
        // A frame held back by `SwapNext`, emitted after the next frame.
        let mut held: Option<Vec<u8>> = None;
        loop {
            let frame = match read_raw_frame(&mut src) {
                Ok(f) => f,
                Err(_) => {
                    // Connection over: flush any held frame, then mirror
                    // the close to the other side.
                    if let Some(h) = held.take() {
                        let _ = dst.write_all(&h);
                    }
                    let _ = dst.shutdown(std::net::Shutdown::Both);
                    return;
                }
            };
            let rule = {
                let rules = rules.lock();
                rules
                    .iter()
                    .find(|r| r.dir == dir && r.nth == frame_idx)
                    .copied()
            };
            frame_idx += 1;
            let verdict = match rule {
                None => Verdict::Forward(frame),
                Some(rule) => {
                    applied.fetch_add(1, Ordering::SeqCst);
                    apply(rule.tamper, frame)
                }
            };
            match verdict {
                Verdict::Forward(bytes) => {
                    if dst.write_all(&bytes).is_err() {
                        return;
                    }
                    if let Some(h) = held.take() {
                        if dst.write_all(&h).is_err() {
                            return;
                        }
                    }
                }
                Verdict::ForwardTwice(bytes) => {
                    if dst.write_all(&bytes).is_err() || dst.write_all(&bytes).is_err() {
                        return;
                    }
                }
                Verdict::Hold(bytes) => {
                    // If something was already held, emit it first to keep
                    // exactly one frame in flight.
                    if let Some(h) = held.replace(bytes) {
                        if dst.write_all(&h).is_err() {
                            return;
                        }
                    }
                }
                Verdict::Sever(bytes) => {
                    let _ = dst.write_all(&bytes);
                    let _ = dst.shutdown(std::net::Shutdown::Both);
                    let _ = src.shutdown(std::net::Shutdown::Both);
                    return;
                }
                Verdict::Dropped => {}
            }
        }
    })
}

enum Verdict {
    Forward(Vec<u8>),
    ForwardTwice(Vec<u8>),
    Hold(Vec<u8>),
    /// Write these bytes, then kill the connection.
    Sever(Vec<u8>),
    Dropped,
}

fn apply(tamper: Tamper, mut frame: Vec<u8>) -> Verdict {
    match tamper {
        Tamper::BitFlip { fix_crc } => {
            if frame.len() > HEADER_BYTES {
                // Flip a bit in the middle of the payload — inside the
                // MAC-protected message body for every message kind.
                let idx = HEADER_BYTES + (frame.len() - HEADER_BYTES) / 2;
                frame[idx] ^= 0x10;
                if fix_crc {
                    let crc = frame_crc(frame[6], &frame[HEADER_BYTES..]);
                    frame[11..15].copy_from_slice(&crc.to_le_bytes());
                }
            }
            Verdict::Forward(frame)
        }
        Tamper::Truncate => {
            let keep = frame.len() / 2;
            frame.truncate(keep.max(1));
            Verdict::Sever(frame)
        }
        Tamper::Replay => Verdict::ForwardTwice(frame),
        Tamper::SwapNext => Verdict::Hold(frame),
        Tamper::Drop => Verdict::Dropped,
    }
}
