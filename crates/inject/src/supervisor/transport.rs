//! The supervisor↔worker channel: length-delimited frames over TCP.
//!
//! A [`Transport`] holds one persistent connection to a worker daemon. Each
//! lease is a frame naming the trials; the daemon answers with the
//! handshake, one record frame per trial, and `done`. Connection loss is
//! retried by redialing (the daemon is stateless between leases, so a
//! reconnect simply re-leases whatever is still missing); revocation severs
//! the socket. The lease timeout bounds the dial and a frame's arrival
//! once its first byte is in; the lease deadline itself is the stream
//! loop's.
//!
//! The daemon is either **remote** — a `campaign --listen` process at a
//! fixed address — or **local**: a `__serve` child of this process on a
//! loopback ephemeral port, which is how `--isolation process` runs. A
//! local daemon is spawned lazily on the first lease (with the configured
//! worker environment), addressed by its stdout announcement line, serves
//! exactly one connection, and is replaced by a fresh one whenever that
//! connection ends. Revocation SIGKILLs it: only a kill stops a stuck local
//! executor.
//!
//! Frames are a `u32` big-endian length prefix followed by that many bytes
//! of UTF-8 JSON. A frame cut short by a dying peer surfaces as an I/O
//! error, which the stream loop observes as EOF and handles through the
//! ordinary retry path.

use super::format_trials;
use super::serve::{parse_announcement, EXIT_WITH_SUPERVISOR};
use crate::campaign::CampaignConfig;
use crate::checkpoint;
use crate::json;
use mbavf_core::error::TransportError;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Hard cap on a single frame's payload. A record frame is ~200 bytes; a
/// length prefix beyond this is garbage (or an attack), not a record.
pub(crate) const MAX_FRAME: usize = 1 << 20;

/// Write one length-delimited frame and flush it.
///
/// The write is subject to a [`crate::chaos`] verdict: an injected fault
/// tears or fails the frame exactly as a dying peer would, and the stream
/// loop's existing reconnect/redial machinery is what recovers — chaos
/// proves that machinery, it does not get special handling.
pub(crate) fn write_frame<W: Write>(w: &mut W, payload: &str) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            TransportError::FrameTooLarge { len: payload.len() as u64, cap: MAX_FRAME as u64 },
        ));
    }
    let len = payload.len() as u32;
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&len.to_be_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    match crate::chaos::draw(crate::chaos::OpClass::Frame) {
        crate::chaos::Fault::None => {}
        crate::chaos::Fault::Stall { millis } => {
            std::thread::sleep(Duration::from_millis(u64::from(millis)));
        }
        crate::chaos::Fault::Torn { keep_64ths } => {
            let keep = bytes.len() * usize::from(keep_64ths) / 64;
            w.write_all(&bytes[..keep])?;
            let _ = w.flush();
            return Err(std::io::Error::other(format!(
                "chaos: injected torn frame ({keep} of {} bytes sent)",
                bytes.len()
            )));
        }
        _ => return Err(std::io::Error::other("chaos: injected frame write error")),
    }
    w.write_all(&bytes)?;
    w.flush()
}

/// Read one length-delimited frame. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF anywhere inside a frame (a torn write from a dying peer)
/// is an error, as are oversized lengths and non-UTF-8 payloads.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "torn frame: EOF inside the length prefix",
            ));
        }
        got += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        // Reject before allocating: the prefix is attacker-controlled input,
        // and honoring it would size a buffer to a hostile peer's choosing.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            TransportError::FrameTooLarge { len: len as u64, cap: MAX_FRAME as u64 },
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map(Some).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "frame payload is not UTF-8")
    })
}

/// What [`Transport::recv`] observed.
pub(crate) enum ChannelEvent {
    /// One protocol message (a frame payload).
    Msg(String),
    /// Nothing arrived within the wait budget.
    Idle,
    /// The channel ended: the connection closed or the daemon died.
    Eof {
        /// Connection-loss or exit-status description, for failure reports.
        status: String,
    },
}

/// Serialize the per-connection hello the supervisor sends a worker daemon:
/// protocol version and the full campaign configuration the daemon must
/// build its executor from.
pub(crate) fn render_hello(workload: &str, cfg: &CampaignConfig) -> String {
    let mut out = String::with_capacity(192);
    let _ = write!(out, "{{\"mbavf_hello\": {}, \"workload\": ", super::PROTOCOL_VERSION);
    json::write_str(&mut out, workload);
    out.push_str(", ");
    checkpoint::write_config(&mut out, cfg, ", ");
    out.push('}');
    out
}

/// Serialize a lease frame: the trials to run and the retry attempt.
pub(crate) fn render_lease(trials: &[u64], attempt: u32) -> String {
    format!("{{\"trials\": \"{}\", \"attempt\": {attempt}}}", format_trials(trials))
}

/// A `__serve` child daemon owned by one local transport.
struct LocalDaemon {
    child: Child,
    addr: String,
}

impl LocalDaemon {
    /// Spawn `current_exe __serve` on a loopback ephemeral port and wait up
    /// to `wait` for its announcement line.
    fn spawn(env: &[(String, String)], wait: Duration) -> Result<LocalDaemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe unavailable: {e}"))?;
        let mut cmd = Command::new(&exe);
        cmd.args(["__serve", "--listen", "127.0.0.1:0", EXIT_WITH_SUPERVISOR])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .envs(env.iter().map(|(k, v)| (k, v)));
        // Its own process group: a terminal's Ctrl-C reaches only the
        // supervisor, which then drains its daemons instead of losing them
        // to the same signal.
        #[cfg(unix)]
        std::os::unix::process::CommandExt::process_group(&mut cmd, 0);
        let mut child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("daemon stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx.recv_timeout(wait).unwrap_or_default();
        let addr = parse_announcement(&line);
        if addr.is_none() {
            // Closes the daemon's stdout, so the reader finishes.
            let _ = child.kill();
        }
        // Joined, not detached: a finished thread hands its allocator arena
        // back before the connection's traffic starts.
        let _ = reader.join();
        match addr {
            Some(addr) => Ok(LocalDaemon { child, addr }),
            None => {
                let status = LocalDaemon { child, addr: String::new() }.kill();
                let head: String = line.trim().chars().take(120).collect();
                Err(format!(
                    "local worker daemon announced no address (got {head:?}, {status}); \
                     is this binary missing the __serve dispatch?"
                ))
            }
        }
    }

    /// SIGKILL and reap, returning the exit status text. Harmless on a
    /// daemon that already exited: the status is then its own.
    fn kill(mut self) -> String {
        let _ = self.child.kill();
        self.child.wait().map(|s| s.to_string()).unwrap_or_else(|e| format!("unwaitable: {e}"))
    }
}

/// Where a transport's worker daemon lives.
enum Endpoint {
    /// A `campaign --listen` daemon at a fixed address, typically on
    /// another host.
    Remote(String),
    /// A `__serve` child of this process, one per connection.
    Local { env: Vec<(String, String)>, daemon: Option<LocalDaemon> },
}

/// One handler's persistent connection to one worker daemon, redialed on
/// loss. A lease hands the daemon a set of trials; `recv` then streams its
/// messages until `done`, EOF, or revocation. Lease errors are returned as
/// retryable detail strings — the caller owns the retry budget and decides
/// when the endpoint is dead.
pub(crate) struct Transport {
    endpoint: Endpoint,
    lease_timeout: Duration,
    hello: String,
    conn: Option<TcpStream>,
}

impl Transport {
    /// A transport to the `campaign --listen` daemon at `addr`.
    pub(crate) fn remote(addr: String, lease_timeout: Duration, hello: String) -> Self {
        Transport { endpoint: Endpoint::Remote(addr), lease_timeout, hello, conn: None }
    }

    /// A transport that spawns and owns its daemon, passing it `env`.
    pub(crate) fn local(
        env: Vec<(String, String)>,
        lease_timeout: Duration,
        hello: String,
    ) -> Self {
        let endpoint = Endpoint::Local { env, daemon: None };
        Transport { endpoint, lease_timeout, hello, conn: None }
    }

    fn dial(&mut self) -> Result<(), String> {
        let timeout = self.lease_timeout.min(Duration::from_secs(5));
        let addr = match &mut self.endpoint {
            Endpoint::Remote(addr) => addr.clone(),
            Endpoint::Local { env, daemon } => {
                // A local daemon serves one connection, so every dial
                // starts a fresh one.
                let fresh = LocalDaemon::spawn(env, timeout)?;
                let addr = fresh.addr.clone();
                *daemon = Some(fresh);
                addr
            }
        };
        let addrs = addr.to_socket_addrs().map_err(|e| format!("resolving {addr}: {e}"))?;
        let mut last_err = format!("{addr} resolves to no addresses");
        for sock in addrs {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    write_frame(&mut &stream, &self.hello)
                        .map_err(|e| format!("sending hello to {addr}: {e}"))?;
                    self.conn = Some(stream);
                    return Ok(());
                }
                Err(e) => last_err = format!("connecting {sock}: {e}"),
            }
        }
        Err(last_err)
    }

    /// Lease `trials` to the daemon over the — possibly redialed —
    /// connection.
    pub(crate) fn lease(&mut self, trials: &[u64], attempt: u32) -> Result<(), String> {
        if self.conn.is_none() {
            if let Err(detail) = self.dial() {
                self.revoke();
                return Err(detail);
            }
        }
        let frame = render_lease(trials, attempt);
        let conn = self.conn.as_ref().expect("dialed above");
        if let Err(e) = write_frame(&mut &*conn, &frame) {
            self.revoke();
            return Err(format!("sending lease to {}: {e}", self.endpoint()));
        }
        Ok(())
    }

    /// Wait up to `wait` for the next message; a zero wait only polls.
    /// Once a frame's first byte has arrived the whole frame is read,
    /// allowing the peer up to the lease timeout to finish it: peers write
    /// frames whole, so only a dying or broken one stalls mid-frame.
    pub(crate) fn recv(&mut self, wait: Duration) -> ChannelEvent {
        let Some(conn) = &mut self.conn else {
            return ChannelEvent::Eof { status: format!("no connection to {}", self.endpoint()) };
        };
        let peeked = if wait.is_zero() {
            // A zero timeout is an error for the socket API: peek
            // non-blocking, and leave the socket blocking for its writers.
            let _ = conn.set_nonblocking(true);
            let peeked = conn.peek(&mut [0u8; 1]);
            let _ = conn.set_nonblocking(false);
            peeked
        } else {
            let _ = conn.set_read_timeout(Some(wait));
            conn.peek(&mut [0u8; 1])
        };
        let frame = match peeked {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return ChannelEvent::Idle;
            }
            Ok(0) | Err(_) => None,
            Ok(_) => {
                let _ = conn.set_read_timeout(Some(self.lease_timeout));
                read_frame(conn).ok().flatten()
            }
        };
        match frame {
            Some(payload) => ChannelEvent::Msg(payload),
            None => {
                let endpoint = self.endpoint();
                let status = match self.revoke() {
                    Some(exit) => format!("{endpoint} exited ({exit})"),
                    None => format!("connection to {endpoint} lost"),
                };
                ChannelEvent::Eof { status }
            }
        }
    }

    /// Revoke the current lease: close the socket, which tells a remote
    /// daemon the lease is gone, and kill a local daemon outright (only a
    /// kill stops a stuck local executor). Returns the local daemon's exit
    /// status text, if any.
    pub(crate) fn revoke(&mut self) -> Option<String> {
        self.conn = None;
        match &mut self.endpoint {
            Endpoint::Remote(_) => None,
            Endpoint::Local { daemon, .. } => daemon.take().map(LocalDaemon::kill),
        }
    }

    /// Ask the daemon to stop gracefully: finish the trial in flight, send
    /// a `drained` ack, and part cleanly — the cancellation counterpart of
    /// [`Self::revoke`]. The connection stays open so the stream loop can
    /// commit the records that precede the ack.
    pub(crate) fn drain(&mut self) -> Result<(), String> {
        let Some(conn) = &self.conn else {
            return Err(format!("no connection to {}", self.endpoint()));
        };
        write_frame(&mut &*conn, "{\"drain\": true}")
            .map_err(|e| format!("sending drain to {}: {e}", self.endpoint()))
    }

    /// Whether the daemon is a remote endpoint: those die without failing
    /// the campaign (their shards are re-offered), while a local daemon
    /// that fails to spawn degrades the campaign and one that disagrees
    /// with committed state is campaign-fatal.
    pub(crate) fn is_remote(&self) -> bool {
        matches!(self.endpoint, Endpoint::Remote(_))
    }

    /// Where the daemon is, for failure messages.
    pub(crate) fn endpoint(&self) -> String {
        match &self.endpoint {
            Endpoint::Remote(addr) => addr.clone(),
            Endpoint::Local { daemon: Some(d), .. } => format!("local worker daemon {}", d.addr),
            Endpoint::Local { daemon: None, .. } => "local worker daemon".into(),
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.revoke();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "{\"trial\": 7}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some("{\"trial\": 7}".to_string()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(String::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at a frame boundary");
    }

    #[test]
    fn torn_frames_and_oversized_lengths_are_errors() {
        // EOF inside the length prefix.
        let mut r: &[u8] = &[0u8, 0];
        assert!(read_frame(&mut r).is_err());
        // EOF inside the payload: a peer that died mid-write.
        let mut torn: Vec<u8> = Vec::new();
        torn.extend_from_slice(&64u32.to_be_bytes());
        torn.extend_from_slice(b"{\"trial\": ");
        let mut r = torn.as_slice();
        assert!(read_frame(&mut r).is_err());
        // A length prefix beyond the cap is rejected before allocation,
        // with a typed error naming both the claim and the cap.
        let mut huge: Vec<u8> = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = huge.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        let typed = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("oversized length yields a typed TransportError");
        assert_eq!(
            *typed,
            TransportError::FrameTooLarge { len: u64::from(u32::MAX), cap: MAX_FRAME as u64 }
        );
        // The outbound payload cap is the same typed error.
        let mut sink: Vec<u8> = Vec::new();
        let err = write_frame(&mut sink, &"x".repeat(MAX_FRAME + 1)).unwrap_err();
        assert!(matches!(
            err.get_ref().and_then(|e| e.downcast_ref::<TransportError>()),
            Some(TransportError::FrameTooLarge { .. })
        ));
        // Non-UTF-8 payloads are rejected.
        let mut bad: Vec<u8> = Vec::new();
        bad.extend_from_slice(&2u32.to_be_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = bad.as_slice();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn hello_carries_the_campaign_config() {
        let cfg = CampaignConfig { seed: 0xACE5, ..CampaignConfig::default() };
        let hello = render_hello("transpose", &cfg);
        let v = crate::json::parse(&hello).unwrap();
        assert_eq!(
            v.get("mbavf_hello").and_then(crate::json::Value::as_u64),
            Some(super::super::PROTOCOL_VERSION)
        );
        assert_eq!(v.get("workload").and_then(crate::json::Value::as_str), Some("transpose"));
        assert_eq!(v.get("seed").and_then(crate::json::Value::as_u64), Some(0xACE5));
    }
}
