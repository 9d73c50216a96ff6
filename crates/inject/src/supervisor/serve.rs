//! The `__serve` worker daemon: a socket front-end for the trial executor.
//!
//! `campaign --listen host:port` runs one of these per worker machine. The
//! daemon binds the socket, announces the bound address on stdout as a
//! single JSON line (`{"mbavf_serve": 1, "listen": "ip:port"}` — port 0
//! requests an ephemeral port, so callers parse this line), and then serves
//! supervisor connections forever, one thread per connection.
//!
//! Per connection: the supervisor sends a *hello* frame carrying the
//! protocol version and the full campaign config; the daemon runs the
//! golden reference and builds the site sampler and a width-1 trial
//! executor from it — paid once per connection, reused across leases. Each
//! subsequent *lease* frame names a trial range; the daemon answers with
//! the fingerprint handshake, one record frame per trial in order, and a
//! `done` sentinel. The records are the supervisor's only sign of life: a
//! worker slower than its lease timeout per trial, dead or livelocked,
//! loses the lease the same way.
//!
//! The daemon holds no shard state between leases — after any disconnect
//! the supervisor simply reconnects and leases whatever its merge is still
//! missing, and the idempotent merge makes re-delivered records harmless.
//!
//! **Local daemons:** `--isolation process` spawns `__serve --listen
//! 127.0.0.1:0` children with the hidden [`EXIT_WITH_SUPERVISOR`] word. Such
//! a daemon serves its one supervisor connection and exits when it closes,
//! so a supervisor that dies — SIGKILL, or a second signal's `_exit` —
//! takes its daemons with it as soon as the kernel closes its sockets.
//!
//! **Drain:** a cancelled supervisor sends a `{"drain": true}` frame
//! instead of severing the socket. The daemon finishes the trial in
//! flight, stops taking new ones, and answers `{"drained": N}` (N = trials
//! completed in the interrupted lease) — the record stream up to that
//! point has already been delivered, so the supervisor's merge holds
//! everything the daemon did. The connection then parts cleanly and the
//! daemon keeps serving other (or future) campaigns.
//!
//! **Drills:** the daemon acts on the `die`, `sever`, `stall` and `lie`
//! entries of `MBAVF_DRILL` ([`crate::drill`]); a malformed plan stops it
//! before it announces itself.

use super::transport::{read_frame, write_frame};
use super::{parse_trials, render_record_frame, PROTOCOL_VERSION};
use crate::campaign::{golden_shape, CampaignConfig, Outcome, SiteSampler, TrialExecutor};
use crate::chaos::{ChaosEngine, Fault, OpClass};
use crate::checkpoint;
use crate::drill::TrialAction;
use crate::json::{self, Value};
use mbavf_workloads::by_name;
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Version of the `__serve` stdout announcement line.
pub const SERVE_VERSION: u64 = 1;

/// Hidden `__serve` argv word: serve exactly one supervisor connection,
/// then exit. Local daemons are spawned with it; `campaign --listen` never
/// passes it.
pub(crate) const EXIT_WITH_SUPERVISOR: &str = "--exit-with-supervisor";

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .ok_or_else(|| format!("missing serve flag {name}"))
}

/// Parse the daemon's stdout announcement line into its bound address.
pub(crate) fn parse_announcement(line: &str) -> Option<String> {
    let v = json::parse(line.trim()).ok()?;
    if v.get("mbavf_serve").and_then(Value::as_u64) != Some(SERVE_VERSION) {
        return None;
    }
    v.get("listen").and_then(Value::as_str).map(str::to_string)
}

/// Entry point for the hidden `__serve` argv (`campaign __serve --listen
/// host:port`, also reachable as `campaign --listen host:port`). Hosting
/// binaries — the campaign CLI, `harness = false` test binaries — must
/// dispatch it before normal flag parsing. Serves forever (or, with the
/// hidden `--exit-with-supervisor` word, until its one connection closes);
/// returns non-zero if the socket cannot be bound or that one connection
/// fails.
pub fn serve_main(args: &[String]) -> i32 {
    match serve_run(args) {
        Ok(()) => 0,
        Err(detail) => {
            eprintln!("serve: {detail}");
            1
        }
    }
}

fn serve_run(args: &[String]) -> Result<(), String> {
    // A malformed drill plan stops the daemon before it announces itself.
    crate::drill::plan()?;
    let addr = flag(args, "--listen")?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // The announcement line is the daemon's only stdout output; callers
    // (tests, CI, orchestration) parse it to learn the ephemeral port.
    println!("{{\"mbavf_serve\": {SERVE_VERSION}, \"listen\": \"{local}\"}}");
    std::io::stdout().flush().map_err(|e| format!("stdout: {e}"))?;
    if args.iter().any(|a| a == EXIT_WITH_SUPERVISOR) {
        let (stream, _) = listener.accept().map_err(|e| format!("accept failed: {e}"))?;
        drop(listener);
        return handle_conn(stream);
    }
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                std::thread::spawn(move || {
                    if let Err(detail) = handle_conn(stream) {
                        eprintln!("serve: connection failed: {detail}");
                    }
                });
            }
            Err(e) => eprintln!("serve: accept failed: {e}"),
        }
    }
    Ok(())
}

/// Parse the supervisor's hello frame into (workload name, campaign
/// config).
pub(super) fn parse_hello(v: &Value) -> Result<(String, CampaignConfig), String> {
    let bad = |e: String| format!("hello frame: {e}");
    let version = checkpoint::parse_u64(v, "mbavf_hello", ..).map_err(bad)?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (this daemon speaks {PROTOCOL_VERSION})"
        ));
    }
    let workload = checkpoint::parse_str(v, "workload").map_err(bad)?.to_string();
    // The budget is not part of the configuration; the trials to run
    // arrive per lease.
    let cfg = checkpoint::parse_config(v).map_err(bad)?;
    Ok((workload, cfg))
}

/// Parse a lease frame into its trials (at most
/// [`MAX_LEASE_TRIALS`](super::MAX_LEASE_TRIALS)) and the retry attempt.
pub(super) fn parse_lease(v: &Value) -> Result<(Vec<u64>, u32), String> {
    let trials = checkpoint::parse_str(v, "trials").map_err(|e| format!("lease frame: {e}"))?;
    let attempt = v.get("attempt").and_then(Value::as_u64).unwrap_or(0) as u32;
    Ok((parse_trials(trials)?, attempt))
}

/// Send one frame to the supervisor.
fn send(mut writer: &TcpStream, payload: &str) -> Result<(), String> {
    write_frame(&mut writer, payload).map_err(|e| format!("writing frame: {e}"))
}

fn error_frame(detail: &str) -> String {
    let mut line = String::from("{\"error\": ");
    json::write_str(&mut line, detail);
    line.push('}');
    line
}

fn handle_conn(writer: TcpStream) -> Result<(), String> {
    let _ = writer.set_nodelay(true);
    let mut reader =
        BufReader::new(writer.try_clone().map_err(|e| format!("cloning stream: {e}"))?);

    let hello = match read_frame(&mut reader) {
        Ok(Some(frame)) => frame,
        Ok(None) => return Ok(()), // probe connection; nothing to serve
        Err(e) => return Err(format!("reading hello: {e}")),
    };
    let v = json::parse(&hello).map_err(|d| format!("bad hello frame: {d}"))?;
    let fatal = |writer: &TcpStream, detail: String| -> String {
        let _ = send(writer, &error_frame(&detail));
        detail
    };
    let (workload_name, cfg) = match parse_hello(&v) {
        Ok(h) => h,
        Err(detail) => return Err(fatal(&writer, detail)),
    };
    let Some(workload) = by_name(&workload_name) else {
        return Err(fatal(&writer, format!("unknown workload {workload_name:?}")));
    };
    let golden = golden_shape(&workload, &cfg).and_then(|golden| {
        Ok((SiteSampler::new(&golden.per_wg_retired, golden.num_vregs)?, golden))
    });
    let (sampler, golden) = match golden {
        Ok(parts) => parts,
        Err(e) => return Err(fatal(&writer, e.to_string())),
    };
    let mut exec = TrialExecutor::new(&workload, &cfg, &golden, &sampler, 1);
    let fingerprint = checkpoint::config_fingerprint(workload.name, &cfg);
    let handshake =
        format!("{{\"mbavf_worker\": {PROTOCOL_VERSION}, \"fingerprint\": {fingerprint}}}");

    // Byzantine drill (`lie@<seed>:<rate>`): this daemon becomes a
    // mercurial core — it computes every trial correctly, then flips the
    // verdict on a deterministic chaos schedule before reporting it. The
    // engine is connection-local and NEVER installed globally: a global
    // install would fault the daemon's own frame writes, and this drill is
    // about lies, not losses. Read only here, in the daemon: the
    // supervisor never drills itself.
    let liar = crate::drill::armed().lie.map(ChaosEngine::new);

    // Incoming frames flow through a reader thread so the lease executor
    // can poll for a mid-lease `drain` frame between trials without
    // blocking on the socket. Reader exit without an error means the
    // supervisor closed cleanly (the channel disconnects).
    let (frame_tx, frames) = mpsc::channel::<Result<String, String>>();
    std::thread::spawn(move || loop {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => {
                if frame_tx.send(Ok(frame)).is_err() {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => {
                let _ = frame_tx.send(Err(e.to_string()));
                return;
            }
        }
    });

    let served = (|| -> Result<(), String> {
        loop {
            let lease = match frames.recv() {
                Ok(Ok(frame)) => frame,
                Ok(Err(detail)) => return Err(format!("reading lease: {detail}")),
                Err(mpsc::RecvError) => return Ok(()), // supervisor closed: campaign over
            };
            let v = json::parse(&lease).map_err(|d| format!("bad lease frame: {d}"))?;
            if v.get("drain").is_some() {
                // Drained between leases: nothing in flight, nothing unsent.
                // Ack and keep the connection; the supervisor parts by closing.
                send(&writer, "{\"drained\": 0}")?;
                continue;
            }
            let (trials, attempt) = parse_lease(&v)?;
            send(&writer, &handshake)?;
            run_lease(&writer, &frames, &mut exec, &trials, attempt, liar.as_ref())?;
        }
    })();
    if served.is_err() {
        // Hang up, not just return: the frame reader thread holds its own
        // handle on the socket, and the peer must see the connection end.
        let _ = writer.shutdown(Shutdown::Both);
    }
    served
}

/// The lie a verdict-flip fault tells: always a *plausible* wrong answer —
/// an error laundered into Masked, or a clean run smeared as SDC — never a
/// malformed record the protocol layer would catch for free.
fn flip_outcome(outcome: Outcome) -> Outcome {
    match outcome {
        Outcome::Masked => Outcome::Sdc,
        Outcome::Sdc | Outcome::Hang => Outcome::Masked,
        Outcome::Crash { .. } => Outcome::Masked,
    }
}

/// Execute one lease: stream record frames and the `done` sentinel. A
/// `drain` frame arriving mid-lease stops the executor at the next trial
/// boundary: the daemon acks `{"drained": N}` instead of `done` and returns
/// cleanly, leaving the lease's leftover trials for the resume.
fn run_lease(
    writer: &TcpStream,
    frames: &mpsc::Receiver<Result<String, String>>,
    exec: &mut TrialExecutor<'_>,
    trials: &[u64],
    attempt: u32,
    liar: Option<&ChaosEngine>,
) -> Result<(), String> {
    let drills = crate::drill::armed();
    // Only the sever drill replays the lease, so only it keeps a copy.
    let mut sent: Option<Vec<String>> =
        drills.trials.iter().any(|d| d.0 == TrialAction::Sever).then(Vec::new);
    for (i, &trial) in trials.iter().enumerate() {
        // Trial boundary: honor a drain request before starting the
        // next trial. Every record through trial `i-1` is already on
        // the wire, so `drained: i` tells the supervisor exactly what
        // this lease accomplished.
        match frames.try_recv() {
            Ok(Ok(frame)) => {
                let v = json::parse(&frame).map_err(|d| format!("bad mid-lease frame: {d}"))?;
                if v.get("drain").is_none() {
                    return Err(format!(
                        "unexpected frame mid-lease: {:?}",
                        frame.chars().take(120).collect::<String>()
                    ));
                }
                return send(writer, &format!("{{\"drained\": {i}}}"));
            }
            Ok(Err(detail)) => return Err(format!("reading mid-lease: {detail}")),
            Err(mpsc::TryRecvError::Empty) => {}
            Err(mpsc::TryRecvError::Disconnected) => {
                // The supervisor severed us: the lease is revoked. The
                // write side would discover this too; stop running
                // trials nobody will merge.
                return Err("connection closed mid-lease".into());
            }
        }
        // Fault drills ([`crate::drill`]), used by torture tests and
        // the CI smoke jobs. Read only here, in the daemon: the
        // supervisor never drills itself.
        if drills.fires(TrialAction::Die, trial, attempt) {
            crate::signals::sigkill_self();
        }
        if drills.fires(TrialAction::Stall, trial, attempt) {
            // Freeze the executor with the connection still open: no
            // record renews the supervisor's lease, so it must expire and
            // revoke although the daemon is alive.
            std::thread::sleep(Duration::from_secs(3600));
        }
        let (mut record, us) = exec.run_unit(&[trial]).next().expect("one trial, one record");
        if let Some(engine) = liar {
            if engine.draw(OpClass::Verdict) == Fault::VerdictFlip {
                // The Byzantine lie: a correct computation, reported
                // wrong — the failure mode only an audit can catch.
                record.outcome = flip_outcome(record.outcome);
            }
        }
        let line = render_record_frame(&record, us);
        send(writer, &line)?;
        if let Some(sent) = &mut sent {
            sent.push(line);
        }
        if drills.fires(TrialAction::Sever, trial, attempt) {
            // Hostile-network drill: replay every record already sent
            // in this lease (duplicates the merge must drop without
            // recounting), then sever the connection mid-frame — a torn
            // length-prefixed write promising bytes that never come.
            for line in sent.iter().flatten() {
                send(writer, line)?;
            }
            let mut stream = writer;
            let _ = stream.write_all(&64u32.to_be_bytes());
            let _ = stream.write_all(b"{\"trial\": ");
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            return Err("sever drill tore the connection".into());
        }
    }
    send(writer, &format!("{{\"done\": {}}}", trials.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::transport::render_hello;

    fn hello_with(edit: impl FnOnce(&mut String)) -> Result<(String, CampaignConfig), String> {
        let cfg = CampaignConfig { seed: 9, mode_bits: 3, ..CampaignConfig::default() };
        let mut hello = render_hello("transpose", &cfg);
        edit(&mut hello);
        parse_hello(&json::parse(&hello).expect("still JSON"))
    }

    #[test]
    fn hello_roundtrips() {
        let (workload, cfg) = hello_with(|_| {}).unwrap();
        assert_eq!(workload, "transpose");
        assert_eq!((cfg.seed, cfg.mode_bits), (9, 3));
        // Every configuration field, at a non-default value and at the
        // edges of its range, comes back as sent.
        for sent in [
            CampaignConfig {
                seed: u64::MAX,
                injections: 1,
                scale: mbavf_workloads::Scale::Paper,
                hang_factor: u64::MAX,
                wrap_oob: false,
                mode_bits: 32,
            },
            CampaignConfig { seed: 0, injections: 1, hang_factor: 1, mode_bits: 1, ..cfg },
        ] {
            let hello = render_hello("transpose", &sent);
            let (_, got) = parse_hello(&json::parse(&hello).unwrap()).unwrap();
            assert_eq!(got, sent);
        }
    }

    #[test]
    fn malformed_hellos_are_rejected() {
        let version = format!("\"mbavf_hello\": {PROTOCOL_VERSION}");
        for (want, from, to) in [
            ("unsupported protocol version", version.as_str(), "\"mbavf_hello\": 999"),
            ("bad \"scale\"", "\"scale\": \"test\"", "\"scale\": \"huge\""),
            ("\"mode_bits\" out of range", "\"mode_bits\": 3", "\"mode_bits\": 256"),
            ("\"mode_bits\" out of range", "\"mode_bits\": 3", "\"mode_bits\": 0"),
            ("\"mode_bits\" out of range", "\"mode_bits\": 3", "\"mode_bits\": 33"),
            ("\"hang_factor\" out of range", "\"hang_factor\": 8", "\"hang_factor\": 0"),
            ("missing \"seed\"", "\"seed\": 9", "\"sead\": 9"),
        ] {
            let err = hello_with(|h| {
                assert!(h.contains(from), "{from:?} not in {h}");
                *h = h.replace(from, to);
            })
            .expect_err(want);
            assert!(err.contains(want), "expected {want:?} in {err:?}");
        }
    }

    #[test]
    fn announcements_parse_only_when_well_formed() {
        let line =
            format!("{{\"mbavf_serve\": {SERVE_VERSION}, \"listen\": \"127.0.0.1:7017\"}}\n");
        assert_eq!(parse_announcement(&line).as_deref(), Some("127.0.0.1:7017"));
        for bad in [
            "",
            "running 4 tests",
            "{\"mbavf_serve\": 99, \"listen\": \"h:1\"}",
            "{\"mbavf_serve\": 1}",
        ] {
            assert_eq!(parse_announcement(bad), None, "{bad:?}");
        }
    }
}
