//! `admit-socket`: open-loop admission traffic over one UDS connection
//! to a child `serve --listen` process.
//!
//! The request trace comes from `nc_workloads::requests` with the
//! benchmark's seed; the server receives only the encoded frames. Each
//! phase consumes the next slice of the trace. Open-loop phases send on
//! a seeded Poisson schedule from a sender that sleeps (never spins)
//! and time every response from its frame's *intended* send time; the
//! `saturate` phase keeps a fixed window of frames in flight. Every
//! decision and reconfiguration answer is compared with
//! `replay_inproc` on the same frames.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use nc_admit::{ClassId, Placement};
use nc_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, EventKind, Outcome as Out,
    ReqFrame, WhatIfFrame,
};
use nc_serve::replay::{drive, replay_inproc, request_frames, Batching, ServiceReplay};
use nc_serve::{fleet, sidecar, RequestFrame, ResponseFrame, ShardPool};
use nc_workloads::requests::{generate, reconfig_events, ReconfigEvent, RequestConfig};

use crate::report::Outcome;
use crate::sched::poisson_offsets_ns;
use crate::stats::{median, Dist};
use crate::sys;
use crate::trace::{Span, Tracer};

/// Tenants in the served fleet (the `serve` bin's default).
pub const TENANTS: usize = 32;
/// Share of `mixed` frames that are Reconfigure frames.
const RECONFIG_SHARE: f64 = 0.01;
/// One WhatIf frame after every this many `mixed` frames (0.1%).
const WHATIF_EVERY: usize = 1000;
/// Grid points per WhatIf query.
const WHATIF_POINTS: u32 = 8;
/// Frame budget of the `saturate` phase, per second of phase time
/// (above what one shard serves, so the phase runs out of time first).
const SATURATE_BUDGET_HZ: f64 = 300_000.0;
/// Server spawns timed per run for `setup_s`.
const SETUP_REPS: usize = 15;
/// Rounds of the phase sequence per run, each against a fresh server.
const ROUNDS: usize = 5;
/// A read that sees nothing for this long declares the server lost.
const DEADMAN: Duration = Duration::from_secs(10);
/// Sequence number of the set-up probe: a departure of a flow that
/// never arrived, which the engine answers `noop` without changing
/// state.
const PROBE_SEQ: u64 = u64::MAX;
/// A phase whose generator lateness has a median above this (µs) did
/// not keep its schedule: the run is invalid, not slow.
const MAX_LATE_P50_US: f64 = 1000.0;
/// Response-less marker in per-frame receive times.
const MISSING: u64 = u64::MAX;

/// One phase of the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Open loop at the low rate.
    Low,
    /// Open loop at the mid rate.
    Mid,
    /// Open loop at the high rate.
    High,
    /// The mid rate plus Reconfigure and WhatIf frames.
    Mixed,
    /// Closed loop with a fixed window in flight.
    Saturate,
}

impl Phase {
    /// Phase name as written in the command line and the report.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Low => "low",
            Phase::Mid => "mid",
            Phase::High => "high",
            Phase::Mixed => "mixed",
            Phase::Saturate => "saturate",
        }
    }

    /// Parse a phase name.
    pub fn parse(s: &str) -> Option<Phase> {
        [
            Phase::Low,
            Phase::Mid,
            Phase::High,
            Phase::Mixed,
            Phase::Saturate,
        ]
        .into_iter()
        .find(|p| p.name() == s)
    }
}

/// Offered rates and the closed-loop window, fixed in the command line.
#[derive(Clone, Debug)]
pub struct AdmitConfig {
    /// Offered rate of the `low` phase, frames/s.
    pub low_hz: f64,
    /// Offered rate of the `mid` and `mixed` phases, frames/s.
    pub mid_hz: f64,
    /// Offered rate of the `high` phase, frames/s.
    pub high_hz: f64,
    /// Frames in flight during `saturate`.
    pub window: usize,
    /// Phase order.
    pub phases: Vec<Phase>,
    /// Tenants in the fleet.
    pub tenants: usize,
}

impl AdmitConfig {
    /// The configuration of the benchmark command line.
    pub fn new(rates: [f64; 3], window: usize, phases: Vec<Phase>) -> AdmitConfig {
        AdmitConfig {
            low_hz: rates[0],
            mid_hz: rates[1],
            high_hz: rates[2],
            window,
            phases,
            tenants: TENANTS,
        }
    }

    fn rate(&self, phase: Phase) -> Option<f64> {
        match phase {
            Phase::Low => Some(self.low_hz),
            Phase::Mid | Phase::Mixed => Some(self.mid_hz),
            Phase::High => Some(self.high_hz),
            Phase::Saturate => None,
        }
    }
}

/// One step of a run: a phase with its frames, send schedule and wire
/// bytes.
pub struct Step {
    /// The phase.
    pub phase: Phase,
    /// Whether the generator records spans for this step.
    pub traced: bool,
    /// Frames in send order.
    pub frames: Vec<RequestFrame>,
    /// Intended send offsets, ns from the step start (open loop only).
    pub offsets_ns: Vec<u64>,
    /// Encoded frames back to back.
    pub wire: Vec<u8>,
    /// End offset of each frame in `wire`.
    pub ends: Vec<usize>,
}

impl Step {
    fn start_of(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }
}

/// Everything a run sends, derived from the seed.
pub struct Plan {
    /// The fleet and trace configuration (the seed is the benchmark's).
    pub cfg: RequestConfig,
    /// Reconfiguration events, all inside `mixed` steps.
    pub events: Vec<ReconfigEvent>,
    /// The steps in order.
    pub steps: Vec<Step>,
}

/// Build the frames and schedules of `steps` (`(phase, traced)`), each
/// lasting about `phase_s` seconds.
pub fn plan(conf: &AdmitConfig, seed: u64, steps: &[(Phase, bool)], phase_s: f64) -> Plan {
    let counts: Vec<usize> = steps
        .iter()
        .map(|&(p, _)| {
            let hz = conf.rate(p).unwrap_or(SATURATE_BUDGET_HZ);
            ((hz * phase_s).round() as usize).max(1)
        })
        .collect();
    let total: usize = counts.iter().sum();
    let per_tenant = total.div_ceil(2 * conf.tenants) + 1;
    let cfg = fleet::request_config(seed, conf.tenants, per_tenant);
    let trace = generate(&cfg);
    assert!(trace.len() >= total, "trace shorter than the plan");

    let mut ranges = Vec::with_capacity(counts.len());
    let mut at = 0u64;
    for &c in &counts {
        ranges.push(at..at + c as u64);
        at += c as u64;
    }
    // Reconfigurations fire only inside mixed steps, after one of the
    // step's requests and before its last.
    let per_tenant_events = ((RECONFIG_SHARE * 2.0 * per_tenant as f64).ceil() as usize).max(1);
    let events: Vec<ReconfigEvent> =
        reconfig_events(&cfg, per_tenant_events, fleet::RECONFIG_TIERS as u32)
            .into_iter()
            .filter(|e| {
                steps.iter().zip(&ranges).any(|(&(p, _), r)| {
                    p == Phase::Mixed && r.start <= e.after_seq && e.after_seq + 1 < r.end
                })
            })
            .collect();
    let frames = request_frames(&trace[..total], &events);

    let mut per_step: Vec<Vec<RequestFrame>> =
        counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut step = 0usize;
    for f in frames {
        if let RequestFrame::Request(r) = &f {
            while r.seq >= ranges[step].end {
                step += 1;
            }
        }
        per_step[step].push(f);
    }
    let mut whatif_id = 0u64;
    let steps = steps
        .iter()
        .zip(per_step)
        .enumerate()
        .map(|(ix, (&(phase, traced), engine_frames))| {
            let frames = if phase == Phase::Mixed {
                let mut out =
                    Vec::with_capacity(engine_frames.len() + engine_frames.len() / WHATIF_EVERY);
                for (i, f) in engine_frames.into_iter().enumerate() {
                    out.push(f);
                    if (i + 1) % WHATIF_EVERY == 0 {
                        out.push(RequestFrame::WhatIf(WhatIfFrame {
                            id: whatif_id,
                            tenant: (whatif_id % conf.tenants as u64) as u32,
                            points: WHATIF_POINTS,
                        }));
                        whatif_id += 1;
                    }
                }
                out
            } else {
                engine_frames
            };
            let offsets_ns = match conf.rate(phase) {
                Some(hz) => poisson_offsets_ns(seed, ix as u64 + 1, hz, frames.len()),
                None => Vec::new(),
            };
            let mut wire = Vec::with_capacity(frames.len() * 48);
            let mut ends = Vec::with_capacity(frames.len());
            for f in &frames {
                encode_request(&mut wire, f);
                ends.push(wire.len());
            }
            Step {
                phase,
                traced,
                frames,
                offsets_ns,
                wire,
                ends,
            }
        })
        .collect();
    Plan { cfg, events, steps }
}

/// A running `serve --listen` child. Dropping it kills and reaps the
/// child if it is still running, so no error path leaves it behind.
struct ServerProc {
    child: Child,
    /// Held open so the server's exit report never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl ServerProc {
    /// Spawn the server and wait for its `listening` line.
    fn spawn(bin: &Path, sock: &Path, cfg: &RequestConfig) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg(sock)
            .env("SERVE_SHARDS", "1")
            .env("ADMIT_FLEET", cfg.tenants.to_string())
            .env("ADMIT_REQS", cfg.per_tenant.to_string())
            .env_remove("ADMIT_RECONFIGS")
            .env_remove("SERVE_VERIFY")
            .env_remove("NC_PUB_QUANTUM")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = sys::reap(&mut child, Duration::from_secs(5));
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server exited before listening",
                ));
            }
            if line.contains("listening") {
                break;
            }
        }
        Ok(ServerProc {
            child,
            _stdout: stdout,
        })
    }

    /// Send `Shutdown` and wait for a clean exit.
    fn shutdown(mut self, stream: &mut UnixStream) -> io::Result<bool> {
        let mut wire = Vec::new();
        encode_request(&mut wire, &RequestFrame::Shutdown);
        let sent = stream.write_all(&wire);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let clean = sys::reap(&mut self.child, Duration::from_secs(20))?;
        sent?;
        Ok(clean)
    }
}

/// Spawn → `listening` → connect → one round trip. Returns the live
/// server, its connection and the elapsed time.
fn set_up(
    bin: &Path,
    sock: &Path,
    cfg: &RequestConfig,
) -> io::Result<(ServerProc, UnixStream, f64)> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(bin, sock, cfg)?;
    let mut stream = UnixStream::connect(sock)?;
    stream.set_read_timeout(Some(DEADMAN))?;
    let probe = RequestFrame::Request(ReqFrame {
        seq: PROBE_SEQ,
        time_s: 0.0,
        tenant: 0,
        class: 0,
        attach: 0,
        event: EventKind::Depart,
        arrive_ix: 0,
    });
    let mut wire = Vec::new();
    encode_request(&mut wire, &probe);
    stream.write_all(&wire)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    let answer = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed during set-up",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some((frame, _)) = decode_response(&buf).map_err(proto_err)? {
            break frame;
        }
    };
    let dt = t0.elapsed().as_secs_f64();
    match answer {
        ResponseFrame::Decision(d) if d.seq == PROBE_SEQ && d.outcome == Out::Noop => {
            Ok((server, stream, dt))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected set-up answer {other:?}"),
        )),
    }
}

fn proto_err(e: nc_serve::ProtoError) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("bad response frame: {e}"),
    )
}

/// The key a frame's answer carries: its sequence number (decisions,
/// reconfigurations) or its id (what-ifs), tagged by kind.
fn frame_key(f: &RequestFrame) -> Option<(u8, u64)> {
    match f {
        RequestFrame::Request(r) => Some((0, r.seq)),
        RequestFrame::Reconfigure(r) => Some((1, r.seq)),
        RequestFrame::WhatIf(w) => Some((2, w.id)),
        RequestFrame::Shutdown => None,
    }
}

/// Maps an answer back to the index of the frame it answers.
struct Keys(HashMap<(u8, u64), usize>);

impl Keys {
    fn of(frames: &[RequestFrame]) -> Keys {
        Keys(
            frames
                .iter()
                .enumerate()
                .filter_map(|(i, f)| Some((frame_key(f)?, i)))
                .collect(),
        )
    }

    fn index(&self, r: &ResponseFrame) -> Option<usize> {
        let key = match r {
            ResponseFrame::Decision(d) => (0, d.seq),
            ResponseFrame::Reconfigured(rc) => (1, rc.seq),
            ResponseFrame::WhatIf(a) => (2, a.id),
        };
        self.0.get(&key).copied()
    }
}

/// What one step produced.
struct StepRun {
    /// Receive time of each frame's answer, ns from the step epoch.
    recv_ns: Vec<u64>,
    /// Generator lateness of each sent frame, ns (open loop).
    late_ns: Vec<u64>,
    /// Answers in arrival order.
    responses: Vec<ResponseFrame>,
    /// Answers that matched no frame of the step, or repeated one.
    unexpected: u64,
    /// Frames written.
    sent: usize,
    /// Step epoch to the last answer, ns.
    busy_ns: u64,
    /// Why the connection was lost, if it was.
    lost: Option<String>,
    /// `(start, end, frames)` of each write, ns from the epoch.
    writes: Vec<(u64, u64, u64)>,
    /// `(start, end, frames)` of each read that decoded answers.
    reads: Vec<(u64, u64, u64)>,
    epoch: Instant,
}

fn since(epoch: Instant) -> u64 {
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

/// Incremental decoder of the answer stream: timestamps each answer
/// with the time its bytes were read.
struct Answers {
    recv_ns: Vec<u64>,
    responses: Vec<ResponseFrame>,
    unexpected: u64,
    buf: Vec<u8>,
    pos: usize,
}

impl Answers {
    fn new(n: usize) -> Answers {
        Answers {
            recv_ns: vec![MISSING; n],
            responses: Vec::with_capacity(n),
            unexpected: 0,
            buf: Vec::with_capacity(1 << 16),
            pos: 0,
        }
    }

    /// Take `bytes` read at `now` and decode every complete answer.
    fn feed(&mut self, keys: &Keys, bytes: &[u8], now: u64) -> io::Result<()> {
        self.buf.extend_from_slice(bytes);
        while let Some((frame, used)) = decode_response(&self.buf[self.pos..]).map_err(proto_err)? {
            self.pos += used;
            match keys.index(&frame) {
                Some(ix) if self.recv_ns[ix] == MISSING => self.recv_ns[ix] = now,
                _ => self.unexpected += 1,
            }
            self.responses.push(frame);
        }
        if self.pos > (1 << 15) && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(())
    }

    fn busy_ns(&self) -> u64 {
        self.recv_ns
            .iter()
            .filter(|&&t| t != MISSING)
            .max()
            .copied()
            .unwrap_or(0)
    }
}

/// The open-loop generator, one thread: send every frame that is due
/// as one write, then `ppoll` until the next frame is due or answers
/// arrive, and read only when the socket is readable. Nothing spins.
fn run_open(stream: &UnixStream, step: &Step) -> io::Result<StepRun> {
    let keys = Keys::of(&step.frames);
    let n = step.frames.len();
    let offs = &step.offsets_ns;
    let traced = step.traced;
    stream.set_nonblocking(true)?;
    // A short lead so the first frame is not already late.
    let epoch = Instant::now() + Duration::from_micros(500);
    let mut got = Answers::new(n);
    let mut late_ns = vec![0u64; n];
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let mut chunk = vec![0u8; 256 << 10];
    let (mut due, mut wpos) = (0usize, 0usize);
    let mut lost = None;
    let mut io = stream;
    let mut quiet_since = Instant::now();
    while got.responses.len() < n {
        // Queue every frame that is due and write what the socket takes.
        let now = since(epoch);
        if due < n && offs[due] <= now {
            let mut j = due + 1;
            while j < n && offs[j] <= now {
                j += 1;
            }
            for i in due..j {
                late_ns[i] = now - offs[i];
            }
            due = j;
        }
        let wend = if due == 0 { 0 } else { step.ends[due - 1] };
        if wpos < wend {
            match io.write(&step.wire[wpos..wend]) {
                Ok(k) => {
                    wpos += k;
                    if traced {
                        writes.push((now, since(epoch), k as u64));
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => {
                    lost = Some(format!("write failed: {e}"));
                    break;
                }
            }
        }
        // Wait for answers, write space, or the next due time.
        let wait_ns = if due < n {
            offs[due].saturating_sub(since(epoch))
        } else {
            DEADMAN.as_nanos() as u64
        };
        if !sys::wait_io(stream, wpos < wend, wait_ns) {
            if quiet_since.elapsed() > DEADMAN {
                lost = Some("no answer within the dead-man time".to_string());
                break;
            }
            continue;
        }
        let t_read = since(epoch);
        match io.read(&mut chunk) {
            Ok(0) => {
                lost = Some("server closed the connection".to_string());
                break;
            }
            Ok(k) => {
                let now = since(epoch);
                let before = got.responses.len();
                got.feed(&keys, &chunk[..k], now)?;
                if traced && got.responses.len() > before {
                    reads.push((t_read, now, (got.responses.len() - before) as u64));
                }
                quiet_since = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                lost = Some(format!("read failed: {e}"));
                break;
            }
        }
    }
    stream.set_nonblocking(false)?;
    // Frames written whole count as sent.
    let sent = step.ends.partition_point(|&e| e <= wpos);
    Ok(StepRun {
        busy_ns: got.busy_ns(),
        recv_ns: got.recv_ns,
        late_ns: late_ns[..sent].to_vec(),
        responses: got.responses,
        unexpected: got.unexpected,
        sent,
        lost,
        writes,
        reads,
        epoch,
    })
}

/// The closed loop: top the window up whenever half of it has been
/// answered, until the phase time is over, then drain.
fn run_closed(
    stream: &mut UnixStream,
    step: &Step,
    window: usize,
    dur: Duration,
) -> io::Result<StepRun> {
    let keys = Keys::of(&step.frames);
    let n = step.frames.len();
    let window = window.max(2);
    let epoch = Instant::now();
    let mut got = Answers::new(n);
    let mut sent = 0usize;
    let mut lost = None;
    let mut chunk = vec![0u8; 64 << 10];
    loop {
        let open = sent < n && epoch.elapsed() < dur;
        let done = got.responses.len();
        if open && sent - done <= window / 2 {
            let j = (done + window).min(n);
            stream.write_all(&step.wire[step.start_of(sent)..step.ends[j - 1]])?;
            sent = j;
        }
        if got.responses.len() == sent {
            if open {
                continue;
            }
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                lost = Some("server closed the connection".to_string());
                break;
            }
            Ok(k) => got.feed(&keys, &chunk[..k], since(epoch))?,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                lost = Some(format!("read failed: {e}"));
                break;
            }
        }
    }
    Ok(StepRun {
        busy_ns: got.busy_ns(),
        recv_ns: got.recv_ns,
        late_ns: Vec::new(),
        responses: got.responses,
        unexpected: got.unexpected,
        sent,
        lost,
        writes: Vec::new(),
        reads: Vec::new(),
        epoch,
    })
}

/// Append a step's latency samples, µs from the intended send time,
/// to `[decisions, reconfigurations, what-ifs]`; unanswered frames
/// count as infinitely late.
fn latencies(step: &Step, run: &StepRun, into: [&mut Vec<f64>; 3]) {
    let [d, r, w] = into;
    for (i, f) in step.frames.iter().enumerate().take(run.sent) {
        let lat = match run.recv_ns[i] {
            MISSING => f64::INFINITY,
            t => t.saturating_sub(step.offsets_ns[i]) as f64 / 1e3,
        };
        match f {
            RequestFrame::Request(_) => d.push(lat),
            RequestFrame::Reconfigure(_) => r.push(lat),
            RequestFrame::WhatIf(_) => w.push(lat),
            RequestFrame::Shutdown => {}
        }
    }
}

/// Whether a Decision or Reconfigured answer equals the oracle's.
fn matches_oracle(r: &ResponseFrame, oracle: &ServiceReplay) -> bool {
    let at = |seq: u64| usize::try_from(seq).ok();
    match r {
        ResponseFrame::Decision(d) => at(d.seq).and_then(|i| oracle.decisions.get(i)) == Some(d),
        ResponseFrame::Reconfigured(rc) => {
            at(rc.seq).and_then(|i| oracle.reconfigs.get(i)) == Some(rc)
        }
        ResponseFrame::WhatIf(_) => false,
    }
}

/// Compare a step's answers with the oracle and count the step's
/// operations: every sent frame is attempted; a missing answer fails,
/// a wrong one fails and is a mismatch.
fn check(step: &Step, run: &StepRun, oracle: &ServiceReplay, out: &mut Outcome) {
    let keys = Keys::of(&step.frames);
    let mut bad = run.unexpected;
    for r in &run.responses {
        let ok = match r {
            ResponseFrame::WhatIf(a) => keys.index(r).is_some_and(|ix| {
                matches!(step.frames[ix], RequestFrame::WhatIf(w) if w.id == a.id && w.tenant == a.tenant)
            }),
            engine => matches_oracle(engine, oracle),
        };
        if !ok {
            bad += 1;
        }
    }
    let answered = run.recv_ns[..run.sent]
        .iter()
        .filter(|&&t| t != MISSING)
        .count() as u64;
    let missing = run.sent as u64 - answered;
    out.attempted += run.sent as u64;
    out.failed += missing + bad;
    out.mismatches += bad;
    if let Some(why) = &run.lost {
        out.notes
            .push(format!("{}: connection lost: {why}", step.phase.name()));
    }
}

fn oracle_for(plan: &Plan) -> ServiceReplay {
    let oracle = replay_inproc(&plan.cfg, &plan.events);
    assert!(
        oracle
            .decisions
            .iter()
            .enumerate()
            .all(|(i, d)| d.seq == i as u64),
        "oracle decisions are not dense by seq"
    );
    oracle
}

/// A socket path under `dir` (relative, so it stays short enough for
/// `sun_path` in any checkout).
fn socket_path(dir: &Path, tag: &str) -> PathBuf {
    let _ = std::fs::create_dir_all(dir);
    dir.join(format!("{tag}-{}.sock", std::process::id()))
}

/// Where run-time files go, relative to the checkout root.
const RUN_DIR: &str = ".bench_build/perfbench";

/// What a socket session measured.
struct Session {
    setup_s: Vec<f64>,
    peak_rss_mib: Vec<f64>,
    /// Per round, the run of each step.
    rounds: Vec<Vec<StepRun>>,
    clean_exit: bool,
}

/// `max(rounds, SETUP_REPS)` server lifetimes: each is spawned and set
/// up (timed); `rounds` of them, spread evenly, then run every step
/// over one connection, so set-up samples span the run; every server
/// is shut down.
fn session(
    bin: &Path,
    cfg: &RequestConfig,
    steps: &[Step],
    conf: &AdmitConfig,
    phase_s: f64,
    rounds: usize,
) -> io::Result<Session> {
    let sock = socket_path(Path::new(RUN_DIR), "admit");
    let mut sess = Session {
        setup_s: Vec::new(),
        peak_rss_mib: Vec::new(),
        rounds: Vec::new(),
        clean_exit: true,
    };
    let lives = SETUP_REPS.max(rounds);
    let every = lives / rounds.max(1);
    for i in 0..lives {
        let (server, mut stream, dt) = set_up(bin, &sock, cfg)?;
        sess.setup_s.push(dt);
        if i % every == every - 1 && sess.rounds.len() < rounds {
            let mut runs = Vec::with_capacity(steps.len());
            for step in steps {
                let run = match step.phase {
                    Phase::Saturate => run_closed(
                        &mut stream,
                        step,
                        conf.window,
                        Duration::from_secs_f64(phase_s),
                    )?,
                    _ => run_open(&stream, step)?,
                };
                let lost = run.lost.is_some();
                runs.push(run);
                if lost {
                    break;
                }
            }
            sess.peak_rss_mib
                .push(sys::peak_rss_mib(Some(server.child.id())).unwrap_or(f64::NAN));
            sess.rounds.push(runs);
        }
        sess.clean_exit &= server.shutdown(&mut stream)?;
    }
    let _ = std::fs::remove_file(&sock);
    Ok(sess)
}

/// The untraced run: `ROUNDS` rounds of every configured phase, each
/// round against a fresh server, samples pooled over the rounds.
pub fn run(conf: &AdmitConfig, seed: u64, seconds: f64, serve_bin: &Path) -> io::Result<Outcome> {
    let phase_s = seconds / (ROUNDS * conf.phases.len().max(1)) as f64;
    let steps: Vec<(Phase, bool)> = conf.phases.iter().map(|&p| (p, false)).collect();
    let plan = plan(conf, seed, &steps, phase_s);
    let sess = session(serve_bin, &plan.cfg, &plan.steps, conf, phase_s, ROUNDS)?;
    let oracle = oracle_for(&plan);
    let mut out = Outcome::default();
    if !sess.clean_exit {
        out.notes.push("server did not exit cleanly".into());
        out.mismatches += 1;
    }
    // Pool each step's samples over the rounds.
    let k = plan.steps.len();
    let (mut dec, mut rc, mut wi, mut late) = (
        vec![Vec::new(); k],
        vec![Vec::new(); k],
        vec![Vec::new(); k],
        vec![Vec::new(); k],
    );
    let (mut sat_done, mut sat_ns) = (0usize, 0u64);
    for runs in &sess.rounds {
        for (i, (step, run)) in plan.steps.iter().zip(runs).enumerate() {
            check(step, run, &oracle, &mut out);
            if step.phase == Phase::Saturate {
                sat_done += run.responses.len();
                sat_ns += run.busy_ns;
                continue;
            }
            latencies(step, run, [&mut dec[i], &mut rc[i], &mut wi[i]]);
            late[i].extend(run.late_ns.iter().map(|&l| l as f64 / 1e3));
        }
    }
    let p50 = |out: &mut Outcome, name: &str, d: &Dist| {
        if let Some(v) = d.p50() {
            out.report(name, v, "us", d.len());
        }
    };
    let (mut gated_mid, mut gated_low) = ((f64::NAN, 0), (f64::NAN, 0));
    for (i, step) in plan.steps.iter().enumerate() {
        if step.phase == Phase::Saturate {
            continue;
        }
        let name = step.phase.name();
        let d = Dist::new(std::mem::take(&mut dec[i]));
        p50(&mut out, &format!("lat_p50_us.{name}"), &d);
        if let Some((p, v)) = d.tail() {
            out.notes.push(format!(
                "{name}: decision latency p{p} = {v:.1} us over {} samples",
                d.len()
            ));
        }
        let l = Dist::new(std::mem::take(&mut late[i]));
        out.notes.push(format!(
            "{name}: offered {:.0}/s, generator lateness p50 {:.1} us, p99 {:.1} us, max {:.1} us over {} frames",
            conf.rate(step.phase).unwrap_or(0.0),
            l.p50().unwrap_or(0.0),
            l.percentile(99.0).unwrap_or(0.0),
            l.max().unwrap_or(0.0),
            l.len()
        ));
        if let Some(p50) = l.p50().filter(|&p| p > MAX_LATE_P50_US) {
            out.invalid.push(format!(
                "{name}: generator lateness p50 {p50:.0} us exceeds {MAX_LATE_P50_US} us; \
                 the schedule was not kept, so the run is invalid"
            ));
        }
        match step.phase {
            Phase::Mid => {
                if let Some(v) = d.percentile(99.0) {
                    out.report("lat_p99_us.mid", v, "us", d.len());
                }
                gated_mid = (d.p50().unwrap_or(f64::NAN), d.len());
            }
            Phase::Low => gated_low = (d.p50().unwrap_or(f64::NAN), d.len()),
            Phase::Mixed => {
                p50(
                    &mut out,
                    "reconfig_p50_us",
                    &Dist::new(std::mem::take(&mut rc[i])),
                );
                p50(
                    &mut out,
                    "whatif_p50_us",
                    &Dist::new(std::mem::take(&mut wi[i])),
                );
            }
            _ => {}
        }
    }
    let decisions_per_s = sat_done as f64 / (sat_ns.max(1) as f64 * 1e-9);
    out.report("decisions_per_s", decisions_per_s, "1/s", sat_done);
    out.gate("latency_us", gated_mid.0, "us", gated_mid.1);
    out.gate("latency_us.light", gated_low.0, "us", gated_low.1);
    out.gate("throughput_per_s", decisions_per_s, "1/s", sat_done);
    out.gate("setup_s", median(&sess.setup_s), "s", sess.setup_s.len());
    out.gate(
        "peak_rss_mib",
        median(&sess.peak_rss_mib),
        "MiB",
        sess.peak_rss_mib.len(),
    );
    Ok(out)
}

/// Layer profile of the admission path (traced run). Socket steps:
/// `low`, `mid` untraced, `mid` traced, `high`; then in-process replays
/// of the same frames through the codec, the engine, the shard pool and
/// the what-if sidecar, each call inside a span.
pub fn layers(
    conf: &AdmitConfig,
    seed: u64,
    seconds: f64,
    serve_bin: &Path,
    tr: &mut Tracer,
) -> io::Result<(Outcome, f64)> {
    let phase_s = seconds / 5.0;
    let steps = [
        (Phase::Low, true),
        (Phase::Mid, false),
        (Phase::Mid, true),
        (Phase::High, true),
        (Phase::Mixed, false),
    ];
    let plan = plan(conf, seed, &steps, phase_s);
    // The mixed step is not sent; its frames feed the in-process
    // reconfiguration and sidecar profiles.
    let sess = session(serve_bin, &plan.cfg, &plan.steps[..4], conf, phase_s, 1)?;
    let oracle = oracle_for(&plan);
    let mut out = Outcome::default();
    let root = tr.begin("bench.admit", None, 0);
    let mut gen_sent = 0u64;
    let mut gen_answered = 0u64;
    let mut late_all = Vec::new();
    let mut p50s = [f64::NAN; 4];
    for (i, (step, run)) in plan.steps.iter().zip(&sess.rounds[0]).enumerate() {
        check(step, run, &oracle, &mut out);
        gen_sent += run.sent as u64;
        gen_answered += run.recv_ns.iter().filter(|&&t| t != MISSING).count() as u64;
        late_all.extend(run.late_ns.iter().map(|&l| l as f64 / 1e3));
        let mut d = Vec::new();
        latencies(step, run, [&mut d, &mut Vec::new(), &mut Vec::new()]);
        p50s[i] = Dist::new(d).p50().unwrap_or(f64::NAN);
        if step.traced {
            record_socket_spans(tr, root, step, run);
        }
    }
    // The untraced mid step's tail: too unsteady to gate end to end.
    let mut mid = Vec::new();
    latencies(
        &plan.steps[1],
        &sess.rounds[0][1],
        [&mut mid, &mut Vec::new(), &mut Vec::new()],
    );
    let mid = Dist::new(mid);
    out.gate(
        "bench.e2e.lat_p99_us.mid",
        mid.percentile(99.0).unwrap_or(f64::NAN),
        "us",
        mid.len(),
    );
    let late = Dist::new(late_all);
    out.gate(
        "bench.gen.late_us.p99",
        late.percentile(99.0).unwrap_or(f64::NAN),
        "us",
        late.len(),
    );
    out.gate(
        "bench.gen.late_us.max",
        late.max().unwrap_or(f64::NAN),
        "us",
        late.len(),
    );
    out.gate("bench.gen.sent", gen_sent as f64, "count", 1);
    out.gate("bench.gen.answered", gen_answered as f64, "count", 1);
    let overhead = p50s[2] / p50s[1];

    // In-process layers over the frames the socket steps sent, then the
    // mixed step's reconfigurations and what-ifs.
    let engine_frames: Vec<RequestFrame> = plan
        .steps
        .iter()
        .flat_map(|s| s.frames.iter().copied())
        .filter(|f| !matches!(f, RequestFrame::WhatIf(_)))
        .collect();
    let decisions = engine_frames
        .iter()
        .filter(|f| matches!(f, RequestFrame::Request(_)))
        .count() as f64;

    // serve.proto: encode + decode of every request and answer.
    let mut wire = Vec::with_capacity(engine_frames.len() * 48);
    let s = tr.begin("serve.proto.req", root, 0);
    for f in &engine_frames {
        encode_request(&mut wire, f);
    }
    let mut at = 0usize;
    while let Some((f, used)) = decode_request(&wire[at..]).expect("self-encoded request") {
        std::hint::black_box(f);
        at += used;
    }
    tr.end(s, engine_frames.len() as u64);
    let req_bytes = wire.len();
    let answers: Vec<ResponseFrame> = oracle
        .decisions
        .iter()
        .take(decisions as usize)
        .map(|d| ResponseFrame::Decision(*d))
        .chain(
            oracle
                .reconfigs
                .iter()
                .map(|r| ResponseFrame::Reconfigured(*r)),
        )
        .collect();
    let mut wire = Vec::with_capacity(answers.len() * 64);
    let s = tr.begin("serve.proto.resp", root, 0);
    for a in &answers {
        encode_response(&mut wire, a);
    }
    let mut at = 0usize;
    while let Some((f, used)) = decode_response(&wire[at..]).expect("self-encoded response") {
        std::hint::black_box(f);
        at += used;
    }
    tr.end(s, answers.len() as u64);
    let resp_bytes = wire.len();

    // admit.engine: warm decide/depart/reconfigure per trace event.
    let engine = replay_engine(&plan.cfg, &engine_frames, tr, root);
    out.mismatches += engine
        .decisions
        .iter()
        .zip(&oracle.decisions)
        .filter(|(got, want)| got != want)
        .count() as u64;

    // serve.shard: the pool's feed/drain loop, batched and per request.
    let quantum = nc_des::link::publish_quantum();
    let mut pool = ShardPool::new(&plan.cfg, 1, quantum, false);
    let _ = nc_des::link::take_publish_count();
    let s = tr.begin("serve.shard.drive", root, 0);
    let driven = drive(&mut pool, &engine_frames, Batching::Batched { quantum });
    tr.end(s, decisions as u64);
    let publishes = nc_des::link::take_publish_count();
    pool.join();
    for r in &driven {
        let ok = matches_oracle(r, &oracle);
        out.check(ok);
        out.mismatches += u64::from(!ok);
    }
    out.failed += (engine_frames.len() - driven.len().min(engine_frames.len())) as u64;
    let rt_frames = &engine_frames[..plan.steps[0].frames.len().min(engine_frames.len())];
    let mut pool = ShardPool::new(&plan.cfg, 1, 1, false);
    let s = tr.begin("serve.shard.roundtrip", root, 0);
    let rt = drive(&mut pool, rt_frames, Batching::PerRequest);
    tr.end(s, rt_frames.len() as u64);
    pool.join();
    for r in &rt {
        let ok = matches_oracle(r, &oracle);
        out.check(ok);
        out.mismatches += u64::from(!ok);
    }

    // serve.sidecar: what-if answers on the fleet's pipelines.
    let pipelines: Vec<_> = (0..plan.cfg.tenants).map(fleet::tenant_pipeline).collect();
    let whatifs: Vec<WhatIfFrame> = plan
        .steps
        .iter()
        .flat_map(|s| s.frames.iter())
        .filter_map(|f| match f {
            RequestFrame::WhatIf(w) => Some(*w),
            _ => None,
        })
        .collect();
    for w in &whatifs {
        let s = tr.begin("serve.sidecar.answer", root, w.id);
        let a = sidecar::answer(&pipelines, w);
        tr.end(s, 1);
        out.check(a.id == w.id && a.tenant == w.tenant);
    }
    tr.end(root, 0);

    let totals = tr.totals();
    let per_item = |name: &str| {
        totals
            .get(name)
            .and_then(|t| t.ns_per_item())
            .unwrap_or(f64::NAN)
    };
    let req_ns = per_item("serve.proto.req");
    let resp_ns = per_item("serve.proto.resp");
    let decide_ns = {
        let d = totals
            .get("admit.engine.decide")
            .copied()
            .unwrap_or_default();
        let p = totals
            .get("admit.engine.depart")
            .copied()
            .unwrap_or_default();
        (d.total_ns + p.total_ns) as f64 / (d.items + p.items).max(1) as f64
    };
    // The engine's share of the per-request round trip, over the same
    // frames (noop departures cost it nothing).
    let rt_len = rt_frames.len() as u64;
    let rt_engine_ns = tr
        .spans()
        .iter()
        .filter(|s| {
            matches!(s.name, "admit.engine.decide" | "admit.engine.depart") && s.req < rt_len
        })
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum::<f64>()
        / rt_len.max(1) as f64;
    let rt_ns = per_item("serve.shard.roundtrip");
    let rt_us = rt_ns / 1e3;
    out.gate("serve.service.self_us.low", p50s[0] - rt_us, "us", 1);
    out.gate("serve.service.self_us.high", p50s[3] - rt_us, "us", 1);
    out.gate("serve.proto.req_ns", req_ns, "ns", engine_frames.len());
    out.gate("serve.proto.resp_ns", resp_ns, "ns", answers.len());
    out.gate(
        "serve.proto.bytes_per_decision",
        (req_bytes + resp_bytes) as f64 / decisions,
        "B",
        1,
    );
    out.gate(
        "serve.shard.ring_self_ns",
        rt_ns - rt_engine_ns - req_ns - resp_ns,
        "ns",
        rt_frames.len(),
    );
    out.gate(
        "des.link.publishes_per_decision",
        publishes as f64 / decisions,
        "count",
        1,
    );
    out.gate(
        "admit.engine.decide_ns",
        decide_ns,
        "ns",
        decisions as usize,
    );
    let st = engine.stats;
    let frac = |x: u64| x as f64 / st.decisions.max(1) as f64;
    out.gate("admit.engine.cheap_frac", frac(st.cheap_admits), "ratio", 1);
    out.gate("admit.engine.tight_frac", frac(st.tight_evals), "ratio", 1);
    out.gate(
        "admit.engine.prefilter_frac",
        frac(st.prefilter_rejects),
        "ratio",
        1,
    );
    out.gate(
        "admit.engine.remote_frac",
        frac(st.admitted_remote),
        "ratio",
        1,
    );
    out.gate("admit.engine.reject_frac", frac(st.rejected), "ratio", 1);
    out.gate(
        "admit.engine.reconfig_us",
        per_item("admit.engine.reconfigure") / 1e3,
        "us",
        engine.reconfigs,
    );
    out.gate(
        "admit.engine.evicted_per_reconfig",
        engine.evicted as f64 / engine.reconfigs.max(1) as f64,
        "count",
        engine.reconfigs,
    );
    let cs = engine.cache;
    out.gate(
        "core.cache.prefix_hit_frac.admit",
        cs.prefix_hits as f64 / (cs.prefix_hits + cs.prefix_misses).max(1) as f64,
        "ratio",
        1,
    );
    out.gate(
        "serve.sidecar.answer_us",
        per_item("serve.sidecar.answer") / 1e3,
        "us",
        whatifs.len(),
    );
    out.notes.push(format!(
        "admit layers: socket p50 low {:.1} us, mid {:.1} us (traced {:.1} us), high {:.1} us; \
         in-proc pool round trip {rt_us:.1} us",
        p50s[0], p50s[1], p50s[2], p50s[3]
    ));
    Ok((out, overhead))
}

/// Spans of the traced socket steps: one `bench.gen.write` per write
/// and one `bench.gen.read` per read that decoded answers, both under
/// a `bench.gen.step` span, plus one `serve.request` span per answered
/// frame from its intended send time to its answer (request id = the
/// frame's sequence number, or the what-if id).
fn record_socket_spans(tr: &mut Tracer, root: Option<usize>, step: &Step, run: &StepRun) {
    let base = run.epoch.saturating_duration_since(tr.epoch()).as_nanos() as u64;
    let parent = tr.record(Span {
        name: "bench.gen.step",
        start_ns: base,
        end_ns: base + run.busy_ns,
        parent: root,
        req: 0,
        items: run.sent as u64,
    });
    for &(a, b, items) in &run.writes {
        tr.record(Span {
            name: "bench.gen.write",
            start_ns: base + a,
            end_ns: base + b,
            parent,
            req: 0,
            items,
        });
    }
    for &(a, b, items) in &run.reads {
        tr.record(Span {
            name: "bench.gen.read",
            start_ns: base + a,
            end_ns: base + b,
            parent,
            req: 0,
            items,
        });
    }
    for (i, f) in step.frames.iter().enumerate().take(run.sent) {
        if run.recv_ns[i] == MISSING {
            continue;
        }
        let req = frame_key(f).map_or(0, |(_, k)| k);
        let start = step.offsets_ns[i].min(run.recv_ns[i]);
        tr.record(Span {
            name: "serve.request",
            start_ns: base + start,
            end_ns: base + run.recv_ns[i],
            parent,
            req,
            items: 1,
        });
    }
}

/// What the in-process engine replay produced.
struct EngineReplay {
    decisions: Vec<nc_serve::DecisionFrame>,
    stats: nc_admit::EngineStats,
    cache: nc_core::cache::CacheStats,
    reconfigs: usize,
    evicted: u64,
}

/// Replay engine frames through one warm engine (`fleet::build_shard`
/// over the whole fleet), one span per decide, depart and
/// reconfiguration. Mirrors `replay_inproc`, whose decisions it must
/// reproduce.
fn replay_engine(
    cfg: &RequestConfig,
    frames: &[RequestFrame],
    tr: &mut Tracer,
    root: Option<usize>,
) -> EngineReplay {
    let built = fleet::build_shard(cfg, &(0..cfg.tenants).collect::<Vec<_>>());
    let mut engine = built.engine;
    let mut admitted: Vec<Vec<Option<(ClassId, usize, Placement)>>> = vec![Vec::new(); cfg.tenants];
    let mut decisions = Vec::with_capacity(frames.len());
    let (mut reconfigs, mut evicted) = (0usize, 0u64);
    for f in frames {
        match *f {
            RequestFrame::Request(r) => {
                let tid = built.tenants[r.tenant as usize].1;
                let class = built.classes[r.class as usize];
                let table = &mut admitted[r.tenant as usize];
                let (outcome, bound) = match r.event {
                    EventKind::Arrive => {
                        let s = tr.begin("admit.engine.decide", root, r.seq);
                        let d = engine
                            .decide(tid, class, r.attach as usize)
                            .expect("trace stays in range");
                        tr.end(s, 1);
                        if table.len() <= r.arrive_ix as usize {
                            table.resize(r.arrive_ix as usize + 1, None);
                        }
                        table[r.arrive_ix as usize] =
                            d.placement().map(|p| (class, r.attach as usize, p));
                        (Out::from_decision(&d), d.bound())
                    }
                    EventKind::Depart => {
                        match table.get_mut(r.arrive_ix as usize).and_then(Option::take) {
                            Some((c, attach, placement)) => {
                                let s = tr.begin("admit.engine.depart", root, r.seq);
                                engine
                                    .depart(tid, c, attach, placement)
                                    .expect("resident flow departs cleanly");
                                tr.end(s, 1);
                                (Out::Vacate, None)
                            }
                            None => (Out::Noop, None),
                        }
                    }
                };
                decisions.push(nc_serve::DecisionFrame {
                    seq: r.seq,
                    time_s: r.time_s,
                    tenant: r.tenant,
                    class: r.class,
                    attach: r.attach,
                    event: r.event,
                    outcome,
                    bound,
                });
            }
            RequestFrame::Reconfigure(rc) => {
                let tid = built.tenants[rc.tenant as usize].1;
                let node =
                    fleet::reconfig_node(rc.tenant as usize, rc.stage as usize, rc.tier as usize);
                let s = tr.begin("admit.engine.reconfigure", root, rc.seq);
                let res = engine.reconfigure_stage(tid, rc.stage as usize, node);
                tr.end(s, 1);
                reconfigs += 1;
                evicted += res.map_or(0, |e| e as u64);
            }
            RequestFrame::WhatIf(_) | RequestFrame::Shutdown => {}
        }
    }
    EngineReplay {
        decisions,
        stats: engine.stats(),
        cache: engine.cache_stats(),
        reconfigs,
        evicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_serve::service::{Client, Endpoint, Server};

    #[test]
    fn smoke_phases_over_a_socket_match_the_oracle() {
        let phases = vec![
            Phase::Low,
            Phase::Mid,
            Phase::High,
            Phase::Mixed,
            Phase::Saturate,
        ];
        let mut conf = AdmitConfig::new([2000.0, 8000.0, 16000.0], 16, phases.clone());
        conf.tenants = 4;
        let steps: Vec<(Phase, bool)> = phases.iter().map(|&p| (p, true)).collect();
        // Long enough that mixed carries reconfigurations and a what-if.
        let plan = plan(&conf, 9, &steps, 0.2);
        assert!(!plan.events.is_empty());
        let sock = socket_path(Path::new("../.bench_build/perfbench-test"), "smoke");
        let ep = Endpoint::Uds(sock.clone());
        let server = Server::bind(&ep, &plan.cfg, 1, 64, false).expect("bind");
        let oracle = oracle_for(&plan);
        let out = std::thread::scope(|s| {
            let serving = s.spawn(|| server.run());
            let mut stream = UnixStream::connect(&sock).expect("connect");
            let mut out = Outcome::default();
            for step in &plan.steps {
                let run = match step.phase {
                    Phase::Saturate => {
                        run_closed(&mut stream, step, conf.window, Duration::from_millis(100))
                    }
                    _ => run_open(&stream, step),
                }
                .expect("step runs");
                assert!(run.lost.is_none(), "{}: {:?}", step.phase.name(), run.lost);
                check(step, &run, &oracle, &mut out);
            }
            drop(stream);
            Client::connect(&ep)
                .expect("connect")
                .shutdown()
                .expect("shutdown");
            serving.join().expect("server thread").expect("server ran");
            out
        });
        let _ = std::fs::remove_file(&sock);
        assert!(out.attempted > 1000, "attempted {}", out.attempted);
        assert_eq!((out.failed, out.mismatches), (0, 0));
    }

    #[test]
    fn plans_are_a_pure_function_of_the_seed() {
        let conf = AdmitConfig::new([1000.0, 2000.0, 4000.0], 8, vec![Phase::Low, Phase::Mixed]);
        let steps = [(Phase::Low, false), (Phase::Mixed, false)];
        let (a, b) = (plan(&conf, 4, &steps, 0.5), plan(&conf, 4, &steps, 0.5));
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.wire, y.wire);
            assert_eq!(x.offsets_ns, y.offsets_ns);
        }
        assert_ne!(a.steps[0].wire, plan(&conf, 5, &steps, 0.5).steps[0].wire);
    }
}
