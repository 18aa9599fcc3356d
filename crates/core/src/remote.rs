//! Cross-process training workers: the wire data types, the child-side
//! serve loop, and the parent-side fleet driver.
//!
//! Everything in this module rides the length-prefixed frame protocol of
//! [`stellaris_cache::frame`]: the parent spawns worker processes through
//! [`stellaris_serverless::ProcessPool`] (cold starts are *measured*
//! spawn→HELLO latency), drives a training round over the socket, and
//! injects the PR 4 chaos classes against *real* process lifecycles —
//! a crash is a child calling `exit()` mid-work, a dropped frame is a
//! killed peer, corruption is a syntactically intact frame whose payload
//! no longer decodes. Every failure surfaces as a typed [`RemoteError`]
//! and is recovered by the configured retry policy.
//!
//! Span stitching: each request frame carries the parent-side span ID in
//! its trace-ID header field; the worker opens its handler spans with
//! [`stellaris_telemetry::span_with_parent`] under a disjoint per-worker
//! span-ID base, and `PULL_SPANS` ships the child's events back for
//! [`stellaris_telemetry::ingest_events`] so one merged trace covers both
//! sides of the socket.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use stellaris_cache::frame::{op, Frame, FrameReader, WireError};
use stellaris_cache::{decode_seq, encode_seq, seq_encoded_len, Codec, CodecError};
use stellaris_envs::{make_env, EnvConfig, EnvId};
use stellaris_nn::ParamSet;
use stellaris_rl::{
    apply_to_snapshot, fill_gae, BlockLayout, DeltaStore, ImpactConfig, ImpactLearner,
    ImpalaConfig, PolicyDelta, PolicyNet, PolicySnapshot, PolicySpec, PpoConfig, RolloutWorker,
    SampleBatch,
};
use stellaris_serverless::{
    FaultPlan, FaultReport, FunctionKind, OverheadMode, Platform, ProcessConfig, ProcessPool,
    SpawnError, StartupProfile, WorkerProcess,
};
use stellaris_telemetry::{self as telemetry, Event, EventKind, FieldValue};

use crate::config::{Algo, TrainConfig};
use crate::messages::GradientMsg;
use crate::orchestrator::{build_server, learner_compute};

// ---------------------------------------------------------------------------
// Wire data types
// ---------------------------------------------------------------------------

/// Everything a worker process needs to build its environment, policy and
/// rollout state (the payload of an `INIT` frame).
///
/// The algorithm travels as a family tag; workers use the laptop-scale
/// hyperparameter presets, which is exactly what the test-scale fleet
/// configurations run on the parent side too.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteSetup {
    /// Environment display name (parsed via [`EnvId::parse`]).
    pub env: String,
    /// Rendered frame side length ([`EnvConfig::frame_size`]).
    pub frame_size: usize,
    /// Episode cap ([`EnvConfig::max_steps`]).
    pub max_steps: usize,
    /// Policy hidden width.
    pub hidden: usize,
    /// Master seed (rollout streams derive from it like the orchestrator's
    /// actor threads do).
    pub seed: u64,
    /// Algorithm family tag: 0 = PPO, 1 = IMPACT, 2 = IMPALA.
    pub algo: u8,
    /// Timesteps per collect request.
    pub actor_steps: usize,
}

/// `RemoteSetup::algo` tag for PPO.
pub const ALGO_PPO: u8 = 0;
/// `RemoteSetup::algo` tag for IMPACT.
pub const ALGO_IMPACT: u8 = 1;
/// `RemoteSetup::algo` tag for IMPALA.
pub const ALGO_IMPALA: u8 = 2;

impl RemoteSetup {
    /// Projects a training config onto the wire setup.
    pub fn from_train(cfg: &TrainConfig) -> Self {
        Self {
            env: cfg.env_id.name().to_string(),
            frame_size: cfg.env_cfg.frame_size,
            max_steps: cfg.env_cfg.max_steps,
            hidden: cfg.hidden,
            seed: cfg.seed,
            algo: match cfg.algo {
                Algo::Ppo(_) => ALGO_PPO,
                Algo::Impact(_) => ALGO_IMPACT,
                Algo::Impala(_) => ALGO_IMPALA,
            },
            actor_steps: cfg.actor_steps,
        }
    }

    /// Reconstructs the algorithm (scaled presets) from the family tag.
    pub fn algo_config(&self) -> Result<Algo, CodecError> {
        match self.algo {
            ALGO_PPO => Ok(Algo::Ppo(PpoConfig::scaled())),
            ALGO_IMPACT => Ok(Algo::Impact(ImpactConfig::scaled())),
            ALGO_IMPALA => Ok(Algo::Impala(ImpalaConfig::scaled())),
            _ => Err(CodecError::Corrupt("algo tag")),
        }
    }

    fn env_cfg(&self) -> EnvConfig {
        EnvConfig {
            frame_size: self.frame_size,
            max_steps: self.max_steps,
        }
    }
}

impl Codec for RemoteSetup {
    fn encode(&self, buf: &mut BytesMut) {
        self.env.encode(buf);
        self.frame_size.encode(buf);
        self.max_steps.encode(buf);
        self.hidden.encode(buf);
        self.seed.encode(buf);
        self.algo.encode(buf);
        self.actor_steps.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            env: String::decode(buf)?,
            frame_size: usize::decode(buf)?,
            max_steps: usize::decode(buf)?,
            hidden: usize::decode(buf)?,
            seed: u64::decode(buf)?,
            algo: u8::decode(buf)?,
            actor_steps: usize::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.env.encoded_len()
            + self.frame_size.encoded_len()
            + self.max_steps.encoded_len()
            + self.hidden.encoded_len()
            + self.seed.encoded_len()
            + self.algo.encoded_len()
            + self.actor_steps.encoded_len()
    }
}

/// One learner-function invocation shipped over the socket: the snapshot
/// to differentiate against, the mini-batch, and the global IS-truncation
/// cap (`None` travels as a NaN sentinel — NaN is never a valid cap).
#[derive(Clone, Debug, PartialEq)]
pub struct GradientRequest {
    /// Policy snapshot the gradient is computed against.
    pub snap: PolicySnapshot,
    /// GAE-processed mini-batch.
    pub batch: SampleBatch,
    /// Global IS-truncation cap (Eq. 2's ρ view), if enabled.
    pub cap: Option<f32>,
    /// Learner slot identity (flows into `GradientMsg::learner_id`).
    pub learner_id: usize,
}

impl Codec for GradientRequest {
    fn encode(&self, buf: &mut BytesMut) {
        self.snap.encode(buf);
        self.batch.encode(buf);
        self.cap.unwrap_or(f32::NAN).encode(buf);
        self.learner_id.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let snap = PolicySnapshot::decode(buf)?;
        let batch = SampleBatch::decode(buf)?;
        let raw_cap = f32::decode(buf)?;
        let learner_id = usize::decode(buf)?;
        Ok(Self {
            snap,
            batch,
            cap: (!raw_cap.is_nan()).then_some(raw_cap),
            learner_id,
        })
    }

    fn encoded_len(&self) -> usize {
        self.snap.encoded_len()
            + self.batch.encoded_len()
            + self.cap.unwrap_or(f32::NAN).encoded_len()
            + self.learner_id.encoded_len()
    }
}

/// A telemetry [`Event`] in wire form. Field values are flattened to text
/// (staleness, rewards and durations survive; type fidelity does not need
/// to), and names are re-interned on the receiving side through the
/// bounded [`telemetry::intern_name`] table so a hostile peer cannot grow
/// parent memory without bound.
#[derive(Clone, Debug, PartialEq)]
pub struct WireEvent {
    /// 0 = span, 1 = instant.
    pub kind: u8,
    /// Event name.
    pub name: String,
    /// Span/event ID (minted under the worker's disjoint span-ID base).
    pub id: u64,
    /// Parent span ID — for handler roots this is the *parent process's*
    /// span, carried in by the request frame's trace-ID field.
    pub parent: u64,
    /// Recording thread number in the worker.
    pub tid: u64,
    /// Start timestamp (µs since the worker's trace epoch).
    pub ts_us: u64,
    /// Duration (µs, 0 for instants).
    pub dur_us: u64,
    /// Field names, parallel to `field_values`.
    pub field_names: Vec<String>,
    /// Field values rendered as text, parallel to `field_names`.
    pub field_values: Vec<String>,
}

fn field_text(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(x) => x.to_string(),
        FieldValue::I64(x) => x.to_string(),
        FieldValue::F64(x) => x.to_string(),
        FieldValue::Bool(x) => x.to_string(),
        FieldValue::Text(s) => s.clone(),
    }
}

impl WireEvent {
    /// Captures a locally recorded event for the wire.
    pub fn from_event(e: &Event) -> Self {
        Self {
            kind: match e.kind {
                EventKind::Span => 0,
                EventKind::Instant => 1,
            },
            name: e.name.to_string(),
            id: e.id,
            parent: e.parent,
            tid: e.tid,
            ts_us: e.ts_us,
            dur_us: e.dur_us,
            field_names: e.fields.iter().map(|(n, _)| (*n).to_string()).collect(),
            field_values: e.fields.iter().map(|(_, v)| field_text(v)).collect(),
        }
    }

    /// Rebuilds a local event, interning names through the bounded table.
    pub fn into_event(self) -> Event {
        let WireEvent {
            kind,
            name,
            id,
            parent,
            tid,
            ts_us,
            dur_us,
            field_names,
            field_values,
        } = self;
        Event {
            kind: if kind == 1 {
                EventKind::Instant
            } else {
                EventKind::Span
            },
            name: telemetry::intern_name(&name),
            id,
            parent,
            tid,
            ts_us,
            dur_us,
            fields: field_names
                .iter()
                .zip(field_values)
                .map(|(n, v)| (telemetry::intern_name(n), FieldValue::Text(v)))
                .collect(),
        }
    }
}

impl Codec for WireEvent {
    fn encode(&self, buf: &mut BytesMut) {
        self.kind.encode(buf);
        self.name.encode(buf);
        self.id.encode(buf);
        self.parent.encode(buf);
        self.tid.encode(buf);
        self.ts_us.encode(buf);
        self.dur_us.encode(buf);
        encode_seq(&self.field_names, buf);
        encode_seq(&self.field_values, buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            kind: u8::decode(buf)?,
            name: String::decode(buf)?,
            id: u64::decode(buf)?,
            parent: u64::decode(buf)?,
            tid: u64::decode(buf)?,
            ts_us: u64::decode(buf)?,
            dur_us: u64::decode(buf)?,
            field_names: decode_seq(buf)?,
            field_values: decode_seq(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.kind.encoded_len()
            + self.name.encoded_len()
            + self.id.encoded_len()
            + self.parent.encoded_len()
            + self.tid.encoded_len()
            + self.ts_us.encoded_len()
            + self.dur_us.encoded_len()
            + seq_encoded_len(&self.field_names)
            + seq_encoded_len(&self.field_values)
    }
}

/// The payload of a `PULL_SPANS` reply: every event the worker had
/// buffered, drained and shipped in one frame.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireEventBatch {
    /// Drained worker events, in recording order.
    pub events: Vec<WireEvent>,
}

impl WireEventBatch {
    /// Snapshots locally drained events for the wire.
    pub fn from_events(events: &[Event]) -> Self {
        Self {
            events: events.iter().map(WireEvent::from_event).collect(),
        }
    }

    /// Converts back to local events (names interned).
    pub fn into_events(self) -> Vec<Event> {
        self.events.into_iter().map(WireEvent::into_event).collect()
    }
}

impl Codec for WireEventBatch {
    fn encode(&self, buf: &mut BytesMut) {
        encode_seq(&self.events, buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            events: decode_seq(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        seq_encoded_len(&self.events)
    }
}

// ---------------------------------------------------------------------------
// Child side: the worker serve loop
// ---------------------------------------------------------------------------

struct WorkerState {
    algo: Algo,
    actor_steps: usize,
    rollout: RolloutWorker,
    policy: PolicyNet,
    impact_state: Option<ImpactLearner>,
    snap: Option<PolicySnapshot>,
    /// Flat-vector geometry for applying `POLICY_DELTA` frames.
    layout: BlockLayout,
}

impl WorkerState {
    fn build(setup: RemoteSetup) -> Result<Self, String> {
        let Some(env_id) = EnvId::parse(&setup.env) else {
            return Err(format!("unknown env: {}", setup.env));
        };
        let algo = match setup.algo_config() {
            Ok(a) => a,
            Err(e) => return Err(format!("bad setup: {e}")),
        };
        let env_cfg = setup.env_cfg();
        let mut env = make_env(env_id, env_cfg);
        env.reset(setup.seed);
        let mut spec = PolicySpec::for_env(env.as_ref());
        spec.hidden = setup.hidden;
        let policy = PolicyNet::new(spec, setup.seed);
        // Same rollout seed derivation as the orchestrator's actor 0, so a
        // remote collect and an in-process collect draw identical episodes.
        let rollout = RolloutWorker::new(make_env(env_id, env_cfg), setup.seed.wrapping_mul(1000));
        let layout = BlockLayout::from_shapes(&policy.param_shapes());
        Ok(Self {
            algo,
            actor_steps: setup.actor_steps,
            rollout,
            policy,
            impact_state: None,
            snap: None,
            layout,
        })
    }
}

fn send_ok<S: Read + Write>(r: &mut FrameReader<S>, trace: u64) -> Result<(), WireError> {
    let cap = r.max_frame();
    stellaris_cache::frame::write_frame(r.get_mut(), op::OK, trace, &[], cap)
}

fn send_ok_value<S: Read + Write, T: Codec>(
    r: &mut FrameReader<S>,
    trace: u64,
    value: &T,
) -> Result<(), WireError> {
    let cap = r.max_frame();
    stellaris_cache::frame::write_value_frame(r.get_mut(), op::OK, trace, value, cap)
}

fn send_err<S: Read + Write>(
    r: &mut FrameReader<S>,
    trace: u64,
    msg: String,
) -> Result<(), WireError> {
    let cap = r.max_frame();
    stellaris_cache::frame::write_value_frame(r.get_mut(), op::ERR, trace, &msg, cap)
}

/// The worker-process main loop: HELLO, then serve request frames until
/// `SHUTDOWN`, the peer hangs up, or a `CRASH` frame terminates the
/// process mid-work.
///
/// Malformed payloads and protocol misuse are answered with an `ERR`
/// frame and the conversation continues — a frame that *parses* but does
/// not *decode* must never desynchronise the stream. Only transport-level
/// failures (EOF, I/O errors, frames over the cap) end the loop.
pub fn serve_worker<S: Read + Write>(
    stream: S,
    span_base: u64,
    max_frame: usize,
) -> Result<(), WireError> {
    telemetry::enable();
    telemetry::set_span_id_base(span_base);
    let mut reader = FrameReader::with_cap(stream, max_frame);
    let cap = reader.max_frame();
    stellaris_cache::frame::write_frame(reader.get_mut(), op::HELLO, span_base, &[], cap)?;
    let mut state: Option<WorkerState> = None;
    loop {
        let frame = reader.read_frame()?;
        let trace = frame.header.trace_id;
        match frame.header.kind {
            op::INIT => match frame.decode_value::<RemoteSetup>() {
                Ok(setup) => match WorkerState::build(setup) {
                    Ok(s) => {
                        state = Some(s);
                        send_ok(&mut reader, trace)?;
                    }
                    Err(msg) => send_err(&mut reader, trace, msg)?,
                },
                Err(e) => send_err(&mut reader, trace, format!("bad INIT: {e}"))?,
            },
            op::LOAD_POLICY => match (&mut state, frame.decode_value::<PolicySnapshot>()) {
                (Some(s), Ok(snap)) => {
                    s.snap = Some(snap);
                    send_ok(&mut reader, trace)?;
                }
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad LOAD_POLICY: {e}"))?,
            },
            op::POLICY_DELTA => match (&mut state, frame.decode_value::<PolicyDelta>()) {
                (Some(s), Ok(delta)) => {
                    // Apply against the worker's held snapshot; a base
                    // mismatch (or a delta with no base to land on) is an
                    // ERR and the parent falls back to a full LOAD_POLICY.
                    match &mut s.snap {
                        Some(snap) => match apply_to_snapshot(&delta, snap, &s.layout) {
                            Ok(()) => send_ok(&mut reader, trace)?,
                            Err(e) => send_err(&mut reader, trace, format!("delta rejected: {e}"))?,
                        },
                        None if delta.full => {
                            let mut snap = s.policy.snapshot();
                            match apply_to_snapshot(&delta, &mut snap, &s.layout) {
                                Ok(()) => {
                                    s.snap = Some(snap);
                                    send_ok(&mut reader, trace)?;
                                }
                                Err(e) => {
                                    send_err(&mut reader, trace, format!("delta rejected: {e}"))?
                                }
                            }
                        }
                        None => send_err(
                            &mut reader,
                            trace,
                            "delta rejected: no base snapshot loaded".to_string(),
                        )?,
                    }
                }
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad POLICY_DELTA: {e}"))?,
            },
            op::COLLECT => match (&mut state, frame.decode_value::<u64>()) {
                (Some(s), Ok(steps)) => {
                    let steps = if steps == 0 {
                        s.actor_steps
                    } else {
                        usize::try_from(steps).unwrap_or(s.actor_steps)
                    };
                    let span = telemetry::span_with_parent(
                        "remote.collect",
                        trace,
                        vec![("steps", steps.into())],
                    );
                    if let Some(snap) = &s.snap {
                        s.policy.load_snapshot(snap);
                    }
                    let batch = s.rollout.collect(&s.policy, steps);
                    drop(span);
                    send_ok_value(&mut reader, trace, &batch)?;
                }
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad COLLECT: {e}"))?,
            },
            op::GRADIENT => match (&mut state, frame.decode_value::<GradientRequest>()) {
                (Some(s), Ok(req)) => {
                    let span = telemetry::span_with_parent(
                        "remote.gradient",
                        trace,
                        vec![("learner", req.learner_id.into())],
                    );
                    let msg = learner_compute(
                        &s.algo,
                        &mut s.policy,
                        &mut s.impact_state,
                        &req.snap,
                        &req.batch,
                        req.cap,
                        req.learner_id,
                    );
                    drop(span);
                    send_ok_value(&mut reader, trace, &msg)?;
                }
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad GRADIENT: {e}"))?,
            },
            op::PULL_SPANS => {
                telemetry::flush_thread();
                let batch = WireEventBatch::from_events(&telemetry::drain());
                send_ok_value(&mut reader, trace, &batch)?;
            }
            op::SLEEP => match frame.decode_value::<u64>() {
                Ok(ms) => {
                    let span = telemetry::span_with_parent("remote.sleep", trace, Vec::new());
                    std::thread::sleep(Duration::from_millis(ms.min(60_000)));
                    drop(span);
                    send_ok(&mut reader, trace)?;
                }
                Err(e) => send_err(&mut reader, trace, format!("bad SLEEP: {e}"))?,
            },
            op::CRASH => {
                // The chaos hook for "the function died mid-work": exit
                // without a reply, so the parent's next read sees a real
                // EOF on a real socket.
                std::process::exit(17);
            }
            op::SHUTDOWN => {
                send_ok(&mut reader, trace)?;
                return Ok(());
            }
            op::RELAY => {
                let cap = reader.max_frame();
                stellaris_cache::frame::write_frame(
                    reader.get_mut(),
                    op::OK,
                    trace,
                    &frame.payload,
                    cap,
                )?;
            }
            other => send_err(&mut reader, trace, format!("unknown opcode {other}"))?,
        }
    }
}

// ---------------------------------------------------------------------------
// Parent side: typed client + fleet driver
// ---------------------------------------------------------------------------

/// Failure talking to a remote worker.
#[derive(Clone, Debug, PartialEq)]
pub enum RemoteError {
    /// Spawning or handshaking the worker process failed.
    Spawn(SpawnError),
    /// Frame-level transport failure (connection reset, truncation, a
    /// frame over the cap).
    Wire(WireError),
    /// The worker answered with an `ERR` frame (e.g. a corrupted payload
    /// that parsed as a frame but did not decode).
    Rejected(String),
    /// The worker answered with an unexpected opcode.
    Protocol(u8),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Spawn(e) => write!(f, "spawn failed: {e}"),
            RemoteError::Wire(e) => write!(f, "wire failure: {e}"),
            RemoteError::Rejected(msg) => write!(f, "worker rejected request: {msg}"),
            RemoteError::Protocol(k) => write!(f, "unexpected reply opcode {k}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<SpawnError> for RemoteError {
    fn from(e: SpawnError) -> Self {
        RemoteError::Spawn(e)
    }
}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Wire(e)
    }
}

/// Typed request/reply client over one worker process's framed socket.
pub struct RemoteWorker {
    proc: WorkerProcess,
}

impl RemoteWorker {
    /// Wraps a checked-out worker process.
    pub fn new(proc: WorkerProcess) -> Self {
        Self { proc }
    }

    /// The underlying process (chaos hooks: `kill`, `pid`, `is_alive`).
    pub fn process(&mut self) -> &mut WorkerProcess {
        &mut self.proc
    }

    /// Unwraps back to the process, e.g. for pool check-in.
    pub fn into_process(self) -> WorkerProcess {
        self.proc
    }

    fn request(&mut self, kind: u8, trace: u64, payload: &[u8]) -> Result<Frame, RemoteError> {
        self.proc.send(kind, trace, payload)?;
        let reply = self.proc.recv()?;
        match reply.header.kind {
            op::OK => Ok(reply),
            op::ERR => {
                let msg = match reply.decode_value::<String>() {
                    Ok(m) => m,
                    Err(_) => String::from("undecodable rejection"),
                };
                Err(RemoteError::Rejected(msg))
            }
            k => Err(RemoteError::Protocol(k)),
        }
    }

    /// Initialises the worker's environment/policy state.
    pub fn init(&mut self, setup: &RemoteSetup, trace: u64) -> Result<(), RemoteError> {
        self.request(op::INIT, trace, &setup.to_bytes()).map(|_| ())
    }

    /// Ships a policy snapshot for subsequent collects.
    pub fn load_policy(&mut self, snap: &PolicySnapshot, trace: u64) -> Result<(), RemoteError> {
        self.request(op::LOAD_POLICY, trace, &snap.to_bytes())
            .map(|_| ())
    }

    /// Ships a delta-encoded policy update (only the blocks changed since
    /// the worker's version). The worker answers `ERR` on a base mismatch,
    /// surfaced as [`RemoteError::Rejected`] — callers fall back to
    /// [`Self::load_policy`].
    pub fn load_policy_delta(
        &mut self,
        delta: &PolicyDelta,
        trace: u64,
    ) -> Result<(), RemoteError> {
        self.request(op::POLICY_DELTA, trace, &delta.to_bytes())
            .map(|_| ())
    }

    /// Collects `steps` timesteps remotely (0 = the setup's default).
    pub fn collect(&mut self, steps: u64, trace: u64) -> Result<SampleBatch, RemoteError> {
        let reply = self.request(op::COLLECT, trace, &steps.to_bytes())?;
        Ok(reply.decode_value::<SampleBatch>()?)
    }

    /// Computes one gradient remotely.
    pub fn gradient(
        &mut self,
        req: &GradientRequest,
        trace: u64,
    ) -> Result<GradientMsg, RemoteError> {
        let reply = self.request(op::GRADIENT, trace, &req.to_bytes())?;
        Ok(reply.decode_value::<GradientMsg>()?)
    }

    /// Chaos hook: sends the gradient request with its payload truncated —
    /// a syntactically valid frame whose payload no longer decodes. The
    /// stream stays in sync; the worker answers `ERR` and this returns
    /// [`RemoteError::Rejected`].
    pub fn gradient_corrupted(
        &mut self,
        req: &GradientRequest,
        trace: u64,
    ) -> Result<GradientMsg, RemoteError> {
        let bytes = req.to_bytes();
        let reply = self.request(op::GRADIENT, trace, &bytes[..bytes.len() / 2])?;
        Ok(reply.decode_value::<GradientMsg>()?)
    }

    /// Chaos hook: makes the worker sleep (a genuinely slow peer).
    pub fn sleep(&mut self, ms: u64, trace: u64) -> Result<(), RemoteError> {
        self.request(op::SLEEP, trace, &ms.to_bytes()).map(|_| ())
    }

    /// Chaos hook: orders the child to exit mid-work without replying.
    /// Always returns the resulting typed transport error (the next read
    /// observes a real EOF).
    pub fn crash(&mut self) -> RemoteError {
        let _send_may_race_exit = self.proc.send(op::CRASH, 0, &[]);
        match self.proc.recv() {
            Ok(f) => RemoteError::Protocol(f.header.kind),
            Err(e) => RemoteError::Wire(e),
        }
    }

    /// Drains the worker's telemetry buffer across the socket.
    pub fn pull_spans(&mut self, trace: u64) -> Result<Vec<Event>, RemoteError> {
        let reply = self.request(op::PULL_SPANS, trace, &[])?;
        Ok(reply.decode_value::<WireEventBatch>()?.into_events())
    }

    /// Graceful shutdown: the worker acknowledges and exits its loop.
    pub fn shutdown(&mut self) -> Result<(), RemoteError> {
        self.request(op::SHUTDOWN, 0, &[]).map(|_| ())
    }
}

/// Everything a remote training run reports (the cross-process analogue
/// of `TrainResult`, scoped to what the socket path can observe).
#[derive(Clone, Debug)]
pub struct RemoteRunReport {
    /// Rounds driven.
    pub rounds: usize,
    /// Final policy clock.
    pub final_version: u64,
    /// Order-sensitive checksum of the final snapshot weights; equal
    /// checksums mean bitwise-equal policies.
    pub final_checksum: u64,
    /// Gradients folded into the policy.
    pub grads_aggregated: u64,
    /// Staleness of every aggregated gradient, in admission order.
    pub staleness_log: Vec<u64>,
    /// Fresh worker processes spawned (cold starts).
    pub cold_spawns: u64,
    /// Keep-alive reuses of live idle workers (warm starts).
    pub warm_reuses: u64,
    /// Typed transport errors that a retry subsequently recovered.
    pub recovered: u64,
    /// Everything the fault plan injected and observed.
    pub faults: FaultReport,
    /// Worker-side telemetry events merged into the parent trace.
    pub events_ingested: usize,
    /// Learner invocations recorded on the platform (including failures).
    pub learner_invocations: u64,
    /// Policy loads shipped as full snapshots (round 0 and delta
    /// fallbacks).
    pub policy_full_pulls: u64,
    /// Policy loads shipped delta-encoded.
    pub policy_delta_pulls: u64,
    /// Payload bytes of full-snapshot policy loads.
    pub policy_bytes_full: u64,
    /// Payload bytes of delta-encoded policy loads.
    pub policy_bytes_delta: u64,
}

/// Order-sensitive FNV-1a fold over a snapshot's raw `f32` bits: two runs
/// with equal checksums hold bitwise-identical weights in the same order.
pub fn snapshot_checksum(snap: &PolicySnapshot) -> u64 {
    snap.flat.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, f| {
        (h ^ u64::from(f.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drives training rounds against real worker child processes: one
/// fault-free actor worker collects trajectories, `max_learners` learner
/// workers compute gradients over the socket under seeded chaos, and the
/// parent aggregates deterministically (mini-batch order) so same-seed
/// runs reproduce the same final policy bit-for-bit.
pub struct RemoteFleet {
    pool: ProcessPool,
    platform: Platform,
    faults: FaultPlan,
    cfg: TrainConfig,
}

impl RemoteFleet {
    /// Creates a fleet that spawns `program worker_args... --connect ADDR
    /// --span-base N --max-frame BYTES` per worker.
    pub fn new(
        program: impl Into<String>,
        worker_args: Vec<String>,
        proc_cfg: ProcessConfig,
        cfg: TrainConfig,
    ) -> Self {
        let faults = FaultPlan::new(cfg.faults.clone());
        let platform = Platform::new(
            cfg.max_learners.max(1),
            1,
            StartupProfile::default(),
            OverheadMode::Record,
        );
        Self {
            pool: ProcessPool::new(program, worker_args, proc_cfg),
            platform,
            faults,
            cfg,
        }
    }

    /// The training configuration this fleet runs.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    fn checkout_worker(
        &self,
        kind: FunctionKind,
        index: usize,
        setup: &RemoteSetup,
    ) -> Result<RemoteWorker, RemoteError> {
        let proc = self.pool.checkout(kind, index)?;
        let cold = proc.is_cold();
        let cold_start = proc.cold_start();
        let mut worker = RemoteWorker::new(proc);
        if cold {
            let t0 = Instant::now();
            worker.init(setup, 0)?;
            let exec = t0.elapsed();
            self.platform
                .record_remote(kind, exec, exec + cold_start, cold_start, true, false);
        }
        Ok(worker)
    }

    /// Runs the configured number of rounds. Actor traffic is fault-free
    /// (its rollout stream must survive the whole run for same-seed
    /// determinism); learner traffic carries the seeded chaos plan, and
    /// every injected fault must surface as a typed error and be absorbed
    /// by the retry budget or the round's quorum degradation.
    pub fn run(&self) -> Result<RemoteRunReport, RemoteError> {
        let setup = RemoteSetup::from_train(&self.cfg);
        let n_learners = self.cfg.max_learners.max(1);
        let server = build_server(&self.cfg);
        let gamma = self.cfg.algo.gamma();
        let lambda = self.cfg.algo.gae_lambda();

        // The actor's span base must not collide with any learner's, so it
        // takes the index right above the learner range.
        let mut actor = self.checkout_worker(FunctionKind::Actor, n_learners, &setup)?;
        let mut recovered = 0u64;
        let mut events_ingested = 0usize;

        // Delta-encoded policy pulls (DESIGN.md §16): the parent tracks the
        // version the actor worker holds and ships only the blocks changed
        // since. Round 0 (and any rejected delta) falls back to a full
        // LOAD_POLICY.
        let mut delta_store = DeltaStore::new(server.layout().clone(), &server.snapshot());
        let mut actor_version: Option<u64> = None;
        let mut policy_full_pulls = 0u64;
        let mut policy_delta_pulls = 0u64;
        let mut policy_bytes_full = 0u64;
        let mut policy_bytes_delta = 0u64;

        for round in 0..self.cfg.rounds {
            let mut round_span = telemetry::span_with("fleet.round", vec![("round", round.into())]);
            let snap = server.snapshot();

            // ----- actor collect (Step ①, fault-free) ----------------------
            let mut batch = {
                let collect_span =
                    telemetry::span_with("fleet.collect", vec![("round", round.into())]);
                let t0 = Instant::now();
                delta_store.ingest(&snap);
                let shipped = match actor_version {
                    Some(v) => {
                        let delta = delta_store.delta_since(v);
                        // Ship whichever encoding is smaller: a dense
                        // update that touches every block makes the delta
                        // (blocks + index overhead) larger than the flat
                        // snapshot, so the full pull wins there.
                        if delta.encoded_len() >= snap.encoded_len() {
                            false
                        } else {
                            policy_bytes_delta += delta.encoded_len() as u64;
                            match actor.load_policy_delta(&delta, collect_span.id()) {
                                Ok(()) => {
                                    policy_delta_pulls += 1;
                                    true
                                }
                                // Base mismatch: the worker's lineage
                                // diverged (e.g. a respawn); fall back to
                                // the full pull.
                                Err(RemoteError::Rejected(_)) => false,
                                Err(e) => return Err(e),
                            }
                        }
                    }
                    None => false,
                };
                if !shipped {
                    actor.load_policy(&snap, collect_span.id())?;
                    policy_full_pulls += 1;
                    policy_bytes_full += snap.encoded_len() as u64;
                }
                actor_version = Some(delta_store.version());
                let batch = actor.collect(self.cfg.actor_steps as u64, collect_span.id())?;
                let exec = t0.elapsed();
                self.platform.record_remote(
                    FunctionKind::Actor,
                    exec,
                    exec,
                    Duration::ZERO,
                    false,
                    false,
                );
                batch
            };

            // ----- GPU data loader (§V-B), parent-side ---------------------
            fill_gae(&mut batch, gamma, lambda);
            batch.normalize_advantages();
            let minibatches = batch.minibatches(self.cfg.minibatch);

            // ----- learner waves over the socket (Step ②) ------------------
            let mut learners: Vec<Option<RemoteWorker>> = (0..n_learners).map(|_| None).collect();
            let mut msgs: Vec<(usize, GradientMsg)> = Vec::with_capacity(minibatches.len());
            for (i, mb) in minibatches.into_iter().enumerate() {
                let l = i % n_learners;
                // One chaos draw per mini-batch, before the retry loop, so
                // a retried attempt is clean and recovery is guaranteed
                // within the budget — and the draw sequence (hence the
                // run's outcome) is a pure function of the fault seed.
                let crash = self.faults.should_crash();
                let straggle = self.faults.straggle();
                let corrupt = self.faults.should_corrupt_frame();
                let dropped = self.faults.should_drop_frame();
                let req = GradientRequest {
                    snap: snap.clone(),
                    batch: mb,
                    cap: self.cfg.truncation_rho,
                    learner_id: l,
                };
                let mut span = telemetry::span_with(
                    "fleet.gradient",
                    vec![("minibatch", i.into()), ("learner", l.into())],
                );
                let mut outcome: Option<GradientMsg> = None;
                let mut attempt: u32 = 0;
                loop {
                    if learners[l].is_none() {
                        match self.checkout_worker(FunctionKind::Learner, l, &setup) {
                            Ok(w) => learners[l] = Some(w),
                            Err(_spawn_failed) if attempt < self.cfg.retry.max_retries => {
                                self.faults.note_retry(Duration::ZERO);
                                attempt += 1;
                                continue;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    let Some(w) = learners[l].as_mut() else { break };
                    let injected = attempt == 0;
                    let t0 = Instant::now();
                    let result: Result<GradientMsg, RemoteError> = if injected && dropped {
                        // Frame drop, socket edition: the peer vanishes and
                        // the connection resets under the request.
                        w.process().kill();
                        w.gradient(&req, span.id())
                    } else if injected && crash {
                        Err(w.crash())
                    } else if injected && corrupt {
                        w.gradient_corrupted(&req, span.id())
                    } else {
                        if let (true, Some(dur)) = (injected, straggle) {
                            let _slow_peer = w.sleep(dur.as_millis() as u64, span.id());
                        }
                        w.gradient(&req, span.id())
                    };
                    let exec = t0.elapsed();
                    match result {
                        Ok(msg) => {
                            self.platform.record_remote(
                                FunctionKind::Learner,
                                exec,
                                exec,
                                Duration::ZERO,
                                false,
                                false,
                            );
                            if attempt > 0 {
                                recovered += 1;
                                span.field("recovered_after", attempt);
                            }
                            outcome = Some(msg);
                            break;
                        }
                        Err(e) => {
                            self.platform.record_remote(
                                FunctionKind::Learner,
                                exec,
                                exec,
                                Duration::ZERO,
                                false,
                                true,
                            );
                            span.field("error", format!("{e}"));
                            // A rejected frame leaves the stream in sync;
                            // anything wire-level poisons the connection
                            // and the worker respawns cold.
                            if !matches!(e, RemoteError::Rejected(_)) {
                                learners[l] = None;
                            }
                            if attempt >= self.cfg.retry.max_retries {
                                break;
                            }
                            let backoff = self.cfg.retry.backoff(attempt, self.faults.jitter());
                            self.faults.note_retry(backoff);
                            std::thread::sleep(backoff);
                            attempt += 1;
                        }
                    }
                }
                match outcome {
                    Some(msg) => msgs.push((i, msg)),
                    None => {
                        // Quorum degradation: this mini-batch's gradient is
                        // permanently lost and the round proceeds without it.
                        self.faults.note_exhausted();
                        span.field("exhausted", true);
                    }
                }
            }

            // ----- aggregation (Step ③), deterministic order ---------------
            msgs.sort_by_key(|(i, _)| *i);
            for (_, msg) in msgs {
                server.offer(msg);
            }
            server.advance_round();
            round_span.field("version", server.clock());

            let last_round = round + 1 == self.cfg.rounds;
            for w in learners.into_iter().flatten() {
                let mut w = w;
                if last_round {
                    if let Ok(events) = w.pull_spans(round_span.id()) {
                        events_ingested += events.len();
                        telemetry::ingest_events(events);
                    }
                    let _graceful = w.shutdown();
                    // Drop kills whatever is left of the process.
                } else {
                    // Keep-alive: the worker idles in the pool and the next
                    // round's checkout reuses it warm.
                    self.pool.checkin(w.into_process());
                }
            }
        }

        if let Ok(events) = actor.pull_spans(0) {
            events_ingested += events.len();
            telemetry::ingest_events(events);
        }
        let _graceful = actor.shutdown();
        self.pool.shutdown();

        let (cold_spawns, warm_reuses) = self.pool.start_counts();
        let snapshot = server.snapshot();
        Ok(RemoteRunReport {
            rounds: self.cfg.rounds,
            final_version: server.clock(),
            final_checksum: snapshot_checksum(&snapshot),
            grads_aggregated: server.grads_aggregated(),
            staleness_log: server.staleness_log().to_vec(),
            cold_spawns,
            warm_reuses,
            recovered,
            faults: self.faults.report(),
            events_ingested,
            policy_full_pulls,
            policy_delta_pulls,
            policy_bytes_full,
            policy_bytes_delta,
            learner_invocations: self
                .platform
                .records()
                .iter()
                .filter(|r| r.kind == FunctionKind::Learner)
                .count() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::build_policy;
    use std::net::TcpListener;
    use stellaris_cache::frame::{write_value_frame, DEFAULT_MAX_FRAME};
    use stellaris_envs::EnvId;
    use stellaris_rl::BlockUpdate;
    use stellaris_serverless::WireStream;

    fn tiny_setup() -> RemoteSetup {
        RemoteSetup {
            env: "PointMass".to_string(),
            frame_size: 20,
            max_steps: 80,
            hidden: 16,
            seed: 11,
            algo: ALGO_PPO,
            actor_steps: 32,
        }
    }

    #[test]
    fn setup_and_request_codecs_roundtrip() {
        let s = tiny_setup();
        assert_eq!(RemoteSetup::from_bytes(&s.to_bytes()).unwrap(), s);
        assert_eq!(s.encoded_len(), s.to_bytes().len());

        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 11);
        let snap = build_policy(&cfg).snapshot();
        let mut worker = RolloutWorker::new(
            make_env(EnvId::PointMass, EnvConfig::tiny()),
            11u64.wrapping_mul(1000),
        );
        let policy = build_policy(&cfg);
        let batch = worker.collect(&policy, 16);
        for cap in [Some(1.0f32), None] {
            let req = GradientRequest {
                snap: snap.clone(),
                batch: batch.clone(),
                cap,
                learner_id: 2,
            };
            let back = GradientRequest::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(back.cap, cap, "NaN sentinel must round-trip None");
            assert_eq!(back, req);
            assert_eq!(req.encoded_len(), req.to_bytes().len());
        }
    }

    #[test]
    fn setup_from_train_maps_algo_tags() {
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 1);
        assert_eq!(RemoteSetup::from_train(&cfg).algo, ALGO_PPO);
        let cfg = cfg.with_impact(ImpactConfig::scaled());
        assert_eq!(RemoteSetup::from_train(&cfg).algo, ALGO_IMPACT);
        let cfg = cfg.with_impala(ImpalaConfig::scaled());
        let s = RemoteSetup::from_train(&cfg);
        assert_eq!(s.algo, ALGO_IMPALA);
        assert_eq!(s.algo_config().unwrap().name(), "IMPALA");
        let bad = RemoteSetup { algo: 9, ..s };
        assert!(
            bad.algo_config().is_err(),
            "unknown tag is typed, not a panic"
        );
    }

    #[test]
    fn wire_events_roundtrip_with_interned_names() {
        let batch = WireEventBatch {
            events: vec![WireEvent {
                kind: 0,
                name: "remote.gradient".to_string(),
                id: (1 << 40) + 3,
                parent: 42,
                tid: 1,
                ts_us: 10,
                dur_us: 5,
                field_names: vec!["learner".to_string()],
                field_values: vec!["2".to_string()],
            }],
        };
        let decoded = WireEventBatch::from_bytes(&batch.to_bytes()).unwrap();
        assert_eq!(decoded, batch);
        let events = decoded.into_events();
        assert_eq!(events[0].name, "remote.gradient");
        assert_eq!(events[0].parent, 42);
        assert_eq!(
            events[0].fields,
            vec![("learner", FieldValue::Text("2".to_string()))]
        );
    }

    /// The delta-pull half of the wire protocol against a live worker:
    /// a partial `POLICY_DELTA` lands bit-for-bit (the subsequent collect
    /// equals a local collect under the delta-applied snapshot), a
    /// mismatched base is an `ERR` that leaves the stream usable, and
    /// deltas before INIT / before a base snapshot are typed rejections.
    #[test]
    fn policy_delta_over_tcp() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_worker(WireStream::Tcp(stream), 1 << 41, DEFAULT_MAX_FRAME)
        });
        let stream = WireStream::connect_addr(&format!("tcp:127.0.0.1:{port}")).unwrap();
        let mut reader = FrameReader::new(stream);
        let cap = reader.max_frame();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::HELLO);

        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 11);
        let policy = build_policy(&cfg);
        let layout = BlockLayout::from_shapes(&policy.param_shapes());
        let snap0 = policy.snapshot();
        let delta = PolicyDelta {
            from: snap0.version,
            to: snap0.version + 1,
            full: false,
            blocks: vec![BlockUpdate {
                index: 0,
                data: layout.split(&snap0.flat)[0]
                    .iter()
                    .map(|x| x + 0.25)
                    .collect(),
            }],
        };

        // Before INIT: rejected, stream intact.
        write_value_frame(reader.get_mut(), op::POLICY_DELTA, 1, &delta, cap).unwrap();
        let early = reader.read_frame().unwrap();
        assert_eq!(early.header.kind, op::ERR);

        write_value_frame(reader.get_mut(), op::INIT, 2, &tiny_setup(), cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);

        // A partial delta with no base snapshot loaded yet: rejected.
        write_value_frame(reader.get_mut(), op::POLICY_DELTA, 3, &delta, cap).unwrap();
        let no_base = reader.read_frame().unwrap();
        assert_eq!(no_base.header.kind, op::ERR);
        let msg = no_base.decode_value::<String>().unwrap();
        assert!(msg.contains("delta rejected"), "typed rejection: {msg}");

        write_value_frame(reader.get_mut(), op::LOAD_POLICY, 4, &snap0, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);

        // Now the delta applies.
        write_value_frame(reader.get_mut(), op::POLICY_DELTA, 5, &delta, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);

        // A delta against the wrong base: ERR naming the mismatch, and the
        // worker's state must stay at the applied version.
        let stale = PolicyDelta {
            from: 99,
            to: 100,
            full: false,
            blocks: delta.blocks.clone(),
        };
        write_value_frame(reader.get_mut(), op::POLICY_DELTA, 6, &stale, cap).unwrap();
        let mismatch = reader.read_frame().unwrap();
        assert_eq!(mismatch.header.kind, op::ERR);
        let msg = mismatch.decode_value::<String>().unwrap();
        assert!(msg.contains("base"), "mismatch names the base: {msg}");

        // Collect under the delta-applied policy: must equal a local collect
        // with the same snapshot bits and rollout seed. Trace id 4 matches
        // the conversation test's collect: both workers share this process's
        // telemetry buffer, so a concurrent PULL_SPANS there may drain this
        // span and assert on its parent.
        write_value_frame(reader.get_mut(), op::COLLECT, 4, &12u64, cap).unwrap();
        let reply = reader.read_frame().unwrap();
        assert_eq!(reply.header.kind, op::OK);
        let remote_batch = reply.decode_value::<SampleBatch>().unwrap();

        let mut expected_snap = snap0.clone();
        apply_to_snapshot(&delta, &mut expected_snap, &layout).unwrap();
        let mut local_policy = build_policy(&cfg);
        local_policy.load_snapshot(&expected_snap);
        let setup = tiny_setup();
        let mut local_rollout = RolloutWorker::new(
            make_env(EnvId::PointMass, setup.env_cfg()),
            setup.seed.wrapping_mul(1000),
        );
        let local_batch = local_rollout.collect(&local_policy, 12);
        assert_eq!(
            remote_batch, local_batch,
            "delta-applied policy diverged from local application"
        );

        write_value_frame(reader.get_mut(), op::SHUTDOWN, 8, &0u8, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);
        server.join().unwrap().unwrap();
    }

    /// Full conversation against `serve_worker` on a real TCP socket:
    /// HELLO → INIT → LOAD_POLICY → COLLECT → GRADIENT (clean, corrupt,
    /// clean again) → PULL_SPANS → SHUTDOWN. Also pins that the remote
    /// gradient equals the local `learner_compute` on identical inputs.
    #[test]
    fn serve_worker_conversation_over_tcp() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_worker(WireStream::Tcp(stream), 1 << 40, DEFAULT_MAX_FRAME)
        });
        let stream = WireStream::connect_addr(&format!("tcp:127.0.0.1:{port}")).unwrap();
        let mut reader = FrameReader::new(stream);
        let cap = reader.max_frame();

        let hello = reader.read_frame().unwrap();
        assert_eq!(hello.header.kind, op::HELLO);

        // Requests before INIT are rejected, not fatal.
        write_value_frame(reader.get_mut(), op::COLLECT, 1, &8u64, cap).unwrap();
        let early = reader.read_frame().unwrap();
        assert_eq!(early.header.kind, op::ERR);

        let setup = tiny_setup();
        write_value_frame(reader.get_mut(), op::INIT, 2, &setup, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);

        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 11);
        let snap = build_policy(&cfg).snapshot();
        write_value_frame(reader.get_mut(), op::LOAD_POLICY, 3, &snap, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);

        write_value_frame(reader.get_mut(), op::COLLECT, 4, &16u64, cap).unwrap();
        let reply = reader.read_frame().unwrap();
        assert_eq!(reply.header.kind, op::OK);
        assert_eq!(reply.header.trace_id, 4, "reply echoes the request trace");
        let batch = reply.decode_value::<SampleBatch>().unwrap();
        assert_eq!(batch.len(), 16);

        let mut gae_batch = batch.clone();
        fill_gae(&mut gae_batch, 0.99, 0.95);
        gae_batch.normalize_advantages();
        let req = GradientRequest {
            snap: snap.clone(),
            batch: gae_batch,
            cap: Some(1.0),
            learner_id: 0,
        };

        // Corrupt first: intact frame, undecodable payload → ERR, and the
        // stream must stay usable.
        let bytes = req.to_bytes();
        stellaris_cache::frame::write_frame(
            reader.get_mut(),
            op::GRADIENT,
            5,
            &bytes[..bytes.len() / 2],
            cap,
        )
        .unwrap();
        let rejected = reader.read_frame().unwrap();
        assert_eq!(rejected.header.kind, op::ERR);
        let msg = rejected.decode_value::<String>().unwrap();
        assert!(msg.contains("bad GRADIENT"), "typed rejection: {msg}");

        write_value_frame(reader.get_mut(), op::GRADIENT, 6, &req, cap).unwrap();
        let reply = reader.read_frame().unwrap();
        assert_eq!(reply.header.kind, op::OK);
        let remote_msg = reply.decode_value::<GradientMsg>().unwrap();

        // The same inputs through the local learner body must agree
        // bit-for-bit — both sides built the policy from the same spec and
        // seed, and `learner_compute` loads the snapshot first.
        let mut local = build_policy(&cfg);
        let mut impact_state = None;
        let local_msg = learner_compute(
            &Algo::Ppo(PpoConfig::scaled()),
            &mut local,
            &mut impact_state,
            &req.snap,
            &req.batch,
            req.cap,
            0,
        );
        assert_eq!(remote_msg, local_msg, "remote and local gradients diverge");

        write_value_frame(reader.get_mut(), op::PULL_SPANS, 7, &0u8, cap).unwrap();
        let spans = reader.read_frame().unwrap();
        assert_eq!(spans.header.kind, op::OK);
        let events = spans
            .decode_value::<WireEventBatch>()
            .unwrap()
            .into_events();
        let collect = events
            .iter()
            .find(|e| e.name == "remote.collect")
            .expect("collect span crossed the wire");
        assert_eq!(collect.parent, 4, "span parents onto the request trace id");
        assert!(
            collect.id >= 1 << 40,
            "child ids minted above the span base"
        );
        let grad = events
            .iter()
            .find(|e| e.name == "remote.gradient")
            .expect("gradient span crossed the wire");
        assert_eq!(grad.parent, 6);

        stellaris_cache::frame::write_frame(reader.get_mut(), op::SHUTDOWN, 8, &[], cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn unknown_opcode_is_rejected_not_fatal() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_worker(WireStream::Tcp(stream), 2 << 40, DEFAULT_MAX_FRAME)
        });
        let stream = WireStream::connect_addr(&format!("tcp:127.0.0.1:{port}")).unwrap();
        let mut reader = FrameReader::new(stream);
        let cap = reader.max_frame();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::HELLO);
        stellaris_cache::frame::write_frame(reader.get_mut(), 0x3f, 9, b"??", cap).unwrap();
        let reply = reader.read_frame().unwrap();
        assert_eq!(reply.header.kind, op::ERR);
        stellaris_cache::frame::write_frame(reader.get_mut(), op::SHUTDOWN, 10, &[], cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn snapshot_checksum_is_order_and_bit_sensitive() {
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 3);
        let snap = build_policy(&cfg).snapshot();
        let same = build_policy(&cfg).snapshot();
        assert_eq!(snapshot_checksum(&snap), snapshot_checksum(&same));
        let mut tweaked = snap.clone();
        tweaked.flat[0] += 1.0e-6;
        assert_ne!(snapshot_checksum(&snap), snapshot_checksum(&tweaked));
    }
}
