//! `serve-hot` and `serve-cold`: `WireClient` → unix socket →
//! `WireServer` → `Router` (2 shards × 1 worker) → `EngineService`, all in
//! this process, with 2 connections: `serve-hot` drives both from one load
//! thread, `serve-cold` gives each its own.
//!
//! Both send `[9,5,6,3]` random states at approximated 0.98, so their
//! frames have the same shape. `serve-hot` is a closed loop over 64 states
//! that every shard already holds from a warm-start snapshot: only the
//! codec, envelope, socket, router and cache probe run. `serve-cold` is an
//! open loop at a fixed rate in which every state is new and replay
//! verification is demanded: every request runs the DD core and fills the
//! cache.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use mdq_core::{PrepareOptions, VerificationPolicy};
use mdq_engine::snapshot;
use mdq_engine::{canonical_key, CircuitCache, EngineConfig, Frame, PrepareRequest, RequestFrame};
use mdq_num::radix::Dims;
use mdq_router::{Router, RouterConfig, RouterStats, TenantId};
use mdq_states::{random_state, RandomKind};
use mdq_transport::{
    checksum, Backend, ClientConfig, ServerAddr, ServerConfig, ServerReply, WireClient, WireServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check;
use crate::stats::{median, ms, process_cpu};
use crate::trace::Tracer;
use crate::{metric, work_dir, EndToEnd, Outcome, Slice, SETUPS};

const REGISTER: [usize; 4] = [9, 5, 6, 3];
const FIDELITY: f64 = 0.98;
const SHARDS: usize = 2;
const HANDLER_THREADS: usize = 2;
const CLIENTS: usize = 2;
/// Distinct states of `serve-hot`, all cached before set-up.
const HOT_STATES: usize = 64;
/// The fixed seeded round `circuit_ops` and `circuit_controls` sum over.
const COUNTED_ROUND: usize = 64;
/// Cache entries per `serve-cold` shard: the cache fills and then evicts,
/// as a long-running server's would, instead of growing by ~170 KB per
/// request for the whole run. `serve-hot` leaves its caches unbounded, so
/// that no hot entry can be evicted.
const COLD_CACHE_CAPACITY: usize = 128;
/// Slice length of `serve-cold`: 200 requests. A `serve-hot` slice is a
/// segment: with the benchmark's run length, over 1000 requests, so that
/// its p99 has ten samples beyond it.
const COLD_SLICE: Duration = Duration::from_secs(4);
/// Fresh requests `serve-cold` sends during set-up, outside the timed set,
/// so that the workers' arenas have grown before timing starts.
const WARM_UP: usize = 8;
/// Open-loop arrival rate of `serve-cold`, requests per second. A cold
/// request costs about 9 ms of CPU, so on the one CPU the benchmark runs on
/// (`run.py`) the server is under half busy. Requests are due 20 ms apart,
/// more than twice a cold request's service time, so p99 measures service
/// rather than a request waiting behind its predecessor.
const COLD_RATE: f64 = 50.0;

fn register() -> Dims {
    Dims::new(REGISTER.to_vec()).expect("valid register")
}

/// The `index`-th request of a stream; `cold` selects the stream.
fn request(seed: u64, index: usize, cold: bool) -> RequestFrame {
    let dims = register();
    let stream = if cold { 1u64 << 32 } else { 0 };
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream + index as u64));
    let mut options = PrepareOptions::approximated(FIDELITY);
    if cold {
        options = options.with_verification(VerificationPolicy::replay(FIDELITY));
    }
    let state = random_state(&dims, RandomKind::ReImUniform, &mut rng);
    RequestFrame {
        tenant: None,
        request: PrepareRequest::dense(dims, state, options),
    }
}

/// The serving router: warm-started from `snapshot_dir` (hot), or with a
/// bounded cache (cold).
fn router(snapshot_dir: Option<&Path>) -> Router {
    let engine = EngineConfig::default().with_workers(1);
    let config = match snapshot_dir {
        Some(dir) => RouterConfig::default()
            .with_engine_config(engine)
            .with_snapshot_dir(dir),
        None => RouterConfig::default()
            .with_engine_config(engine.with_cache_capacity(COLD_CACHE_CAPACITY)),
    };
    let router = Router::new(config);
    for shard in 0..SHARDS {
        router.add_shard(shard);
    }
    router
}

struct Stack {
    server: WireServer,
    clients: Vec<WireClient>,
}

impl Stack {
    fn start(socket: &Path, snapshot_dir: Option<&Path>) -> Result<Stack, String> {
        let addr = ServerAddr::unix(socket);
        let server = WireServer::bind(
            &addr,
            Backend::Router(Box::new(router(snapshot_dir))),
            ServerConfig::new().with_handler_threads(HANDLER_THREADS),
        )
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let clients = (0..CLIENTS)
            .map(|_| WireClient::connect(addr.clone(), ClientConfig::new()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Stack { server, clients })
    }

    fn router(&self) -> &Router {
        self.server.backend().router().expect("router backend")
    }

    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Runs the set-up `SETUPS` times, timing each: `inputs`, then the
/// stack's start, then `warm` on the started stack. Keeps the last stack
/// running.
fn timed_setups(
    e2e: &mut EndToEnd,
    mut inputs: impl FnMut(),
    mut warm: impl FnMut(&mut Stack) -> Result<(), String>,
    socket: &Path,
    snapshot_dir: Option<&Path>,
) -> Result<Stack, String> {
    let mut stack: Option<Stack> = None;
    for _ in 0..SETUPS {
        if let Some(old) = stack.take() {
            old.stop();
        }
        let start = Instant::now();
        inputs();
        let mut started = Stack::start(socket, snapshot_dir)?;
        warm(&mut started)?;
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        stack = Some(started);
    }
    Ok(stack.expect("at least one set-up"))
}

/// `serve-hot` counters summed over the segments' stacks, each read at the
/// end of its segment's timed window.
#[derive(Default)]
struct HotCounters {
    hits: u64,
    misses: u64,
    shard_jobs: Vec<u64>,
    retries: u64,
    connections: u64,
    error_replies: u64,
    bad_frames: u64,
    timeouts: u64,
    oversized: u64,
}

impl HotCounters {
    /// Adds what `stack` did since `before` was read from its router.
    fn add(&mut self, stack: &Stack, before: &RouterStats) {
        let after = stack.router().stats();
        self.shard_jobs.resize(after.shards.len(), 0);
        for (i, shard) in after.shards.iter().enumerate() {
            let prior = before.shards.iter().find(|s| s.shard == shard.shard);
            let (h0, m0, j0) = prior.map_or((0, 0, 0), |s| {
                (s.engine.cache.hits, s.engine.cache.misses, s.engine.jobs)
            });
            self.hits += shard.engine.cache.hits - h0;
            self.misses += shard.engine.cache.misses - m0;
            self.shard_jobs[i] += shard.engine.jobs - j0;
        }
        self.retries += stack.clients.iter().map(WireClient::retries).sum::<u64>();
        self.connections += stack
            .clients
            .iter()
            .map(WireClient::connections)
            .sum::<u64>();
        let server = stack.server.stats();
        self.error_replies += server.error_replies;
        self.bad_frames += server.bad_frames;
        self.timeouts += server.timeouts;
        self.oversized += server.oversized;
    }
}

/// Runs each lane on its own scoped thread while this thread samples the
/// process CPU at every `slice` boundary from `origin`, until all lanes end.
fn run_sampled<F>(
    lanes: Vec<F>,
    origin: Instant,
    slice: Duration,
) -> (Vec<Lane>, Vec<(Instant, Duration)>)
where
    F: FnOnce() -> Lane + Send,
{
    thread::scope(|s| {
        let handles: Vec<_> = lanes.into_iter().map(|lane| s.spawn(lane)).collect();
        let mut samples = vec![(origin, process_cpu())];
        while !handles.iter().all(|h| h.is_finished()) {
            let next = origin + slice * samples.len() as u32;
            let now = Instant::now();
            if now >= next {
                samples.push((now, process_cpu()));
            } else {
                thread::sleep((next - now).min(Duration::from_millis(20)));
            }
        }
        let lanes = handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect();
        (lanes, samples)
    })
}

/// Cuts the timed window at the CPU samples; each interval's jobs are the
/// requests whose reply arrived in it. Replies after the last boundary are
/// not counted: the load threads may have ended there, and an ended
/// thread's CPU no longer shows in the process total.
fn slices(samples: &[(Instant, Duration)], lanes: &[Lane]) -> Vec<Slice> {
    samples
        .windows(2)
        .map(|w| {
            let ((t0, c0), (t1, c1)) = (w[0], w[1]);
            let latencies_ms: Vec<f64> = lanes
                .iter()
                .flat_map(|l| l.completions.iter())
                .filter(|(done, _)| *done >= t0 && *done < t1)
                .map(|&(_, latency)| latency)
                .collect();
            Slice {
                jobs: latencies_ms.len() as u64,
                duration: t1 - t0,
                cpu: c1.saturating_sub(c0),
                latencies_ms,
            }
        })
        .collect()
}

/// What one load thread saw.
struct Lane {
    attempted: u64,
    failed: u64,
    /// When each completed request's reply arrived, and its latency in
    /// milliseconds.
    completions: Vec<(Instant, f64)>,
    tracer: Tracer,
    errors: Vec<String>,
    /// Per request (cold): index, served digest, ops, controls and the
    /// report's timings.
    served: Vec<Served>,
    request_bytes: Vec<f64>,
    report_bytes: Vec<f64>,
}

impl Lane {
    fn new(origin: Instant) -> Self {
        Lane {
            attempted: 0,
            failed: 0,
            completions: Vec::new(),
            tracer: Tracer::new(origin),
            errors: Vec::new(),
            served: Vec::new(),
            request_bytes: Vec::new(),
            report_bytes: Vec::new(),
        }
    }
}

struct Served {
    index: usize,
    digest: u64,
    ops: u64,
    controls: u64,
    worker_ms: f64,
    pipeline_ms: f64,
    queue_ms: f64,
    lag_ms: f64,
    replay_ms: f64,
    replay_nodes: f64,
}

/// Counts a failed request; the first few are printed.
fn fail(lane: &mut Lane, what: String) {
    lane.failed += 1;
    if lane.failed <= 10 {
        eprintln!("{what}");
    }
}

// ───────────────────────────── serve-hot ─────────────────────────────

pub fn run_hot(seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let dir = work_dir("serve-hot");
    let snapshots = dir.join("snapshots");
    std::fs::create_dir_all(&snapshots).map_err(|e| e.to_string())?;
    let socket = dir.join("s.sock");
    let frames: Vec<RequestFrame> = (0..HOT_STATES).map(|i| request(seed, i, false)).collect();

    // Before set-up: the reference circuits, and the shard snapshots the
    // served stack warm-starts from.
    let mut references = Vec::with_capacity(frames.len());
    for frame in &frames {
        let result = frame
            .request
            .prepare_sequential()
            .map_err(|e| e.to_string())?;
        references.push(check::digest(&result.circuit));
    }
    {
        let seeding = router(Some(&snapshots));
        for frame in &frames {
            seeding
                .submit(TenantId(0), frame.request.clone())
                .map_err(|e| e.to_string())?
                .wait()
                .map_err(|e| e.to_string())?;
        }
        seeding.shutdown();
    }

    let mut e2e = EndToEnd::default();
    let segment = seconds / SETUPS as u32;
    let trace_origin = Instant::now();
    let mut lanes = Vec::new();
    let mut counters = HotCounters::default();
    let mut stack: Option<Stack> = None;
    for index in 0..SETUPS {
        if let Some(old) = stack.take() {
            old.stop();
        }
        let start = Instant::now();
        let mut started = Stack::start(&socket, Some(&snapshots))?;
        e2e.setup_s.push(start.elapsed().as_secs_f64());

        let before = started.router().stats();
        let origin = Instant::now();
        let deadline = origin + segment;
        let Stack { server, clients } = &mut started;
        let router = server.backend().router().expect("router backend");
        let frames_ref = &frames;
        let first_group = (index as u64) << 32;
        let segment_lane = move || {
            hot_lane(
                clients,
                frames_ref,
                deadline,
                traced.then_some(router),
                trace_origin,
                first_group,
            )
        };
        let (segment_lanes, samples) = run_sampled(vec![segment_lane], origin, segment);
        e2e.slices.extend(slices(&samples, &segment_lanes));
        lanes.extend(segment_lanes);
        counters.add(&started, &before);
        stack = Some(started);
    }
    let mut stack = stack.expect("at least one segment");
    e2e.peak_rss_mb = crate::stats::peak_rss_mb();

    // Outside the timed window: one checked pass over every state.
    let mut errors: Vec<String> = lanes
        .iter()
        .flat_map(|l| l.errors.iter().cloned())
        .collect();
    for (i, frame) in frames.iter().enumerate() {
        match stack.clients[0].call(frame) {
            Ok(ServerReply::Report(report)) => {
                let circuit = &report.report.circuit;
                if !report.report.from_cache {
                    errors.push(format!("hot state {i}: check pass missed the cache"));
                }
                if check::digest(circuit) != references[i] {
                    errors.push(format!(
                        "hot state {i}: served circuit differs from prepare_sequential"
                    ));
                }
                if i < COUNTED_ROUND {
                    e2e.circuit_ops += circuit.len() as u64;
                    e2e.circuit_controls += check::control_sum(circuit);
                }
            }
            other => errors.push(format!("hot state {i}: check pass got {other:?}")),
        }
    }

    let mut outcome = Outcome {
        errors,
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(trace_origin);
    let mut request_bytes = Vec::new();
    let mut report_bytes = Vec::new();
    for lane in lanes {
        outcome.attempted += lane.attempted;
        outcome.failed += lane.failed;
        tracer.merge(lane.tracer);
        request_bytes.extend(lane.request_bytes);
        report_bytes.extend(lane.report_bytes);
    }
    outcome.end_to_end = e2e.metrics();
    outcome.summary = e2e.summary();

    if traced {
        let HotCounters {
            hits,
            misses,
            ref shard_jobs,
            retries,
            connections,
            error_replies,
            bad_frames,
            timeouts,
            oversized,
        } = counters;
        let mean_jobs = shard_jobs.iter().sum::<u64>() as f64 / shard_jobs.len() as f64;
        let per_request_us = |name: &str, own: bool| median(&tracer.per_group(name, own)) * 1e6;
        let (load_ms, snapshot_bytes) = time_snapshot_loads(&snapshots)?;
        outcome.layers = vec![
            metric(
                "engine.wire.request_encode_us",
                per_request_us("engine.wire.request_encode", false),
                "us",
            ),
            metric(
                "engine.wire.request_parse_us",
                per_request_us("engine.wire.request_parse", false),
                "us",
            ),
            metric(
                "engine.wire.report_encode_us",
                per_request_us("engine.wire.report_encode", false),
                "us",
            ),
            metric(
                "engine.wire.report_parse_us",
                per_request_us("engine.wire.report_parse", false),
                "us",
            ),
            metric("engine.wire.request_bytes", median(&request_bytes), "B"),
            metric("engine.wire.report_bytes", median(&report_bytes), "B"),
            metric(
                "transport.checksum_us",
                per_request_us("transport.checksum", false),
                "us",
            ),
            metric(
                "engine.cache.fingerprint_us",
                per_request_us("engine.cache.fingerprint", false),
                "us",
            ),
            metric(
                "engine.service.worker_us",
                per_request_us("engine.service.worker", false),
                "us",
            ),
            metric(
                "router.submit_wait_us",
                per_request_us("router.submit_wait", false),
                "us",
            ),
            metric(
                "transport.roundtrip_us",
                per_request_us("transport.roundtrip", false),
                "us",
            ),
            metric(
                "transport.unattributed_us",
                per_request_us("transport.roundtrip", true),
                "us",
            ),
            metric(
                "engine.cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            metric(
                "router.shard_skew",
                shard_jobs.iter().copied().max().unwrap_or(0) as f64 / mean_jobs.max(1.0),
                "ratio",
            ),
            metric("engine.snapshot.load_ms", load_ms, "ms"),
            metric("engine.snapshot.bytes", snapshot_bytes as f64, "B"),
            metric("transport.retries", retries as f64, "count"),
            metric("transport.connections", connections as f64, "count"),
            metric("server.error_replies", error_replies as f64, "count"),
            metric("server.bad_frames", bad_frames as f64, "count"),
            metric("server.timeouts", timeouts as f64, "count"),
            metric("server.oversized", oversized as f64, "count"),
        ];
        crate::write_spans(&tracer, "serve-hot")?;
    }
    stack.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}

/// The closed loop: one load thread makes whole passes over the hot states
/// until the deadline, sending state `i` on connection `i % CLIENTS`, so
/// one request is in flight at a time. The benchmark runs on one CPU
/// (`run.py`), where a second request in flight would only queue behind
/// the first; with two in flight on two vCPUs, p99 followed the host's
/// busy spells (medians of 7.6 and 10.3 ms in two sets of runs of the same
/// code). With a router, each request is broken down after the fact by
/// re-running its codec, checksum, fingerprint and an in-process submit on
/// the same frames.
fn hot_lane(
    clients: &mut [WireClient],
    frames: &[RequestFrame],
    deadline: Instant,
    router: Option<&Router>,
    trace_origin: Instant,
    first_group: u64,
) -> Lane {
    let mut lane = Lane::new(trace_origin);
    let mut seq = 0u64;
    loop {
        for (i, frame) in frames.iter().enumerate() {
            lane.attempted += 1;
            let start = Instant::now();
            let reply = clients[i % CLIENTS].call(frame);
            let end = Instant::now();
            match reply {
                Ok(ServerReply::Report(report)) => {
                    lane.completions.push((end, ms(end - start)));
                    if !report.report.from_cache && lane.errors.len() < 10 {
                        lane.errors
                            .push("serve-hot reply not from the cache".to_string());
                    }
                    if let Some(router) = router {
                        let group = first_group + seq;
                        retime_hot(&mut lane, router, frame, *report, group, start, end);
                    }
                }
                Ok(ServerReply::Refused(e)) => fail(&mut lane, format!("serve-hot refused: {e:?}")),
                Err(e) => fail(&mut lane, format!("serve-hot transport error: {e}")),
            }
            seq += 1;
        }
        if Instant::now() >= deadline {
            return lane;
        }
    }
}

fn retime_hot(
    lane: &mut Lane,
    router: &Router,
    frame: &RequestFrame,
    report: mdq_engine::ReportFrame,
    group: u64,
    start: Instant,
    end: Instant,
) {
    let t = &mut lane.tracer;
    let p = Some(t.record("transport.roundtrip", None, group, start, end));
    let request = Frame::Request(frame.clone());
    let (text, _) = t.time("engine.wire.request_encode", p, group, || request.to_text());
    let text = text.expect("request frames serialize");
    let (parsed, _) = t.time("engine.wire.request_parse", p, group, || {
        Frame::parse(&text)
    });
    parsed.expect("request frames parse");
    let reply = Frame::Report(report);
    let (reply_text, _) = t.time("engine.wire.report_encode", p, group, || reply.to_text());
    let reply_text = reply_text.expect("report frames serialize");
    let (parsed, _) = t.time("engine.wire.report_parse", p, group, || {
        Frame::parse(&reply_text)
    });
    parsed.expect("report frames parse");
    std::hint::black_box(t.time("transport.checksum", p, group, || {
        (checksum(text.as_bytes()), checksum(reply_text.as_bytes()))
    }));
    lane.request_bytes.push(text.len() as f64);
    lane.report_bytes.push(reply_text.len() as f64);

    let submitted = frame.request.clone();
    let (served, wait) = t.time("router.submit_wait", p, group, || {
        // A refusal hands the request back inside the error; drop it.
        router
            .submit(TenantId(0), submitted)
            .map(|h| h.wait())
            .map_err(drop)
    });
    std::hint::black_box(t.time("engine.cache.fingerprint", Some(wait), group, || {
        canonical_key(&frame.request)
    }));
    if let Ok(Ok(served)) = served {
        let worker_start = t.span_start(wait);
        t.record(
            "engine.service.worker",
            Some(wait),
            group,
            worker_start,
            worker_start + served.elapsed,
        );
    }
}

/// Loads every shard snapshot into a fresh cache, three times; returns the
/// median summed load time and the snapshots' total size.
fn time_snapshot_loads(dir: &Path) -> Result<(f64, u64), String> {
    let files: Vec<PathBuf> = (0..SHARDS)
        .map(|id| dir.join(format!("shard-{id}.mdqsnap")))
        .collect();
    let mut bytes = 0;
    for file in &files {
        bytes += std::fs::metadata(file).map_err(|e| e.to_string())?.len();
    }
    let mut samples = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        for file in &files {
            let cache = CircuitCache::new(1);
            snapshot::load_into(&cache, file).map_err(|e| e.to_string())?;
        }
        samples.push(ms(start.elapsed()));
    }
    Ok((median(&samples), bytes))
}

// ───────────────────────────── serve-cold ────────────────────────────

pub fn run_cold(seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let dir = work_dir("serve-cold");
    let socket = dir.join("s.sock");
    // Whole rounds: one request per client per round.
    let count = ((COLD_RATE * seconds.as_secs_f64()).ceil() as usize).next_multiple_of(CLIENTS);

    let mut e2e = EndToEnd::default();
    let mut frames = Vec::new();
    let warm_frames: Vec<RequestFrame> = (0..WARM_UP)
        .map(|i| request(seed, count + i, true))
        .collect();
    let mut stack = timed_setups(
        &mut e2e,
        || frames = (0..count).map(|i| request(seed, i, true)).collect(),
        |stack| {
            for frame in &warm_frames {
                match stack.clients[0].call(frame) {
                    Ok(ServerReply::Report(_)) => {}
                    other => return Err(format!("warm-up request: {other:?}")),
                }
            }
            Ok(())
        },
        &socket,
        None,
    )?;

    let origin = Instant::now();
    let frames_ref = &frames;
    let lanes: Vec<_> = stack
        .clients
        .iter_mut()
        .enumerate()
        .map(|(k, client)| move || cold_lane(k, client, frames_ref, origin, traced))
        .collect();
    let (lanes, samples) = run_sampled(lanes, origin, COLD_SLICE);
    e2e.slices = slices(&samples, &lanes);
    e2e.peak_rss_mb = crate::stats::peak_rss_mb();
    let entries: usize = stack
        .router()
        .stats()
        .shards
        .iter()
        .map(|s| s.engine.cache.entries)
        .sum();
    stack.stop();

    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(origin);
    let mut served = Vec::new();
    for lane in lanes {
        outcome.attempted += lane.attempted;
        outcome.failed += lane.failed;
        outcome.errors.extend(lane.errors);
        tracer.merge(lane.tracer);
        served.extend(lane.served);
    }
    served.sort_by_key(|s| s.index);

    // Outside the timed window: every served circuit against the
    // sequential pipeline.
    for s in &served {
        match frames[s.index].request.prepare_sequential() {
            Ok(reference) if check::digest(&reference.circuit) == s.digest => {}
            Ok(_) => outcome.errors.push(format!(
                "cold request {}: served circuit differs from prepare_sequential",
                s.index
            )),
            Err(e) => outcome
                .errors
                .push(format!("cold request {}: reference failed: {e}", s.index)),
        }
        if s.index < COUNTED_ROUND {
            e2e.circuit_ops += s.ops;
            e2e.circuit_controls += s.controls;
        }
    }
    outcome.end_to_end = e2e.metrics();
    outcome.summary = e2e.summary();

    if traced {
        let col = |f: fn(&Served) -> f64| median(&served.iter().map(f).collect::<Vec<_>>());
        outcome.layers = vec![
            metric("engine.service.worker_ms", col(|s| s.worker_ms), "ms"),
            metric("core.pipeline_ms", col(|s| s.pipeline_ms), "ms"),
            metric("engine.service.queue_wait_ms", col(|s| s.queue_ms), "ms"),
            metric("dd.replay_ms", col(|s| s.replay_ms), "ms"),
            metric("dd.replay_nodes", col(|s| s.replay_nodes), "count"),
            metric("engine.cache.entries", entries as f64, "count"),
            metric("loadgen.lag_ms", col(|s| s.lag_ms), "ms"),
        ];
        crate::write_spans(&tracer, "serve-cold")?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}

/// One open-loop client: sends request `i` (its share, `i ≡ k mod
/// CLIENTS`) at `origin + i / rate`, or as soon as the previous reply is in
/// when that is later; latency runs from the due time.
fn cold_lane(
    k: usize,
    client: &mut WireClient,
    frames: &[RequestFrame],
    origin: Instant,
    traced: bool,
) -> Lane {
    let mut lane = Lane::new(origin);
    for (index, frame) in frames.iter().enumerate().skip(k).step_by(CLIENTS) {
        let due = origin + Duration::from_secs_f64(index as f64 / COLD_RATE);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        lane.attempted += 1;
        let sent = Instant::now();
        let reply = client.call(frame);
        let done = Instant::now();
        let group = index as u64;
        let report = match reply {
            Ok(ServerReply::Report(report)) => report.report,
            Ok(ServerReply::Refused(e)) => {
                fail(
                    &mut lane,
                    format!("serve-cold request {index} refused: {e:?}"),
                );
                continue;
            }
            Err(e) => {
                fail(
                    &mut lane,
                    format!("serve-cold request {index}: transport error: {e}"),
                );
                continue;
            }
        };
        lane.completions
            .push((done, ms(done.saturating_duration_since(due))));
        match &report.verification {
            Some(v) if v.fidelity >= FIDELITY => {}
            other => lane
                .errors
                .push(format!("cold request {index}: verification {other:?}")),
        }
        if report.from_cache {
            lane.errors
                .push(format!("cold request {index}: served from the cache"));
        }
        let verification = report.verification.as_ref();
        let replay = verification.map_or(Duration::ZERO, |v| v.duration);
        if traced {
            let t = &mut lane.tracer;
            t.record("loadgen.lag", None, group, due.min(sent), sent);
            let p = Some(t.record("transport.roundtrip", None, group, sent, done));
            let q = sent + report.queue_wait;
            t.record("engine.service.queue_wait", p, group, sent, q);
            let w = Some(t.record("engine.service.worker", p, group, q, q + report.elapsed));
            t.record("core.pipeline", w, group, q, q + report.report.total_time);
            t.record("dd.replay", w, group, q, q + replay);
        }
        lane.served.push(Served {
            index,
            digest: check::digest(&report.circuit),
            ops: report.circuit.len() as u64,
            controls: check::control_sum(&report.circuit),
            worker_ms: ms(report.elapsed),
            pipeline_ms: ms(report.report.total_time),
            queue_ms: ms(report.queue_wait),
            lag_ms: ms(sent.saturating_duration_since(due)),
            replay_ms: ms(replay),
            replay_nodes: verification.map_or(0.0, |v| v.replay_nodes as f64),
        });
    }
    // Stay alive past the schedule's end, so that the slice boundary there
    // is sampled while this thread's CPU still counts.
    let end = origin + Duration::from_secs_f64(frames.len() as f64 / COLD_RATE) + COLD_SLICE / 8;
    if let Some(wait) = end.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
    lane
}
