//! `serve`: the in-process `ringd` server (`serve_with`) on the threads
//! transport, over all six audited families at n = 8, every job
//! certified against the async simulator.
//!
//! By design every job spawns n = 8 processor threads inside `ringd`'s
//! net runtime; the benchmark itself uses two threads (the generator
//! and the thread that hosts `serve_with`) and no sockets.
//!
//! Phases, all against the same seeded job templates:
//!
//! 1. set-up: build the templates and their expected result digests by
//!    direct simulation, start a worker pool and push warm-up jobs;
//! 2. saturation: jobs back to back through a bounded channel, so
//!    `ringd`'s admission bound closes the loop — gives `ops_per_s`;
//! 3. paced: an open loop at [`PACED_RATE`], each latency timed from the
//!    job's due time to its result line — gives the latencies. The run
//!    is invalid (a failed op) if the generator runs late by more than
//!    [`LATE_LIMIT_MS`] or the queue depth exceeds [`DEPTH_LIMIT`].
//!
//! Both timed phases run in segments. Between two segments the
//! generator waits until every job sent has returned, then takes
//! host-speed readings while the server is idle; a segment's times are
//! scaled by the readings on both sides of it ([`HostSpeed`]).
//!
//! A traced run turns the hot-path profiler on in alternate segments of
//! the paced phase, then replays each template's parse → build →
//! execute → certify steps from outside, one job at a time.

use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use anonring_bench::json::Value;
use anonring_bench::ringd::{serve_with, JobSpec, ServeOptions, ServingMetrics};
use anonring_core::algorithms::driver::Audited;
use anonring_net::conformance::compare;
use anonring_sim::profile;
use anonring_sim::r#async::{AsyncEngine, SynchronizingScheduler};
use anonring_sim::telemetry::{Histogram, MetricId, MetricsRegistry};

use crate::measure::{
    fnv1a, median, nproc, quantile, secs, Counts, HostSpeed, Layer, Rng, FNV_BASIS, THREADS,
};
use crate::sim::{CountingScheduler, Probe};
use crate::{Config, Outcome};

/// Ring size of every job.
pub const N: usize = 8;
/// Job templates per family; job `k` uses template `k % templates`.
/// Enough that the mix's work varies little from seed to seed.
pub const TEMPLATES_PER_FAMILY: usize = 32;
/// Share of `--seconds` spent in the saturation phase.
pub const SATURATION_SHARE: f64 = 0.3;
/// Admission bound during saturation (`ServeOptions::max_queue`).
pub const SATURATION_QUEUE: usize = 8;
/// Open-loop rate of the paced phase, in jobs per second. Fixed, so that
/// every commit is offered the same load. The reference 2-vCPU host's
/// saturation throughput drifts between about 230 and 630 jobs/s with
/// its memory-system state (see README.md); at 300 jobs/s the slow state
/// built a backlog of 669 jobs, while 150 keeps the queue short in both.
pub const PACED_RATE: f64 = 150.0;
/// A paced run whose generator ran later than this is invalid.
pub const LATE_LIMIT_MS: f64 = 100.0;
/// A paced run whose admission queue grew deeper than this is invalid:
/// at a sustainable rate the depth stays near zero, so a deeper queue
/// means a backlog that grows with the run's length.
pub const DEPTH_LIMIT: u64 = 32;
/// Segments of the saturation phase.
pub const SATURATION_SEGMENTS: usize = 6;
/// Length of one segment of the paced phase.
pub const PACED_SEGMENT: Duration = Duration::from_secs(2);
/// Host-speed readings taken between two segments.
pub const READINGS: usize = 5;
/// How long the generator waits for a segment's last result before it
/// moves on (a job that never returns is counted failed by the check).
pub const DRAIN_LIMIT: Duration = Duration::from_secs(5);
/// Warm-up jobs per set-up.
pub const WARMUP_JOBS: usize = 96;
/// Set-ups after the paced phase (one more runs before each timed
/// phase), so that `setup_s` is the median of five.
pub const SETUPS_AFTER: usize = 3;
/// How many times a traced run replays each template.
pub const REPLAYS: usize = 4;

/// One seeded job description and the digest its result must carry.
#[derive(Debug, Clone)]
pub struct Template {
    algorithm: Audited,
    inputs: Vec<u8>,
    seed: u64,
    digest: u64,
    counts: Counts,
}

impl Template {
    fn line(&self, id: usize) -> String {
        let inputs: Vec<String> = self.inputs.iter().map(u8::to_string).collect();
        format!(
            "{{\"id\":\"{id}\",\"algorithm\":\"{}\",\"n\":{N},\"inputs\":[{}],\"seed\":{}}}",
            self.algorithm,
            inputs.join(","),
            self.seed
        )
    }
}

/// FNV-1a digest of a result: its rendered outputs, messages and bits.
fn digest<S: AsRef<str>>(outputs: &[S], messages: u64, bits: u64) -> u64 {
    let mut hash = FNV_BASIS;
    for output in outputs {
        hash = fnv1a(hash, output.as_ref().as_bytes());
        hash = fnv1a(hash, &[0]);
    }
    hash = fnv1a(hash, &messages.to_le_bytes());
    fnv1a(hash, &bits.to_le_bytes())
}

/// The seeded templates with their expected digests, computed by direct
/// simulation under the synchronizing adversary (the same reference
/// `ringd` certifies against).
///
/// # Errors
///
/// A template that does not simulate.
pub fn templates(seed: u64) -> Result<Vec<Template>, String> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::new();
    for _ in 0..TEMPLATES_PER_FAMILY {
        for algorithm in Audited::ALL {
            let inputs = if algorithm.wants_bit_inputs() {
                rng.bits(N)
            } else {
                rng.bytes(N)
            };
            let topology = algorithm.topology(N, &inputs).map_err(|e| e.to_string())?;
            let procs = algorithm.procs(N, &inputs).map_err(|e| e.to_string())?;
            let report = AsyncEngine::new(topology, procs)
                .and_then(|mut engine| engine.run(&mut SynchronizingScheduler))
                .map_err(|e| format!("{algorithm}: {e}"))?;
            let rendered: Vec<String> = report.outputs().iter().map(|o| format!("{o:?}")).collect();
            out.push(Template {
                algorithm,
                inputs,
                seed: rng.below(1 << 32),
                digest: digest(&rendered, report.messages, report.bits),
                counts: Counts {
                    messages: report.messages,
                    bits: report.bits,
                    deliveries: report.deliveries,
                    steps: N as u64 + report.deliveries - report.dropped,
                },
            });
        }
    }
    Ok(out)
}

/// `serve_with`'s input: job lines handed over a channel.
struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            let Ok(line) = self.rx.recv() else {
                return Ok(0);
            };
            self.buf = line.into_bytes();
            self.buf.push(b'\n');
            self.pos = 0;
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// `serve_with`'s output: every line is stamped when its newline
/// arrives and checked at once against its template, so only a compact
/// record per job stays in memory.
struct Sink<'a> {
    templates: &'a [Template],
    results: Vec<Result<Completion, String>>,
    partial: Vec<u8>,
    returned: &'a AtomicUsize,
}

impl Write for Sink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial);
                if let Some(result) = check_line(now, &line, self.templates) {
                    self.results.push(result);
                    self.returned.fetch_add(1, Ordering::Release);
                }
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One served phase: what was sent, what came back, and the server's
/// metrics.
struct Served {
    sent: usize,
    results: Vec<Result<Completion, String>>,
    metrics: MetricsRegistry,
}

/// The generator's side of a served phase.
struct Feed<'a> {
    tx: mpsc::SyncSender<String>,
    metrics: &'a ServingMetrics,
    returned: &'a AtomicUsize,
}

impl Feed<'_> {
    /// Hands one job line to the server; false once it stopped reading.
    fn send(&self, line: String) -> bool {
        self.tx.send(line).is_ok()
    }

    /// Waits until `sent` results have returned, at most [`DRAIN_LIMIT`].
    fn drain(&self, sent: usize) {
        let from = Instant::now();
        while self.returned.load(Ordering::Acquire) < sent && from.elapsed() < DRAIN_LIMIT {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Runs `serve_with` on its own thread while `generate` feeds it on
/// this one, through a channel of `bound` lines: a small bound blocks
/// the generator (closed loop), a bound above the job count never does
/// (open loop).
fn serve_phase(
    templates: &[Template],
    options: &ServeOptions,
    bound: usize,
    generate: impl FnOnce(&Feed) -> usize,
) -> Result<Served, String> {
    let metrics = ServingMetrics::new(nproc());
    let returned = AtomicUsize::new(0);
    let (tx, rx) = mpsc::sync_channel(bound);
    let mut sink = Sink {
        templates,
        results: Vec::new(),
        partial: Vec::new(),
        returned: &returned,
    };
    let (served, sent) = std::thread::scope(|scope| {
        let metrics = &metrics;
        let sink = &mut sink;
        let server = scope.spawn(move || {
            let reader = BufReader::new(ChannelReader {
                rx,
                buf: Vec::new(),
                pos: 0,
            });
            serve_with(reader, sink, options, metrics)
        });
        let feed = Feed {
            tx,
            metrics,
            returned: &returned,
        };
        let sent = generate(&feed);
        drop(feed);
        let served = server
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("serve thread panicked")));
        (served, sent)
    });
    served.map_err(|e| format!("serve_with failed: {e}"))?;
    Ok(Served {
        sent,
        results: sink.results,
        metrics: metrics.snapshot(),
    })
}

/// A checked result line.
struct Completion {
    job: usize,
    at: Instant,
    messages: u64,
}

/// Checks one output line against its template: `None` for the final
/// summary line, an error for an error line or an uncertified or
/// mismatched result.
fn check_line(
    at: Instant,
    line: &str,
    templates: &[Template],
) -> Option<Result<Completion, String>> {
    let Ok(value) = Value::parse(line) else {
        return Some(Err(format!("unparseable result line {line:?}")));
    };
    match value.get("type").and_then(Value::as_str) {
        Some("result") => {}
        Some("done") => return None,
        _ => return Some(Err(format!("error line {line}"))),
    }
    let Some(job) = value
        .get("id")
        .and_then(Value::as_str)
        .and_then(|id| id.parse::<usize>().ok())
    else {
        return Some(Err(format!("result without a job id: {line}")));
    };
    let template = &templates[job % templates.len()];
    let outputs: Vec<&str> = value
        .get("outputs")
        .and_then(Value::as_array)
        .map(|items| items.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    let field = |key| value.get(key).and_then(Value::as_u64).unwrap_or(u64::MAX);
    let (messages, bits) = (field("messages"), field("bits"));
    Some(
        if value.get("conformance").and_then(Value::as_str) != Some("certified") {
            Err(format!("job {job} not certified"))
        } else if digest(&outputs, messages, bits) != template.digest {
            Err(format!(
                "job {job}: result digest differs from direct simulation"
            ))
        } else {
            Ok(Completion { job, at, messages })
        },
    )
}

/// Counts a phase's jobs as attempted and its failures (error lines,
/// uncertified or mismatched results, and jobs that never came back)
/// into `outcome`; returns the good completions.
fn check(served: Served, outcome: &mut Outcome) -> (Vec<Completion>, MetricsRegistry) {
    let mut done = vec![false; served.sent];
    let mut completions = Vec::new();
    let mut failed = 0u64;
    for result in served.results {
        match result {
            Ok(c) if c.job < done.len() && !done[c.job] => {
                done[c.job] = true;
                completions.push(c);
                continue;
            }
            Ok(c) => outcome.fail(format!("unexpected result for job {}", c.job)),
            Err(e) => outcome.fail(e),
        }
        failed += 1;
    }
    let missing = done.iter().filter(|&&d| !d).count() as u64;
    // A failed result counted above also left its job undone.
    let unexplained = missing.saturating_sub(failed);
    if unexplained > 0 {
        outcome.fail(format!("{unexplained} jobs never returned a result"));
        outcome.failed += unexplained - 1;
    }
    outcome.attempted += served.sent as u64;
    (completions, served.metrics)
}

/// Set-up: templates with digests, a fresh worker pool and warm-up jobs.
/// It runs before each phase and [`SETUPS_AFTER`] times after the last,
/// so that `setup_s` (the median) samples the whole run.
/// Set-up is scaled by the host-speed readings on both sides of it.
fn setup(
    config: &Config,
    host: &mut HostSpeed,
    outcome: &mut Outcome,
    wall_setups: &mut Vec<f64>,
) -> Result<Vec<Template>, String> {
    let first = host.sample_n(READINGS);
    let from = Instant::now();
    let templates = templates(config.seed)?;
    let warm = serve_phase(&templates, &ServeOptions::default(), WARMUP_JOBS, |feed| {
        (0..WARMUP_JOBS)
            .take_while(|&k| feed.send(templates[k % templates.len()].line(k)))
            .count()
    })?;
    check(warm, outcome);
    let wall = secs(from);
    let last = host.sample_n(READINGS) + READINGS - 1;
    outcome.setups.push(wall * host.factor(first, last));
    wall_setups.push(wall);
    Ok(templates)
}

/// Serve-only replay tallies; the rest goes into the shared [`Probe`].
#[derive(Default)]
struct Replay {
    probe: Probe,
    parse_ns: u64,
    execute_ns: u64,
    messages: u64,
    jobs: u64,
}

/// Replays one job's steps the way `ringd` runs them, with a span
/// around each public call.
fn replay_one(template: &Template, job: usize, replay: &mut Replay) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let line = template.line(job);
    let from = Instant::now();
    let spec = JobSpec::parse(&line, job)?;
    let parsed = Instant::now();
    let topology = spec
        .algorithm
        .topology(spec.n, &spec.inputs)
        .map_err(|e| err(&e))?;
    let procs = || {
        spec.algorithm
            .procs(spec.n, &spec.inputs)
            .map_err(|e| err(&e))
    };
    let net_procs = procs()?;
    let built = Instant::now();
    let net = anonring_net::run(&topology, net_procs, &spec.options).map_err(|e| err(&e))?;
    let executed = Instant::now();
    let mut engine = AsyncEngine::new(topology, procs()?).map_err(|e| err(&e))?;
    let sim_from = Instant::now();
    let sim = engine
        .run(&mut CountingScheduler::new(
            &mut SynchronizingScheduler,
            &mut replay.probe,
        ))
        .map_err(|e| err(&e))?;
    let sim_ns = sim_from.elapsed().as_nanos() as u64;
    let compared = compare(&net, &sim).map_err(|e| err(&e));
    let certified = Instant::now();
    let rendered: Vec<String> = net.outputs().iter().map(|o| format!("{o:?}")).collect();
    let matches = digest(&rendered, net.messages, net.bits) == template.digest;
    let done = Instant::now();

    let probe = &mut replay.probe;
    probe.spans.record(Layer::Parse, from, parsed);
    probe.spans.record(Layer::Build, parsed, built);
    probe.spans.record(Layer::Engine, built, executed);
    probe.spans.record(Layer::Certify, executed, certified);
    probe.spans.record(Layer::Check, certified, done);
    probe.build_ns += (built - parsed).as_nanos() as u64;
    probe.builds += 1;
    probe.async_class[0].engine_ns += sim_ns;
    probe.async_class[0].deliveries += sim.deliveries;
    replay.parse_ns += (parsed - from).as_nanos() as u64;
    replay.execute_ns += (executed - built).as_nanos() as u64;
    replay.messages += net.messages;
    replay.jobs += 1;
    compared?;
    if matches {
        Ok(())
    } else {
        Err(format!(
            "replayed job {job}: digest differs from direct simulation"
        ))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Saturation phase: jobs back to back, closed by the admission bound,
/// in [`SATURATION_SEGMENTS`] segments that each end when their last job
/// returns. Records one scaled throughput per segment into `outcome`;
/// returns the jobs sent and the wall throughput.
fn saturation(
    templates: &[Template],
    config: &Config,
    host: &mut HostSpeed,
    outcome: &mut Outcome,
) -> Result<(usize, f64), String> {
    let segment_s = config.seconds * SATURATION_SHARE / SATURATION_SEGMENTS as f64;
    let options = ServeOptions {
        max_queue: SATURATION_QUEUE,
        ..ServeOptions::default()
    };
    // Jobs, wall seconds and first host reading of every segment.
    let mut segments = Vec::new();
    let served = serve_phase(templates, &options, SATURATION_QUEUE, |feed| {
        let mut k = 0;
        for _ in 0..SATURATION_SEGMENTS {
            let first = host.sample_n(READINGS);
            let from = Instant::now();
            let start = k;
            while secs(from) < segment_s && feed.send(templates[k % templates.len()].line(k)) {
                k += 1;
            }
            feed.drain(k);
            segments.push((k - start, secs(from), first));
        }
        host.sample_n(READINGS);
        k
    })?;
    let sent = served.sent;
    check(served, outcome);
    let mut wall_s = 0.0;
    for &(jobs, wall, first) in &segments {
        let scaled = wall * host.factor(first, first + 2 * READINGS - 1);
        outcome.throughput.push(jobs as f64 / scaled);
        outcome.completed.0 += jobs as u64;
        outcome.completed.1 += scaled;
        wall_s += wall;
    }
    Ok((sent, outcome.completed.0 as f64 / wall_s))
}

/// What the paced phase measured beyond the latencies.
struct Paced {
    jobs: usize,
    late_max_ms: f64,
    depth_peak: u64,
    metrics: MetricsRegistry,
    wall_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    traced_messages: u64,
}

/// Paced phase: an open loop at [`PACED_RATE`] in segments of
/// [`PACED_SEGMENT`], each latency timed from the job's due time and
/// scaled by the host readings around its segment. Traced, the profiler
/// is on in odd segments and those jobs' latencies are kept apart.
fn paced(
    templates: &[Template],
    config: &Config,
    host: &mut HostSpeed,
    outcome: &mut Outcome,
) -> Result<Paced, String> {
    let per_segment = (PACED_SEGMENT.as_secs_f64() * PACED_RATE) as usize;
    let seconds = config.seconds * (1.0 - SATURATION_SHARE);
    let segments = (seconds / PACED_SEGMENT.as_secs_f64()).ceil().max(1.0) as usize;
    let jobs = segments * per_segment;
    let mut due = Vec::with_capacity(jobs);
    let mut firsts = Vec::with_capacity(segments);
    let mut late_max_ms = 0.0f64;
    let mut depth_max = 0u64;
    let served = serve_phase(templates, &ServeOptions::default(), jobs + 1, |feed| {
        let mut k = 0;
        for segment in 0..segments {
            firsts.push(host.sample_n(READINGS));
            if config.trace {
                profile::set_enabled(segment % 2 == 1);
            }
            let from = Instant::now();
            for j in 0..per_segment {
                let at = from + Duration::from_secs_f64(j as f64 / PACED_RATE);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late_max_ms = late_max_ms.max(at.elapsed().as_secs_f64() * 1e3);
                depth_max = depth_max.max(feed.metrics.queue_depth_now());
                due.push(at);
                if !feed.send(templates[k % templates.len()].line(k)) {
                    return k;
                }
                k += 1;
            }
            feed.drain(k);
        }
        host.sample_n(READINGS);
        k
    })?;
    profile::set_enabled(false);
    let sent = served.sent;
    let (completions, metrics) = check(served, outcome);
    let mut windows = vec![Vec::new(); segments];
    let mut wall_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_messages = 0;
    for c in &completions {
        let segment = c.job / per_segment;
        let ms = (c.at - due[c.job]).as_secs_f64() * 1e3;
        if config.trace && segment % 2 == 1 {
            traced_ms.push(ms);
            traced_messages += c.messages;
        } else {
            let first = firsts[segment];
            windows[segment].push(ms * host.factor(first, first + 2 * READINGS - 1));
            wall_ms.push(ms);
        }
    }
    windows.retain(|w| !w.is_empty());
    outcome.latency_windows = windows;
    outcome.window_quantiles = true;
    let peak = metrics
        .gauge(&MetricId::plain("ringd_queue_depth_peak"))
        .map_or(0, |g| u64::try_from(g).unwrap_or(0));
    Ok(Paced {
        jobs: sent,
        late_max_ms,
        depth_peak: peak.max(depth_max),
        metrics,
        wall_ms,
        traced_ms,
        traced_messages,
    })
}

/// Per-layer metrics of the paced phase: `ringd`'s phase histograms and
/// the hot-path profile taken in the profiler's windows.
fn paced_layers(paced: &Paced, plain_ms: &[f64]) -> Vec<(&'static str, f64)> {
    let reg = &paced.metrics;
    let merged = |name: &'static str, key: &'static str, values: &[&str]| {
        let mut out = Histogram::default();
        for value in values {
            if let Some(h) = reg.histogram(&MetricId::with_labels(name, &[(key, value)])) {
                out.merge(h);
            }
        }
        out
    };
    let phase = |p: &str, q: f64| merged("ringd_job_latency_us", "phase", &[p]).quantile(q) / 1e3;
    let counter = |name| reg.counter(&MetricId::plain(name)) as f64;
    let ops = ["send", "deliver", "halt"];
    let wait = merged("hub_lock_wait_us", "op", &ops);
    let hold = merged("hub_lock_hold_us", "op", &ops);
    let mut dwell = Histogram::default();
    for port in ["0", "1", "2", "3+"] {
        let id = MetricId::with_labels("queue_dwell_us", &[("queue", "inbox"), ("port", port)]);
        if let Some(h) = reg.histogram(&id) {
            dwell.merge(h);
        }
    }
    vec![
        ("ringd.queue_wait_ms.p50", phase("queue_wait", 0.5)),
        ("ringd.queue_wait_ms.p90", phase("queue_wait", 0.9)),
        ("ringd.execute_ms.p50", phase("execute", 0.5)),
        ("ringd.execute_ms.p90", phase("execute", 0.9)),
        ("ringd.certify_ms.p50", phase("certify", 0.5)),
        ("ringd.certify_ms.p90", phase("certify", 0.9)),
        ("ringd.queue_depth_peak", paced.depth_peak as f64),
        (
            "net.backpressure_waits_per_job",
            ratio(
                counter("ringd_net_backpressure_waits_total"),
                counter("ringd_jobs_completed_total"),
            ),
        ),
        ("hub.lock_wait_us.p90", wait.quantile(0.9)),
        ("hub.lock_hold_us.p90", hold.quantile(0.9)),
        (
            "hub.contended_share",
            ratio(counter("hub_lock_contention_total"), wait.count as f64),
        ),
        ("inbox.dwell_us.p50", dwell.quantile(0.5)),
        (
            "alloc.fanout_clones_per_message",
            ratio(
                counter("profile_fanout_clones_total"),
                paced.traced_messages as f64,
            ),
        ),
        ("loadgen.late_max_ms", paced.late_max_ms),
        (
            "trace.overhead_share",
            median(&paced.traced_ms) / median(plain_ms) - 1.0,
        ),
    ]
}

/// Replays every template [`REPLAYS`] times and returns the replay's
/// per-layer metrics.
fn replay_layers(templates: &[Template], outcome: &mut Outcome) -> Vec<(&'static str, f64)> {
    let mut replay = Replay::default();
    let mut round_deliveries = 0;
    for round in 0..REPLAYS {
        for (t, template) in templates.iter().enumerate() {
            replay.probe.spans.begin_op();
            let from = Instant::now();
            let result = replay_one(template, round * templates.len() + t, &mut replay);
            replay.probe.spans.end_op(from, Instant::now());
            outcome.settle(result);
        }
        if round == 0 {
            round_deliveries = replay.probe.async_class[0].deliveries;
        }
    }
    let jobs = replay.jobs as f64;
    let mut layers = vec![
        ("ringd.parse_us", replay.parse_ns as f64 / jobs / 1e3),
        (
            "net.ns_per_message",
            ratio(replay.execute_ns as f64, replay.messages as f64),
        ),
        ("async.deliveries", round_deliveries as f64),
    ];
    layers.extend(replay.probe.engine_layers());
    layers.extend(replay.probe.span_layers());
    outcome.check_self_time(&replay.probe);
    outcome.spans = replay.probe.spans.to_jsonl();
    layers
}

/// Runs the serve workload.
///
/// # Errors
///
/// Only if the server itself cannot run (an I/O failure on its
/// in-memory streams) or the templates do not simulate.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut host = HostSpeed::new(THREADS);
    let mut wall_setups = Vec::new();
    let templates = setup(config, &mut host, &mut outcome, &mut wall_setups)?;
    for template in &templates {
        outcome.fingerprint.add(template.counts);
    }
    let (saturation_jobs, wall_ops_per_s) =
        saturation(&templates, config, &mut host, &mut outcome)?;
    setup(config, &mut host, &mut outcome, &mut wall_setups)?;
    let session = config.trace.then(profile::session);
    let paced = paced(&templates, config, &mut host, &mut outcome)?;
    drop(session);
    for _ in 0..SETUPS_AFTER {
        setup(config, &mut host, &mut outcome, &mut wall_setups)?;
    }

    let valid = paced.late_max_ms <= LATE_LIMIT_MS && paced.depth_peak <= DEPTH_LIMIT;
    outcome.attempted += 1;
    if !valid {
        outcome.fail(format!(
            "paced run invalid: generator late by up to {:.1} ms (limit {LATE_LIMIT_MS}), \
             queue depth peak {} (limit {DEPTH_LIMIT})",
            paced.late_max_ms, paced.depth_peak
        ));
    }
    outcome.info.push(format!(
        "{{\"type\":\"serve\",\"n\":{N},\"threads_per_job\":{N},\"workers\":{},\
         \"saturation_jobs\":{saturation_jobs},\"paced_rate\":{PACED_RATE},\
         \"paced_jobs\":{},\"late_max_ms\":{:.3},\"queue_depth_peak\":{},\"valid\":{valid}}}",
        nproc(),
        paced.jobs,
        paced.late_max_ms,
        paced.depth_peak
    ));
    outcome.info.push(format!(
        "{{\"type\":\"wall\",\"ops_per_s\":{wall_ops_per_s},\"p50_ms\":{},\"p90_ms\":{},\
         \"setup_s\":{},\"reference\":{}}}",
        quantile(&paced.wall_ms, 0.5),
        quantile(&paced.wall_ms, 0.9),
        median(&wall_setups),
        host.summary_json()
    ));
    if config.trace {
        let mut layers = paced_layers(&paced, &paced.wall_ms);
        layers.extend(replay_layers(&templates, &mut outcome));
        outcome.layers = layers;
    }
    Ok(outcome)
}
