//! The measurement loop shared by the two simulation workloads.
//!
//! A workload is a fixed *round* of operations generated from the seed.
//! Rounds repeat until `--seconds` have passed (the round in progress is
//! finished, so every run measures whole rounds and the class mix never
//! depends on where the clock stopped). Every operation checks its
//! outputs; a failed check is a failed op.
//!
//! With tracing on, odd rounds run traced (spans plus counting wrappers)
//! and even rounds run plain, so `trace.overhead_share` compares the two
//! under the same host drift.

use std::time::Instant;

use anonring_sim::r#async::{Candidate, Scheduler};

use crate::measure::{
    median, quantile, round_seed, secs, Counts, HostSpeed, Layer, Spans, MESSAGES,
};
use crate::{Config, Outcome};

/// One operation of a simulation round.
pub trait SimOp {
    /// Whether the op belongs to the heavy class.
    fn heavy(&self) -> bool;

    /// A short label naming the family, scheduler and size.
    fn label(&self) -> String;

    /// Runs the op once and checks its outputs. With a probe, records
    /// spans and layer counts into it.
    ///
    /// # Errors
    ///
    /// A description of the failed run or check.
    fn run(&self, probe: Option<&mut Probe>) -> Result<Counts, String>;
}

/// Async engine time and deliveries of one op class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTally {
    /// Nanoseconds inside `AsyncEngine::run`.
    pub engine_ns: u64,
    /// Deliveries those runs made.
    pub deliveries: u64,
}

/// Everything a traced round records.
#[derive(Debug, Default)]
pub struct Probe {
    /// Per-op spans.
    pub spans: Spans,
    /// Async engine tallies, `[light, heavy]`.
    pub async_class: [ClassTally; 2],
    /// Scheduler picks.
    pub picks: u64,
    /// Candidates offered to those picks.
    pub candidates: u64,
    /// Nanoseconds building topologies and processes (light ops).
    pub build_ns: u64,
    /// Builds timed in `build_ns`.
    pub builds: u64,
    /// Nanoseconds inside `SyncEngine::run`.
    pub sync_engine_ns: u64,
    /// Lock-step processor steps.
    pub sync_steps: u64,
    /// Steps that neither received nor sent.
    pub sync_idle_steps: u64,
    /// Messages the lock-step runs sent.
    pub sync_messages: u64,
}

/// Counting wrapper around any scheduler: tallies picks and the
/// candidates each pick was offered into a probe.
pub struct CountingScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    probe: &'a mut Probe,
}

impl<'a> CountingScheduler<'a> {
    /// Wraps `inner`, counting into `probe`.
    pub fn new(inner: &'a mut dyn Scheduler, probe: &'a mut Probe) -> CountingScheduler<'a> {
        CountingScheduler { inner, probe }
    }
}

impl Scheduler for CountingScheduler<'_> {
    fn pick(&mut self, candidates: &[Candidate]) -> usize {
        self.probe.picks += 1;
        self.probe.candidates += candidates.len() as u64;
        self.inner.pick(candidates)
    }
}

/// Stated margin: the layers' self times must sum to the op time within
/// this share (the root span's own self time is the gap).
pub const SELF_TIME_MARGIN: f64 = 0.02;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Probe {
    /// The span-derived per-layer metrics: mean self time per op of each
    /// layer, and the share of op time no child span covers.
    #[must_use]
    pub fn span_layers(&self) -> Vec<(&'static str, f64)> {
        let s = &self.spans;
        let ops = s.ops().max(1) as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / ops;
        vec![
            (
                "span.build_ms",
                ms(s.self_ns(Layer::Parse) + s.self_ns(Layer::Build)),
            ),
            ("span.engine_ms", ms(s.self_ns(Layer::Engine))),
            (
                "span.verify_ms",
                ms(s.self_ns(Layer::Certify) + s.self_ns(Layer::Check)),
            ),
            ("span.op_self_ms", ms(s.self_ns(Layer::Op))),
            ("span.op_ms", ms(s.op_ns())),
            (
                "trace.unaccounted_share",
                ratio(s.self_ns(Layer::Op), s.op_ns()),
            ),
        ]
    }

    /// The engine-level per-layer metrics.
    #[must_use]
    pub fn engine_layers(&self) -> Vec<(&'static str, f64)> {
        let [light, heavy] = self.async_class;
        vec![
            (
                "async.ns_per_delivery.heavy",
                ratio(heavy.engine_ns, heavy.deliveries),
            ),
            (
                "async.ns_per_delivery.light",
                ratio(light.engine_ns, light.deliveries),
            ),
            (
                "async.candidates_per_pick",
                ratio(self.candidates, self.picks),
            ),
            (
                "sync.ns_per_step",
                ratio(self.sync_engine_ns, self.sync_steps),
            ),
            (
                "sync.steps_per_message",
                ratio(self.sync_steps, self.sync_messages),
            ),
            (
                "sync.idle_step_share",
                ratio(self.sync_idle_steps, self.sync_steps),
            ),
            ("driver.build_us", ratio(self.build_ns, self.builds) / 1e3),
        ]
    }
}

/// Measures rounds of `make(seed)` for `config.seconds`.
///
/// `make` returns the round and the milliseconds it spent in word
/// constructions. Set-up is `make` plus one warm-up run of every light
/// op, and runs before every round, so that `setup_s` (the median)
/// samples the whole run. Round `r` draws its inputs from
/// [`round_seed`]`(seed, r)`: a run averages its timings over many
/// input draws, so runs of different seeds measure the same mix.
///
/// A plain round takes one host-speed reading before each op, and every
/// op time and set-up time is scaled by the readings around it
/// ([`HostSpeed`]); the wall times are printed on the `wall` line.
pub fn run<O: SimOp>(config: &Config, make: impl Fn(u64) -> (Vec<O>, f64)) -> Outcome {
    let mut outcome = Outcome::default();
    let mut host = HostSpeed::new(MESSAGES);
    let mut constructs = Vec::new();
    let mut wall_setups = Vec::new();
    let mut setup = |outcome: &mut Outcome, host: &mut HostSpeed, index: usize| {
        let first = host.sample_n(3);
        let from = Instant::now();
        let (round, construct_ms) = make(round_seed(config.seed, index as u64));
        for op in round.iter().filter(|op| !op.heavy()) {
            outcome.settle(op.run(None).map(|_| ()));
        }
        let wall = secs(from);
        let last = host.sample_n(3) + 2;
        outcome.setups.push(wall * host.factor(first, last));
        wall_setups.push(wall);
        constructs.push(construct_ms);
        round
    };
    let mut ops = setup(&mut outcome, &mut host, 0);

    let mut probe = Probe::default();
    let mut plain_round_s = Vec::new();
    let mut traced_round_s = Vec::new();
    let mut deliveries_per_round = 0u64;
    // Wall ms of every plain op, with the reading taken right before it.
    let mut plain_rounds: Vec<Vec<(usize, f64)>> = Vec::new();
    let started = Instant::now();
    let mut per_op_ms = vec![Vec::new(); ops.len()];
    let mut index = 0usize;
    // A traced run needs one plain and one traced round at least.
    let min_rounds = 1 + usize::from(config.trace);
    while index < min_rounds || secs(started) < config.seconds {
        if index > 0 {
            ops = setup(&mut outcome, &mut host, index);
        }
        let traced = config.trace && index % 2 == 1;
        let mut round = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            let result;
            let reading = if traced { 0 } else { host.sample() };
            let from = Instant::now();
            if traced {
                probe.spans.begin_op();
                result = op.run(Some(&mut probe));
                probe.spans.end_op(from, Instant::now());
            } else {
                result = op.run(None);
            }
            let ms = secs(from) * 1e3;
            if let Ok(counts) = &result {
                if index == 0 {
                    outcome.fingerprint.add(*counts);
                    deliveries_per_round += counts.deliveries;
                }
            }
            round.push((reading, ms));
            if !traced {
                per_op_ms[k].push(ms);
            }
            outcome.settle(result.map(|_| ()));
        }
        let round_s = round.iter().map(|&(_, ms)| ms).sum::<f64>() / 1e3;
        if traced {
            traced_round_s.push(round_s);
        } else {
            plain_round_s.push(round_s);
            plain_rounds.push(round);
        }
        index += 1;
    }
    host.sample_n(4);
    for round in &plain_rounds {
        let scaled: Vec<f64> = round
            .iter()
            .map(|&(reading, ms)| ms * host.factor_at(reading))
            .collect();
        let round_s = scaled.iter().sum::<f64>() / 1e3;
        outcome.throughput.push(round.len() as f64 / round_s);
        outcome.completed.0 += round.len() as u64;
        outcome.completed.1 += round_s;
        outcome.latency_windows.push(scaled);
    }
    let wall_ms: Vec<f64> = plain_rounds.concat().iter().map(|&(_, ms)| ms).collect();
    outcome.info.push(format!(
        "{{\"type\":\"wall\",\"ops_per_s\":{},\"p50_ms\":{},\"p90_ms\":{},\"setup_s\":{},\"reference\":{}}}",
        wall_ms.len() as f64 / plain_round_s.iter().sum::<f64>(),
        quantile(&wall_ms, 0.5),
        quantile(&wall_ms, 0.9),
        median(&wall_setups),
        host.summary_json()
    ));
    let kinds: Vec<String> = ops
        .iter()
        .zip(&per_op_ms)
        .map(|(op, ms)| {
            format!(
                "{{\"op\":\"{}\",\"heavy\":{},\"median_ms\":{:.4}}}",
                op.label(),
                op.heavy(),
                median(ms)
            )
        })
        .collect();
    outcome.info.push(format!(
        "{{\"type\":\"ops\",\"ops\":[{}]}}",
        kinds.join(",")
    ));
    outcome.info.push(format!(
        "{{\"type\":\"rounds\",\"rounds\":{index},\"ops_per_round\":{},\"heavy_per_round\":{}}}",
        ops.len(),
        ops.iter().filter(|op| op.heavy()).count()
    ));

    if config.trace {
        let mut layers = probe.engine_layers();
        layers.extend(probe.span_layers());
        layers.push(("async.deliveries", deliveries_per_round as f64));
        layers.push(("words.construct_ms", median(&constructs)));
        layers.push((
            "trace.overhead_share",
            median(&traced_round_s) / median(&plain_round_s) - 1.0,
        ));
        outcome.check_self_time(&probe);
        outcome.layers = layers;
        outcome.spans = probe.spans.to_jsonl();
    }
    outcome
}
