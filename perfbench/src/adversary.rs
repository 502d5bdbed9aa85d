//! `sim-adversary`: the six audited families on the asynchronous engine,
//! driven through `Audited::{topology, procs}` and `AsyncEngine::run`.
//!
//! Heavy class: one run of each family under Theorem 5.1's
//! `SynchronizingScheduler`, at sizes where one run takes 0.05–1 s.
//! Light class: the same families at n = 16–32 under `RandomScheduler`
//! and `FifoScheduler`, about five times as many runs, so the median op
//! is light and the 90th percentile op is heavy.

use std::time::Instant;

use anonring_core::algorithms::driver::{Audited, JobOutput, JobTopology};
use anonring_core::view::ground_truth_view;
use anonring_sim::r#async::{
    AsyncEngine, FifoScheduler, RandomScheduler, Scheduler, SynchronizingScheduler,
};
use anonring_sim::RingConfig;

use crate::measure::{Counts, Layer, Rng};
use crate::sim::{CountingScheduler, Probe, SimOp};

/// Heavy-class ring sizes, one run per family per round.
pub const HEAVY: [(Audited, usize); 6] = [
    (Audited::AsyncInputDist, 256),
    (Audited::SyncInputDist, 96),
    (Audited::Orientation, 128),
    (Audited::StartSync, 128),
    (Audited::DynBroadcast, 96),
    (Audited::SyncAnd, 1024),
];

/// Light-class ring sizes: each family runs at each size, the scheduler
/// alternating between random and FIFO.
pub const LIGHT_SIZES: [usize; 5] = [16, 20, 24, 28, 32];

/// Light runs per round: the first 29 of the 30 (family, size) pairs.
/// With 6 heavy runs among 29 light ones, the median and the 90th
/// percentile ranks fall in the middle of one kind's block of samples
/// rather than on the boundary between two kinds, where a sample's rank
/// would flip with noise.
pub const LIGHT_RUNS: usize = 29;

/// Which adversary delivers.
#[derive(Debug, Clone, Copy)]
pub enum Sched {
    /// Theorem 5.1's synchronizing adversary.
    Synchronizing,
    /// Uniformly random pending message, from this seed.
    Random(u64),
    /// Global send order.
    Fifo,
}

/// What a correct run outputs.
#[derive(Debug, Clone)]
enum Expected {
    /// Exactly these outputs (views, AND, OR).
    Outputs(Vec<JobOutput>),
    /// Switch decisions that leave the ring quasi-oriented.
    Oriented,
    /// One common synchronized clock value.
    CommonClock,
}

/// One simulation run of the round.
#[derive(Debug, Clone)]
pub struct AdversaryOp {
    heavy: bool,
    algorithm: Audited,
    n: usize,
    inputs: Vec<u8>,
    sched: Sched,
    expected: Expected,
}

fn inputs_for(algorithm: Audited, n: usize, rng: &mut Rng) -> Vec<u8> {
    match algorithm {
        Audited::AsyncInputDist | Audited::StartSync => rng.bytes(n),
        _ => rng.bits(n),
    }
}

fn expected_for(algorithm: Audited, inputs: &[u8]) -> Expected {
    let config = RingConfig::oriented(inputs.to_vec());
    match algorithm {
        Audited::AsyncInputDist | Audited::SyncInputDist => Expected::Outputs(
            (0..inputs.len())
                .map(|i| JobOutput::View(ground_truth_view(&config, i)))
                .collect(),
        ),
        Audited::SyncAnd => Expected::Outputs(vec![
            JobOutput::Bit(
                inputs.iter().copied().min().unwrap_or(1)
            );
            inputs.len()
        ]),
        Audited::DynBroadcast => Expected::Outputs(vec![
            JobOutput::Bit(
                inputs.iter().copied().max().unwrap_or(0)
            );
            inputs.len()
        ]),
        Audited::Orientation => Expected::Oriented,
        Audited::StartSync => Expected::CommonClock,
    }
}

impl AdversaryOp {
    fn new(heavy: bool, algorithm: Audited, n: usize, sched: Sched, rng: &mut Rng) -> AdversaryOp {
        let inputs = inputs_for(algorithm, n, rng);
        let expected = expected_for(algorithm, &inputs);
        AdversaryOp {
            heavy,
            algorithm,
            n,
            inputs,
            sched,
            expected,
        }
    }

    fn check(
        &self,
        topology: &JobTopology,
        outputs: &[JobOutput],
        deliveries: u64,
    ) -> Result<(), String> {
        let what = || format!("{} n={}", self.algorithm, self.n);
        if self.algorithm == Audited::AsyncInputDist {
            let want = (self.n * (self.n - 1)) as u64;
            if deliveries != want {
                return Err(format!(
                    "{}: {deliveries} deliveries, want n(n-1) = {want}",
                    what()
                ));
            }
        }
        match &self.expected {
            Expected::Outputs(want) => {
                if outputs != want.as_slice() {
                    return Err(format!(
                        "{}: outputs differ from the inputs' ground truth",
                        what()
                    ));
                }
            }
            Expected::Oriented => {
                let switches: Vec<bool> = outputs
                    .iter()
                    .map(|o| matches!(o, JobOutput::Oriented(true)))
                    .collect();
                let JobTopology::Ring(ring) = topology else {
                    return Err(format!("{}: not a ring", what()));
                };
                if outputs.iter().any(|o| !matches!(o, JobOutput::Oriented(_)))
                    || !ring.with_switched(&switches).is_quasi_oriented()
                {
                    return Err(format!(
                        "{}: ring not quasi-oriented after switching",
                        what()
                    ));
                }
            }
            Expected::CommonClock => {
                let first = outputs.first();
                if !matches!(first, Some(JobOutput::Clock(_)))
                    || outputs.iter().any(|o| Some(o) != first)
                {
                    return Err(format!("{}: clocks not synchronized", what()));
                }
            }
        }
        Ok(())
    }
}

impl SimOp for AdversaryOp {
    fn label(&self) -> String {
        let sched = match self.sched {
            Sched::Synchronizing => "sync",
            Sched::Random(_) => "random",
            Sched::Fifo => "fifo",
        };
        format!("{}/{}/n={}", self.algorithm, sched, self.n)
    }

    fn heavy(&self) -> bool {
        self.heavy
    }

    fn run(&self, mut probe: Option<&mut Probe>) -> Result<Counts, String> {
        let op_from = Instant::now();
        let build = || -> Result<_, String> {
            let topology = self
                .algorithm
                .topology(self.n, &self.inputs)
                .map_err(|e| e.to_string())?;
            let procs = self
                .algorithm
                .procs(self.n, &self.inputs)
                .map_err(|e| e.to_string())?;
            AsyncEngine::new(topology, procs).map_err(|e| e.to_string())
        };
        let mut engine = build()?;
        let built = Instant::now();
        let mut synchronizing = SynchronizingScheduler;
        let mut random;
        let mut fifo = FifoScheduler;
        let inner: &mut dyn Scheduler = match self.sched {
            Sched::Synchronizing => &mut synchronizing,
            Sched::Random(seed) => {
                random = RandomScheduler::new(seed);
                &mut random
            }
            Sched::Fifo => &mut fifo,
        };
        let report = match probe.as_deref_mut() {
            Some(probe) => engine.run(&mut CountingScheduler::new(inner, probe)),
            None => engine.run(inner),
        };
        let ran = Instant::now();
        let report = report.map_err(|e| format!("{} n={}: {e}", self.algorithm, self.n))?;
        let checked = self.check(engine.topology(), report.outputs(), report.deliveries);
        let done = Instant::now();
        if let Some(probe) = probe {
            probe.spans.record(Layer::Build, op_from, built);
            probe.spans.record(Layer::Engine, built, ran);
            probe.spans.record(Layer::Check, ran, done);
            let class = &mut probe.async_class[usize::from(self.heavy)];
            class.engine_ns += (ran - built).as_nanos() as u64;
            class.deliveries += report.deliveries;
            if !self.heavy {
                probe.build_ns += (built - op_from).as_nanos() as u64;
                probe.builds += 1;
            }
        }
        checked?;
        Ok(Counts {
            messages: report.messages,
            bits: report.bits,
            deliveries: report.deliveries,
            steps: self.n as u64 + report.deliveries - report.dropped,
        })
    }
}

/// One round of the workload, every input drawn from `seed`: the six
/// heavy runs spread among the light ones.
#[must_use]
pub fn round(seed: u64) -> Vec<AdversaryOp> {
    let mut rng = Rng::new(seed, 1);
    let mut light = Vec::new();
    for (i, &n) in LIGHT_SIZES.iter().enumerate() {
        for (f, algorithm) in Audited::ALL.into_iter().enumerate() {
            let sched = if (i + f) % 2 == 0 {
                Sched::Random(rng.next_u64())
            } else {
                Sched::Fifo
            };
            light.push(AdversaryOp::new(false, algorithm, n, sched, &mut rng));
        }
    }
    light.truncate(LIGHT_RUNS);
    let per_heavy = light.len() / HEAVY.len();
    let mut ops = Vec::new();
    let mut light = light.into_iter();
    for (algorithm, n) in HEAVY {
        ops.push(AdversaryOp::new(
            true,
            algorithm,
            n,
            Sched::Synchronizing,
            &mut rng,
        ));
        ops.extend(light.by_ref().take(per_heavy));
    }
    ops.extend(light);
    ops
}
