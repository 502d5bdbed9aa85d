//! `sim-lockstep`: the synchronous engine on the §6–§7 worst-case
//! strings, driven through the core `run` functions.
//!
//! Heavy class: Figure 4 orientation on `orientation_exact(6)` (n = 729),
//! Figure 5 start synchronization on the `start_sync_exact(4)` and
//! `start_sync_exact(5)` wake words (n = 324 and 972), and Figure 2 input
//! distribution at n = 324. The seed rotates the strings and draws the
//! inputs. Light class: §4.2 AND on a large ring where (almost) every
//! processor floods in the first cycle.
//!
//! Traced rounds rebuild the same engines with each process wrapped in a
//! counting `SyncProcess`, which counts steps and idle steps.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use anonring_core::algorithms::orientation::{self, OrientationProc};
use anonring_core::algorithms::start_sync::{self, StartSync};
use anonring_core::algorithms::sync_and::{self, SyncAnd};
use anonring_core::algorithms::sync_input_dist::{self, SyncInputDist};
use anonring_core::view::{ground_truth_view, RingView};
use anonring_sim::sync::{Received, Step, SyncEngine, SyncProcess, SyncReport};
use anonring_sim::{RingConfig, RingTopology, SimError, WakeSchedule};
use anonring_words::constructions::{orientation_exact, start_sync_exact};

use crate::measure::{Counts, Layer, Rng};
use crate::sim::{Probe, SimOp};

/// `orientation_exact` iterations (n = 3^k).
pub const ORIENTATION_K: usize = 6;
/// `start_sync_exact` iterations (n = 4·3^k).
pub const START_SYNC_K: [usize; 2] = [4, 5];
/// Ring size of the Figure 2 input distribution runs.
pub const INPUT_DIST_N: usize = 324;
/// Ring size of the light AND runs.
pub const AND_N: usize = 2048;
/// Light AND runs per heavy run.
pub const AND_PER_HEAVY: usize = 3;

#[derive(Debug, Clone)]
enum Kind {
    Orientation(RingTopology),
    StartSync(RingTopology, WakeSchedule),
    InputDist(RingConfig<u8>, Vec<RingView<u8>>),
    And(RingConfig<u8>, u8),
}

/// One lock-step run of the round.
#[derive(Debug, Clone)]
pub struct LockstepOp {
    kind: Kind,
}

/// Step and idle-step tallies shared by every wrapped process of a run.
#[derive(Debug, Default)]
struct Tally {
    steps: Cell<u64>,
    idle: Cell<u64>,
}

/// Counting wrapper: a step is idle when it neither receives nor sends.
struct Counted<P> {
    inner: P,
    tally: Rc<Tally>,
}

impl<P: SyncProcess> SyncProcess for Counted<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(&mut self, cycle: u64, rx: Received<P::Msg>) -> Step<P::Msg, P::Output> {
        let quiet = rx.from_left.is_none() && rx.from_right.is_none();
        let step = self.inner.step(cycle, rx);
        self.tally.steps.set(self.tally.steps.get() + 1);
        if quiet && step.to_left.is_none() && step.to_right.is_none() {
            self.tally.idle.set(self.tally.idle.get() + 1);
        }
        step
    }
}

/// Builds a counted engine, runs it, and folds the tallies into `probe`.
/// Returns the report plus the build-done and run-done instants.
fn run_counted<P: SyncProcess>(
    probe: &mut Probe,
    build: impl FnOnce(&dyn Fn(P) -> Counted<P>) -> Result<SyncEngine<Counted<P>>, SimError>,
) -> Result<(SyncReport<P::Output>, Instant, Instant), SimError> {
    let tally = Rc::new(Tally::default());
    let wrap = |inner: P| Counted {
        inner,
        tally: Rc::clone(&tally),
    };
    let mut engine = build(&wrap)?;
    let built = Instant::now();
    let report = engine.run()?;
    let ran = Instant::now();
    probe.sync_engine_ns += (ran - built).as_nanos() as u64;
    probe.sync_steps += tally.steps.get();
    probe.sync_idle_steps += tally.idle.get();
    probe.sync_messages += report.messages;
    Ok((report, built, ran))
}

fn max_cycles(n: usize) -> u64 {
    (2 * n as u64 + 2) * (2 * n as u64 + 2)
}

fn counts<O>(report: &SyncReport<O>) -> Counts {
    Counts {
        messages: report.messages,
        bits: report.bits,
        deliveries: 0,
        steps: report.halt_cycles.iter().map(|c| c + 1).sum(),
    }
}

fn check_orientation(topology: &RingTopology, report: &SyncReport<bool>) -> Result<(), String> {
    let switched = topology.with_switched(report.outputs());
    let ok = if topology.n() % 2 == 1 {
        switched.is_oriented()
    } else {
        switched.is_quasi_oriented()
    };
    ok.then_some(())
        .ok_or_else(|| format!("orientation n={}: ring not oriented", topology.n()))
}

fn check_start_sync(n: usize, report: &SyncReport<u64>) -> Result<(), String> {
    let outputs = report.outputs();
    (report.halted_simultaneously() && outputs.iter().all(|&c| c == outputs[0]))
        .then_some(())
        .ok_or_else(|| format!("start_sync n={n}: not halted simultaneously"))
}

fn check_equal<O: PartialEq>(what: &str, n: usize, got: &[O], want: &[O]) -> Result<(), String> {
    (got == want)
        .then_some(())
        .ok_or_else(|| format!("{what} n={n}: outputs differ from the inputs' ground truth"))
}

impl LockstepOp {
    fn plain(&self) -> Result<Counts, String> {
        match &self.kind {
            Kind::Orientation(topology) => {
                let report = orientation::run(topology).map_err(|e| e.to_string())?;
                check_orientation(topology, &report)?;
                Ok(counts(&report))
            }
            Kind::StartSync(topology, wake) => {
                let report = start_sync::run(topology, wake).map_err(|e| e.to_string())?;
                check_start_sync(topology.n(), &report)?;
                Ok(counts(&report))
            }
            Kind::InputDist(config, views) => {
                let report = sync_input_dist::run(config).map_err(|e| e.to_string())?;
                check_equal("sync_input_dist", config.n(), report.outputs(), views)?;
                Ok(counts(&report))
            }
            Kind::And(config, and) => {
                let report = sync_and::run(config).map_err(|e| e.to_string())?;
                check_equal(
                    "sync_and",
                    config.n(),
                    report.outputs(),
                    &vec![*and; config.n()],
                )?;
                Ok(counts(&report))
            }
        }
    }

    fn traced(&self, probe: &mut Probe) -> Result<Counts, String> {
        let from = Instant::now();
        let err = |e: SimError| e.to_string();
        let (result, built, ran) = match &self.kind {
            Kind::Orientation(topology) => {
                let n = topology.n();
                let (report, built, ran) = run_counted(probe, |wrap| {
                    let procs = (0..n).map(|_| wrap(OrientationProc::new(n))).collect();
                    let mut engine = SyncEngine::new(topology.clone(), procs)?;
                    engine.set_max_cycles(max_cycles(n));
                    Ok(engine)
                })
                .map_err(err)?;
                (
                    check_orientation(topology, &report).map(|()| counts(&report)),
                    built,
                    ran,
                )
            }
            Kind::StartSync(topology, wake) => {
                let n = topology.n();
                let (report, built, ran) = run_counted(probe, |wrap| {
                    let procs = (0..n).map(|_| wrap(StartSync::new(n))).collect();
                    let mut engine = SyncEngine::new(topology.clone(), procs)?;
                    engine.set_wakeups(wake.as_slice().to_vec())?;
                    engine.set_max_cycles(max_cycles(n).max(10_000));
                    Ok(engine)
                })
                .map_err(err)?;
                (
                    check_start_sync(n, &report).map(|()| counts(&report)),
                    built,
                    ran,
                )
            }
            Kind::InputDist(config, views) => {
                let n = config.n();
                let (report, built, ran) = run_counted(probe, |wrap| {
                    Ok(SyncEngine::from_config(config, |_, &input| {
                        wrap(SyncInputDist::new(n, input))
                    }))
                })
                .map_err(err)?;
                let checked = check_equal("sync_input_dist", n, report.outputs(), views);
                (checked.map(|()| counts(&report)), built, ran)
            }
            Kind::And(config, and) => {
                let n = config.n();
                let (report, built, ran) = run_counted(probe, |wrap| {
                    Ok(SyncEngine::from_config(config, |_, &input| {
                        wrap(SyncAnd::new(n, input))
                    }))
                })
                .map_err(err)?;
                let checked = check_equal("sync_and", n, report.outputs(), &vec![*and; n]);
                (checked.map(|()| counts(&report)), built, ran)
            }
        };
        let done = Instant::now();
        probe.spans.record(Layer::Build, from, built);
        probe.spans.record(Layer::Engine, built, ran);
        probe.spans.record(Layer::Check, ran, done);
        result
    }
}

impl SimOp for LockstepOp {
    fn label(&self) -> String {
        match &self.kind {
            Kind::Orientation(t) => format!("orientation/n={}", t.n()),
            Kind::StartSync(t, _) => format!("start_sync/n={}", t.n()),
            Kind::InputDist(c, _) => format!("sync_input_dist/n={}", c.n()),
            Kind::And(c, _) => format!("sync_and/n={}", c.n()),
        }
    }

    fn heavy(&self) -> bool {
        !matches!(self.kind, Kind::And(..))
    }

    fn run(&self, probe: Option<&mut Probe>) -> Result<Counts, String> {
        match probe {
            Some(probe) => self.traced(probe),
            None => self.plain(),
        }
    }
}

/// One round from `seed`, plus the milliseconds spent in the word
/// constructions.
///
/// # Panics
///
/// Only if a construction returns an ill-formed word (a bug in
/// `anonring_words`).
#[must_use]
pub fn round(seed: u64) -> (Vec<LockstepOp>, f64) {
    let mut rng = Rng::new(seed, 2);
    let from = Instant::now();
    let orientation_word = orientation_exact(ORIENTATION_K);
    let wake_words = START_SYNC_K.map(|k| start_sync_exact(k).word);
    let construct_ms = from.elapsed().as_secs_f64() * 1e3;

    let mut heavy = Vec::new();
    let rotation = rng.below(orientation_word.len() as u64) as usize;
    let bits = orientation_word.rotated(rotation);
    heavy.push(Kind::Orientation(
        RingTopology::from_bits(bits.as_slice()).expect("orientation word is a ring"),
    ));
    for word in wake_words {
        let rotation = rng.below(word.len() as u64) as usize;
        let wake = WakeSchedule::from_word(word.rotated(rotation).as_slice())
            .expect("balanced wake words wrap legally");
        let topology = RingTopology::oriented(wake.n()).expect("ring size at least 2");
        heavy.push(Kind::StartSync(topology, wake));
    }
    let config = RingConfig::oriented(rng.bits(INPUT_DIST_N));
    let views = (0..INPUT_DIST_N)
        .map(|i| ground_truth_view(&config, i))
        .collect();
    heavy.push(Kind::InputDist(config, views));

    let mut ops = Vec::new();
    for kind in heavy {
        ops.push(LockstepOp { kind });
        for _ in 0..AND_PER_HEAVY {
            // Dense: one processor in sixteen has input 1, so almost
            // every processor floods in the first cycle.
            let inputs: Vec<u8> = (0..AND_N).map(|_| u8::from(rng.below(16) == 0)).collect();
            let and = inputs.iter().copied().min().unwrap_or(1);
            ops.push(LockstepOp {
                kind: Kind::And(RingConfig::oriented(inputs), and),
            });
        }
    }
    (ops, construct_ms)
}
