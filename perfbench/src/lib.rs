//! The repository benchmark: three single-process workloads over the
//! anonring sim engines and the in-process `ringd` server, each checking
//! every output, printing the end-to-end metrics (or, traced, the
//! per-layer metrics) as one JSON line. See `README.md` beside this
//! crate for the metric table and the host notes.

pub mod adversary;
pub mod lockstep;
pub mod measure;
pub mod serve;
pub mod sim;

use measure::Fingerprint;

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["sim-adversary", "sim-lockstep", "serve"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_share", "fraction"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. The
/// counts and shares of a layer a workload does not exercise read 0;
/// its times come from the census (see [`run`]).
pub const PER_LAYER: [(&str, &str); 32] = [
    ("async.ns_per_delivery.heavy", "ns"),
    ("async.ns_per_delivery.light", "ns"),
    ("async.candidates_per_pick", "count"),
    ("async.deliveries", "count"),
    ("sync.ns_per_step", "ns"),
    ("sync.steps_per_message", "count"),
    ("sync.idle_step_share", "fraction"),
    ("words.construct_ms", "ms"),
    ("driver.build_us", "us"),
    ("ringd.parse_us", "us"),
    ("ringd.queue_wait_ms.p50", "ms"),
    ("ringd.queue_wait_ms.p90", "ms"),
    ("ringd.execute_ms.p50", "ms"),
    ("ringd.execute_ms.p90", "ms"),
    ("ringd.certify_ms.p50", "ms"),
    ("ringd.certify_ms.p90", "ms"),
    ("ringd.queue_depth_peak", "count"),
    ("net.ns_per_message", "ns"),
    ("net.backpressure_waits_per_job", "count"),
    ("hub.lock_wait_us.p90", "us"),
    ("hub.lock_hold_us.p90", "us"),
    ("hub.contended_share", "fraction"),
    ("inbox.dwell_us.p50", "us"),
    ("alloc.fanout_clones_per_message", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_share", "fraction"),
    ("trace.unaccounted_share", "fraction"),
    ("span.build_ms", "ms"),
    ("span.engine_ms", "ms"),
    ("span.verify_ms", "ms"),
    ("span.op_self_ms", "ms"),
    ("span.op_ms", "ms"),
];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement window, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (timed ops plus warm-up ops).
    pub attempted: u64,
    /// Ops whose run or output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Ops completed in the throughput measurement, and its wall seconds.
    pub completed: (u64, f64),
    /// Completed ops per wall second, one value per measurement window.
    pub throughput: Vec<f64>,
    /// Latency samples of the timed ops in ms, grouped by window.
    pub latency_windows: Vec<Vec<f64>>,
    /// Report the median of the windows' p50 and p90 instead of the
    /// quantiles of all samples pooled.
    pub window_quantiles: bool,
    /// Set-up times, in seconds: set-up runs before the first timed op
    /// and again at points spread over the run.
    pub setups: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Deterministic counts of one round.
    pub fingerprint: Fingerprint,
    /// Extra JSON lines describing the run.
    pub info: Vec<String>,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans: String,
}

impl Outcome {
    /// Counts one attempted op and, if it failed, the failure.
    pub fn settle(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts one failure (of an op already counted as attempted).
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(error);
        }
    }

    /// Fails the run if the layers' self times miss the op time by more
    /// than [`sim::SELF_TIME_MARGIN`].
    pub fn check_self_time(&mut self, probe: &sim::Probe) {
        let op = probe.spans.op_ns();
        let gap = probe.spans.self_ns(measure::Layer::Op);
        if op > 0 && gap as f64 > sim::SELF_TIME_MARGIN * op as f64 {
            self.attempted += 1;
            self.fail(format!(
                "span self times cover {:.2}% of op time, margin {}%",
                100.0 * (1.0 - gap as f64 / op as f64),
                100.0 * sim::SELF_TIME_MARGIN
            ));
        }
    }
}

/// Measuring seconds of each census pass in a traced run.
pub const CENSUS_SECONDS: f64 = 2.0;

fn is_time(unit: &str) -> bool {
    matches!(unit, "ns" | "us" | "ms")
}

fn run_one(config: &Config) -> Result<Outcome, String> {
    match config.workload.as_str() {
        "sim-adversary" => Ok(sim::run(config, |seed| (adversary::round(seed), 0.0))),
        "sim-lockstep" => Ok(sim::run(config, lockstep::round)),
        "serve" => serve::run(config),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}

/// Runs one workload. A traced run then makes a short census pass of
/// each other workload, so that every per-layer time is measured on
/// every traced run: a layer the named workload does not exercise takes
/// its time from the census (its counts stay 0).
///
/// # Errors
///
/// An unknown workload name, or a server that cannot run.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = run_one(config)?;
    if !config.trace {
        return Ok(outcome);
    }
    for other in WORKLOADS.into_iter().filter(|&w| w != config.workload) {
        let census = run_one(&Config {
            workload: other.to_string(),
            seconds: CENSUS_SECONDS,
            ..config.clone()
        })?;
        outcome.attempted += census.attempted;
        outcome.failed += census.failed;
        let room = 5usize.saturating_sub(outcome.failures.len());
        outcome.failures.extend(
            census
                .failures
                .into_iter()
                .take(room)
                .map(|f| format!("{other} census: {f}")),
        );
        for (name, value) in census.layers {
            let unit = PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
            if !unit.is_some_and(is_time) || name.starts_with("span.") {
                continue;
            }
            match outcome.layers.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) if *v == 0.0 => *v = value,
                Some(_) => {}
                None => outcome.layers.push((name, value)),
            }
        }
    }
    Ok(outcome)
}
