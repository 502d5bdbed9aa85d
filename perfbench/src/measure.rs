//! Measurement plumbing shared by every workload: the seeded generator,
//! quantiles, in-memory spans, the deterministic-count fingerprint and
//! the host fingerprint.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the only source of workload inputs. Same seed, same
/// inputs, on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload stream; `stream` separates the
    /// streams drawn from one `--seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// `n` independent uniform bits.
    pub fn bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next_u64() & 1) as u8).collect()
    }

    /// `n` uniform bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| (self.next_u64() & 0xff) as u8).collect()
    }
}

/// The seed of round `round` of a run of `seed`: `seed` itself for the
/// first round, so that the first round (and the fingerprint taken from
/// it) is `round(seed)`, and a fresh draw for every later one.
#[must_use]
pub fn round_seed(seed: u64, round: u64) -> u64 {
    if round == 0 {
        seed
    } else {
        Rng::new(seed, 0x726f_756e_6400 + round).next_u64()
    }
}

/// Linear-interpolation quantile of unsorted samples (0 when empty) —
/// the same rule as numpy's default and Python's `statistics.quantiles`
/// with `method="inclusive"`.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds since `from`, as a float.
#[must_use]
pub fn secs(from: Instant) -> f64 {
    from.elapsed().as_secs_f64()
}

/// Layers a span can belong to. `Op` is the root of one operation; the
/// others are its children and never overlap one another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole operation.
    Op,
    /// `JobSpec::parse` (serve only).
    Parse,
    /// Topology and process construction.
    Build,
    /// The engine or transport run.
    Engine,
    /// `ringd`'s certify step: reference simulation plus comparison.
    Certify,
    /// The benchmark's own output checks.
    Check,
}

impl Layer {
    /// Span name as written to the span file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Parse => "parse",
            Layer::Build => "build",
            Layer::Engine => "engine",
            Layer::Certify => "certify",
            Layer::Check => "check",
        }
    }
}

/// One recorded span. Spans of one operation share `op`; every non-root
/// span's parent is that operation's `Layer::Op` span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation identifier (its index in the run).
    pub op: u64,
    /// Which layer the span covers.
    pub layer: Layer,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder: spans are only appended during the run and
/// written out once it ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Spans {
    /// A recorder whose timestamps count from now.
    #[must_use]
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// Starts a new operation: later [`Spans::record`] calls belong to
    /// it until [`Spans::end_op`] records its root span.
    pub fn begin_op(&mut self) {
        self.next_op += 1;
    }

    /// Records the current operation's root span over `[from, to]`,
    /// timed by the caller around the whole operation.
    pub fn end_op(&mut self, from: Instant, to: Instant) {
        self.push(Layer::Op, from, to);
    }

    /// Records `layer` of the current operation over `[from, to]`.
    pub fn record(&mut self, layer: Layer, from: Instant, to: Instant) {
        self.push(layer, from, to);
    }

    fn push(&mut self, layer: Layer, from: Instant, to: Instant) {
        let ns = |t: Instant| u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(0);
        self.spans.push(Span {
            op: self.next_op,
            layer,
            start_ns: ns(from),
            end_ns: ns(to),
        });
    }

    /// Total self time per layer, in nanoseconds. A child's self time is
    /// its duration (children do not nest further); the root's self time
    /// is its duration minus what its children cover.
    #[must_use]
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let total = |l: Layer| -> u64 {
            self.spans
                .iter()
                .filter(|s| s.layer == l)
                .map(|s| s.end_ns - s.start_ns)
                .sum()
        };
        if layer == Layer::Op {
            let children: u64 = [
                Layer::Parse,
                Layer::Build,
                Layer::Engine,
                Layer::Certify,
                Layer::Check,
            ]
            .into_iter()
            .map(total)
            .sum();
            total(Layer::Op).saturating_sub(children)
        } else {
            total(layer)
        }
    }

    /// Total duration of every root span, in nanoseconds.
    #[must_use]
    pub fn op_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == Layer::Op)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of recorded operations.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.spans.iter().filter(|s| s.layer == Layer::Op).count() as u64
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.layer == Layer::Op {
                "null"
            } else {
                "\"op\""
            };
            let _ = writeln!(
                out,
                "{{\"op\":{},\"span\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

/// The deterministic counts of one operation: identical on every run of
/// one seed, whatever the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Messages sent.
    pub messages: u64,
    /// Bits sent.
    pub bits: u64,
    /// Async deliveries (0 for the lock-step engine).
    pub deliveries: u64,
    /// Processor steps: async events executed (`n` starts plus live
    /// deliveries), or lock-step processor-cycles from wake-up to halt.
    pub steps: u64,
}

/// FNV-1a over the counts of one round of operations, plus their sums:
/// the per-workload fingerprint every run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    hash: u64,
    /// Sum of the round's counts.
    pub total: Counts,
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint {
            hash: FNV_BASIS,
            total: Counts::default(),
        }
    }
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
#[must_use]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

impl Fingerprint {
    /// Folds one operation's counts in, in round order.
    pub fn add(&mut self, c: Counts) {
        for v in [c.messages, c.bits, c.deliveries, c.steps] {
            self.hash = fnv1a(self.hash, &v.to_le_bytes());
        }
        self.total.messages += c.messages;
        self.total.bits += c.bits;
        self.total.deliveries += c.deliveries;
        self.total.steps += c.steps;
    }

    /// One JSON object for the result stream.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hash\":\"{:016x}\",\"messages\":{},\"bits\":{},\"deliveries\":{},\"steps\":{}}}",
            self.hash,
            self.total.messages,
            self.total.bits,
            self.total.deliveries,
            self.total.steps
        )
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?;
                kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host drift probe: nanoseconds per access of a dependent pointer chase
/// over 8 MiB. Memory-touching code is what drifts on the reference
/// host, so this is printed at the start and end of every run next to
/// the numbers it qualifies.
#[must_use]
pub fn memory_probe_ns() -> f64 {
    const SLOTS: usize = 1 << 20;
    let mut rng = Rng::new(0x5eed, 0);
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    for i in (1..SLOTS).rev() {
        let j = rng.below(i as u64) as usize;
        next.swap(i, j);
    }
    let steps = SLOTS;
    let from = Instant::now();
    let mut at = 0u32;
    for _ in 0..steps {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    from.elapsed().as_nanos() as f64 / steps as f64
}

/// A host-speed reference: a fixed kernel of the benchmark's own code,
/// which never calls the program, and its usual wall time on the
/// reference host. On that host a kernel's time moves with the host's
/// drift the way the matching workload's times do, where a
/// register-only loop does not (see README.md), so a program timing
/// divided by nearby readings cancels the host's state and keeps the
/// program's cost. [`HostSpeed::factor`] scales timings to `usual_ms`.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Runs the kernel once; returns its wall time in ms.
    pub kernel: fn() -> f64,
    /// The kernel's usual time on the reference host, in ms.
    pub usual_ms: f64,
}

/// The simulations' reference: [`message_kernel_ms`].
pub const MESSAGES: Reference = Reference {
    kernel: message_kernel_ms,
    usual_ms: 1.2,
};

/// The served jobs' reference: [`thread_kernel_ms`].
pub const THREADS: Reference = Reference {
    kernel: thread_kernel_ms,
    usual_ms: 1.5,
};

/// Small boxed messages pushed through 256 queues, their lengths read
/// from a 512 KiB table, the oldest popped and summed — the allocator,
/// cache and branch traffic of a message-passing simulation. Wall ms.
#[must_use]
pub fn message_kernel_ms() -> f64 {
    const ITERS: usize = 20_000;
    const QUEUES: usize = 256;
    let from = Instant::now();
    let mut rng = Rng::new(0x5eed, 1);
    let mut queues: Vec<std::collections::VecDeque<Box<[u8]>>> = (0..QUEUES)
        .map(|_| std::collections::VecDeque::new())
        .collect();
    let table: Vec<u64> = (0..1u64 << 16)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut acc = 0u64;
    for i in 0..ITERS {
        let q = rng.below(QUEUES as u64) as usize;
        let len = 1 + (table[(acc as usize ^ i) & 0xffff] % 24) as usize;
        queues[q].push_back(vec![i as u8; len].into_boxed_slice());
        if queues[q].len() > 4 {
            if let Some(message) = queues[q].pop_front() {
                acc = acc.wrapping_add(message.iter().map(|&b| u64::from(b)).sum::<u64>());
            }
        }
    }
    std::hint::black_box((acc, &queues));
    from.elapsed().as_secs_f64() * 1e3
}

/// One spawned thread and the calling thread pass a growing message
/// back and forth 160 times over two channels, then the thread is
/// joined — the spawn, wake-up and hand-off traffic of a threaded ring
/// run. At most two threads run at once. Wall ms.
#[must_use]
pub fn thread_kernel_ms() -> f64 {
    const HOPS: usize = 160;
    let from = Instant::now();
    let (to_peer, peer_rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let (to_caller, caller_rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let peer = std::thread::spawn(move || {
        while let Ok(mut message) = peer_rx.recv() {
            message.push(message.len() as u8);
            if to_caller.send(message).is_err() {
                break;
            }
        }
    });
    let mut message = Vec::new();
    let mut hops = 0;
    while message.len() < HOPS {
        message.push(message.len() as u8);
        if to_peer.send(message).is_err() {
            break;
        }
        let Ok(back) = caller_rx.recv() else {
            break;
        };
        message = back;
        hops += 2;
    }
    drop(to_peer);
    let _ = peer.join();
    std::hint::black_box(hops);
    from.elapsed().as_secs_f64() * 1e3
}

/// The run's sequence of reference readings, taken between the timed
/// pieces of work. A timing is scaled by the readings taken around it.
#[derive(Debug)]
pub struct HostSpeed {
    reference: Reference,
    readings: Vec<f64>,
}

impl HostSpeed {
    /// No readings yet, of `reference`.
    #[must_use]
    pub fn new(reference: Reference) -> HostSpeed {
        HostSpeed {
            reference,
            readings: Vec::new(),
        }
    }

    /// Takes one reading; returns its index.
    pub fn sample(&mut self) -> usize {
        self.readings.push((self.reference.kernel)());
        self.readings.len() - 1
    }

    /// Takes `k` readings; returns the index of the first.
    pub fn sample_n(&mut self, k: usize) -> usize {
        let first = self.readings.len();
        for _ in 0..k {
            self.sample();
        }
        first
    }

    /// The factor that scales a time measured between readings `first`
    /// and `last` to the reference speed: the kernel's usual time over
    /// the median of those readings (the range is clamped to the readings
    /// taken). Multiply a time by it; divide a rate by it.
    #[must_use]
    pub fn factor(&self, first: usize, last: usize) -> f64 {
        let last = last.min(self.readings.len().saturating_sub(1));
        let first = first.min(last);
        match self.readings.get(first..=last) {
            Some(window) if !window.is_empty() => self.reference.usual_ms / median(window),
            _ => 1.0,
        }
    }

    /// The factor around a piece of work that ran right after reading
    /// `at`: four readings before it and four after.
    #[must_use]
    pub fn factor_at(&self, at: usize) -> f64 {
        self.factor(at.saturating_sub(3), at + 4)
    }

    /// Quartiles of every reading, in ms, as JSON.
    #[must_use]
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"usual_ms\":{},\"readings\":{},\"p25_ms\":{:.4},\"p50_ms\":{:.4},\"p75_ms\":{:.4}}}",
            self.reference.usual_ms,
            self.readings.len(),
            quantile(&self.readings, 0.25),
            quantile(&self.readings, 0.5),
            quantile(&self.readings, 0.75)
        )
    }
}

/// Host drift probe: nanoseconds per iteration of a register-only loop.
#[must_use]
pub fn alu_probe_ns() -> f64 {
    let steps = 20_000_000u64;
    let from = Instant::now();
    let mut x = 0x1234_5678_u64;
    for i in 0..steps {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x9e37_79b9);
    }
    std::hint::black_box(x);
    from.elapsed().as_nanos() as f64 / steps as f64
}

/// The git revision of the checkout, read from `.git` without running
/// git; `"none"` outside a git work tree.
#[must_use]
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Number of CPUs this process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
