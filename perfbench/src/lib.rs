//! The KSpot benchmark: three closed-loop workloads over the engine, the fleet and
//! the wire front-end, each reporting the end-to-end metrics a user of the system
//! sees and, in a separate traced run, the per-layer numbers that explain them.
//!
//! * `shared-loop` — one engine serving 16 long-lived continuous sessions; the
//!   per-epoch algorithms and the frame path do the work.
//! * `churn-history` — one checkpointing engine under session churn with historic
//!   and `AS OF` sessions; registration, session-table walks and checkpoints do
//!   the work.
//! * `wire-poll` — a loopback `WireServer` driven by two `WireClient` connections;
//!   framing, the ready queue and socket writes do the work.
//!
//! Every workload checks its answers (see each module) and counts the operations
//! that failed; the traced run of the engine workloads additionally gates on a
//! layer-replay driver ([`replay`]) producing byte-identical answers.

mod engine_wl;
mod replay;
mod stats;
mod trace;
mod wire_wl;

use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p99", "ms"),
    ("epoch_cost_growth", "ratio"),
    ("register_ms_p50", "ms"),
    ("register_ms_p99", "ms"),
    ("requests_per_s", "1/s"),
    ("poll_ms_p50", "ms"),
    ("poll_ms_p99", "ms"),
    ("advance_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("sim_bytes_per_epoch", "B"),
    ("sim_energy_mj_per_epoch", "mJ"),
];

/// The per-layer metrics every traced run reports, with their units.  A layer a
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("engine.register_self_us", "us"),
    ("engine.epoch_self_us", "us"),
    ("engine.poll_us", "us"),
    ("engine.sessions_retained", "count"),
    ("engine.sessions_active", "count"),
    ("net.workload_us", "us"),
    ("net.begin_epoch_us", "us"),
    ("net.flush_frames_us", "us"),
    ("net.frames_flushed", "count"),
    ("net.window_feed_us", "us"),
    ("net.sim_messages", "count"),
    ("net.sim_bytes", "B"),
    ("algos.mint_us", "us"),
    ("algos.tag_us", "us"),
    ("algos.fila_us", "us"),
    ("algos.tja_us", "us"),
    ("store.checkpoint_us", "us"),
    ("store.restore_us", "us"),
    ("store.stored_bytes", "B"),
    ("fleet.run_epochs_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.bytes_per_poll", "B"),
    ("wire.poll_residual_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// The workloads, by the names the command line and `BENCHMARK.json` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    SharedLoop,
    ChurnHistory,
    WirePoll,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::SharedLoop,
        WorkloadName::ChurnHistory,
        WorkloadName::WirePoll,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == name)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::SharedLoop => "shared-loop",
            WorkloadName::ChurnHistory => "churn-history",
            WorkloadName::WirePoll => "wire-poll",
        }
    }
}

/// The fixed size of one round of each workload.  A run cycles its rounds over
/// a few inputs derived from its seed, so every cycle repeats the same work and
/// cycles can run until the time budget is spent with their figures pooled.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Epochs per `shared-loop` round.
    pub shared_epochs: usize,
    /// Inputs (seeds derived from the run's seed) a `shared-loop` run cycles through.
    pub shared_inputs: usize,
    /// Epochs per `churn-history` round (4 short sessions register per epoch).
    pub churn_epochs: usize,
    /// Inputs a `churn-history` run cycles through.
    pub churn_inputs: usize,
    /// `Advance(1)` + `Poll` iterations per connection per `wire-poll` round.
    pub wire_iterations: usize,
    /// Inputs a `wire-poll` run cycles through.
    pub wire_inputs: usize,
    /// Back-to-back `Advance(1)` per connection per `wire-poll` round, after the
    /// measured phase; they give `advance_ms` its samples.
    pub wire_warm_advances: usize,
    /// Register + cancel probes per connection per `wire-poll` round, which give
    /// `register_ms` enough samples for its tail.
    pub wire_register_probes: usize,
}

impl Size {
    /// The size the benchmark runs at.
    pub const FULL: Size = Size {
        shared_epochs: 125,
        shared_inputs: 16,
        churn_epochs: 2000,
        churn_inputs: 2,
        wire_iterations: 24,
        wire_inputs: 4,
        wire_warm_advances: 32,
        wire_register_probes: 64,
    };
    /// A size small enough for the self-tests.
    pub const TINY: Size = Size {
        shared_epochs: 40,
        shared_inputs: 2,
        churn_epochs: 64,
        churn_inputs: 2,
        wire_iterations: 3,
        wire_inputs: 2,
        wire_warm_advances: 2,
        wire_register_probes: 2,
    };
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: WorkloadName,
    pub seed: u64,
    /// Time budget of the measured rounds; at least one round always runs.
    pub budget: Duration,
    /// Report the per-layer metrics of a traced run instead of the end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Self-test hook: corrupt one expected answer so the checks must fail.
    pub corrupt_expected: bool,
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// User operations issued (registrations, epochs, polls, cancels, requests).
    pub attempted: u64,
    /// Operations that errored unexpectedly or whose answers failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Run-record detail: sample counts, percentiles, check tallies, identities.
    pub record: Vec<(String, String)>,
    /// Raw spans of the traced run, one JSON object per line.
    pub spans: Vec<String>,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub(crate) fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.record.push((key.into(), value.to_string()));
    }

    /// Pushes every metric of `catalog` from `values`, in catalog order.  A metric
    /// missing from `values` is a bug of the workload module, not a measurement.
    pub(crate) fn set_metrics(
        &mut self,
        catalog: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) {
        self.metrics = catalog
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                Metric { name, unit, value }
            })
            .collect();
    }
}

/// Runs one workload.  `Err` means the traced run's replay gate failed: its
/// layers did different work from the engine, so no decomposition is published.
pub fn run(config: &Config) -> Result<Outcome, String> {
    match config.workload {
        WorkloadName::SharedLoop => engine_wl::run_shared_loop(config),
        WorkloadName::ChurnHistory => engine_wl::run_churn_history(config),
        WorkloadName::WirePoll => wire_wl::run_wire_poll(config),
    }
}

/// The master seeds of the inputs one run cycles through, derived from its seed.
pub(crate) fn inputs(seed: u64, count: usize) -> Vec<u64> {
    const STREAM_BENCH_INPUTS: u64 = 0xBE7C_0001;
    (0..count as u64)
        .map(|i| kspot_net::rng::mix_seed(seed, &[STREAM_BENCH_INPUTS, i]))
        .collect()
}

/// Runs whole cycles of `round(0..count)` until `budget` is spent (at least one),
/// so every input weighs the same in the pooled figures.
pub(crate) fn cycles(budget: Duration, count: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    loop {
        for input in 0..count {
            round(input);
        }
        if start.elapsed() >= budget {
            return;
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}
