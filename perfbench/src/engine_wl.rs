//! The two engine workloads, `shared-loop` and `churn-history`: closed loops on a
//! single thread, each round a fresh engine doing a fixed amount of work on the
//! same inputs.
//!
//! A [`Harness`] times every call the workload makes into the engine.  In the
//! traced run it also drives a [`Replay`] in lockstep, recording a span per
//! layer call, and gates every epoch on the replay's answers being the engine's
//! byte for byte.

use crate::replay::{answer_bytes, fnv, Replay, FNV_START};
use crate::stats::{quiet, Samples, Window};
use crate::trace::Tracer;
use crate::{cycles, inputs, peak_rss_mib, Config, Outcome, END_TO_END, PER_LAYER};
use kspot_algos::TopKResult;
use kspot_core::{QueryEngine, ScenarioConfig, Session, SessionStatus};
use kspot_net::rng::{substrate_seed, topology_seed, workload_seed};
use kspot_net::{
    Deployment, Epoch, Network, NetworkConfig, PhaseTotals, RoomModelParams, Workload,
};
use kspot_query::parse;
use kspot_query::plan::classify;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Spans kept for the dump of a traced run.
const SPAN_CAP: usize = 20_000;
/// How long set-ups are repeated at the start of each cycle (see [`time_setups`]).
const SETUP_BATCH: Duration = Duration::from_millis(20);
/// Epochs per timing window (see [`quiet`]).
const WINDOW_EPOCHS: u64 = 50;
/// The measurement allowance of the decomposition check, as a share of the
/// engine's epoch.  The replay is timed apart from the engine, and on
/// `shared-loop` the self time is about 1.5% of an epoch.
const DECOMPOSITION_SLACK: f64 = 0.05;
/// The share of the engine's time its epochs must take for the tracing
/// overhead, taken over every engine call, to speak for the epoch.  On
/// `churn-history` registrations take about half the time.
const EPOCH_SHARE_FOR_OVERHEAD: f64 = 0.9;

/// The lossless MICA2 substrate and room-correlated workload of `scenario`, with
/// the network and workload streams derived from the master `seed`.
fn substrate(scenario: &ScenarioConfig, seed: u64) -> (Network, Workload) {
    let net = Network::new(
        scenario.deployment.clone(),
        NetworkConfig::mica2().with_seed(substrate_seed(seed)),
    );
    let workload = Workload::room_correlated(
        &scenario.deployment,
        scenario.domain,
        RoomModelParams::default(),
        workload_seed(seed),
    );
    (net, workload)
}

/// The deterministic facts of one round, which every cycle repeats.
#[derive(Debug, Clone, Copy, Default)]
struct RoundFacts {
    totals: PhaseTotals,
    epochs: usize,
    retained: usize,
    active: usize,
    stored_bytes: u64,
}

/// Times the engine calls of one workload and, when traced, shadows them with a
/// [`Replay`].
#[derive(Default)]
struct Harness {
    traced: bool,
    tracer: Tracer,
    /// Epochs in one cycle over the inputs.
    cycle_epochs: u64,
    /// Epochs in one round, and the epochs the current round has run.
    round_epochs: u64,
    round_epoch: u64,
    engine: Option<QueryEngine>,
    replay: Option<Replay>,
    trace_id: u64,
    pending: Option<Vec<(u32, TopKResult)>>,

    setup_s: Samples,
    /// The median set-up of each batch.
    setup_batches: Vec<f64>,
    epoch_ms: Samples,
    register_ms: Samples,
    poll_ms: Samples,
    windows: Vec<Window>,
    busy: Duration,
    epochs: u64,
    rounds: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,

    facts: BTreeMap<usize, RoundFacts>,
    peak_rss_mib: f64,

    engine_epoch_ns: f64,
    self_ns: f64,
    /// The engine's self time of every traced epoch.
    epoch_self_us: Samples,
    frames_flushed: u64,
    gate_mismatches: u64,
}

impl Harness {
    fn new(traced: bool, cycle_epochs: u64, round_epochs: u64) -> Self {
        Self {
            traced,
            tracer: Tracer::new(if traced { SPAN_CAP } else { 0 }),
            cycle_epochs: cycle_epochs.max(1),
            round_epochs: round_epochs.max(1),
            ..Self::default()
        }
    }

    fn windows_per_cycle(&self) -> usize {
        self.cycle_epochs.div_ceil(WINDOW_EPOCHS) as usize
    }

    /// The window holding the step of the run's `epoch`-th epoch: its
    /// registrations and cancels, the epoch and the polls after it.
    fn window(&mut self, epoch: u64) -> &mut Window {
        let cycle = (epoch / self.cycle_epochs) as usize;
        let k = ((epoch % self.cycle_epochs) / WINDOW_EPOCHS) as usize;
        let index = cycle * self.windows_per_cycle() + k;
        if self.windows.len() <= index {
            self.windows.resize_with(index + 1, Window::default);
        }
        &mut self.windows[index]
    }

    /// The number of quiet windows and their samples, pooled.
    fn quiet(&self) -> (usize, Window) {
        let chosen = quiet(&self.windows, self.windows_per_cycle());
        let mut pooled = Window::default();
        for &i in &chosen {
            let w = &self.windows[i];
            pooled.epoch_ms.extend(&w.epoch_ms);
            pooled.poll_ms.extend(&w.poll_ms);
            pooled.register_ms.extend(&w.register_ms);
            pooled.first_tenth.extend(&w.first_tenth);
            pooled.last_tenth.extend(&w.last_tenth);
            pooled.busy_s += w.busy_s;
            pooled.epochs += w.epochs;
            pooled.attempted += w.attempted;
        }
        (chosen.len(), pooled)
    }

    fn engine(&mut self) -> &mut QueryEngine {
        self.engine
            .as_mut()
            .expect("a round installs its engine before driving it")
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn mismatch(&mut self, why: String) {
        self.gate_mismatches += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!("replay gate: {why}"));
        }
    }

    fn register(&mut self, sql: &str) -> Option<Session> {
        self.attempted += 1;
        let t0 = Instant::now();
        let registered = self.engine().register(sql);
        let t1 = Instant::now();
        let dt = t1 - t0;
        self.busy += dt;
        self.register_ms.push(dt.as_secs_f64() * 1e3);
        let window = self.window(self.epochs);
        window.register_ms.push(dt.as_secs_f64() * 1e3);
        window.busy_s += dt.as_secs_f64();
        window.attempted += 1;
        if self.traced {
            let id = self.tracer.reserve();
            self.tracer
                .record(id, "engine.register", self.trace_id, None, t0, t1);
            // Parse and plan timed again on their own, right after the
            // registration that ran them.  The difference is the engine's part.
            let t = Instant::now();
            let plan = parse(sql).and_then(|q| classify(&q));
            self.tracer.span("query.parse", self.trace_id, Some(id), t);
            let _ = std::hint::black_box(plan);
            let replayed = self.replay.as_mut().map(|r| r.register(sql));
            match (&registered, replayed) {
                (Ok(s), Some(Ok(rid))) if s.id() == rid => {}
                (Err(_), Some(Err(_))) => {}
                (got, replayed) => self.mismatch(format!(
                    "register {sql}: engine {:?}, replay {replayed:?}",
                    got.as_ref().map(|s| s.id())
                )),
            }
        }
        match registered {
            Ok(session) => Some(session),
            Err(e) => {
                self.fail(format!("register {sql}: {e}"));
                None
            }
        }
    }

    fn cancel(&mut self, session: &mut Session) {
        self.attempted += 1;
        let t = Instant::now();
        let was_active = session.cancel();
        let dt = t.elapsed();
        self.busy += dt;
        let window = self.window(self.epochs);
        window.busy_s += dt.as_secs_f64();
        window.attempted += 1;
        if self.traced {
            let replayed = self.replay.as_mut().map(|r| r.cancel(session.id()));
            if replayed != Some(was_active) {
                self.mismatch(format!(
                    "cancel {}: engine {was_active}, replay {replayed:?}",
                    session.id()
                ));
            }
        }
        if !was_active {
            self.fail(format!(
                "cancel of session {} found it inactive",
                session.id()
            ));
        }
    }

    fn run_epoch(&mut self) {
        self.attempted += 1;
        let id = self.tracer.reserve();
        let t0 = Instant::now();
        self.engine().run_epochs(1);
        let t1 = Instant::now();
        let dt = t1 - t0;
        self.busy += dt;
        let ms = dt.as_secs_f64() * 1e3;
        let tenth = (self.round_epochs / 10).max(1);
        let (first, last) = (
            self.round_epoch < tenth,
            self.round_epoch >= self.round_epochs - tenth,
        );
        self.round_epoch += 1;
        let window = self.window(self.epochs);
        if first {
            window.first_tenth.push(ms);
        } else if last {
            window.last_tenth.push(ms);
        }
        window.epoch_ms.push(ms);
        window.busy_s += dt.as_secs_f64();
        window.epochs += 1;
        window.attempted += 1;
        self.epochs += 1;
        self.epoch_ms.push(ms);
        if self.traced {
            let trace = self.trace_id;
            let ns = self
                .tracer
                .record(id, "engine.run_epochs", trace, None, t0, t1);
            let replay = self
                .replay
                .as_mut()
                .expect("a traced round installs its replay");
            let epoch = replay.run_epoch(&mut self.tracer, trace, id);
            self.engine_epoch_ns += ns as f64;
            self.self_ns += ns as f64 - epoch.children_ns as f64;
            self.epoch_self_us
                .push((ns as f64 - epoch.children_ns as f64) / 1e3);
            self.frames_flushed += epoch.frames_flushed as u64;
            self.pending = Some(epoch.answers);
            self.trace_id += 1;
        }
    }

    /// Polls every session once, as a client of the shared loop does after each
    /// epoch; the sweep is one `poll_ms` sample.  Traced, each call is a span.
    fn poll_all<'a>(
        &mut self,
        sessions: impl Iterator<Item = &'a mut Session>,
        polled: &mut Vec<(u32, Vec<TopKResult>)>,
    ) {
        polled.clear();
        let attempted = self.attempted;
        let start = Instant::now();
        for session in sessions {
            self.attempted += 1;
            let t = Instant::now();
            let answers = session.poll();
            if self.traced {
                self.tracer.span("engine.poll", self.trace_id, None, t);
            }
            polled.push((session.id(), answers));
        }
        let dt = start.elapsed();
        self.busy += dt;
        self.poll_ms.push(dt.as_secs_f64() * 1e3);
        let polls = self.attempted - attempted;
        let window = self.window(self.epochs.saturating_sub(1));
        window.poll_ms.push(dt.as_secs_f64() * 1e3);
        window.busy_s += dt.as_secs_f64();
        window.attempted += polls;
    }

    /// The replay gate for one epoch: every answer the engine's polls returned
    /// must equal the replay's, byte for byte, and no session may be missing.
    fn gate(&mut self, polled: &[(u32, Vec<TopKResult>)]) {
        if !self.traced {
            return;
        }
        let mut engine: Vec<Vec<u8>> = polled
            .iter()
            .flat_map(|(id, rs)| rs.iter().map(|r| answer_bytes(*id, r)))
            .collect();
        engine.sort();
        let mut replay: Vec<Vec<u8>> = self
            .pending
            .take()
            .unwrap_or_default()
            .iter()
            .map(|(id, r)| answer_bytes(*id, r))
            .collect();
        replay.sort();
        if engine != replay {
            let epoch = self.trace_id.saturating_sub(1);
            self.mismatch(format!(
                "epoch {epoch}: engine gave {} answers, replay {} (or their bytes differ)",
                engine.len(),
                replay.len()
            ));
        }
    }

    fn begin_round(&mut self, replay: Option<Replay>) {
        self.replay = replay;
        self.round_epoch = 0;
    }

    fn end_round(&mut self, input: usize, epochs: usize) {
        let engine = self.engine.take().expect("a round installs its engine");
        let totals = engine.metrics().totals();
        if !engine.network().is_alive() {
            self.fail("a battery depleted: the inputs left the lossless regime".into());
        }
        let facts = RoundFacts {
            totals,
            epochs,
            retained: engine.session_ids().len(),
            active: engine.active_sessions(),
            stored_bytes: engine.checkpoint_storage_bytes(),
        };
        self.facts.insert(input, facts);
        if let Some(replay) = self.replay.take() {
            if replay.network().metrics().totals() != totals {
                self.mismatch("the replay's ledger totals differ from the engine's".into());
            }
        }
        self.rounds += 1;
    }

    /// Messages, bytes and energy (mJ) per epoch over one cycle of the inputs.
    fn sim(&self) -> (f64, f64, f64) {
        let epochs = self.facts.values().map(|f| f.epochs).sum::<usize>().max(1) as f64;
        let sum = |f: fn(&RoundFacts) -> f64| self.facts.values().map(f).sum::<f64>() / epochs;
        (
            sum(|f| f.totals.messages as f64),
            sum(|f| f.totals.bytes as f64),
            sum(|f| f.totals.energy_uj / 1e3),
        )
    }

    /// Mean over the inputs of a per-round fact.
    fn fact(&self, f: fn(&RoundFacts) -> f64) -> f64 {
        self.facts.values().map(f).sum::<f64>() / self.facts.len().max(1) as f64
    }

    /// Per-epoch mean of the spans named `name`, in µs.
    fn per_epoch_us(&self, name: &str) -> f64 {
        self.tracer.total_us(name) / self.epochs.max(1) as f64
    }

    fn epochs_per_s(&self) -> f64 {
        self.epochs as f64 / self.busy.as_secs_f64()
    }

    /// Medians, rates and `epoch_cost_growth` come from the quiet windows, tails
    /// from every sample, and `setup_s` from the quietest batch of set-ups.  `poll_ms_p99` repeats `poll_ms_p50`: a sweep of in-process
    /// polls takes about 2 µs, and its tail is timer and interrupt noise (its
    /// quartile spread over ten seeds reached 0.64); the tail stays in the run
    /// record as `samples.poll_ms`.
    fn end_to_end(&self, out: &mut Outcome) {
        let (chosen, q) = self.quiet();
        let (epoch_tail, _) = self.epoch_ms.tail();
        let (register_tail, _) = self.register_ms.tail();
        let values = [
            (
                "setup_s",
                self.setup_batches
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min),
            ),
            ("epochs_per_s", q.epochs as f64 / q.busy_s),
            ("epoch_ms_p50", q.epoch_ms.median()),
            ("epoch_ms_p99", epoch_tail),
            (
                "epoch_cost_growth",
                q.last_tenth.median() / q.first_tenth.median(),
            ),
            ("register_ms_p50", q.register_ms.median()),
            ("register_ms_p99", register_tail),
            ("requests_per_s", q.attempted as f64 / q.busy_s),
            ("poll_ms_p50", q.poll_ms.median()),
            ("poll_ms_p99", q.poll_ms.median()),
            ("advance_ms_p50", q.epoch_ms.median()),
            ("peak_rss_mib", self.peak_rss_mib),
            ("sim_bytes_per_epoch", self.sim().1),
            ("sim_energy_mj_per_epoch", self.sim().2),
        ];
        out.set_metrics(END_TO_END, &values);
        out.note("setup.batches", self.setup_batches.len());
        out.note("windows", self.windows.len());
        out.note("windows.quiet", chosen);
        out.note("quiet.epoch_ms", q.epoch_ms.describe());
        out.note("quiet.register_ms", q.register_ms.describe());
        out.note("quiet.poll_ms", q.poll_ms.describe());
        out.note("all.epochs_per_s", self.epochs_per_s());

        self.describe(out);
    }

    /// The per-layer metrics of the traced rounds, after checking their
    /// decomposition against the untraced rounds `plain` of the same process:
    /// in the median epoch the replayed layers may not take longer than the
    /// engine (self time ≥ 0; the median, because a preemption in one replay
    /// would swamp a mean), and, where epochs take most of the engine's time,
    /// the traced engine epoch must sit within the tracing overhead of the
    /// untraced one; each give or take [`DECOMPOSITION_SLACK`].  `Err` names
    /// the check that failed.
    fn per_layer(&self, out: &mut Outcome, plain: &Harness) -> Result<(), String> {
        let overhead = 1.0 - self.epochs_per_s() / plain.epochs_per_s();
        let epochs = self.epochs.max(1) as f64;
        let self_us = self.self_ns / 1e3 / epochs;
        let traced_epoch_us = self.engine_epoch_ns / 1e3 / epochs;
        let untraced_epoch_us = plain.epoch_ms.mean() * 1e3;
        let gap = traced_epoch_us / untraced_epoch_us - 1.0;
        let self_p50 = self.epoch_self_us.median();
        if self_p50 < -DECOMPOSITION_SLACK * self.epoch_ms.median() * 1e3 {
            return Err(format!(
                "in the median epoch the replayed layers took {:.3} us longer than the engine",
                -self_p50
            ));
        }
        let epoch_share =
            plain.epoch_ms.values().iter().sum::<f64>() / 1e3 / plain.busy.as_secs_f64();
        if epoch_share >= EPOCH_SHARE_FOR_OVERHEAD
            && gap.abs() > overhead.abs() + DECOMPOSITION_SLACK
        {
            return Err(format!(
                "the traced engine epoch ({traced_epoch_us:.3} us) is {:.1}% off the untraced one \
                 ({untraced_epoch_us:.3} us), beyond the tracing overhead of {:.1}%",
                100.0 * gap,
                100.0 * overhead
            ));
        }
        let values = [
            ("query.parse_us", self.tracer.mean_us("query.parse")),
            (
                "engine.register_self_us",
                self.tracer.mean_us("engine.register") - self.tracer.mean_us("query.parse"),
            ),
            ("engine.epoch_self_us", self_us),
            ("engine.poll_us", self.tracer.mean_us("engine.poll")),
            ("engine.sessions_retained", self.fact(|f| f.retained as f64)),
            ("engine.sessions_active", self.fact(|f| f.active as f64)),
            ("net.workload_us", self.per_epoch_us("net.workload")),
            ("net.begin_epoch_us", self.per_epoch_us("net.begin_epoch")),
            ("net.flush_frames_us", self.per_epoch_us("net.flush_frames")),
            ("net.frames_flushed", self.frames_flushed as f64 / epochs),
            ("net.window_feed_us", self.per_epoch_us("net.window_feed")),
            ("net.sim_messages", self.sim().0),
            ("net.sim_bytes", self.sim().1),
            ("algos.mint_us", self.per_epoch_us("algos.mint")),
            ("algos.tag_us", self.per_epoch_us("algos.tag")),
            ("algos.fila_us", self.per_epoch_us("algos.fila")),
            ("algos.tja_us", self.per_epoch_us("algos.tja")),
            ("store.checkpoint_us", self.per_epoch_us("store.checkpoint")),
            ("store.restore_us", self.per_epoch_us("store.restore")),
            ("store.stored_bytes", self.fact(|f| f.stored_bytes as f64)),
            ("fleet.run_epochs_us", 0.0),
            ("proto.encode_us", 0.0),
            ("proto.decode_us", 0.0),
            ("proto.bytes_per_poll", 0.0),
            ("wire.poll_residual_ms", 0.0),
            ("trace.overhead_frac", overhead),
        ];
        out.set_metrics(PER_LAYER, &values);

        // The replayed layers plus the engine's self time add up to the traced
        // engine epoch by construction; the checks above tie that epoch to the
        // untraced one.
        let layers = [
            "net.workload",
            "net.begin_epoch",
            "net.window_feed",
            "store.checkpoint",
            "algos.mint",
            "algos.tag",
            "algos.fila",
            "algos.tja",
            "store.restore",
            "net.flush_frames",
        ];
        let children: f64 = layers.iter().map(|l| self.per_epoch_us(l)).sum();
        out.note("trace.replayed_layers_us", format!("{children:.3}"));
        out.note("trace.epoch_self_us", self.epoch_self_us.describe());
        out.note("trace.layers_sum_us", format!("{:.3}", children + self_us));
        out.note("trace.engine_epoch_us", format!("{traced_epoch_us:.3}"));
        out.note(
            "trace.untraced_engine_epoch_us",
            format!("{untraced_epoch_us:.3}"),
        );
        out.note("trace.engine_epoch_gap_frac", format!("{gap:.4}"));
        out.note(
            "trace.epoch_share_of_engine_time",
            format!("{epoch_share:.4}"),
        );
        out.note(
            "trace.untraced_epochs_per_s",
            format!("{:.3}", plain.epochs_per_s()),
        );
        out.note(
            "trace.traced_epochs_per_s",
            format!("{:.3}", self.epochs_per_s()),
        );
        out.note("trace.spans_recorded_not_kept", self.tracer.dropped());
        out.note(
            "trace.replay_gate",
            "passed: every answer byte-identical to the engine's",
        );
        for layer in layers
            .iter()
            .chain(["query.parse", "engine.register", "engine.poll"].iter())
        {
            out.note(format!("trace.spans.{layer}"), self.tracer.count(layer));
        }
        self.describe(out);
        Ok(())
    }

    fn describe(&self, out: &mut Outcome) {
        out.note("rounds", self.rounds);
        out.note("peak_rss_mib_at_exit", peak_rss_mib());
        out.note("epochs", self.epochs);
        out.note("samples.setup_s", self.setup_s.describe());
        out.note("samples.epoch_ms", self.epoch_ms.describe());
        out.note("samples.register_ms", self.register_ms.describe());
        out.note("samples.poll_ms", self.poll_ms.describe());
        out.note("inputs", self.facts.len());
        out.note("engine.sessions_retained", self.fact(|f| f.retained as f64));
        out.note("engine.sessions_active", self.fact(|f| f.active as f64));
        for (i, why) in self.failures.iter().enumerate() {
            out.note(format!("failure.{i}"), why);
        }
    }
}

/// Times one batch of set-ups, cycling over the inputs for [`SETUP_BATCH`]:
/// `build(input)` builds the engine, then `sql` registers on it; each set-up
/// is dropped before the next.  A registration that fails here fails in every
/// round too, where it is counted.
fn time_setups(count: usize, sql: &[&str], build: impl Fn(usize) -> QueryEngine) -> Samples {
    let mut setup_s = Samples::default();
    let start = Instant::now();
    while start.elapsed() < SETUP_BATCH {
        for input in 0..count {
            let t = Instant::now();
            let mut engine = build(input);
            let sessions: Vec<_> = sql.iter().map(|q| engine.register(q)).collect();
            setup_s.push(t.elapsed().as_secs_f64());
            drop((sessions, engine));
        }
    }
    setup_s
}

/// Shared scaffolding of both engine workloads: the untraced run reports the
/// end-to-end metrics, timing a batch of set-ups with `setup_batch` at the
/// start of every cycle; the traced run alternates untraced and traced rounds
/// (the untraced ones give the overhead) and publishes nothing if the replay
/// gate failed.
fn drive(
    config: &Config,
    count: usize,
    epochs_per_round: usize,
    mut setup_batch: impl FnMut() -> Samples,
    mut round: impl FnMut(&mut Harness, usize),
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cycle_epochs = (count * epochs_per_round) as u64;
    if !config.trace {
        let mut h = Harness::new(false, cycle_epochs, epochs_per_round as u64);
        cycles(config.budget, count, |i| {
            if i == 0 {
                let batch = setup_batch();
                h.setup_batches.push(batch.median());
                h.setup_s.extend(&batch);
            }
            round(&mut h, i);
            // Memory is read after the first cycle, a fixed amount of work, so
            // the run's length does not move it.
            if i + 1 == count && h.peak_rss_mib == 0.0 {
                h.peak_rss_mib = peak_rss_mib();
            }
        });
        h.end_to_end(&mut out);
        out.attempted = h.attempted;
        out.failed = h.failed;
        return Ok(out);
    }
    let mut plain = Harness::new(false, cycle_epochs, epochs_per_round as u64);
    let mut traced = Harness::new(true, cycle_epochs, epochs_per_round as u64);
    cycles(config.budget, count, |i| {
        round(&mut plain, i);
        round(&mut traced, i);
    });
    if traced.gate_mismatches > 0 {
        return Err(format!(
            "replay gate failed on {} epoch(s): {}",
            traced.gate_mismatches,
            traced.failures.join("; ")
        ));
    }
    traced
        .per_layer(&mut out, &plain)
        .map_err(|e| format!("decomposition check failed: {e}"))?;
    out.spans = traced.tracer.to_json_lines();
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    Ok(out)
}

// ---------------------------------------------------------------------------------
// shared-loop
// ---------------------------------------------------------------------------------

/// The 64-node venue of the shared-loop workload.
fn shared_loop_scenario() -> ScenarioConfig {
    let deployment = Deployment::clustered_rooms(8, 8, 20.0, topology_seed(12));
    ScenarioConfig::custom("shared-loop venue", "sound", deployment)
}

/// Sixteen continuous sessions in rotation: MINT (AVG), MINT (MAX), TAG, FILA.
fn shared_loop_sql() -> Vec<String> {
    (0..16)
        .map(|i| match i % 4 {
            0 => format!(
                "SELECT TOP {} roomid, AVG(sound) FROM sensors GROUP BY roomid",
                1 + i % 3
            ),
            1 => format!(
                "SELECT TOP {} roomid, MAX(sound) FROM sensors GROUP BY roomid",
                1 + i % 4
            ),
            2 => "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid".to_string(),
            _ => "SELECT TOP 2 nodeid, sound FROM sensors".to_string(),
        })
        .collect()
}

fn batched_substrate(scenario: &ScenarioConfig, seed: u64) -> (Network, Workload) {
    let (mut net, workload) = substrate(scenario, seed);
    net.set_frame_batching(true);
    (net, workload)
}

fn shared_loop_engine(scenario: &ScenarioConfig, seed: u64) -> QueryEngine {
    let (net, workload) = batched_substrate(scenario, seed);
    QueryEngine::from_substrate(scenario.clone(), net, workload).with_frame_batching(true)
}

/// The expected answer hash of every `(epoch, session)`, from the replay.
fn shared_loop_expected(
    scenario: &ScenarioConfig,
    sql: &[String],
    seed: u64,
    epochs: usize,
) -> Result<Vec<BTreeMap<u32, u64>>, String> {
    let (net, workload) = batched_substrate(scenario, seed);
    let mut replay = Replay::new(scenario, net, workload, None);
    for q in sql {
        replay.register(q)?;
    }
    let mut tracer = Tracer::default();
    Ok((0..epochs)
        .map(|step| {
            let epoch = replay.run_epoch(&mut tracer, step as u64, 0);
            epoch
                .answers
                .iter()
                .map(|(id, r)| (*id, fnv(FNV_START, &answer_bytes(*id, r))))
                .collect()
        })
        .collect())
}

/// `shared-loop`: one engine on the 64-node venue, lossless MICA2, frame
/// batching on, 16 continuous sessions; each step is `run_epochs(1)` and a
/// `poll()` of every session.  Answers are checked against the replay.
pub fn run_shared_loop(config: &Config) -> Result<Outcome, String> {
    let scenario = shared_loop_scenario();
    let sql = shared_loop_sql();
    let epochs = config.size.shared_epochs;
    let seeds = inputs(config.seed, config.size.shared_inputs);
    let sql_refs: Vec<&str> = sql.iter().map(String::as_str).collect();
    let mut expected = seeds
        .iter()
        .map(|&seed| shared_loop_expected(&scenario, &sql, seed, epochs))
        .collect::<Result<Vec<_>, _>>()?;
    if config.corrupt_expected {
        if let Some(hash) = expected[0]
            .get_mut(epochs / 2)
            .and_then(|m| m.values_mut().next())
        {
            *hash ^= 1;
        }
    }
    let setup_batch = || {
        time_setups(seeds.len(), &sql_refs, |i| {
            shared_loop_engine(&scenario, seeds[i])
        })
    };
    let mut out = drive(config, seeds.len(), epochs, setup_batch, |h, input| {
        let seed = seeds[input];
        let expected = &expected[input];
        let replay = h.traced.then(|| {
            let (net, workload) = batched_substrate(&scenario, seed);
            Replay::new(&scenario, net, workload, None)
        });
        h.begin_round(replay);
        h.engine = Some(shared_loop_engine(&scenario, seed));
        let mut sessions: Vec<Session> = sql.iter().filter_map(|q| h.register(q)).collect();

        let mut polled: Vec<(u32, Vec<TopKResult>)> = Vec::with_capacity(sessions.len());
        for (step, expected) in expected.iter().enumerate() {
            h.run_epoch();
            h.poll_all(sessions.iter_mut(), &mut polled);
            for (id, answers) in &polled {
                let want = expected.get(id);
                let ok = answers.len() == 1
                    && want == Some(&fnv(FNV_START, &answer_bytes(*id, &answers[0])));
                if !ok {
                    h.fail(format!(
                        "epoch {step}, session {id}: answer differs from the replay's"
                    ));
                }
            }
            h.gate(&polled);
        }
        h.end_round(input, epochs);
    })?;
    out.note("workload.sessions", sql.len());
    out.note("workload.epochs_per_round", epochs);
    Ok(out)
}

// ---------------------------------------------------------------------------------
// churn-history
// ---------------------------------------------------------------------------------

const LONG: &str = "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";
const HISTORY: &str =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 16 epochs";
/// Short sessions, four per epoch; the last is cancelled after one answer.
const SHORT: [&str; 4] = [
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min LIFETIME 2 min",
    "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min LIFETIME 2 min",
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min LIFETIME 2 min",
    "SELECT TOP 2 nodeid, sound FROM sensors EPOCH DURATION 1 min LIFETIME 2 min",
];
const CHECKPOINT_CADENCE: u64 = 4;

fn churn_engine(scenario: &ScenarioConfig, seed: u64) -> QueryEngine {
    let (net, workload) = substrate(scenario, seed);
    QueryEngine::from_substrate(scenario.clone(), net, workload)
        .with_checkpointing(CHECKPOINT_CADENCE)
}
/// Every this many epochs a live `WITH HISTORY` session registers (on a
/// checkpoint epoch), and on the next epoch an `AS OF` session for that snapshot.
const HISTORY_PERIOD: usize = 16;
/// Short sessions registered on epochs `≡ 0` (kept) and `≡ SAMPLE_PERIOD / 2`
/// (cancelled) modulo this are checked against a solo twin.
const SAMPLE_PERIOD: usize = 61;

/// Whether the short session registering at `step` as `SHORT[slot]` is sampled.
fn sampled(step: usize, slot: usize) -> bool {
    (slot == 0 && step.is_multiple_of(SAMPLE_PERIOD))
        || (slot == 3 && step % SAMPLE_PERIOD == SAMPLE_PERIOD / 2)
}

/// The answers each sampled short session gives when it runs alone on an engine
/// over the same substrate (ADR-003's session isolation).
fn churn_twin(
    scenario: &ScenarioConfig,
    seed: u64,
    epochs: usize,
) -> BTreeMap<usize, Vec<TopKResult>> {
    let (net, workload) = substrate(scenario, seed);
    let mut twin = QueryEngine::from_substrate(scenario.clone(), net, workload);
    let mut out = BTreeMap::new();
    for step in 0..epochs {
        for slot in [0, 3] {
            if !sampled(step, slot) {
                continue;
            }
            twin.run_epochs(step - twin.epochs_run() as usize);
            let Ok(mut session) = twin.register(SHORT[slot]) else {
                continue;
            };
            if slot == 3 {
                twin.run_epochs(1);
                session.cancel();
            } else {
                twin.run_epochs(2);
            }
            out.insert(step, session.results());
        }
    }
    out
}

enum Role {
    /// The long-lived continuous session: one answer every epoch.
    Long,
    /// A session that must give exactly this many answers over its life.
    Counted(usize),
    /// A sampled short session: its answers must equal the solo twin's.
    Sampled(usize),
    /// The live `WITH HISTORY` session of a checkpoint epoch.
    Live,
    /// An `AS OF` session: its answer must equal the live one at its snapshot.
    AsOf,
}

struct Tracked {
    session: Session,
    role: Role,
    answers: Vec<TopKResult>,
}

/// `churn-history`: a checkpointing engine (cadence 4) on the 14-node conference
/// venue under session churn.  See the module constants for the schedule.
pub fn run_churn_history(config: &Config) -> Result<Outcome, String> {
    let scenario = ScenarioConfig::conference();
    let epochs = config.size.churn_epochs;
    let seeds = inputs(config.seed, config.size.churn_inputs);
    let mut twins: Vec<_> = seeds
        .iter()
        .map(|&seed| churn_twin(&scenario, seed, epochs))
        .collect();
    if config.corrupt_expected {
        if let Some(item) = twins[0]
            .values_mut()
            .next()
            .and_then(|rs| rs.first_mut())
            .and_then(|r| r.items.first_mut())
        {
            item.value += 1.0;
        }
    }
    let mut checks = (0u64, 0u64);
    let setup_batch = || {
        time_setups(seeds.len(), &[LONG, HISTORY], |i| {
            churn_engine(&scenario, seeds[i])
        })
    };
    let mut out = drive(config, seeds.len(), epochs, setup_batch, |h, input| {
        let (seed, twin) = (seeds[input], &twins[input]);
        let replay = h.traced.then(|| {
            let (net, workload) = substrate(&scenario, seed);
            Replay::new(&scenario, net, workload, Some(CHECKPOINT_CADENCE))
        });
        h.begin_round(replay);
        h.engine = Some(churn_engine(&scenario, seed));
        let mut tracked: Vec<Tracked> = Vec::new();
        for (sql, role) in [(LONG, Role::Long), (HISTORY, Role::Counted(1))] {
            if let Some(session) = h.register(sql) {
                tracked.push(Tracked {
                    session,
                    role,
                    answers: Vec::new(),
                });
            }
        }

        let mut to_cancel: Option<Session> = None;
        let mut live: Option<TopKResult> = None;
        let mut as_of: Option<Epoch> = None;
        let mut polled: Vec<(u32, Vec<TopKResult>)> = Vec::new();
        for step in 0..epochs {
            let mut cancel_next = None;
            for (slot, sql) in SHORT.iter().enumerate() {
                let Some(session) = h.register(sql) else {
                    continue;
                };
                if slot == 3 {
                    cancel_next = Some(session.clone());
                }
                let role = if sampled(step, slot) {
                    Role::Sampled(step)
                } else {
                    Role::Counted(if slot == 3 { 1 } else { 2 })
                };
                tracked.push(Tracked {
                    session,
                    role,
                    answers: Vec::new(),
                });
            }
            if let Some(mut session) = to_cancel.take() {
                h.cancel(&mut session);
            }
            to_cancel = cancel_next;
            if step % HISTORY_PERIOD == HISTORY_PERIOD - 1 {
                if let Some(session) = h.register(HISTORY) {
                    tracked.push(Tracked {
                        session,
                        role: Role::Live,
                        answers: Vec::new(),
                    });
                }
            }
            if let Some(epoch) = as_of.take() {
                let sql = format!("{HISTORY} AS OF {epoch}");
                if let Some(session) = h.register(&sql) {
                    tracked.push(Tracked {
                        session,
                        role: Role::AsOf,
                        answers: Vec::new(),
                    });
                }
            }

            h.run_epoch();
            h.poll_all(tracked.iter_mut().map(|t| &mut t.session), &mut polled);
            h.gate(&polled);

            // Checks, untimed: retire finished sessions and judge their answers.
            let mut keep = Vec::with_capacity(tracked.len());
            for (mut t, (_, answers)) in tracked.drain(..).zip(polled.drain(..)) {
                if let Role::Long = t.role {
                    if answers.len() != 1 {
                        h.fail(format!(
                            "epoch {step}: the long session gave {} answers",
                            answers.len()
                        ));
                    }
                    keep.push(t);
                    continue;
                }
                t.answers.extend(answers);
                if t.session.status() == SessionStatus::Active {
                    keep.push(t);
                    continue;
                }
                let verdict = match t.role {
                    Role::Long => unreachable!("handled above"),
                    Role::Counted(n) => (t.answers.len() == n)
                        .then_some(())
                        .ok_or("wrong answer count"),
                    Role::Sampled(at) => {
                        checks.0 += 1;
                        (twin.get(&at) == Some(&t.answers))
                            .then_some(())
                            .ok_or("differs from its solo twin")
                    }
                    Role::Live => {
                        match (t.answers.as_slice(), h.engine().checkpoint_epochs().last()) {
                            ([answer], Some(&epoch)) if answer.epoch == epoch => {
                                live = Some(answer.clone());
                                as_of = Some(epoch);
                                Ok(())
                            }
                            _ => Err("no answer at the checkpoint epoch"),
                        }
                    }
                    Role::AsOf => {
                        checks.1 += 1;
                        let same = match (t.answers.as_slice(), &live) {
                            ([answer], Some(want)) => {
                                answer_bytes(0, answer) == answer_bytes(0, want)
                            }
                            _ => false,
                        };
                        same.then_some(())
                            .ok_or("AS OF answer differs from the live one")
                    }
                };
                if let Err(why) = verdict {
                    h.fail(format!("epoch {step}, session {}: {why}", t.session.id()));
                }
            }
            tracked = keep;
        }
        h.end_round(input, epochs);
    })?;
    out.note("workload.epochs_per_round", epochs);
    out.note("checks.sampled_vs_solo_twin", checks.0);
    out.note("checks.as_of_vs_live", checks.1);
    Ok(out)
}
