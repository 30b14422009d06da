//! The `wire-poll` workload: a `WireServer` on loopback (2 workers, no pacer) in
//! front of a 2-deployment conference fleet, driven in a closed loop by 2
//! `WireClient` connections.
//!
//! Per round each connection sends `Hello` and `Register` (one deployment each)
//! and meets the other at a barrier; that ends set-up.  It then registers and
//! cancels a few probe sessions (the `register_ms` samples) and meets the other
//! again.  The measured phase is N iterations of `Advance(1)` + `Poll(max 32)`,
//! closed by a third barrier.  Then each connection sends W `Advance(1)` back to
//! back (the `advance_ms` samples) and meets the other a last time; a final
//! `Poll` drains, and `Cancel` and `Bye` close the connection.  Only `Advance`
//! moves epochs and the barriers pin every registration before the first and
//! every advance before the drain, so each session's answer count is exactly the
//! total advances, 2(N + W).  The answers must equal `Session::results()` of an
//! in-process twin fleet advanced as far.
//!
//! An `Advance` inside the measured phase follows a `Poll` that stalled for
//! about 40 ms with every thread idle, so its latency is the host's wake-up
//! latency; back to back, it is the server's.  The measured phase's advances
//! stay in the run record (`samples.advance_after_poll_ms`).

use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{cycles, inputs, peak_rss_mib, Config, Outcome, END_TO_END, PER_LAYER};
use kspot_algos::TopKResult;
use kspot_core::{EngineFleet, ScenarioConfig, Session, WorkloadSpec};
use kspot_net::{NetworkConfig, PhaseTotals, RoomModelParams};
use kspot_query::parse;
use kspot_query::plan::classify;
use kspot_serve::proto::{
    decode_response, encode_response, extract_frame, DEFAULT_MAX_FRAME_BYTES,
};
use kspot_serve::{PollOutcome, Response, ServeConfig, WireClient, WireServer};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const DEPLOYMENTS: usize = 2;
const CONNECTIONS: usize = 2;
const POLL_MAX: u32 = 32;
/// The session each connection registers on its own deployment: in-network
/// aggregation, whose radio traffic does not depend on the sensed values, so the
/// engine's share of a request stays the same from input to input.
const SQL: [&str; CONNECTIONS] = [
    "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid",
    "SELECT roomid, MAX(sound) FROM sensors GROUP BY roomid",
];
/// Registered and cancelled at once: it never runs an epoch.
const PROBE_SQL: &str = "SELECT TOP 2 nodeid, sound FROM sensors";

fn fleet(seed: u64) -> EngineFleet {
    EngineFleet::homogeneous(
        ScenarioConfig::conference(),
        WorkloadSpec::RoomCorrelated(RoomModelParams::default()),
        NetworkConfig::mica2(),
        seed,
        DEPLOYMENTS,
        2,
    )
}

/// Everything one connection did in one round.
#[derive(Default)]
struct ClientReport {
    register_ms: Vec<f64>,
    /// The measured phase's advances, each followed by a poll.
    advances: Vec<(Instant, Instant)>,
    polls: Vec<(Instant, Instant, PollOutcome)>,
    /// The back-to-back advances after the measured phase.
    warm_advance_ms: Vec<f64>,
    answers: Vec<(u64, Vec<(u64, f64)>)>,
    requests: u64,
    failures: Vec<String>,
}

impl ClientReport {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn keep_answers(&mut self, outcome: &PollOutcome) {
        for answer in &outcome.answers {
            if let Response::Answer { epoch, items, .. } = answer {
                self.answers.push((*epoch, items.clone()));
            }
        }
    }
}

/// One connection's script.  It meets `barriers` in order whatever happens, so a
/// failing connection never strands the other.
fn client(
    server: &WireServer,
    c: usize,
    iterations: usize,
    probes: usize,
    warm: usize,
    barriers: &[Barrier; 4],
) -> ClientReport {
    let mut report = ClientReport::default();
    let mut conn = match WireClient::connect(server.addr(), Duration::from_secs(10)) {
        Ok(conn) => Some(conn),
        Err(e) => {
            report.fail(format!("connect: {e}"));
            None
        }
    };
    let mut session = None;
    if let Some(conn) = conn.as_mut() {
        report.requests += 2;
        if let Err(e) = conn.hello(&format!("tenant-{c}")) {
            report.fail(format!("hello: {e}"));
        }
        let t = Instant::now();
        match conn.register(c as u32, SQL[c]) {
            Ok(Response::Registered { session: id, .. }) => {
                report.register_ms.push(t.elapsed().as_secs_f64() * 1e3);
                session = Some(id);
            }
            other => report.fail(format!("register: {other:?}")),
        }
    }
    barriers[0].wait();

    if let Some(conn) = conn.as_mut() {
        for _ in 0..probes {
            report.requests += 2;
            let t = Instant::now();
            match conn.register(c as u32, PROBE_SQL) {
                Ok(Response::Registered { session: id, .. }) => {
                    report.register_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    match conn.cancel(id) {
                        Ok(Response::Cancelled {
                            was_active: true, ..
                        }) => {}
                        other => report.fail(format!("cancel probe: {other:?}")),
                    }
                }
                other => report.fail(format!("register probe: {other:?}")),
            }
        }
    }
    barriers[1].wait();

    if let (Some(conn), Some(id)) = (conn.as_mut(), session) {
        for _ in 0..iterations {
            report.requests += 2;
            let t0 = Instant::now();
            match conn.advance(1) {
                Ok(Response::Advanced { epochs: 1, .. }) => {
                    report.advances.push((t0, Instant::now()))
                }
                other => report.fail(format!("advance: {other:?}")),
            }
            let t0 = Instant::now();
            match conn.poll(id, POLL_MAX) {
                Ok(outcome) => {
                    let t1 = Instant::now();
                    report.keep_answers(&outcome);
                    report.polls.push((t0, t1, outcome));
                }
                Err(e) => report.fail(format!("poll: {e}")),
            }
        }
    }
    barriers[2].wait();

    if let (Some(conn), Some(_)) = (conn.as_mut(), session) {
        for _ in 0..warm {
            report.requests += 1;
            let t0 = Instant::now();
            match conn.advance(1) {
                Ok(Response::Advanced { epochs: 1, .. }) => report
                    .warm_advance_ms
                    .push(t0.elapsed().as_secs_f64() * 1e3),
                other => report.fail(format!("advance: {other:?}")),
            }
        }
    }
    barriers[3].wait();

    if let (Some(mut conn), Some(id)) = (conn, session) {
        loop {
            report.requests += 1;
            match conn.poll(id, POLL_MAX) {
                Ok(outcome) => {
                    report.keep_answers(&outcome);
                    if outcome.pending == 0 {
                        break;
                    }
                }
                Err(e) => {
                    report.fail(format!("drain poll: {e}"));
                    break;
                }
            }
        }
        report.requests += 2;
        match conn.cancel(id) {
            Ok(Response::Cancelled {
                was_active: true, ..
            }) => {}
            other => report.fail(format!("cancel: {other:?}")),
        }
        if let Err(e) = conn.bye() {
            report.fail(format!("bye: {e}"));
        }
    }
    report
}

/// The twin fleet: the same sessions on the same deployments, advanced `epochs`
/// epochs one at a time in process with `EngineFleet::run_epochs(1)`, as the
/// server does for an `Advance(1)`; its timings give the traced run's engine
/// layers.
struct Twin {
    results: Vec<Vec<TopKResult>>,
    poll_us: Samples,
}

fn twin(seed: u64, epochs: usize, tracer: &mut Tracer) -> Result<Twin, String> {
    let fleet = fleet(seed);
    let mut sessions: Vec<Session> = Vec::new();
    for (d, sql) in SQL.iter().enumerate() {
        let t = Instant::now();
        let session = fleet
            .try_register(d, sql)
            .map_err(|e| format!("twin register: {e}"))?;
        tracer.span("engine.register", 0, None, t);
        // Parse and plan timed again on their own, right after the registration
        // that ran them.  The difference is the engine's part.
        let t = Instant::now();
        let plan = parse(sql).and_then(|q| classify(&q));
        tracer.span("query.parse", 0, None, t);
        let _ = std::hint::black_box(plan);
        sessions.push(session);
    }
    let mut poll_us = Samples::default();
    let mut results = vec![Vec::new(); sessions.len()];
    for epoch in 0..epochs {
        let t = Instant::now();
        fleet.run_epochs(1);
        tracer.span("fleet.run_epochs", epoch as u64, None, t);
        for (s, out) in sessions.iter_mut().zip(results.iter_mut()) {
            let t = Instant::now();
            let answers = s.poll();
            poll_us.push(tracer.span("engine.poll", epoch as u64, None, t) as f64 / 1e3);
            out.extend(answers);
        }
    }
    Ok(Twin { results, poll_us })
}

fn same_answer(got: &(u64, Vec<(u64, f64)>), want: &TopKResult) -> bool {
    got.0 == want.epoch
        && got.1.len() == want.items.len()
        && got
            .1
            .iter()
            .zip(&want.items)
            .all(|(g, w)| g.0 == w.key && g.1.to_bits() == w.value.to_bits())
}

#[derive(Default)]
struct Measures {
    setup_s: Samples,
    register_ms: Samples,
    /// Back-to-back advances.
    advance_ms: Samples,
    /// The measured phase's advances, each after a poll.
    advance_after_poll_ms: Samples,
    poll_ms: Samples,
    /// One iteration of the measured phase: `Advance` sent to `Flushed` received.
    step_ms: Samples,
    /// Per connection and round: the median step over the last tenth ÷ over the
    /// first tenth.
    growth: Vec<f64>,
    phase: Duration,
    phase_requests: u64,
    epochs: u64,
    rounds: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    twin_poll_us: Samples,
    /// Per input: the fleet's ledger totals and deployment-epochs, and the
    /// sessions retained and active before the drain.
    facts: BTreeMap<usize, (PhaseTotals, u64, usize, usize)>,
    /// Traced rounds only: every measured poll with its interval.
    polls: Vec<(Instant, Instant, PollOutcome)>,
}

impl Measures {
    fn requests_per_s(&self) -> f64 {
        self.phase_requests as f64 / self.phase.as_secs_f64()
    }

    /// Messages, bytes and energy (mJ) per deployment-epoch over one cycle.
    fn sim(&self) -> (f64, f64, f64) {
        let epochs = self.facts.values().map(|f| f.1).sum::<u64>().max(1) as f64;
        let sum =
            |f: fn(&PhaseTotals) -> f64| self.facts.values().map(|x| f(&x.0)).sum::<f64>() / epochs;
        (
            sum(|t| t.messages as f64),
            sum(|t| t.bytes as f64),
            sum(|t| t.energy_uj / 1e3),
        )
    }

    /// Mean over the inputs of the sessions retained and active.
    fn sessions(&self) -> (f64, f64) {
        let n = self.facts.len().max(1) as f64;
        let retained = self.facts.values().map(|f| f.2 as f64).sum::<f64>() / n;
        (
            retained,
            self.facts.values().map(|f| f.3 as f64).sum::<f64>() / n,
        )
    }

    fn describe(&self, out: &mut Outcome) {
        out.note("rounds", self.rounds);
        out.note("peak_rss_mib_at_exit", peak_rss_mib());
        out.note("epochs", self.epochs);
        out.note("samples.setup_s", self.setup_s.describe());
        out.note("samples.register_ms", self.register_ms.describe());
        out.note("samples.advance_ms", self.advance_ms.describe());
        out.note(
            "samples.advance_after_poll_ms",
            self.advance_after_poll_ms.describe(),
        );
        out.note("samples.poll_ms", self.poll_ms.describe());
        out.note("samples.step_ms", self.step_ms.describe());
        out.note("inputs", self.facts.len());
        for (i, why) in self.failures.iter().take(8).enumerate() {
            out.note(format!("failure.{i}"), why);
        }
    }
}

fn round(
    config: &Config,
    input: usize,
    seed: u64,
    m: &mut Measures,
    keep_polls: bool,
    tracer: &mut Tracer,
) {
    let iterations = config.size.wire_iterations;
    let probes = config.size.wire_register_probes;
    let warm = config.size.wire_warm_advances;
    let t = Instant::now();
    let server = match WireServer::start(
        fleet(seed),
        ServeConfig {
            workers: 2,
            pacer: None,
            ..ServeConfig::default()
        },
    ) {
        Ok(server) => server,
        Err(e) => {
            m.attempted += 1;
            m.failed += 1;
            m.failures.push(format!("server start: {e}"));
            return;
        }
    };
    let barriers: [Barrier; 4] = std::array::from_fn(|_| Barrier::new(CONNECTIONS + 1));
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (server, barriers) = (&server, &barriers);
                scope.spawn(move || client(server, c, iterations, probes, warm, barriers))
            })
            .collect();
        barriers[0].wait();
        m.setup_s.push(t.elapsed().as_secs_f64());
        barriers[1].wait();
        let start = Instant::now();
        barriers[2].wait();
        let phase = start.elapsed();
        barriers[3].wait();
        let engines = (0..DEPLOYMENTS).filter_map(|d| server.fleet().deployment(d));
        let retained = engines.map(|e| e.session_ids().len()).sum::<usize>();
        let active = server.fleet().active_sessions();
        let reports: Vec<ClientReport> = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        (reports, phase, retained, active)
    });
    let (reports, phase, retained, active) = reports;
    let fleet = server.shutdown();

    let advanced = (CONNECTIONS * (iterations + warm)) as u64;
    m.rounds += 1;
    m.epochs += (CONNECTIONS * iterations) as u64;
    m.phase += phase;
    let mut totals = PhaseTotals::default();
    for d in 0..DEPLOYMENTS {
        if let Some(engine) = fleet.deployment(d) {
            let t = engine.metrics().totals();
            totals.messages += t.messages;
            totals.bytes += t.bytes;
            totals.energy_uj += t.energy_uj;
        }
    }
    m.facts.insert(
        input,
        (totals, DEPLOYMENTS as u64 * advanced, retained, active),
    );

    // The expected answers: the twin fleet advanced as far in process.
    let mut expected = match twin(seed, advanced as usize, tracer) {
        Ok(twin) => {
            m.twin_poll_us.extend(&twin.poll_us);
            twin.results
        }
        Err(e) => {
            m.attempted += 1;
            m.failed += 1;
            m.failures.push(e);
            return;
        }
    };
    if config.corrupt_expected && input == 0 {
        if let Some(item) = expected[0]
            .get_mut(advanced as usize / 2)
            .and_then(|r| r.items.first_mut())
        {
            item.value += 1.0;
        }
    }

    for (c, report) in reports.into_iter().enumerate() {
        m.attempted += report.requests;
        m.phase_requests += 2 * report.advances.len() as u64;
        for ms in &report.register_ms {
            m.register_ms.push(*ms);
        }
        for ms in &report.warm_advance_ms {
            m.advance_ms.push(*ms);
        }
        let mut steps = Samples::default();
        for ((a0, a1), (_, p1, _)) in report.advances.iter().zip(&report.polls) {
            m.advance_after_poll_ms
                .push((*a1 - *a0).as_secs_f64() * 1e3);
            steps.push((*p1 - *a0).as_secs_f64() * 1e3);
        }
        let (first, last) = steps.tenths();
        m.growth.push(last / first);
        m.step_ms.extend(&steps);
        for (t0, t1, outcome) in report.polls {
            m.poll_ms.push((t1 - t0).as_secs_f64() * 1e3);
            if keep_polls {
                m.polls.push((t0, t1, outcome));
            }
        }
        let mut failed = report.failures.len() as u64;
        m.failures.extend(report.failures);
        if report.answers.len() as u64 != advanced {
            failed += 1;
            m.failures.push(format!(
                "connection {c}: {} answers, expected exactly {advanced}",
                report.answers.len()
            ));
        }
        let wrong = report
            .answers
            .iter()
            .zip(&expected[c])
            .filter(|(g, w)| !same_answer(g, w))
            .count();
        if wrong > 0 {
            failed += wrong as u64;
            m.failures.push(format!(
                "connection {c}: {wrong} answers differ from the twin fleet's"
            ));
        }
        m.failed += failed;
    }
}

/// `wire-poll` (module docs).
pub fn run_wire_poll(config: &Config) -> Result<Outcome, String> {
    let seeds = inputs(config.seed, config.size.wire_inputs);
    let mut out = Outcome::default();
    out.note(
        "workload.iterations_per_connection",
        config.size.wire_iterations,
    );
    out.note(
        "workload.register_probes_per_connection",
        config.size.wire_register_probes,
    );
    out.note(
        "workload.back_to_back_advances_per_connection",
        config.size.wire_warm_advances,
    );
    if !config.trace {
        let mut m = Measures::default();
        let mut quiet = Tracer::default();
        let mut rss = 0.0;
        cycles(config.budget, seeds.len(), |i| {
            round(config, i, seeds[i], &mut m, false, &mut quiet);
            // Memory is read after the first cycle, a fixed amount of work.
            if i + 1 == seeds.len() && rss == 0.0 {
                rss = peak_rss_mib();
            }
        });
        let (step_tail, _) = m.step_ms.tail();
        let (poll_tail, _) = m.poll_ms.tail();
        // `register_ms_p99` repeats `register_ms_p50`: a registration crosses
        // three threads, and its tail is the host's (its quartile spread over
        // ten seeds reached 3.0); the tail stays in the run record as
        // `samples.register_ms`.
        let values = [
            ("setup_s", m.setup_s.median()),
            ("epochs_per_s", m.epochs as f64 / m.phase.as_secs_f64()),
            ("epoch_ms_p50", m.step_ms.median()),
            ("epoch_ms_p99", step_tail),
            ("epoch_cost_growth", median(&m.growth)),
            ("register_ms_p50", m.register_ms.median()),
            ("register_ms_p99", m.register_ms.median()),
            ("requests_per_s", m.requests_per_s()),
            ("poll_ms_p50", m.poll_ms.median()),
            ("poll_ms_p99", poll_tail),
            ("advance_ms_p50", m.advance_ms.median()),
            ("peak_rss_mib", rss),
            ("sim_bytes_per_epoch", m.sim().1),
            ("sim_energy_mj_per_epoch", m.sim().2),
        ];
        out.set_metrics(END_TO_END, &values);
        m.describe(&mut out);
        out.attempted = m.attempted;
        out.failed = m.failed;
        return Ok(out);
    }

    // Untraced and traced rounds alternate; only the traced rounds' twin fleets
    // record spans.
    let (mut plain, mut traced) = (Measures::default(), Measures::default());
    let (mut quiet, mut tracer) = (Tracer::default(), Tracer::new(20_000));
    cycles(config.budget, seeds.len(), |i| {
        round(config, i, seeds[i], &mut plain, false, &mut quiet);
        round(config, i, seeds[i], &mut traced, true, &mut tracer);
    });

    // The protocol layer, timed on the frames the client received: each poll's
    // answers and its closing `Flushed`, encoded and decoded again.
    let (mut encode_us, mut decode_us, mut bytes) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut proto_failures = 0u64;
    for (i, (t0, t1, outcome)) in traced.polls.iter().enumerate() {
        let parent = tracer.reserve();
        tracer.record(parent, "wire.poll", i as u64, None, *t0, *t1);
        let session = outcome.answers.first().map_or(0, |a| match a {
            Response::Answer { session, .. } => *session,
            _ => 0,
        });
        let flushed = Response::Flushed {
            session,
            delivered: outcome.delivered,
            pending: outcome.pending,
            status: outcome.status,
        };
        let (mut enc, mut dec, mut size) = (0u64, 0u64, 0usize);
        for resp in outcome.answers.iter().chain(std::iter::once(&flushed)) {
            let t = Instant::now();
            let Ok(frame) = encode_response(resp) else {
                proto_failures += 1;
                continue;
            };
            enc += tracer.span("proto.encode", i as u64, Some(parent), t);
            size += frame.len();
            let t = Instant::now();
            let mut buf = frame;
            let decoded = extract_frame(&mut buf, DEFAULT_MAX_FRAME_BYTES)
                .ok()
                .flatten()
                .map(|body| decode_response(&body));
            dec += tracer.span("proto.decode", i as u64, Some(parent), t);
            if !matches!(decoded, Some(Ok(ref r)) if r == resp) {
                proto_failures += 1;
            }
        }
        encode_us.push(enc as f64 / 1e3);
        decode_us.push(dec as f64 / 1e3);
        bytes.push(size as f64);
    }
    let residual_ms = traced.poll_ms.median()
        - (traced.twin_poll_us.median() + encode_us.median() + decode_us.median()) / 1e3;
    let parse_us = tracer.mean_us("query.parse");
    let values = [
        ("query.parse_us", parse_us),
        (
            "engine.register_self_us",
            tracer.mean_us("engine.register") - parse_us,
        ),
        ("engine.epoch_self_us", 0.0),
        ("engine.poll_us", traced.twin_poll_us.mean()),
        ("engine.sessions_retained", traced.sessions().0),
        ("engine.sessions_active", traced.sessions().1),
        ("net.workload_us", 0.0),
        ("net.begin_epoch_us", 0.0),
        ("net.flush_frames_us", 0.0),
        ("net.frames_flushed", 0.0),
        ("net.window_feed_us", 0.0),
        ("net.sim_messages", traced.sim().0),
        ("net.sim_bytes", traced.sim().1),
        ("algos.mint_us", 0.0),
        ("algos.tag_us", 0.0),
        ("algos.fila_us", 0.0),
        ("algos.tja_us", 0.0),
        ("store.checkpoint_us", 0.0),
        ("store.restore_us", 0.0),
        ("store.stored_bytes", 0.0),
        ("fleet.run_epochs_us", tracer.mean_us("fleet.run_epochs")),
        ("proto.encode_us", encode_us.mean()),
        ("proto.decode_us", decode_us.mean()),
        ("proto.bytes_per_poll", bytes.mean()),
        ("wire.poll_residual_ms", residual_ms),
        (
            "trace.overhead_frac",
            1.0 - traced.requests_per_s() / plain.requests_per_s(),
        ),
    ];
    out.set_metrics(PER_LAYER, &values);
    traced.describe(&mut out);
    out.note(
        "trace.untraced_requests_per_s",
        format!("{:.3}", plain.requests_per_s()),
    );
    out.note(
        "trace.traced_requests_per_s",
        format!("{:.3}", traced.requests_per_s()),
    );
    out.note("trace.twin_poll_us", traced.twin_poll_us.describe());
    out.note("trace.spans_recorded_not_kept", tracer.dropped());
    out.spans = tracer.to_json_lines();
    out.attempted = plain.attempted + traced.attempted + traced.polls.len() as u64;
    out.failed = plain.failed + traced.failed + proto_failures;
    Ok(out)
}
