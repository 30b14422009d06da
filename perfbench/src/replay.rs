//! The layer-replay driver: one engine epoch rebuilt from the public calls of
//! `kspot-net`, `kspot-algos` and `kspot-store`, so each layer can be timed from
//! the benchmark's own code.
//!
//! [`Replay`] owns a substrate built from the same seeds as the engine it shadows
//! and keeps the same session table: sessions are numbered in registration order,
//! continuous sessions run once per epoch, `LIFETIME` expires them, historic
//! sessions answer once from the shared windows (or, with `AS OF`, from a restored
//! checkpoint) and complete.  Its answers are only trusted once they equal the
//! engine's byte for byte, session by session and epoch by epoch — the replay gate
//! of the traced run.

use crate::trace::Tracer;
use kspot_algos::historic::HistoricAlgorithm;
use kspot_algos::{
    BankWindows, FilaMonitor, HistoricSpec, MintViews, SnapshotAlgorithm, SnapshotSpec, TagTopK,
    Tja, TopKResult,
};
use kspot_core::ScenarioConfig;
use kspot_net::{Epoch, Network, ValueDomain, WindowBank, Workload};
use kspot_query::plan::{classify, ExecutionStrategy};
use kspot_query::{parse, AggFunc};
use kspot_store::CheckpointStore;
use std::collections::BTreeMap;
use std::time::Instant;

/// The bytes an answer is compared by: session id, epoch, then every ranked
/// `(key, value)` with the value's exact bit pattern.
pub fn answer_bytes(session: u32, result: &TopKResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 16 * result.items.len());
    out.extend_from_slice(&session.to_le_bytes());
    out.extend_from_slice(&result.epoch.to_le_bytes());
    for item in &result.items {
        out.extend_from_slice(&item.key.to_le_bytes());
        out.extend_from_slice(&item.value.to_bits().to_le_bytes());
    }
    out
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The span a continuous strategy's execution is recorded under.
fn strategy_span(strategy: ExecutionStrategy) -> &'static str {
    match strategy {
        ExecutionStrategy::SnapshotTopK => "algos.mint",
        ExecutionStrategy::InNetworkAggregate => "algos.tag",
        _ => "algos.fila",
    }
}

enum Exec {
    Continuous {
        algorithm: Box<dyn SnapshotAlgorithm>,
        span: &'static str,
    },
    Historic {
        algorithm: Box<dyn HistoricAlgorithm>,
        window: usize,
    },
}

struct ReplaySession {
    exec: Exec,
    lifetime: Option<u64>,
    as_of: Option<Epoch>,
    registered_at: u64,
    active: bool,
}

impl ReplaySession {
    fn expire_if_due(&mut self, now: u64) {
        if let (true, Some(lifetime)) = (self.active, self.lifetime) {
            if now.saturating_sub(self.registered_at) >= lifetime {
                self.active = false;
            }
        }
    }
}

/// What one replayed epoch produced.
pub struct EpochReplay {
    /// `(session, answer)` for every session that answered, in session order.
    pub answers: Vec<(u32, TopKResult)>,
    /// Sum of the child spans recorded for the epoch, in ns.
    pub children_ns: u64,
    /// Report frames the scheduler held before the end-of-epoch flush.
    pub frames_flushed: usize,
}

/// The replay driver (module docs).
pub struct Replay {
    net: Network,
    workload: Workload,
    domain: ValueDomain,
    clusters: usize,
    sessions: BTreeMap<u32, ReplaySession>,
    next_id: u32,
    epochs_run: u64,
    windows: Option<WindowBank>,
    store: Option<CheckpointStore>,
}

impl Replay {
    /// A replay over an explicitly built substrate (the same one handed to
    /// `QueryEngine::from_substrate`), checkpointing at `cadence` when given.
    pub fn new(
        scenario: &ScenarioConfig,
        net: Network,
        workload: Workload,
        cadence: Option<u64>,
    ) -> Self {
        Self {
            net,
            workload,
            domain: scenario.domain,
            clusters: scenario.num_clusters().max(1),
            sessions: BTreeMap::new(),
            next_id: 0,
            epochs_run: 0,
            windows: None,
            store: cadence.map(CheckpointStore::new),
        }
    }

    /// The substrate (for its metrics).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Admits a query with the engine's routing: MINT for grouped Top-K, TAG for
    /// plain aggregation, FILA for node monitoring, TJA for `WITH HISTORY` ranking.
    /// Other strategies are outside what the benchmark's workloads register.
    pub fn register(&mut self, sql: &str) -> Result<u32, String> {
        let plan = parse(sql)
            .and_then(|q| classify(&q))
            .map_err(|e| e.to_string())?;
        let domain = self.domain;
        let exec = match plan.strategy {
            ExecutionStrategy::SnapshotTopK => {
                let spec = SnapshotSpec::from_plan(&plan, domain).map_err(|e| e.to_string())?;
                Exec::Continuous {
                    algorithm: Box::new(MintViews::new(spec)),
                    span: strategy_span(plan.strategy),
                }
            }
            ExecutionStrategy::InNetworkAggregate => {
                let func = plan
                    .aggregate
                    .ok_or("an aggregate query needs an aggregate")?;
                let spec = SnapshotSpec::new(self.clusters, func, domain);
                Exec::Continuous {
                    algorithm: Box::new(TagTopK::new(spec)),
                    span: strategy_span(plan.strategy),
                }
            }
            ExecutionStrategy::NodeMonitoringTopK => {
                let spec = SnapshotSpec::new(plan.k.max(1) as usize, AggFunc::Max, domain);
                Exec::Continuous {
                    algorithm: Box::new(FilaMonitor::new(spec)),
                    span: strategy_span(plan.strategy),
                }
            }
            ExecutionStrategy::HistoricVerticalTopK => {
                let func = plan
                    .aggregate
                    .ok_or("a historic ranked query needs an aggregate")?;
                let window = plan.history_epochs.unwrap_or(0) as usize;
                let spec = HistoricSpec::new(plan.k.max(1) as usize, func, domain, window);
                Exec::Historic {
                    algorithm: Box::new(Tja::new(spec)),
                    window,
                }
            }
            other => return Err(format!("the replay does not route {other:?} plans")),
        };
        if let Some(epoch) = plan.as_of_epoch {
            let retained = self
                .store
                .as_ref()
                .is_some_and(|s| s.snapshot_epochs().contains(&epoch));
            if !retained {
                return Err(format!("AS OF {epoch} names no retained checkpoint"));
            }
        } else if let Exec::Historic { window, .. } = &exec {
            match self.windows.as_mut() {
                Some(bank) => bank.grow_capacity(*window),
                None => self.windows = Some(WindowBank::new(*window)),
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            ReplaySession {
                exec,
                lifetime: plan.lifetime_epochs,
                as_of: plan.as_of_epoch,
                registered_at: self.epochs_run,
                active: true,
            },
        );
        Ok(id)
    }

    /// Cancels a session; `false` when it was no longer active.
    pub fn cancel(&mut self, id: u32) -> bool {
        match self.sessions.get_mut(&id) {
            Some(s) if s.active => {
                s.active = false;
                true
            }
            _ => false,
        }
    }

    /// Runs one epoch, recording a span per layer call under `parent`.
    pub fn run_epoch(&mut self, tracer: &mut Tracer, trace: u64, parent: u64) -> EpochReplay {
        let p = Some(parent);
        let mut children = 0u64;

        let t = Instant::now();
        let readings = self.workload.next_epoch();
        children += tracer.span("net.workload", trace, p, t);
        let epoch = readings.first().map(|r| r.epoch).unwrap_or(0);

        let t = Instant::now();
        self.net.begin_epoch(epoch);
        children += tracer.span("net.begin_epoch", trace, p, t);

        if let Some(bank) = self.windows.as_mut() {
            let t = Instant::now();
            bank.feed(&readings);
            for r in &readings {
                self.net.charge_cpu(r.node, 1);
            }
            children += tracer.span("net.window_feed", trace, p, t);
            if let Some(store) = self.store.as_mut() {
                if store.due(bank.epochs_fed()) {
                    let t = Instant::now();
                    store.checkpoint(bank, epoch, &mut self.net);
                    children += tracer.span("store.checkpoint", trace, p, t);
                }
            }
        }

        let now = self.epochs_run;
        let mut answers = Vec::new();
        for (&id, session) in self.sessions.iter_mut() {
            session.expire_if_due(now);
            if !session.active {
                continue;
            }
            match &mut session.exec {
                Exec::Continuous { algorithm, span } => {
                    self.net.set_query_scope(Some(id));
                    let t = Instant::now();
                    let result = algorithm.execute_epoch(&mut self.net, &readings);
                    children += tracer.span(span, trace, p, t);
                    answers.push((id, result));
                }
                Exec::Historic { algorithm, window } => {
                    if let Some(at) = session.as_of {
                        let store = self
                            .store
                            .as_ref()
                            .expect("AS OF sessions register only with a store");
                        self.net.set_query_scope(Some(id));
                        let t = Instant::now();
                        let restored = store.restore(at, *window, &mut self.net);
                        children += tracer.span("store.restore", trace, p, t);
                        if let Ok(mut view) = restored {
                            let t = Instant::now();
                            let result = algorithm.execute(&mut self.net, &mut view);
                            children += tracer.span("algos.tja", trace, p, t);
                            answers.push((id, result));
                        }
                        session.active = false;
                        continue;
                    }
                    let bank = self
                        .windows
                        .as_mut()
                        .expect("historic sessions imply a window bank");
                    if bank.buffered_epochs() >= *window {
                        self.net.set_query_scope(Some(id));
                        let t = Instant::now();
                        let mut view = BankWindows::new(bank, *window);
                        let result = algorithm.execute(&mut self.net, &mut view);
                        children += tracer.span("algos.tja", trace, p, t);
                        answers.push((id, result));
                        session.active = false;
                    }
                }
            }
        }
        self.net.set_query_scope(None);
        let frames_flushed = self.net.pending_report_frames();
        let t = Instant::now();
        self.net.flush_frames();
        children += tracer.span("net.flush_frames", trace, p, t);

        self.epochs_run += 1;
        for session in self.sessions.values_mut() {
            session.expire_if_due(self.epochs_run);
        }
        EpochReplay {
            answers,
            children_ns: children,
            frames_flushed,
        }
    }
}
