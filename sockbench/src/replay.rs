//! The serial in-process replay: the correctness reference of every run,
//! and the traced run that attributes a query's time to layers.
//!
//! It assembles the same pipeline `payless-server` runs for
//! `POST /v1/query` — the serve layer's shared state, coalescer, batch
//! planner, metrics hub, event journal and, for a durable workload, the
//! durable store — from the layers' public items, and calls each layer's
//! entry point itself, timing every call. No code inside the program is
//! instrumented; the benchmark's own timers sit around the calls.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use payless_events::{EventJournal, EventKind, EventsConfig, Severity};
use payless_exec::{BatchConfig, BatchPlanner, CallCoalescer, ExecConfig, Executor, SharedState};
use payless_geometry::QuerySpace;
use payless_json::FromJson;
use payless_market::DataMarket;
use payless_metrics::{MetricsConfig, MetricsHub};
use payless_optimizer::{optimize, OptimizerConfig, PlanNode};
use payless_semantic::{
    Consistency, RewriteConfig, SemanticStore, SharedSemanticStore, StoreConfig,
};
use payless_server::persist::{DurableStore, PersistConfig};
use payless_sql::{analyze, parse, MapCatalog, SelectStmt, TableLocation};
use payless_stats::StatsRegistry;
use payless_storage::Database;
use payless_telemetry::{OperatorActual, Recorder};
use payless_types::{Row, Value};
use payless_workload::{QueryWorkload, RealWorkload};

use crate::client::request_bytes;
use crate::load::{Query, Workload};

/// Nanoseconds a traced query spent in each layer, in path order. Each
/// layer's timer covers only the calls named here; whatever runs between
/// them (the replay's own bookkeeping, timer overhead, moving values from
/// one call to the next) is left out, as `trace.other_us`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `http::read_request` on the request bytes.
    pub http_read: i64,
    /// `payless_json::parse` of the body and its field extraction.
    pub json_parse: i64,
    /// The serve layer's own per-query work: `Recorder::enabled` and
    /// `take`, the query's two journal events, the hub's serve counters,
    /// and building the execution and optimizer configs and the
    /// `Executor`.
    pub serve_glue: i64,
    /// `SelectStmt::bind`.
    pub sql_bind: i64,
    /// `payless_sql::analyze`.
    pub sql_analyze: i64,
    /// `SharedSemanticStore::snapshot`.
    pub semantic_snapshot: i64,
    /// `SharedState::stats_snapshot`.
    pub stats_snapshot: i64,
    /// `payless_optimizer::optimize`.
    pub optimizer: i64,
    /// Self time of fetch operators, less their share of market and persist
    /// time.
    pub exec_access_self: i64,
    /// Self time of local join operators.
    pub exec_join_self: i64,
    /// Self time of bind-join operators, less their share of market and
    /// persist time.
    pub exec_bindjoin_self: i64,
    /// `Executor::execute` outside the root operator (result shaping).
    pub exec_other: i64,
    /// Market calls, as the metrics hub times them.
    pub market: i64,
    /// `DurableStore::append` and `append_rows`, through the observers.
    pub persist_append: i64,
    /// `payless_market::encode_rows` of the result.
    pub wire_encode: i64,
    /// The response headers, built, and `http::write_response` into a
    /// buffer.
    pub http_write: i64,
    /// `payless_market::decode_rows` of the response body.
    pub wire_decode: i64,
    /// `DurableStore::maybe_snapshot`, the snapshotter's check.
    pub persist_snapshot: i64,
}

impl Stages {
    /// `(name, nanoseconds)` per layer; each names a `trace.<name>_us`
    /// metric (`persist_snapshot` is reported in ms).
    pub fn named(&self) -> [(&'static str, i64); 18] {
        [
            ("http_read", self.http_read),
            ("json_parse", self.json_parse),
            ("serve_glue", self.serve_glue),
            ("sql_bind", self.sql_bind),
            ("sql_analyze", self.sql_analyze),
            ("semantic_snapshot", self.semantic_snapshot),
            ("stats_snapshot", self.stats_snapshot),
            ("optimizer", self.optimizer),
            ("exec_access_self", self.exec_access_self),
            ("exec_join_self", self.exec_join_self),
            ("exec_bindjoin_self", self.exec_bindjoin_self),
            ("exec_other", self.exec_other),
            ("market", self.market),
            ("persist_append", self.persist_append),
            ("wire_encode", self.wire_encode),
            ("http_write", self.http_write),
            ("wire_decode", self.wire_decode),
            ("persist_snapshot", self.persist_snapshot),
        ]
    }
}

/// One replayed query: its answer digest, pages billed, and (when timed)
/// where its time went.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Order-insensitive digest of the decoded result rows.
    pub digest: u64,
    /// Pages billed to the query.
    pub pages: u64,
    /// Where its time went. Execution self times have the query's market
    /// and persist time taken out, so one kind can read negative when the
    /// split by calls is uneven.
    pub stages: Stages,
    /// The whole traced pipeline, nanoseconds.
    pub wall: u64,
    /// Plans the optimizer costed.
    pub plans_considered: u64,
    /// Bounding boxes Algorithm 1 enumerated.
    pub boxes_enumerated: u64,
    /// Bounding boxes kept after pruning.
    pub boxes_kept: u64,
    /// Rows every plan operator produced, summed.
    pub op_rows: u64,
}

/// The assembled pipeline.
pub struct Replay {
    market: Arc<DataMarket>,
    catalog: MapCatalog,
    state: SharedState,
    coalescer: CallCoalescer,
    batcher: Option<BatchPlanner>,
    hub: Arc<MetricsHub>,
    journal: Arc<EventJournal>,
    templates: Vec<SelectStmt>,
    durable: Option<Arc<DurableStore>>,
    /// Nanoseconds spent in the durable store's append paths.
    persist_nanos: Arc<AtomicU64>,
    rewrite: RewriteConfig,
    clock: u64,
}

impl Replay {
    /// Build the pipeline `workload`'s server runs, over `data`. A durable
    /// workload keeps its log and snapshots under `dir`, which must not
    /// exist yet.
    pub fn new(workload: Workload, data: &RealWorkload, dir: &Path) -> Result<Replay, String> {
        let market = Arc::new(payless_core::build_market(data, 1));
        let hub = Arc::new(MetricsHub::new(MetricsConfig::default()));
        let journal = EventJournal::from_config(&EventsConfig::default());

        // As `Serve::with_store`: every market table, then the locals.
        let mut catalog = MapCatalog::new();
        let mut stats = StatsRegistry::new();
        let mut store = SemanticStore::new();
        store.set_config(StoreConfig::default());
        let mut db = Database::new();
        let mut spaces = Vec::new();
        for name in market.table_names() {
            let schema = market.schema(&name).expect("listed table").clone();
            let cardinality = market.cardinality(&name).expect("listed table");
            catalog.add(schema.clone(), TableLocation::Market);
            stats.register(&schema, cardinality);
            spaces.push(QuerySpace::of(&schema));
            store.register(QuerySpace::of(&schema));
        }
        for t in data.local_tables() {
            catalog.add(t.schema.clone(), TableLocation::Local);
            stats.register(&t.schema, t.len() as u64);
            db.register(t.clone());
        }
        let state = SharedState::new(db, SharedSemanticStore::new(store), stats);
        state.store().attach_metrics(Arc::clone(&hub));
        state.store().attach_events(Arc::clone(&journal));
        let coalescer = CallCoalescer::with_metrics(Arc::clone(&hub));
        let batcher = workload.batch().then(|| {
            BatchPlanner::with_metrics(BatchConfig::default(), Arc::clone(&hub))
                .with_events(Arc::clone(&journal))
        });

        // As `Server::start`, with timers around the durable store's two
        // append paths.
        let persist_nanos = Arc::new(AtomicU64::new(0));
        let durable = if workload.durable() {
            if dir.exists() {
                return Err(format!("{} already exists", dir.display()));
            }
            let (durable, _, _) = DurableStore::open(dir, PersistConfig::default(), &spaces)?;
            let durable = Arc::new(durable);
            let (d, nanos) = (Arc::clone(&durable), Arc::clone(&persist_nanos));
            state
                .store()
                .attach_observer(Arc::new(move |table, region, now, spend| {
                    let t0 = Instant::now();
                    d.append(table, region, now, spend);
                    nanos.fetch_add(elapsed(t0), Ordering::Relaxed);
                }));
            let (d, nanos) = (Arc::clone(&durable), Arc::clone(&persist_nanos));
            state.attach_row_observer(Arc::new(move |table: &str, rows: &[Row]| {
                let t0 = Instant::now();
                d.append_rows(table, rows);
                nanos.fetch_add(elapsed(t0), Ordering::Relaxed);
            }));
            Some(durable)
        } else {
            None
        };

        let templates = data
            .templates()
            .iter()
            .map(|sql| parse(sql))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("workload template: {e}"))?;
        Ok(Replay {
            market,
            catalog,
            state,
            coalescer,
            batcher,
            hub,
            journal,
            templates,
            durable,
            persist_nanos,
            rewrite: RewriteConfig::exact(),
            clock: 0,
        })
    }

    /// Replay one query the way the server answers `POST /v1/query`,
    /// timing each layer's entry point.
    pub fn run(&mut self, q: &Query) -> Result<Traced, String> {
        let mut t = Traced::default();
        let st = &mut t.stages;
        let bytes = request_bytes("127.0.0.1:0", "POST", "/v1/query", q.body.as_bytes());
        let wall = Instant::now();

        // server: request parse
        let req = timed(&mut st.http_read, || {
            payless_server::http::read_request(&mut &bytes[..])
        })
        .map_err(|e| format!("read_request: {e}"))?
        .ok_or("read_request: no request")?;

        // json: body parse and field extraction
        let (template, params) = timed(&mut st.json_parse, || {
            let text = std::str::from_utf8(&req.body).map_err(|e| format!("body: {e}"))?;
            let j = payless_json::parse(text).map_err(|e| format!("body: {e}"))?;
            let template = j
                .get("template")
                .and_then(|v| v.as_u64())
                .map_err(|e| format!("template: {e}"))? as usize;
            let params: Vec<Value> = j
                .get("params")
                .and_then(FromJson::from_json)
                .map_err(|e| format!("params: {e}"))?;
            Ok::<_, String>((template, params))
        })?;
        let stmt = self
            .templates
            .get(template)
            .ok_or_else(|| format!("template {template} out of range"))?;

        // The serve layer's per-query preamble (as `run_query_traced`).
        self.clock += 1;
        let now = self.clock;
        let (recorder, exec_cfg) = timed(&mut st.serve_glue, || {
            self.journal
                .emit(Some(now), Severity::Info, || EventKind::QueryStart);
            let recorder = Recorder::enabled();
            let exec_cfg = ExecConfig {
                sqr: true,
                rewrite: self.rewrite.clone(),
                consistency: Consistency::Weak,
                recorder: Some(recorder.clone()),
                retry: payless_exec::RetryPolicy::default(),
                synthesize_ledger: true,
                metrics: Some(Arc::clone(&self.hub)),
                events: Some(Arc::clone(&self.journal)),
            };
            (recorder, exec_cfg)
        });

        let bound =
            timed(&mut st.sql_bind, || stmt.bind(&params)).map_err(|e| format!("bind: {e}"))?;
        let query = timed(&mut st.sql_analyze, || analyze(&bound, &self.catalog))
            .map_err(|e| format!("analyze: {e}"))?;

        let result = if query.unsatisfiable {
            let executor = timed(&mut st.serve_glue, || {
                Executor::shared(&query, &self.market, &self.state, &exec_cfg, now, None)
            });
            timed(&mut st.exec_other, || executor.empty_result())
                .map_err(|e| format!("exec: {e}"))?
        } else {
            let opt_cfg = timed(&mut st.serve_glue, || {
                let mut opt_cfg = OptimizerConfig::payless();
                opt_cfg.rewrite = self.rewrite.clone();
                opt_cfg.consistency = Consistency::Weak;
                opt_cfg
            });
            let store_snap = timed(&mut st.semantic_snapshot, || self.state.store().snapshot());
            let stats_snap = timed(&mut st.stats_snapshot, || self.state.stats_snapshot());
            let optimized = timed(&mut st.optimizer, || {
                optimize(
                    &query,
                    &stats_snap,
                    &store_snap,
                    self.market.as_ref(),
                    &opt_cfg,
                    now,
                )
            })
            .map_err(|e| format!("optimize: {e}"))?;
            t.plans_considered = optimized.counters.plans_considered;
            t.boxes_enumerated = optimized.counters.boxes_enumerated;
            t.boxes_kept = optimized.counters.boxes_kept;

            let (activity, mut executor) = timed(&mut st.serve_glue, || {
                let activity = self.batcher.as_ref().map(|b| b.activity());
                let executor = Executor::shared(
                    &query,
                    &self.market,
                    &self.state,
                    &exec_cfg,
                    now,
                    Some(&self.coalescer),
                )
                .with_batcher(self.batcher.as_ref());
                (activity, executor)
            });
            let market_before = self.hub.market_call_nanos.snapshot().sum;
            let persist_before = self.persist_nanos.load(Ordering::Relaxed);
            let mut exec = 0;
            let result = timed(&mut exec, || executor.execute(&optimized.plan))
                .map_err(|e| format!("exec: {e}"))?;
            // `execute` is one call; its time is split by what the executor
            // and the hub report, so these parts sum to it exactly.
            let market = (self.hub.market_call_nanos.snapshot().sum - market_before) as i64;
            let persist = (self.persist_nanos.load(Ordering::Relaxed) - persist_before) as i64;
            let ops = executor.op_actuals();
            let kinds = self_times(&optimized.plan, ops);
            t.op_rows = ops.iter().map(|o| o.rows).sum();
            // Market calls and their persist appends happen inside fetch and
            // bind-join operators; split them out by each kind's calls.
            let calls = kinds.access_calls + kinds.bind_calls;
            let (access_share, bind_share) = if calls == 0 {
                (market + persist, 0)
            } else {
                let a = (market + persist) * kinds.access_calls as i64 / calls as i64;
                (a, market + persist - a)
            };
            st.exec_access_self = kinds.access - access_share;
            st.exec_join_self = kinds.join;
            st.exec_bindjoin_self = kinds.bind - bind_share;
            st.exec_other = exec - ops.first().map_or(0, |o| o.nanos as i64);
            st.market = market;
            st.persist_append = persist;
            // Each layer's values are released where the server releases
            // them, at the end of the query; that is part of its cost.
            timed(&mut st.serve_glue, || drop((activity, executor)));
            timed(&mut st.optimizer, || drop(optimized));
            timed(&mut st.stats_snapshot, || drop(stats_snap));
            timed(&mut st.semantic_snapshot, || drop(store_snap));
            result
        };
        let snap = timed(&mut st.serve_glue, || {
            let snap = recorder.take();
            self.journal
                .emit(Some(now), Severity::Info, || EventKind::QueryDone {
                    ok: true,
                    pages: snap.total_pages(),
                    wasted_pages: snap.wasted_pages(),
                });
            self.hub.serve_queries.inc(1);
            self.hub.serve_query_nanos.record(elapsed(wall));
            self.hub.maybe_roll();
            snap
        });
        t.pages = snap.total_pages();

        // market wire codec: the response body
        let body = timed(&mut st.wire_encode, || {
            payless_market::encode_rows(&result.rows)
        });

        // server: response headers and write
        timed(&mut st.http_write, || {
            let counter = |name: &str| {
                snap.counters
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map_or(0, |(_, v)| *v)
            };
            let headers = vec![
                ("X-Payless-Query-Id".to_string(), now.to_string()),
                (
                    "X-Payless-Pages".to_string(),
                    snap.total_pages().to_string(),
                ),
                (
                    "X-Payless-Wasted-Pages".to_string(),
                    snap.wasted_pages().to_string(),
                ),
                (
                    "X-Payless-Records".to_string(),
                    snap.total_records().to_string(),
                ),
                (
                    "X-Payless-Price".to_string(),
                    format!("{}", snap.total_price()),
                ),
                (
                    "X-Payless-Coalesce-Waits".to_string(),
                    counter("coalesce.waits").to_string(),
                ),
                (
                    "X-Payless-Saved-Pages".to_string(),
                    counter("coalesce.saved_pages").to_string(),
                ),
                (
                    "X-Payless-Batch-Joins".to_string(),
                    counter("batch.joins").to_string(),
                ),
                (
                    "X-Payless-Shared-Pages".to_string(),
                    counter("batch.shared_pages").to_string(),
                ),
                ("X-Payless-Rows".to_string(), result.rows.len().to_string()),
                ("X-Payless-Columns".to_string(), result.columns.join(",")),
            ];
            let mut out = Vec::with_capacity(body.len() + 512);
            payless_server::http::write_response(
                &mut out,
                200,
                "OK",
                &headers,
                "application/octet-stream",
                &body,
                false,
            )
        })
        .map_err(|e| format!("write_response: {e}"))?;

        // market wire codec: the client's decode
        let rows = timed(&mut st.wire_decode, || payless_market::decode_rows(&body))
            .map_err(|e| format!("decode: {e}"))?;

        // persist: the snapshotter's check, run after every query here
        if let Some(d) = &self.durable {
            let dump = || mirror_dump(&self.market, &self.state);
            timed(&mut st.persist_snapshot, || {
                d.maybe_snapshot(self.state.store(), &dump)
            })?;
        }
        t.wall = elapsed(wall);

        t.digest = payless_serve::digest_row_slice(&rows);
        Ok(t)
    }
}

/// As `Serve::mirror_dump`: every market table's mirror rows.
fn mirror_dump(market: &DataMarket, state: &SharedState) -> Vec<(String, Vec<Row>)> {
    state.with_db(|db| {
        market
            .table_names()
            .into_iter()
            .filter_map(|name| {
                let rows = db.table(&name).ok()?.rows().to_vec();
                (!rows.is_empty()).then_some((name.to_string(), rows))
            })
            .collect()
    })
}

/// Self time and market calls per operator kind, nanoseconds.
#[derive(Default)]
struct KindTimes {
    access: i64,
    join: i64,
    bind: i64,
    access_calls: u64,
    bind_calls: u64,
}

/// Split `ops` (pre-order, inclusive times) into self time per operator
/// kind: a node's time minus its children's.
fn self_times(plan: &PlanNode, ops: &[OperatorActual]) -> KindTimes {
    fn walk(node: &PlanNode, id: usize, ops: &[OperatorActual], out: &mut KindTimes) {
        let nanos = |i: usize| ops.get(i).map_or(0, |o| o.nanos as i64);
        match node {
            PlanNode::Access { .. } => {
                out.access += nanos(id);
                out.access_calls += ops.get(id).map_or(0, |o| o.calls);
            }
            PlanNode::Join { left, right } => {
                let right_id = id + 1 + left.node_count();
                out.join += nanos(id) - nanos(id + 1) - nanos(right_id);
                walk(left, id + 1, ops, out);
                walk(right, right_id, ops, out);
            }
            PlanNode::BindJoin { left, .. } => {
                out.bind += nanos(id) - nanos(id + 1);
                out.bind_calls += ops.get(id).map_or(0, |o| o.calls);
                walk(left, id + 1, ops, out);
            }
        }
    }
    let mut out = KindTimes::default();
    walk(plan, 0, ops, &mut out);
    out
}

fn elapsed(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Call `f`, adding its wall time to `slot` (nanoseconds).
fn timed<T>(slot: &mut i64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_nanos() as i64;
    out
}
