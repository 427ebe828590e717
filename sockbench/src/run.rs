//! One benchmark run: set-up, the timed closed-loop phase over sockets,
//! the serial in-process replay, the correctness checks, and the metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use payless_json::Json;

use crate::child::Child;
use crate::client;
use crate::load::{self, Query, Workload};
use crate::replay::{Replay, Traced};

/// The least share of traced time that named layers must account for.
pub const MIN_ATTRIBUTED: f64 = 0.95;

/// Where server directories and the replay's data go, relative to the
/// working directory; a fresh subdirectory is made per run and removed
/// after it.
pub const WORK_DIR: &str = ".sockbench-tmp";

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the query list.
    pub seed: u64,
    /// Sizes the timed phase to about this many seconds of work:
    /// `seconds` times [`Workload::queries_per_second`].
    pub seconds: u64,
    /// Report per-layer metrics (and check attribution) instead of
    /// end-to-end ones.
    pub trace: bool,
    /// The `payless-server` executable.
    pub server: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Did it hold?
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Queries sent, warm-ups included.
    pub attempted: u64,
    /// Queries that failed or answered wrong.
    pub failed: u64,
    /// Every check that ran.
    pub checks: Vec<Check>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub layers: Vec<Metric>,
    /// Lines of context printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// No query failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The result line: one JSON object.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace { &self.layers } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }
}

/// What the client saw for one query.
#[derive(Debug, Clone)]
struct Answer {
    rtt: Duration,
    pages: u64,
    digest: u64,
}

fn send(addr: &str, q: &Query) -> Result<Answer, String> {
    let reply = client::request(addr, "POST", "/v1/query", q.body.as_bytes())?;
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.text().trim()));
    }
    let pages = reply.header_u64("x-payless-pages")?;
    let rows = payless_market::decode_rows(&reply.body).map_err(|e| format!("decode: {e}"))?;
    Ok(Answer {
        rtt: reply.rtt,
        pages,
        digest: payless_serve::digest_row_slice(&rows),
    })
}

/// Send `queries` from one closed-loop client: each query goes out when
/// the last one is answered, so no server-side queue can build, and the
/// client and the server's connection thread never want more than the two
/// cores of the reference machine. Answers come back in list order.
fn drive(addr: &str, queries: &[Query]) -> Vec<Result<Answer, String>> {
    queries.iter().map(|q| send(addr, q)).collect()
}

/// Prometheus-style text exposition, by sample name.
#[derive(Debug, Default)]
struct Exposition(HashMap<String, f64>);

impl Exposition {
    fn parse(text: &str) -> Exposition {
        Exposition(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (k, v) = l.rsplit_once(' ')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect(),
        )
    }

    /// An unlabelled sample. The hub registers every counter and histogram
    /// the benchmark reads when it is built, so a missing one means it was
    /// renamed: an error, not a silent 0.
    fn get(&self, name: &str) -> Result<f64, String> {
        self.0
            .get(name)
            .copied()
            .ok_or_else(|| format!("/v1/metrics has no sample {name}"))
    }

    /// Sum over every label set of a labelled metric.
    fn sum_labelled(&self, base: &str) -> f64 {
        let prefix = format!("{base}{{");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// What the server exports at one instant.
struct ServerView {
    meter_transactions: u64,
    expo: Exposition,
    wchar: u64,
}

impl ServerView {
    fn take(child: &Child) -> Result<ServerView, String> {
        let report = get_json(child.addr(), "/v1/report")?;
        Ok(ServerView {
            meter_transactions: field_u64(&report, "meter_transactions")?,
            expo: Exposition::parse(&client::get_text(child.addr(), "/v1/metrics")?),
            wchar: child.io_bytes("wchar")?,
        })
    }
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    payless_json::parse(&client::get_text(addr, path)?).map_err(|e| format!("{path}: {e}"))
}

fn field_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(|v| v.as_u64())
        .map_err(|e| format!("{key}: {e}"))
}

/// A fresh per-run directory, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(parent: &Path) -> Result<RunDir, String> {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = parent.join(format!("run-{}-{stamp}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(steal, total)` CPU ticks from `/proc/stat`: user through steal.
fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The 1-based rank of the highest percentile up to p99 that leaves at
/// least ten samples beyond it (rank 1 when there are too few).
fn tail_rank(n: usize) -> usize {
    ((n as f64 * 0.99).ceil() as usize)
        .min(n.saturating_sub(10))
        .max(1)
}

/// Do one run.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let data = w.dataset();
    let timed_len = (w.queries_per_second() * cfg.seconds as usize).max(1);
    let list = load::generate(w, &data, cfg.seed, timed_len)?;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "workload {} seed {} scale {}: warm-up {} queries (list digest {:016x}), timed {} queries (list digest {:016x}), one closed-loop client",
        w.name(),
        cfg.seed,
        w.scale(),
        list.warmup.len(),
        load::list_digest(&list.warmup),
        list.timed.len(),
        load::list_digest(&list.timed),
    ));
    let dir = RunDir::create(Path::new(WORK_DIR))?;

    // Set-up, several times: spawn to first healthy answer plus the
    // warm-up. The last server stays up for the timed phase.
    let mut setup_s = Vec::with_capacity(w.setups());
    let mut warm_answers = Vec::with_capacity(w.setups());
    let mut child = None;
    for k in 0..w.setups() {
        let t0 = Instant::now();
        let c = Child::spawn(&cfg.server, &dir.0.join(format!("server-{k}")), w)?;
        warm_answers.push(drive(c.addr(), &list.warmup));
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < w.setups() {
            c.shutdown()?;
        } else {
            child = Some(c);
        }
    }
    let child = child.expect("at least one set-up");

    let before = ServerView::take(&child)?;
    let cpu_before = host_cpu();
    let t0 = Instant::now();
    let timed = drive(child.addr(), &list.timed);
    let wall = t0.elapsed().as_secs_f64();
    let cpu_after = host_cpu();
    let after = ServerView::take(&child)?;
    if let (Some((steal0, total0)), Some((steal1, total1))) = (cpu_before, cpu_after) {
        out.notes.push(format!(
            "host steal during the timed phase: {:.1}% of CPU time (outside load on a virtual machine)",
            100.0 * ratio((steal1 - steal0) as f64, (total1 - total0) as f64)
        ));
    }
    let store = get_json(child.addr(), "/v1/store")?;
    let hwm_kib = child.status_kib("VmHWM")?;
    child.shutdown()?;

    // The serial in-process reference. The traced run replays the whole
    // list; otherwise each distinct query runs once, in first-seen order,
    // which buys the same union of regions and gives the same answers.
    let mut replay = Replay::new(w, &data, &dir.0.join("replay"))?;
    let mut digests: HashMap<&str, u64> = HashMap::new();
    let mut replay_pages = 0;
    let mut traced = Vec::new();
    for (i, q) in list.warmup.iter().chain(&list.timed).enumerate() {
        let timed_query = i >= list.warmup.len();
        if (cfg.trace && timed_query) || !digests.contains_key(q.body.as_str()) {
            let t = replay.run(q)?;
            replay_pages += t.pages;
            digests.insert(&q.body, t.digest);
            if cfg.trace && timed_query {
                traced.push(t);
            }
        }
    }

    // Every answer: 200, decodes, and matches the reference digest.
    let mut errors = Vec::new();
    let mut wrong = 0u64;
    let pairs = warm_answers
        .iter()
        .flat_map(|answers| answers.iter().zip(&list.warmup))
        .chain(timed.iter().zip(&list.timed));
    for (answer, q) in pairs {
        out.attempted += 1;
        match answer {
            Ok(a) if a.digest == digests[q.body.as_str()] => {}
            Ok(_) => wrong += 1,
            Err(e) => errors.push(e.clone()),
        }
    }
    out.failed = errors.len() as u64 + wrong;
    out.check(
        "answers_ok",
        errors.is_empty(),
        format!(
            "{} of {} queries failed{}",
            errors.len(),
            out.attempted,
            errors
                .first()
                .map(|e| format!(" (first: {e})"))
                .unwrap_or_default()
        ),
    );
    out.check(
        "digests_match_reference",
        wrong == 0,
        format!("{wrong} answers differ from the serial in-process reference"),
    );

    // Σ X-Payless-Pages == the billing meter, for the warm-up (the server
    // was fresh) and for the timed phase.
    let pages_of = |answers: &[Result<Answer, String>]| -> u64 {
        answers.iter().flatten().map(|a| a.pages).sum()
    };
    let warm_pages = pages_of(warm_answers.last().expect("at least one set-up"));
    let timed_pages = pages_of(&timed);
    let meter_timed = after.meter_transactions - before.meter_transactions;
    out.check(
        "pages_match_meter",
        warm_pages == before.meter_transactions && timed_pages == meter_timed,
        format!(
            "client pages warm-up {warm_pages} timed {timed_pages}; meter warm-up {} timed {meter_timed}",
            before.meter_transactions
        ),
    );
    if w.single_table() {
        out.check(
            "replay_pages_match",
            replay_pages == warm_pages + timed_pages,
            format!(
                "replay {replay_pages} pages, server {}",
                warm_pages + timed_pages
            ),
        );
    }
    let persist_appends = field_u64(&store, "appends").unwrap_or(0);
    let persist_snapshots = field_u64(&store, "snapshots").unwrap_or(0);
    if w.durable() {
        let tables = store
            .get("tables")
            .and_then(|t| t.as_arr())
            .map_err(|e| format!("/v1/store tables: {e}"))?;
        let mut ledger = 0;
        let mut balanced = true;
        for t in tables {
            let l = field_u64(t, "ledger_pages")?;
            balanced &= l == field_u64(t, "meter_pages")?;
            ledger += l;
        }
        out.check(
            "store_reconciles",
            balanced && ledger == after.meter_transactions,
            format!(
                "per-table ledger == meter: {balanced}; ledger {ledger} pages, billing meter {}",
                after.meter_transactions
            ),
        );
    }

    // End-to-end metrics.
    let mut rtts: Vec<f64> = timed
        .iter()
        .flatten()
        .map(|a| a.rtt.as_secs_f64() * 1e3)
        .collect();
    rtts.sort_by(f64::total_cmp);
    let n_ok = rtts.len();
    let (p50, p99) = if n_ok == 0 {
        (0.0, 0.0)
    } else {
        (rtts[n_ok.div_ceil(2) - 1], rtts[tail_rank(n_ok) - 1])
    };
    out.notes.push(format!(
        "latency_p99_ms: the round trip of rank {} of {n_ok} (p{:.2}), leaving at least 10 beyond it",
        tail_rank(n_ok),
        100.0 * tail_rank(n_ok) as f64 / n_ok.max(1) as f64,
    ));
    let answered = (list.warmup.len() + list.timed.len()) as f64;
    out.e2e = vec![
        metric("setup_s", median(&mut setup_s), "s"),
        metric("qps", n_ok as f64 / wall, "queries/s"),
        metric("latency_p50_ms", p50, "ms"),
        metric("latency_p99_ms", p99, "ms"),
        metric(
            "pages_per_query",
            (warm_pages + timed_pages) as f64 / answered,
            "pages",
        ),
        metric("peak_rss_mb", hwm_kib as f64 / 1024.0, "MiB"),
    ];

    // Per-layer metrics read from outside during the timed phase.
    let n = list.timed.len() as f64;
    let d =
        |name: &str| -> Result<f64, String> { Ok(after.expo.get(name)? - before.expo.get(name)?) };
    let rtt_sum_us: f64 = rtts.iter().sum::<f64>() * 1e3;
    let serve_sum_us = d("payless_serve_query_nanos_sum")? / 1e3;
    let serve_query_us = ratio(serve_sum_us, d("payless_serve_query_nanos_count")?);
    let frontend_us = (rtt_sum_us - serve_sum_us) / n;
    let full_hits = d("payless_store_full_hits_total")?;
    let lookups =
        full_hits + d("payless_store_partial_hits_total")? + d("payless_store_misses_total")?;
    let contended = d("payless_coalesce_contended_total")?;
    let calls = d("payless_market_calls_total")?;
    let billed = d("payless_market_pages_billed_total")?;
    out.layers = vec![
        metric("server.frontend_us", frontend_us, "us"),
        metric("serve.query_us", serve_query_us, "us"),
        metric(
            "semantic.full_hit_share",
            ratio(full_hits, lookups),
            "fraction",
        ),
        metric(
            "semantic.views",
            after.expo.sum_labelled("payless_store_views"),
            "count",
        ),
        metric(
            "semantic.compactions",
            after.expo.sum_labelled("payless_store_compactions"),
            "count",
        ),
        metric(
            "semantic.lock_wait_us",
            d("payless_store_lock_wait_nanos_sum")? / 1e3 / n,
            "us",
        ),
        metric(
            "exec.coalesce_contended_share",
            ratio(contended, d("payless_coalesce_acquired_total")? + contended),
            "fraction",
        ),
        metric(
            "exec.coalesce_wait_us",
            d("payless_coalesce_claim_wait_nanos_sum")? / 1e3 / n,
            "us",
        ),
        metric(
            "exec.batch_wait_us",
            d("payless_batch_window_wait_nanos_sum")? / 1e3 / n,
            "us",
        ),
        metric(
            "exec.batch_members_per_batch",
            ratio(
                d("payless_batch_members_total")?,
                d("payless_batch_batches_total")?,
            ),
            "members/batch",
        ),
        metric("market.calls_per_query", calls / n, "calls/query"),
        metric(
            "market.call_us",
            ratio(d("payless_market_call_nanos_sum")? / 1e3, calls),
            "us",
        ),
        metric("market.pages_per_call", ratio(billed, calls), "pages/call"),
        metric(
            "market.wasted_pages",
            d("payless_market_pages_wasted_total")?,
            "pages",
        ),
        metric(
            "market.timed_pages_per_query",
            meter_timed as f64 / n,
            "pages/query",
        ),
        metric(
            "storage.mirror_rows",
            after.expo.get("payless_market_records_total")?,
            "rows",
        ),
        metric("persist.appends", persist_appends as f64, "count"),
        metric("persist.snapshots", persist_snapshots as f64, "count"),
        metric(
            "persist.write_bytes_per_page",
            ratio((after.wchar - before.wchar) as f64, billed),
            "bytes/page",
        ),
    ];

    if cfg.trace {
        trace_metrics(&mut out, &list.timed, &traced, serve_query_us + frontend_us);
    }
    Ok(out)
}

/// The traced replay's per-layer metrics — per-query means and shares of
/// traced time — and the attribution check. `socket_us` is the socket
/// path's serve-side plus front-end time per query.
fn trace_metrics(out: &mut Outcome, timed: &[Query], traced: &[Traced], socket_us: f64) {
    let n = traced.len().max(1) as f64;
    // Per-layer metrics of the traced replay: per-query means and shares.
    let wall_ns: f64 = traced.iter().map(|t| t.wall as f64).sum();
    let mut named_ns = 0.0;
    let stage_names = Traced::default().stages.named().map(|(name, _)| name);
    for (i, stage) in stage_names.iter().enumerate() {
        let ns: f64 = traced.iter().map(|t| t.stages.named()[i].1 as f64).sum();
        named_ns += ns;
        let (name, value, unit) = if *stage == "persist_snapshot" {
            (format!("trace.{stage}_ms"), ns / 1e6 / n, "ms")
        } else {
            (format!("trace.{stage}_us"), ns / 1e3 / n, "us")
        };
        out.layers.push(metric(name, value, unit));
        out.layers.push(metric(
            format!("trace.{stage}_share"),
            ratio(ns, wall_ns),
            "fraction",
        ));
    }
    let attributed = ratio(named_ns, wall_ns);
    let traced_us = wall_ns / 1e3 / n;
    let sum = |f: fn(&Traced) -> u64| traced.iter().map(|t| f(t) as f64).sum::<f64>();
    out.layers.extend([
        metric("trace.other_us", (wall_ns - named_ns) / 1e3 / n, "us"),
        metric("trace.other_share", 1.0 - attributed, "fraction"),
        metric("trace.attributed_share", attributed, "fraction"),
        metric("trace.wall_us", traced_us, "us"),
        metric("trace.overhead_us", traced_us - socket_us, "us"),
        metric(
            "trace.plans_considered",
            sum(|t| t.plans_considered) / n,
            "plans/query",
        ),
        metric(
            "trace.boxes_kept_share",
            ratio(sum(|t| t.boxes_kept), sum(|t| t.boxes_enumerated)),
            "fraction",
        ),
        metric("exec.rows_per_query", sum(|t| t.op_rows) / n, "rows/query"),
    ]);
    out.notes.push(format!(
        "traced replay: {:.1}% of {traced_us:.1} us/query in named layers, residue {:.2} us/query",
        100.0 * attributed,
        (wall_ns - named_ns) / 1e3 / n
    ));
    let mut by_template = std::collections::BTreeMap::<usize, (f64, usize)>::new();
    for (q, t) in timed.iter().zip(traced) {
        let e = by_template.entry(q.template).or_default();
        e.0 += t.wall as f64;
        e.1 += 1;
    }
    let per_template: Vec<String> = by_template
        .iter()
        .map(|(t, (ns, k))| format!("Q{} {:.3} ms x{k}", t + 1, ns / 1e6 / *k as f64))
        .collect();
    out.notes.push(format!(
        "traced time per query by template: {}",
        per_template.join(", ")
    ));
    out.check(
        "attribution",
        attributed >= MIN_ATTRIBUTED,
        format!(
            "named layers cover {:.2}% of traced time (needs {:.0}%)",
            100.0 * attributed,
            100.0 * MIN_ATTRIBUTED
        ),
    );
}
