//! The benchmark's workloads and their seeded query lists.
//!
//! The load is owned here, not borrowed from `payless_workload::mix` or its
//! client: a change to those must not change what this benchmark sends.
//! Parameter values come from the dataset [`RealWorkload`] generates, which
//! the server regenerates identically from `PAYLESS_SCALE`.

use std::collections::{BTreeMap, HashMap, HashSet};

use payless_json::{Json, ToJson};
use payless_types::Value;
use payless_workload::{QueryWorkload, RealWorkload, WhwConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Template indexes of Table 1 (the server's `/v1/query` numbering).
const Q1: usize = 0;
const Q2: usize = 1;
const Q3: usize = 2;
const Q4: usize = 3;
const Q5: usize = 4;

/// Distinct Q2 instances the hot-point warm-up buys.
const HOT_POOL: usize = 200;

/// One benchmark workload: server knobs plus the shape of its query list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated cheap Q2 instances, all full hits after the warm-up.
    HotPoint,
    /// All-distinct Q1/Q2 instances against a durable, batching server.
    ColdDurable,
    /// Q3–Q5 joins from a pool with repeats, server defaults.
    JoinBuy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::HotPoint, Workload::ColdDurable, Workload::JoinBuy];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotPoint => "hot-point",
            Workload::ColdDurable => "cold-durable",
            Workload::JoinBuy => "join-buy",
        }
    }

    /// WHW generator scale, shared by the server and the replay.
    pub fn scale(self) -> f64 {
        match self {
            Workload::HotPoint => 0.1,
            Workload::ColdDurable => 0.02,
            Workload::JoinBuy => 0.02,
        }
    }

    /// Does the server keep a data directory?
    pub fn durable(self) -> bool {
        self == Workload::ColdDurable
    }

    /// Is cross-query batch purchasing on?
    pub fn batch(self) -> bool {
        self == Workload::ColdDurable
    }

    /// Does every query read one table? There, total pages bought are the
    /// union of the regions asked for, whatever the interleaving.
    pub fn single_table(self) -> bool {
        self != Workload::JoinBuy
    }

    /// The server's `PAYLESS_*` knobs, apart from the listen address and
    /// address file every child gets; `data_dir` is used by a durable
    /// workload only. Everything else stays at its default.
    /// The scale is set even where it equals the server's default, so the
    /// replay and the server always generate the same dataset.
    pub fn knobs(self, data_dir: &str) -> Vec<(String, String)> {
        let mut knobs = vec![("PAYLESS_SCALE".to_string(), self.scale().to_string())];
        if self.durable() {
            knobs.push(("PAYLESS_DATA_DIR".to_string(), data_dir.to_string()));
        }
        if self.batch() {
            knobs.push(("PAYLESS_BATCH".to_string(), "1".to_string()));
        }
        knobs
    }

    /// Timed-phase queries per second of `--seconds`: about what one
    /// client gets answered per second on a 2-core machine, so `--seconds`
    /// is roughly the timed phase's length there. The input size is fixed
    /// by the arguments, so pages billed repeat run to run and a faster
    /// server finishes the same work sooner.
    pub fn queries_per_second(self) -> usize {
        match self {
            Workload::HotPoint => 2500,
            Workload::ColdDurable => 350,
            Workload::JoinBuy => 35,
        }
    }

    /// Set-ups per run; `setup_s` is their median. Fewer where the
    /// warm-up takes seconds, which already averages out the host's noise.
    pub fn setups(self) -> usize {
        match self {
            Workload::HotPoint | Workload::ColdDurable => 11,
            Workload::JoinBuy => 3,
        }
    }

    /// The dataset the server generates at this workload's scale.
    pub fn dataset(self) -> RealWorkload {
        RealWorkload::generate(&WhwConfig::scaled(self.scale()))
    }
}

/// One query as the client sends it.
#[derive(Debug, Clone)]
pub struct Query {
    /// Template index.
    pub template: usize,
    /// The `POST /v1/query` body.
    pub body: String,
}

impl Query {
    fn new(template: usize, params: &[Value]) -> Query {
        let body = Json::obj([
            ("template", Json::Int(template as i64)),
            (
                "params",
                Json::Arr(params.iter().map(|p| p.to_json()).collect()),
            ),
        ])
        .to_string_compact();
        Query { template, body }
    }
}

/// A run's load: an untimed warm-up (part of set-up) and the timed list.
#[derive(Debug, Clone)]
pub struct QueryList {
    /// Sent once per set-up, before timing starts.
    pub warmup: Vec<Query>,
    /// Sent by the closed-loop client while timed.
    pub timed: Vec<Query>,
}

/// FNV-1a over the request bodies in order: two lists with the same digest
/// send the same bytes.
pub fn list_digest(queries: &[Query]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for q in queries {
        for b in q.body.bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Build `workload`'s query list from `seed`, with `timed_len` timed
/// queries. The same arguments give the same list.
pub fn generate(
    workload: Workload,
    data: &RealWorkload,
    seed: u64,
    timed_len: usize,
) -> Result<QueryList, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_50c4_be4c_0001);
    let sampler = Sampler::new(data, workload.scale());
    let mut distinct = HashSet::new();
    // A Q2 instance not yet in the list, sampled by `RealWorkload`.
    let mut fresh_q2 = |rng: &mut StdRng| {
        for _ in 0..100_000 {
            let q = Query::new(Q2, &data.sample_params(Q2, rng));
            if distinct.insert(q.body.clone()) {
                return Ok(q);
            }
        }
        Err("Q2 has no fresh instance left: too many queries for one list".to_string())
    };
    match workload {
        Workload::HotPoint => {
            let pool = (0..HOT_POOL)
                .map(|_| fresh_q2(&mut rng))
                .collect::<Result<Vec<_>, _>>()?;
            let timed = (0..timed_len)
                .map(|_| pool[rng.random_range(0..pool.len())].clone())
                .collect();
            Ok(QueryList {
                warmup: pool,
                timed,
            })
        }
        Workload::ColdDurable => {
            // The warm-up buys every country's first BASE_DAYS days, one
            // Q1 per country. The timed list repeats a cycle of eight: Q1
            // that buys, Q1 that re-reads, three times over, then a Q1 that
            // buys and a Q2. Countries take buying turns in a seeded order;
            // a country's buying instances are trailing windows whose end
            // advances STEP_DAYS a turn past the base, so each reads what
            // was bought before and buys STEP_DAYS new days. A re-read asks
            // for the first half of the window just bought: a distinct
            // instance the store answers without buying. Every buy appends
            // to the logs, so purchases, appends and snapshots run through
            // the whole list. Q2 instances are distinct random rank
            // windows, drawn the same for every seed: together with the Q1
            // windows, which buy the same days whatever the country order,
            // every seed bills the same pages.
            let warmup = (0..sampler.countries.len())
                .map(|c| sampler.q1(c, 1, BASE_DAYS))
                .collect();
            let mut order: Vec<usize> = (0..sampler.countries.len()).collect();
            order.shuffle(&mut rng);
            let mut q2_rng = StdRng::seed_from_u64(COLD_Q2_SEED);
            let mut turn = 0;
            let mut bought = (0, 0);
            let timed = (0..timed_len)
                .map(|i| match i % 8 {
                    7 => fresh_q2(&mut q2_rng),
                    1 | 3 | 5 => {
                        let (country, lo) = bought;
                        Ok(sampler.q1(country, lo, lo + WINDOW_DAYS / 2 - 1))
                    }
                    _ => {
                        let country = order[turn % order.len()];
                        let hi = BASE_DAYS + STEP_DAYS * (1 + turn / order.len()) as i64;
                        turn += 1;
                        if hi > sampler.days {
                            return Err(
                                "Q1 has no fresh window left: too many queries for one list"
                                    .to_string(),
                            );
                        }
                        bought = (country, hi - WINDOW_DAYS + 1);
                        Ok(sampler.q1(country, bought.1, hi))
                    }
                })
                .collect::<Result<_, _>>()?;
            Ok(QueryList { warmup, timed })
        }
        Workload::JoinBuy => {
            // Templates in strict rotation, each instance drawn from its
            // template's pool, so every seed sends the same template mix.
            // Distinct instances claim disjoint (country, window) cells on
            // a grid of whole windows: they never share Weather rows. The
            // pools share out every cell and are drawn the same for every
            // seed, which sets only the order they are sent in, so runs buy
            // the same regions and differ in pages only as far as the order
            // changes the store's state at plan time.
            let templates = [Q3, Q4, Q5];
            let mut pool_rng = StdRng::seed_from_u64(JOIN_POOL_SEED);
            let mut cells = sampler.grid_cells();
            let pool_len = cells.len() / templates.len();
            let pools: Vec<Vec<Query>> = templates
                .iter()
                .map(|&t| {
                    (0..pool_len)
                        .map(|_| {
                            let i = pool_rng.random_range(0..cells.len());
                            let (country, lo) = cells.swap_remove(i);
                            sampler.instance(t, country, lo, &mut pool_rng)
                        })
                        .collect()
                })
                .collect();
            // Each template walks its pool in passes, every pass a fresh
            // shuffle. The first pass is the warm-up: it asks for every
            // instance once, so the store has most of its views before
            // timing starts and a timed query costs about as much early in
            // the list as late. The timed passes repeat the instances.
            let warm_len = pool_len * templates.len();
            let mut passes: Vec<Vec<&Query>> = vec![Vec::new(); templates.len()];
            let mut list: Vec<Query> = (0..warm_len + timed_len)
                .map(|i| {
                    let (t, k) = (i % templates.len(), i / templates.len() % pool_len);
                    if k == 0 {
                        passes[t] = pools[t].iter().collect();
                        passes[t].shuffle(&mut rng);
                    }
                    passes[t][k].clone()
                })
                .collect();
            let timed = list.split_off(warm_len);
            Ok(QueryList {
                warmup: list,
                timed,
            })
        }
    }
}

/// Seed of cold-durable's Q2 instances, the same for every run.
const COLD_Q2_SEED: u64 = 0xc01d_0002;
/// Seed of join-buy's instance pools, the same for every run.
const JOIN_POOL_SEED: u64 = 0x701_0003;
/// Days of every country that cold-durable's warm-up buys: all but the
/// last of its first window, so every timed buy reads as much as it buys
/// on the others.
const BASE_DAYS: i64 = WINDOW_DAYS - 1;
/// Length of every sampled date window, in days.
const WINDOW_DAYS: i64 = 14;
/// Days a cold-durable country's window advances per query.
const STEP_DAYS: i64 = 1;
/// Q5's rank window spans this many ranks either side of a zip's rank.
const RANK_REACH: i64 = 2;

/// Parameter sampling with fixed window widths, so one instance of a
/// template costs about what another does and a run's cost hangs little on
/// its seed. Q2 is sampled by [`RealWorkload`] itself. Every instance
/// returns rows: Q4 and Q5 draw a zip whose city has stations in the
/// instance's country.
struct Sampler {
    days: i64,
    ranks: i64,
    /// Countries with stations, each with `(zip, rank)` of the zips whose
    /// city has stations there.
    countries: Vec<(Value, Vec<(i64, i64)>)>,
}

impl Sampler {
    fn new(data: &RealWorkload, scale: f64) -> Sampler {
        let cfg = WhwConfig::scaled(scale);
        let table = |name: &str| {
            data.market_tables()
                .iter()
                .find(|t| &*t.schema.table == name)
                .unwrap_or_else(|| panic!("the WHW market has a {name} table"))
                .rows()
        };
        // Station(Country, StationID, City, ..), Pollution(ZipCode, Rank, ..),
        // ZipMap(ZipCode, City).
        let city_country: HashMap<&Value, &Value> = table("Station")
            .iter()
            .map(|r| (r.get(2), r.get(0)))
            .collect();
        let rank: HashMap<&Value, i64> = table("Pollution")
            .iter()
            .map(|r| (r.get(0), r.get(1).as_int().expect("integer rank")))
            .collect();
        let mut zips: BTreeMap<Value, Vec<(i64, i64)>> = city_country
            .values()
            .map(|c| ((*c).clone(), Vec::new()))
            .collect();
        for r in data.local_tables()[0].rows() {
            let (zip, city) = (r.get(0), r.get(1));
            if let (Some(country), Some(rank)) = (city_country.get(city), rank.get(zip)) {
                let zip = zip.as_int().expect("integer zip");
                zips.get_mut(*country)
                    .expect("every station country is listed")
                    .push((zip, *rank));
            }
        }
        Sampler {
            days: cfg.days,
            ranks: cfg.ranks,
            countries: zips.into_iter().collect(),
        }
    }

    /// Every `(country, window start)` cell of a grid of whole windows.
    fn grid_cells(&self) -> Vec<(usize, i64)> {
        (0..self.countries.len())
            .flat_map(|c| (0..self.days / WINDOW_DAYS).map(move |k| (c, 1 + k * WINDOW_DAYS)))
            .collect()
    }

    /// The Q1 instance over `country`'s days `lo..=hi`.
    fn q1(&self, country: usize, lo: i64, hi: i64) -> Query {
        let name = self.countries[country].0.clone();
        Query::new(Q1, &[name, Value::int(lo), Value::int(hi)])
    }

    /// An instance of Q3, Q4 or Q5 over `country`'s window starting on
    /// day `lo`; Q4 and Q5 draw one of the country's zips.
    fn instance(&self, t: usize, country: usize, lo: i64, rng: &mut StdRng) -> Query {
        let (name, zips) = &self.countries[country];
        let (lo, hi) = (Value::int(lo), Value::int(lo + WINDOW_DAYS - 1));
        let params = match t {
            Q3 => vec![name.clone(), lo, hi],
            Q4 | Q5 => {
                let (zip, rank) = zips[rng.random_range(0..zips.len())];
                if t == Q4 {
                    vec![name.clone(), Value::int(zip), lo, hi]
                } else {
                    let rlo = (rank - RANK_REACH).max(1);
                    let rhi = (rank + RANK_REACH).min(self.ranks);
                    vec![name.clone(), lo, hi, Value::int(rlo), Value::int(rhi)]
                }
            }
            other => panic!("template {other} has no country and window"),
        };
        Query::new(t, &params)
    }
}
