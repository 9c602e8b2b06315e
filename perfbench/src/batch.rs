//! `tpch-adhoc` and `scan-hot`: one closed-loop client on one engine. The
//! client submits its next query when the previous result table is in
//! hand.

use crate::cli::Args;
use crate::spans::Spans;
use crate::stats::{mb, median, ms, percentile, set_host_timings, Sheet, END_TO_END, PER_LAYER};
use crate::verify::Results;
use crate::Report;
use sirius_columnar::Table;
use sirius_core::{MorselStats, SiriusEngine, SpillStats};
use sirius_hw::{CostCategory, TimeBreakdown, TraceConfig};
use sirius_plan::Rel;
use sirius_serve::CachingPlanner;
use sirius_sql::{
    binder, lexer, optimizer, parser, BinderCatalog, CatalogStatistics, JoinOrderPolicy,
};
use sirius_tpch::{TpchData, TpchGenerator};
use sirius_trace::EventKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A batch workload: which queries, at which scale, planned how.
pub struct Batch {
    /// Scale factor.
    pub sf: f64,
    /// TPC-H query numbers, run in this order once per pass.
    pub queries: &'static [u32],
    /// Resolve each query once through a [`CachingPlanner`] at set-up and
    /// re-execute the cached plan; otherwise plan every execution from
    /// SQL text with no cache.
    pub cached: bool,
}

/// All 22 queries at SF 0.05, each execution planned from SQL text.
pub const ADHOC: Batch = Batch {
    sf: 0.05,
    queries: &[
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
    ],
    cached: false,
};

/// Q1, Q6, Q12, Q14 and Q19 at SF 0.1, re-executed from cached plans.
pub const SCAN_HOT: Batch = Batch {
    sf: 0.1,
    queries: &[1, 6, 12, 14, 19],
    cached: true,
};

/// Queries whose largest operator output is reported (join-order probes).
const PEAK_ROWS: [u32; 5] = [5, 7, 9, 18, 21];
/// Queries whose execution time is reported one by one.
const EXEC_BY_QUERY: [u32; 10] = [1, 5, 6, 7, 9, 12, 14, 18, 19, 21];
/// Queries whose DuckDB stand-in host time is reported.
const CPU_REF: [u32; 5] = [1, 6, 12, 14, 19];

struct Setup {
    data: TpchData,
    catalog: BinderCatalog,
    engine: SiriusEngine,
    planner: Option<CachingPlanner>,
}

fn setup(b: &Batch, seed: u64) -> (Setup, Duration) {
    let t = Instant::now();
    let data = TpchGenerator::new(b.sf).with_seed(seed).generate();
    let generate = t.elapsed();
    let catalog = crate::catalog(&data);
    let engine = crate::load(crate::engine(), &data);
    let planner = b.cached.then(|| {
        let p = CachingPlanner::new(catalog.clone(), JoinOrderPolicy::Optimized);
        for &q in b.queries {
            p.resolve(crate::sql(q), &engine)
                .unwrap_or_else(|e| panic!("planning TPC-H Q{q}: {e}"));
        }
        p
    });
    let s = Setup {
        data,
        catalog,
        engine,
        planner,
    };
    (s, generate)
}

/// Host phases of one query: parse, bind, optimize (+ validate), compile,
/// execute (begin → steps → result table).
const PHASES: [&str; 5] = [
    "sql.parse",
    "sql.bind",
    "sql.optimize",
    "core.compile",
    "core.exec",
];

struct Exec {
    table: Table,
    /// The plan built from SQL text (planned workloads only).
    plan: Option<Rel>,
    /// SQL text (or cached plan) to result table.
    host: Duration,
    phases: [Duration; 5],
    sim: Duration,
    steps: u64,
    /// Largest single operator output and the sum of all operator outputs,
    /// base-table reads left out (traced engine only).
    op_rows: Option<(u64, u64)>,
}

fn err(q: u32, what: &str, e: impl std::fmt::Display) -> String {
    format!("Q{q}: {what}: {e}")
}

/// Run query `q` once on `engine`. With `spans`, record the span tree
/// `query` → phases → `core.step` under id `id`.
fn execute(
    s: &Setup,
    engine: &SiriusEngine,
    q: u32,
    id: u64,
    mut spans: Option<&mut Spans>,
) -> Result<Exec, String> {
    let sql = crate::sql(q);
    let before = engine.device().breakdown();
    let t0 = Instant::now();
    let root = spans
        .as_deref_mut()
        .map(|sp| sp.open(id, "query", None, t0));
    // Instants at which parse, bind, optimize and compile ended.
    let mut ends = [t0; 4];
    let (compiled, plan) = match &s.planner {
        Some(planner) => {
            let r = planner
                .resolve(sql, engine)
                .map_err(|e| err(q, "resolve", e))?;
            if r.planned {
                return Err(format!("Q{q}: the cached plan was planned again"));
            }
            (r.compiled, None)
        }
        None => {
            let tokens = lexer::tokenize(sql).map_err(|e| err(q, "lex", e))?;
            let query = parser::parse_query(&tokens).map_err(|e| err(q, "parse", e))?;
            ends[0] = Instant::now();
            let stats = CatalogStatistics::new(&s.catalog);
            let plan =
                binder::bind_with_stats(&query, &s.catalog, JoinOrderPolicy::Optimized, &stats)
                    .map_err(|e| err(q, "bind", e))?;
            ends[1] = Instant::now();
            let plan = optimizer::optimize(plan).map_err(|e| err(q, "optimize", e))?;
            sirius_plan::validate::validate(&plan).map_err(|e| err(q, "validate", e))?;
            ends[2] = Instant::now();
            let compiled = engine
                .compile_query(&plan)
                .map_err(|e| err(q, "compile", e))?;
            ends[3] = Instant::now();
            (compiled, Some(plan))
        }
    };
    let exec_start = Instant::now();
    let mut phases = [Duration::ZERO; 5];
    if s.planner.is_none() {
        let mut from = t0;
        for (i, &to) in ends.iter().enumerate() {
            phases[i] = to - from;
            if let Some(sp) = spans.as_deref_mut() {
                sp.record(id, PHASES[i], root, from, to);
            }
            from = to;
        }
    }
    let exec = spans
        .as_deref_mut()
        .map(|sp| sp.open(id, "core.exec", root, exec_start));
    let mut run = engine
        .begin_compiled(&compiled)
        .map_err(|e| err(q, "begin", e))?;
    let mut steps = 0;
    while !run.is_done() {
        let t = Instant::now();
        engine
            .step(&mut run, usize::MAX)
            .map_err(|e| err(q, "step", e))?;
        steps += 1;
        if let Some(sp) = spans.as_deref_mut() {
            sp.record(id, "core.step", exec, t, Instant::now());
        }
    }
    let op_rows = spans.is_some().then(|| {
        let mut reads = Vec::new();
        sirius_plan::visit::visit(compiled.root(), &mut |node, rel| {
            if matches!(rel, Rel::Read { .. }) {
                reads.push(node.id);
            }
        });
        let stats = engine.run_operator_stats(&run);
        let rows = stats
            .iter()
            .filter(|(id, _)| !reads.contains(id))
            .map(|(_, o)| o.rows_out);
        (rows.clone().max().unwrap_or(0), rows.sum())
    });
    let table = run
        .into_table()
        .ok_or_else(|| format!("Q{q}: finished run has no result table"))?;
    let end = Instant::now();
    if let Some(sp) = spans {
        sp.close(exec.expect("opened with spans"), end);
        sp.close(root.expect("opened with spans"), end);
    }
    phases[4] = end - exec_start;
    Ok(Exec {
        table,
        plan,
        host: end - t0,
        phases,
        sim: engine.device().breakdown().since(&before).total(),
        steps,
        op_rows,
    })
}

/// One pass over the workload's queries.
#[derive(Default)]
struct Pass {
    /// Summed query host time.
    host: Duration,
    /// Per query: (simulated ms, host ms in `core.exec`).
    by_query: BTreeMap<u32, (f64, f64)>,
    /// (query, host ms from SQL text or cached plan to result table).
    samples: Vec<(u32, f64)>,
    phases: [Duration; 5],
    steps: u64,
    peak_rows: BTreeMap<u32, u64>,
    rows_out: u64,
    result_rows: u64,
    morsels: MorselStats,
    breakdown: TimeBreakdown,
    spill: SpillStats,
    granted: u64,
    denied: u64,
    kernels: u64,
    kernel_bytes: u64,
}

impl Pass {
    fn sim(&self) -> f64 {
        self.by_query.values().map(|v| v.0).sum()
    }
}

/// What a phase collected: host timings and the results to verify.
#[derive(Default)]
struct Sink {
    results: Results,
    plans: BTreeMap<u32, Rel>,
    next_id: u64,
}

fn pass(
    b: &Batch,
    s: &Setup,
    engine: &SiriusEngine,
    mut spans: Option<&mut Spans>,
    sink: &mut Sink,
) -> Result<Pass, String> {
    let broker = engine.buffer_manager().grant_broker();
    let (morsels0, breakdown0, spill0) = (
        engine.morsel_stats(),
        engine.device().breakdown(),
        engine.spill_stats(),
    );
    let (granted0, denied0) = (broker.granted(), broker.denied());
    let mut p = Pass::default();
    for &q in b.queries {
        let e = execute(s, engine, q, sink.next_id, spans.as_deref_mut())?;
        sink.next_id += 1;
        p.samples.push((q, ms(e.host)));
        sink.results.add(q, &e.table);
        if let Some(plan) = e.plan {
            sink.plans.entry(q).or_insert(plan);
        }
        p.host += e.host;
        p.by_query.insert(q, (ms(e.sim), ms(e.phases[4])));
        for (acc, d) in p.phases.iter_mut().zip(e.phases) {
            *acc += d;
        }
        p.steps += e.steps;
        if let Some((peak, sum)) = e.op_rows {
            p.peak_rows.insert(q, peak);
            p.rows_out += sum;
        }
        p.result_rows += e.table.num_rows() as u64;
        if engine.trace().enabled() {
            for ev in engine.trace().drain() {
                if ev.kind == EventKind::Kernel {
                    p.kernels += 1;
                    p.kernel_bytes += ev.bytes;
                }
            }
        }
    }
    p.morsels = engine.morsel_stats().since(&morsels0);
    p.breakdown = engine.device().breakdown().since(&breakdown0);
    p.spill = engine.spill_stats().since(&spill0);
    p.granted = broker.granted() - granted0;
    p.denied = broker.denied() - denied0;
    Ok(p)
}

/// Passes until `budget` has elapsed and `min_samples` query timings are
/// in.
fn phase(
    b: &Batch,
    s: &Setup,
    engine: &SiriusEngine,
    budget: Duration,
    min_samples: usize,
    sink: &mut Sink,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p = pass(b, s, engine, None, sink)?;
        repeats(&passes, &p)?;
        passes.push(p);
        if start.elapsed() >= budget && samples(&passes).len() >= min_samples {
            return Ok(passes);
        }
    }
}

/// Host ms of every query execution in `passes`.
fn samples<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Vec<f64> {
    passes
        .into_iter()
        .flat_map(|p| p.samples.iter().map(|s| s.1))
        .collect()
}

/// Every pass on one data set must repeat the first one's simulated times
/// exactly.
fn repeats(earlier: &[Pass], p: &Pass) -> Result<(), String> {
    let Some(first) = earlier.first() else {
        return Ok(());
    };
    for (q, (sim, _)) in &p.by_query {
        let want = first.by_query[q].0;
        if *sim != want {
            return Err(format!(
                "Q{q}: simulated time {sim} ms differs from the first pass's {want} ms"
            ));
        }
    }
    Ok(())
}

/// TPC-H data sets an untraced run covers, each generated from its own
/// sub-seed of the run's seed. At SF 0.05 a single data set fixes the size
/// of Q7's largest intermediate, and with it the peak resident set, only
/// to within ±15% of the next seed's; the largest of three moves by about
/// 5% from run to run.
pub const DATASETS: usize = 3;

/// Seed of data set `i` of a run seeded `seed`; no two runs share one.
fn data_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(DATASETS as u64).wrapping_add(i as u64)
}

/// One data set's share of an untraced run.
struct DataSetRun {
    seed: u64,
    sink: Sink,
    passes: Vec<Pass>,
}

/// Run a batch workload.
pub fn run(b: &Batch, args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(b, args);
    }
    // One set-up per data set; each is dropped before the next starts, so
    // two never share the peak resident set.
    let mut setup_s = Vec::with_capacity(DATASETS);
    let mut sets = Vec::with_capacity(DATASETS);
    for i in 0..DATASETS {
        let seed = data_seed(args.seed, i);
        let t = Instant::now();
        let (s, _) = setup(b, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let mut sink = Sink::default();
        let passes = phase(
            b,
            &s,
            &s.engine,
            args.seconds / DATASETS as u32,
            args.min_samples.div_ceil(DATASETS),
            &mut sink,
        )?;
        sets.push(DataSetRun { seed, sink, passes });
    }
    let peak_rss = crate::stats::peak_rss_mb()?;
    let t = Instant::now();
    let refs = verify_all(b, &mut sets)?;
    let verify_s = t.elapsed().as_secs_f64();

    let samples = samples(sets.iter().flat_map(|d| &d.passes));
    let attempted = samples.len();
    let pass_sims: Vec<f64> = sets.iter().map(|d| d.passes[0].sim()).collect();
    let sims: Vec<f64> = sets
        .iter()
        .flat_map(|d| d.passes[0].by_query.values().map(|v| v.0))
        .collect();
    let mut e2e = Sheet::new(END_TO_END);
    e2e.set("setup_s", median(&setup_s), setup_s.len());
    e2e.set("peak_rss_mb", peak_rss, 1);
    e2e.set("sim_ms", median(&pass_sims), pass_sims.len());
    e2e.set("serve_p50_sim_ms", percentile(&sims, 0.5), sims.len());
    e2e.set("serve_p95_sim_ms", percentile(&sims, 0.95), sims.len());
    e2e.set(
        "serve_max_rate_qps",
        sims.len() as f64 / (pass_sims.iter().sum::<f64>() / 1e3),
        pass_sims.len(),
    );
    e2e.set("completed_share", 1.0, attempted);
    // Host timings are printed here and reported by the traced run.
    let host = set_host_timings(
        &mut Sheet::new(PER_LAYER),
        attempted as f64 / (samples.iter().sum::<f64>() / 1e3),
        &samples,
    );
    let mut notes = vec![
        describe(b, &sets.iter().map(|d| d.seed).collect::<Vec<_>>()),
        format!("set-up s: {setup_s:?}"),
        host,
    ];
    for d in &sets {
        let pass_s: Vec<String> = d
            .passes
            .iter()
            .map(|p| format!("{:.3}", p.host.as_secs_f64()))
            .collect();
        notes.push(format!(
            "data set seed {}: host s per pass {}",
            d.seed,
            pass_s.join(" ")
        ));
    }
    notes.push(format!(
        "{attempted} timed queries over {DATASETS} data sets, all checked against the DuckDB \
         stand-in in {verify_s:.3} s"
    ));
    notes.extend(per_query_notes(b.queries, &sets, &refs));
    Ok(Report {
        attempted: attempted as u64,
        failed: 0,
        metrics: e2e.metrics(false)?,
        notes,
        spans: None,
    })
}

/// The traced run, on the first data set: untraced passes for the
/// overhead baseline alternate with traced passes on an engine that
/// records kernel events and operator stats, with bench-side spans around
/// every layer call.
fn run_traced(b: &Batch, args: &Args) -> Result<Report, String> {
    let (s, generate) = setup(b, data_seed(args.seed, 0));
    let mut sink = Sink::default();
    let traced_engine = crate::load(crate::engine().with_trace(TraceConfig::On), &s.data);
    let mut spans = Spans::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // Alternate within the budget, so drift in the host's speed lands on
    // both sides of the overhead comparison; then untraced passes only,
    // until the host timings have their samples.
    while start.elapsed() < args.seconds || samples(&plain).len() < args.min_samples {
        let p = pass(b, &s, &s.engine, None, &mut sink)?;
        repeats(&plain, &p)?;
        plain.push(p);
        if traced.is_empty() || start.elapsed() < args.seconds {
            let p = pass(b, &s, &traced_engine, Some(&mut spans), &mut sink)?;
            repeats(&traced, &p)?;
            traced.push(p);
        }
    }
    let attempted = samples(plain.iter().chain(&traced)).len();
    let t0 = Instant::now();
    let refs = verify(b, &s.data, &s.catalog, &sink.results, &mut sink.plans)?;
    let verify_s = t0.elapsed().as_secs_f64();

    let mut layer = Sheet::new(PER_LAYER);
    let t = &traced[0];
    let n = traced.len();
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let host = samples(&plain);
    let host_line = set_host_timings(
        &mut layer,
        host.len() as f64 / (host.iter().sum::<f64>() / 1e3),
        &host,
    );
    layer.set("tpch.generate_s", generate.as_secs_f64(), 1);
    layer.set("tpch.input_mb", mb(s.data.total_bytes()), 1);
    for (i, name) in [
        "sql.parse_ms",
        "sql.bind_ms",
        "sql.optimize_ms",
        "core.compile_ms",
        "core.exec_ms",
    ]
    .into_iter()
    .enumerate()
    {
        layer.set(name, med(&|p| ms(p.phases[i])), n);
    }
    for q in PEAK_ROWS {
        if let Some(&rows) = t.peak_rows.get(&q) {
            layer.set(&format!("plan.peak_rows.q{q:02}"), rows as f64, 1);
        }
    }
    layer.set(
        "plan.rows_per_result",
        t.rows_out as f64 / t.result_rows.max(1) as f64,
        1,
    );
    for q in EXEC_BY_QUERY {
        if t.by_query.contains_key(&q) {
            layer.set(
                &format!("core.exec_ms.q{q:02}"),
                med(&|p| p.by_query[&q].1),
                n,
            );
        }
    }
    layer.set("core.steps", t.steps as f64, 1);
    layer.set("core.morsels", t.morsels.morsels as f64, 1);
    layer.set("core.tasks", t.morsels.tasks as f64, 1);
    layer.set("core.worker_util", t.morsels.worker_utilization(), 1);
    set_hw(&mut layer, &t.breakdown);
    layer.set("hw.kernels", t.kernels as f64, 1);
    layer.set("hw.kernel_mb", mb(t.kernel_bytes), 1);
    let pool = traced_engine
        .buffer_manager()
        .regions()
        .processing()
        .stats();
    layer.set("rmm.pool_hwm_mb", mb(pool.high_watermark), 1);
    layer.set(
        "spill.mb",
        mb(t.spill.bytes_to_pinned + t.spill.bytes_to_disk),
        1,
    );
    layer.set("spill.partitions", t.spill.partitions as f64, 1);
    layer.set(
        "broker.denied_ratio",
        ratio(t.denied, t.granted + t.denied),
        1,
    );
    match &s.planner {
        Some(planner) => {
            let c = planner.cache_stats();
            layer.set("planner.hit_ratio", ratio(c.hits, c.hits + c.misses), 1);
            layer.set("planner.replans", c.replans as f64, 1);
            // Every pass is pure cache hits: planning happened at set-up.
            layer.set("planner.planning_phases", 0.0, 1);
        }
        None => layer.set("planner.planning_phases", b.queries.len() as f64, 1),
    }
    set_cpu_ref(&mut layer, &refs);
    let per_pass =
        |ps: &[Pass]| ps.iter().map(|p| p.host.as_secs_f64()).sum::<f64>() / ps.len() as f64;
    // Against the untraced passes that alternated with the traced ones.
    layer.set(
        "bench.trace_overhead_pct",
        (per_pass(&traced) / per_pass(&plain[..n]) - 1.0) * 100.0,
        2 * n,
    );
    layer.set("bench.verify_s", verify_s, 1);
    let mut notes = vec![describe(b, &[data_seed(args.seed, 0)]), host_line];
    notes.extend(set_self_times(&mut layer, &spans, n));
    notes.push(format!(
        "{} untraced + {n} traced passes, {attempted} queries, all checked against the DuckDB stand-in",
        plain.len()
    ));
    Ok(Report {
        attempted: attempted as u64,
        failed: 0,
        metrics: layer.metrics(true)?,
        notes,
        spans: Some(spans),
    })
}

/// Compare every recorded result with the DuckDB stand-in; returns the
/// reference runs and the seconds the check took.
/// The run's parameters, printed with it.
fn describe(b: &Batch, data_seeds: &[u64]) -> String {
    format!(
        "SF {}, queries {:?}, {}, data set seeds {data_seeds:?}",
        b.sf,
        b.queries,
        if b.cached {
            "re-executed from cached plans"
        } else {
            "each execution planned from SQL text"
        }
    )
}

type References = BTreeMap<u32, crate::verify::Reference>;

/// Compare one data set's results with the DuckDB stand-in.
fn verify(
    b: &Batch,
    data: &TpchData,
    catalog: &BinderCatalog,
    results: &Results,
    plans: &mut BTreeMap<u32, Rel>,
) -> Result<References, String> {
    for &q in b.queries {
        if let std::collections::btree_map::Entry::Vacant(slot) = plans.entry(q) {
            // Cached workloads: the estimate-only plan the planner cached.
            let plan = sirius_sql::plan_sql(crate::sql(q), catalog, JoinOrderPolicy::Optimized)
                .map_err(|e| err(q, "plan", e))?;
            slot.insert(plan);
        }
    }
    results.verify(data, plans)
}

/// Verify every data set, regenerating each from its seed (the timed
/// engines are gone by now), [`crate::WORKERS`] at a time.
fn verify_all(b: &Batch, sets: &mut [DataSetRun]) -> Result<Vec<References>, String> {
    let mut refs = Vec::with_capacity(sets.len());
    for chunk in sets.chunks_mut(crate::WORKERS) {
        let done: Vec<Result<References, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunk
                .iter_mut()
                .map(|d| {
                    scope.spawn(move || {
                        let data = TpchGenerator::new(b.sf).with_seed(d.seed).generate();
                        let catalog = crate::catalog(&data);
                        verify(b, &data, &catalog, &d.sink.results, &mut d.sink.plans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a verification thread panicked"))
                .collect()
        });
        for r in done {
            refs.push(r?);
        }
    }
    Ok(refs)
}

fn per_query_notes(queries: &[u32], sets: &[DataSetRun], refs: &[References]) -> Vec<String> {
    let mut out = vec![format!(
        "{:>5} {:>14} {:>10} {:>14} {:>12}",
        "query", "host p50 ms", "sim ms", "cpu_ref sim ms", "cpu/sirius"
    )];
    for &q in queries {
        let host: Vec<f64> = sets
            .iter()
            .flat_map(|d| &d.passes)
            .flat_map(|p| p.samples.iter().filter(|s| s.0 == q).map(|s| s.1))
            .collect();
        let sim = median(
            &sets
                .iter()
                .map(|d| d.passes[0].by_query[&q].0)
                .collect::<Vec<_>>(),
        );
        let cpu = median(&refs.iter().map(|r| ms(r[&q].sim)).collect::<Vec<_>>());
        out.push(format!(
            "{:>5} {:>14.3} {:>10.4} {:>14.4} {:>11.2}x   (n={}; sim medians over {} data sets)",
            format!("Q{q}"),
            percentile(&host, 0.5),
            sim,
            cpu,
            cpu / sim,
            host.len(),
            sets.len()
        ));
    }
    out
}

pub(crate) fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The simulated ledger by category.
pub(crate) fn set_hw(layer: &mut Sheet, b: &TimeBreakdown) {
    for c in CostCategory::ALL {
        let name = match c {
            CostCategory::Scan => "scan",
            CostCategory::Filter => "filter",
            CostCategory::Join => "join",
            CostCategory::GroupBy => "groupby",
            CostCategory::Aggregate => "aggregate",
            CostCategory::OrderBy => "orderby",
            CostCategory::Project => "project",
            CostCategory::Exchange => "exchange",
            CostCategory::Other => "other",
        };
        layer.set(&format!("hw.sim_ms.{name}"), ms(b.get(c)), 1);
    }
}

/// DuckDB stand-in context: host time of the scan queries, simulated CPU
/// time of one pass.
pub(crate) fn set_cpu_ref(layer: &mut Sheet, refs: &BTreeMap<u32, crate::verify::Reference>) {
    for q in CPU_REF {
        if let Some(r) = refs.get(&q) {
            layer.set(&format!("cpu_ref.exec_ms.q{q:02}"), ms(r.host), 1);
        }
    }
    layer.set(
        "cpu_ref.sim_ms",
        refs.values().map(|r| ms(r.sim)).sum(),
        refs.len(),
    );
}

/// Self time per layer per pass; returns the printed table.
pub(crate) fn set_self_times(layer: &mut Sheet, spans: &Spans, passes: usize) -> Vec<String> {
    let mut out = vec![format!(
        "{:>14} {:>14} {:>8}",
        "layer", "self ms/pass", "spans"
    )];
    for (name, (total, count)) in spans.self_times() {
        let per_pass = ms(total) / passes as f64;
        layer.set(&format!("self_ms.{name}"), per_pass, count);
        out.push(format!("{name:>14} {per_pass:>14.3} {count:>8}"));
    }
    out
}
