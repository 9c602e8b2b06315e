//! `serve-mix`: seeded open-loop Poisson arrivals on the simulated clock,
//! sent as SQL text to a `SiriusServer` with a caching planner and replayed
//! at a ladder of fixed arrival rates.
//!
//! Arrivals never wait for the server (open loop) and no wall clock drives
//! them, so the generator cannot run late: a request's latency is
//! `completed − arrival` on the server's clock and already includes any
//! wait a stall imposed on it.

use crate::batch::{ratio, set_cpu_ref, set_hw, set_self_times};
use crate::cli::Args;
use crate::spans::Spans;
use crate::stats::{mb, median, ms, percentile, set_host_timings, Sheet, END_TO_END, PER_LAYER};
use crate::verify::Results;
use crate::Report;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirius_hw::TimeBreakdown;
use sirius_serve::{
    poisson_trace, ArrivalSpec, CachingPlanner, QueryDisposition, QueryRequest, ServeConfig,
    SiriusServer, TenantSpec,
};
use sirius_sql::{BinderCatalog, JoinOrderPolicy};
use sirius_tpch::{TpchData, TpchGenerator};
use sirius_trace::EventKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Scale factor: small queries, so per-request host overhead is a large
/// share of the work.
pub const SF: f64 = 0.005;
/// The `serve` bench binary's 8-query TPC-H mix.
pub const MIX: [u32; 8] = [1, 3, 5, 6, 9, 12, 14, 18];
/// Arrival rates replayed, in requests per simulated second, with the
/// requests each rung replays. The knee lies between 16k and 20k q/s:
/// there the p95 climbs from 0.5-1.1 ms to past 1.5 ms, shedding starts,
/// and whether 16k still passes depends on the seed. The rungs sit at
/// 0.5, 0.7, 0.875 and 1.25 times 16k, clear of that band.
pub const LADDER: [(f64, usize); 4] = [
    (8_000.0, 1000),
    (11_000.0, 300),
    (14_000.0, 300),
    (20_000.0, 300),
];
/// The rate `serve_p50_sim_ms`, `serve_p95_sim_ms` and `sim_ms` are read
/// at: half the knee, where the p95 is steady from seed to seed. It
/// replays the most requests.
pub const REFERENCE_QPS: f64 = 8_000.0;
/// p95 latency a rung must meet to count toward `serve_max_rate_qps`.
pub const LATENCY_LIMIT_MS: f64 = 1.5;
/// Share of the offered requests a rung must complete by its last arrival
/// (no growing backlog).
pub const MIN_COMPLETED_SHARE: f64 = 0.95;
/// Admission cap.
pub const MAX_IN_FLIGHT: usize = 2;
/// Working-set budget of the weight-1 tenant: small enough that its
/// queries spill.
pub const SPILL_BUDGET: u64 = 256 << 10;

/// Host cost and outcome counts of one timed replay.
struct Timed {
    host: Duration,
    attempted: usize,
    completed: usize,
    failed: usize,
}

struct Setup {
    data: TpchData,
    catalog: BinderCatalog,
    servers: Vec<SiriusServer>,
    /// Per rung: the requests and each request's index into [`MIX`].
    requests: Vec<Vec<QueryRequest>>,
    mix_of: Vec<Vec<usize>>,
}

fn server(data: &TpchData, catalog: &BinderCatalog) -> SiriusServer {
    let config = ServeConfig {
        max_in_flight: MAX_IN_FLIGHT,
        tenant_weights: vec![2, 1],
        ..ServeConfig::default()
    };
    SiriusServer::new(crate::load(crate::engine(), data), config).with_planner(CachingPlanner::new(
        catalog.clone(),
        JoinOrderPolicy::Optimized,
    ))
}

fn setup(seed: u64) -> (Setup, Duration) {
    let t = Instant::now();
    let data = TpchGenerator::new(SF).with_seed(seed).generate();
    let generate = t.elapsed();
    let catalog = crate::catalog(&data);
    let servers = LADDER.iter().map(|_| server(&data, &catalog)).collect();
    let mut requests = Vec::new();
    let mut mix_of = Vec::new();
    for &(rate, count) in &LADDER {
        let trace = poisson_trace(&ArrivalSpec {
            seed,
            rate_qps: rate,
            count,
            tenants: vec![TenantSpec::new("etl", 2), TenantSpec::new("adhoc", 1)],
            queries: MIX.len(),
        });
        let slots = stratified(seed, count);
        mix_of.push(slots.iter().map(|&(q, _)| q).collect());
        requests.push(
            trace
                .iter()
                .zip(&slots)
                .map(|(a, &(q, tenant))| {
                    let mut r = QueryRequest::from_sql(a.id, tenant, a.arrival, crate::sql(MIX[q]));
                    r.priority = a.priority;
                    if tenant == 1 {
                        r.memory_budget = Some(SPILL_BUDGET);
                    }
                    r
                })
                .collect(),
        );
    }
    let s = Setup {
        data,
        catalog,
        servers,
        requests,
        mix_of,
    };
    (s, generate)
}

/// Query (index into [`MIX`]) and tenant of each request, stratified:
/// every block of 24 requests holds each mix query three times, twice for
/// the weight-2 tenant and once for the weight-1 tenant, in a seeded
/// order. Arrival instants and priorities stay those of the Poisson trace.
/// Drawn independently, as `poisson_trace` draws them, a rung's share of
/// slow spilling requests moves its p95 by a quarter from seed to seed.
fn stratified(seed: u64, n: usize) -> Vec<(usize, usize)> {
    // Not `poisson_trace`'s own stream: that one drew the arrivals.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_57A7);
    let mut out = Vec::with_capacity(n + 3 * MIX.len());
    while out.len() < n {
        let mut block: Vec<(usize, usize)> = (0..MIX.len())
            .flat_map(|q| [(q, 0), (q, 0), (q, 1)])
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..=i));
        }
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// What one rung's replay produced.
#[derive(Default, PartialEq)]
struct Rung {
    /// Simulated latency per request in id order; not completed = ∞.
    latency_ms: Vec<f64>,
    completed: usize,
    failed: usize,
    cancelled: usize,
    shed: usize,
    rejected: usize,
    /// Completed by the instant of the last arrival.
    on_time: usize,
    queue_wait_ms: Vec<f64>,
    /// Per completed request: (mix index, simulated device ms).
    device_ms: Vec<(usize, f64)>,
    waves: u64,
    peak_in_flight: usize,
    max_queue_depth: usize,
    retries: u64,
    spill_bytes: u64,
    spill_partitions: u64,
    morsels: u64,
    tasks: u64,
    worker_util: Vec<f64>,
    granted: u64,
    denied: u64,
    hits: u64,
    misses: u64,
    replans: u64,
    planning_phases: u64,
    pool_hwm: u64,
    breakdown: TimeBreakdown,
    kernels: u64,
    kernel_bytes: u64,
}

impl Rung {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ms, q)
    }

    /// Meets the latency limit with no growing backlog.
    fn passes(&self) -> bool {
        self.p(0.95) <= LATENCY_LIMIT_MS
            && self.on_time as f64 >= MIN_COMPLETED_SHARE * self.latency_ms.len() as f64
    }
}

fn replay(
    server: &SiriusServer,
    requests: Vec<QueryRequest>,
    mix_of: &[usize],
    results: &mut Results,
) -> Result<(Rung, Duration), String> {
    let planner = server.planner().expect("servers are built with a planner");
    let broker = server.engine().buffer_manager().grant_broker();
    let (granted0, denied0) = (broker.granted(), broker.denied());
    let (cache0, phases0) = (planner.cache_stats(), planner.planning_phases());
    let last_arrival = requests.iter().map(|r| r.arrival).max().unwrap_or_default();
    let n = requests.len();

    let t = Instant::now();
    let out = server.replay(requests);
    let host = t.elapsed();

    let d = out.dispositions();
    let mut r = Rung {
        latency_ms: vec![f64::INFINITY; n],
        completed: d.completed,
        failed: d.failed,
        cancelled: d.cancelled,
        shed: d.shed,
        rejected: d.rejected,
        waves: out.waves,
        peak_in_flight: out.peak_in_flight,
        max_queue_depth: out.max_queue_depth,
        breakdown: out.breakdown.clone(),
        ..Rung::default()
    };
    for q in out.queries {
        let id = q.id as usize;
        r.retries += u64::from(q.retries);
        r.queue_wait_ms.push(ms(q.queue_wait));
        r.spill_bytes += q.report.spilled_pinned_bytes + q.report.spilled_disk_bytes;
        r.spill_partitions += q.report.spill_partitions;
        for ev in &q.events {
            if ev.kind == EventKind::Kernel {
                r.kernels += 1;
                r.kernel_bytes += ev.bytes;
            }
        }
        match (q.disposition, &q.result) {
            (QueryDisposition::Completed, Ok(table)) => {
                r.latency_ms[id] = ms(q.latency);
                r.on_time += usize::from(q.completed <= last_arrival);
                r.device_ms.push((mix_of[id], ms(q.report.elapsed)));
                r.morsels += q.report.morsels;
                r.tasks += q.report.tasks;
                r.worker_util.push(q.report.worker_utilization);
                results.add(MIX[mix_of[id]], table);
            }
            (QueryDisposition::Completed, Err(e)) => {
                return Err(format!("request {id} completed without a result: {e}"))
            }
            _ => {}
        }
    }
    let cache = planner.cache_stats();
    r.granted = broker.granted() - granted0;
    r.denied = broker.denied() - denied0;
    r.hits = cache.hits - cache0.hits;
    r.misses = cache.misses - cache0.misses;
    r.replans = cache.replans - cache0.replans;
    r.planning_phases = planner.planning_phases() - phases0;
    r.pool_hwm = server
        .engine()
        .buffer_manager()
        .regions()
        .processing()
        .stats()
        .high_watermark;
    Ok((r, host))
}

/// Ladder passes until `budget` has elapsed (at least one). Every pass
/// replays the same traces on freshly built servers and must reproduce
/// the first pass exactly.
fn phase(
    s: &mut Setup,
    budget: Duration,
    traced: bool,
    mut spans: Option<&mut Spans>,
    results: &mut Results,
    host: &mut Vec<Timed>,
) -> Result<Vec<Rung>, String> {
    let start = Instant::now();
    let mut first: Option<Vec<Rung>> = None;
    loop {
        let mut rungs = Vec::with_capacity(LADDER.len());
        for i in 0..LADDER.len() {
            let mut requests = s.requests[i].clone();
            for r in &mut requests {
                r.trace = traced;
            }
            let t = Instant::now();
            let (rung, took) = replay(&s.servers[i], requests, &s.mix_of[i], results)?;
            if let Some(sp) = spans.as_deref_mut() {
                sp.record(i as u64, "serve.replay", None, t, t + took);
            }
            host.push(Timed {
                host: took,
                attempted: rung.latency_ms.len(),
                completed: rung.completed,
                failed: rung.failed,
            });
            rungs.push(rung);
        }
        match &first {
            Some(f) if *f != rungs => {
                return Err(
                    "a ladder pass did not reproduce the first pass's simulated results".into(),
                )
            }
            Some(_) => {}
            None => first = Some(rungs),
        }
        // Another pass only if it should end within the budget.
        let passes = host.len() / LADDER.len();
        if start.elapsed() + start.elapsed() / passes as u32 > budget {
            return Ok(first.expect("one pass ran"));
        }
        // The next pass starts from cold servers, like the first.
        s.servers = LADDER.iter().map(|_| server(&s.data, &s.catalog)).collect();
    }
}

fn reference(rungs: &[Rung]) -> &Rung {
    let i = LADDER
        .iter()
        .position(|&(rate, _)| rate == REFERENCE_QPS)
        .expect("the reference rate is on the ladder");
    &rungs[i]
}

/// Highest rung that passes, with every rung below it passing too.
fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .zip(LADDER)
        .take_while(|(r, _)| r.passes())
        .last()
        .map_or(0.0, |(_, (rate, _))| rate)
}

/// Run `count` timed set-ups, keeping the last; `setup_s` is their
/// median. Returns it with every set-up's total and data-generation
/// seconds.
fn time_setups<T>(
    count: usize,
    mut setup: impl FnMut() -> (T, Duration),
) -> (T, Vec<f64>, Vec<f64>) {
    let mut totals = Vec::with_capacity(count);
    let mut gens = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count {
        // The previous set-up goes first, so two never share the peak
        // resident set.
        drop(last.take());
        let t = std::time::Instant::now();
        let (s, generate) = setup();
        totals.push(t.elapsed().as_secs_f64());
        gens.push(generate.as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), totals, gens)
}

/// Run `serve-mix`.
pub fn run(args: &Args) -> Result<Report, String> {
    // A set-up takes well under a second here, so more of them keep the
    // median steady.
    let (mut s, setup_s, generate_s) = time_setups(9, || setup(args.seed));
    let mut results = Results::default();
    let mut host: Vec<Timed> = Vec::new();
    let mut notes = vec![
        format!(
            "SF {SF}, ladder (q/s, arrivals) {LADDER:?}, reference \
             {REFERENCE_QPS} q/s, p95 limit {LATENCY_LIMIT_MS} ms, max in flight {MAX_IN_FLIGHT}, \
             tenants etl:adhoc = 2:1, adhoc budget {SPILL_BUDGET} B"
        ),
        format!("set-up s: {setup_s:?}"),
    ];

    if !args.trace {
        let rungs = phase(&mut s, args.seconds, false, None, &mut results, &mut host)?;
        let peak_rss = crate::stats::peak_rss_mb()?;
        let passes = host.len() / LADDER.len();
        let (refs, verify) = verify(&s, &results)?;
        let reference = reference(&rungs);
        let completed: usize = host.iter().map(|h| h.completed).sum();
        // Host timings are printed here and reported by the traced run.
        notes.push(host_timings(&mut Sheet::new(PER_LAYER), &host));
        let attempted = rungs.iter().map(|r| r.latency_ms.len()).sum::<usize>();
        let done = rungs.iter().map(|r| r.completed).sum::<usize>();
        let mut e2e = Sheet::new(END_TO_END);
        e2e.set("setup_s", median(&setup_s), setup_s.len());
        e2e.set("peak_rss_mb", peak_rss, 1);
        e2e.set("sim_ms", mix_device_ms(reference), reference.completed);
        e2e.set(
            "serve_p50_sim_ms",
            reference.p(0.5),
            reference.latency_ms.len(),
        );
        e2e.set(
            "serve_p95_sim_ms",
            reference.p(0.95),
            reference.latency_ms.len(),
        );
        e2e.set("serve_max_rate_qps", max_rate(&rungs), LADDER.len());
        e2e.set("completed_share", done as f64 / attempted as f64, attempted);
        notes.extend(ladder_notes(&rungs));
        notes.push(format!(
            "{passes} ladder passes, {completed} completed requests, all checked against the \
             DuckDB stand-in in {verify:.3} s; cpu_ref sim ms per mix pass {:.4}",
            refs.values().map(|r| ms(r.sim)).sum::<f64>()
        ));
        return Ok(Report {
            attempted: host.iter().map(|h| h.attempted as u64).sum(),
            failed: host.iter().map(|h| h.failed as u64).sum(),
            metrics: e2e.metrics(false)?,
            notes,
            spans: None,
        });
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half in which every request records its kernel events on its
    // engine view (`QueryRequest::trace`) and each rung replay is a span.
    let half = args.seconds / 2;
    phase(&mut s, half, false, None, &mut results, &mut host)?;
    let plain: Vec<Timed> = std::mem::take(&mut host);
    s.servers = LADDER.iter().map(|_| server(&s.data, &s.catalog)).collect();
    let mut spans = Spans::new();
    let rungs = phase(
        &mut s,
        half,
        true,
        Some(&mut spans),
        &mut results,
        &mut host,
    )?;
    let traced_passes = host.len() / LADDER.len();
    let (refs, verify) = verify(&s, &results)?;
    let reference = reference(&rungs);
    let total = |f: &dyn Fn(&Rung) -> u64| rungs.iter().map(f).sum::<u64>();
    let sum = |f: &dyn Fn(&Rung) -> u64| total(f) as f64;

    let mut layer = Sheet::new(PER_LAYER);
    notes.push(host_timings(&mut layer, &plain));
    layer.set("tpch.generate_s", median(&generate_s), generate_s.len());
    layer.set("tpch.input_mb", mb(s.data.total_bytes()), 1);
    layer.set("core.morsels", sum(&|r| r.morsels), 1);
    layer.set("core.tasks", sum(&|r| r.tasks), 1);
    let util: Vec<f64> = rungs
        .iter()
        .flat_map(|r| r.worker_util.iter().copied())
        .collect();
    layer.set(
        "core.worker_util",
        util.iter().sum::<f64>() / util.len().max(1) as f64,
        util.len(),
    );
    set_hw(&mut layer, &reference.breakdown);
    layer.set("hw.kernels", reference.kernels as f64, 1);
    layer.set("hw.kernel_mb", mb(reference.kernel_bytes), 1);
    layer.set(
        "rmm.pool_hwm_mb",
        mb(rungs.iter().map(|r| r.pool_hwm).max().unwrap_or(0)),
        1,
    );
    layer.set("spill.mb", mb(total(&|r| r.spill_bytes)), 1);
    layer.set("spill.partitions", sum(&|r| r.spill_partitions), 1);
    layer.set(
        "broker.denied_ratio",
        ratio(total(&|r| r.denied), total(&|r| r.granted + r.denied)),
        1,
    );
    let replay_s: Vec<f64> = host.iter().map(|h| h.host.as_secs_f64()).collect();
    layer.set("serve.replay_s", median(&replay_s), replay_s.len());
    layer.set(
        "serve.queue_wait_p95_sim_ms",
        percentile(&reference.queue_wait_ms, 0.95),
        reference.queue_wait_ms.len(),
    );
    layer.set("serve.waves", sum(&|r| r.waves), 1);
    layer.set(
        "serve.peak_in_flight",
        rungs.iter().map(|r| r.peak_in_flight).max().unwrap_or(0) as f64,
        1,
    );
    layer.set(
        "serve.max_queue_depth",
        rungs.iter().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
        1,
    );
    layer.set("serve.retries", sum(&|r| r.retries), 1);
    layer.set("serve.shed", sum(&|r| r.shed as u64), 1);
    layer.set("serve.rejected", sum(&|r| r.rejected as u64), 1);
    layer.set("serve.cancelled", sum(&|r| r.cancelled as u64), 1);
    layer.set(
        "planner.hit_ratio",
        ratio(total(&|r| r.hits), total(&|r| r.hits + r.misses)),
        1,
    );
    layer.set("planner.planning_phases", sum(&|r| r.planning_phases), 1);
    layer.set("planner.replans", sum(&|r| r.replans), 1);
    set_cpu_ref(&mut layer, &refs);
    let per_pass = |h: &[Timed]| {
        h.iter().map(|x| x.host.as_secs_f64()).sum::<f64>() / (h.len() / LADDER.len()) as f64
    };
    layer.set(
        "bench.trace_overhead_pct",
        (per_pass(&host) / per_pass(&plain) - 1.0) * 100.0,
        plain.len() + host.len(),
    );
    layer.set("bench.verify_s", verify, 1);
    notes.extend(set_self_times(&mut layer, &spans, traced_passes));
    notes.extend(ladder_notes(&rungs));
    let all = plain.iter().chain(&host);
    Ok(Report {
        attempted: all.clone().map(|h| h.attempted as u64).sum(),
        failed: all.map(|h| h.failed as u64).sum(),
        metrics: layer.metrics(true)?,
        notes,
        spans: Some(spans),
    })
}

/// Completed requests per replay host second; per replay, host ms per
/// completed request.
fn host_timings(sheet: &mut Sheet, replays: &[Timed]) -> String {
    let completed: usize = replays.iter().map(|h| h.completed).sum();
    let host_s: f64 = replays.iter().map(|h| h.host.as_secs_f64()).sum();
    let per_request: Vec<f64> = replays
        .iter()
        .map(|h| ms(h.host) / h.completed.max(1) as f64)
        .collect();
    set_host_timings(sheet, completed as f64 / host_s, &per_request)
}

/// Simulated device time of one pass over the mix at the reference rate:
/// per query, the median device time of its completed requests, summed.
fn mix_device_ms(r: &Rung) -> f64 {
    let mut by_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(q, d) in &r.device_ms {
        by_query.entry(q).or_default().push(d);
    }
    by_query.values().map(|v| median(v)).sum()
}

fn verify(
    s: &Setup,
    results: &Results,
) -> Result<(BTreeMap<u32, crate::verify::Reference>, f64), String> {
    let t = Instant::now();
    let mut plans = BTreeMap::new();
    for q in MIX {
        // The estimate-only plan; feedback re-plans change the join order,
        // never the result.
        let plan = sirius_sql::plan_sql(crate::sql(q), &s.catalog, JoinOrderPolicy::Optimized)
            .map_err(|e| format!("Q{q}: plan: {e}"))?;
        plans.insert(q, plan);
    }
    let refs = results.verify(&s.data, &plans)?;
    Ok((refs, t.elapsed().as_secs_f64()))
}

fn ladder_notes(rungs: &[Rung]) -> Vec<String> {
    let mut out = vec![format!(
        "{:>8} {:>9} {:>9} {:>9} {:>6} {:>6} {:>8} {:>9} {:>6}",
        "rate q/s", "p50 ms", "p95 ms", "done", "shed", "rej", "on time", "spill MB", "pass"
    )];
    for (r, (rate, _)) in rungs.iter().zip(LADDER) {
        out.push(format!(
            "{rate:>8} {:>9.4} {:>9.4} {:>9} {:>6} {:>6} {:>8.3} {:>9.2} {:>6}",
            r.p(0.5),
            r.p(0.95),
            r.completed,
            r.shed,
            r.rejected,
            r.on_time as f64 / r.latency_ms.len() as f64,
            mb(r.spill_bytes),
            r.passes()
        ));
    }
    out
}
