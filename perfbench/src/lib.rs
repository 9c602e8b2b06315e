//! The repository benchmark: three named workloads run through the public
//! API of the engine stack (`sirius-tpch`, `sirius-sql`, `sirius-core`,
//! `sirius-serve`, `sirius-duckdb`), timed from outside on the host clock
//! and read on the simulated device clock.
//!
//! An untraced run reports the end-to-end metrics; a traced run (bench-side
//! host spans plus an engine built `with_trace(TraceConfig::On)`) reports
//! the per-layer metrics. Every timed result is checked against the DuckDB
//! stand-in; a mismatch fails the run.

mod batch;
pub mod cli;
mod serve;
pub mod spans;
pub mod stats;
mod verify;

use sirius_core::SiriusEngine;
use sirius_hw::{catalog as hw, Link};
use sirius_sql::BinderCatalog;
use sirius_tpch::{queries, TpchData};
use stats::Metric;

/// Worker threads (= device streams): the host has two cores, and workers
/// are real threads.
pub const WORKERS: usize = 2;

/// The engine every workload runs on: a GH200 behind NVLink-C2C with
/// [`WORKERS`] workers, every other option at its default (fusion on,
/// dictionary strings, default morsel size, concurrent pipelines).
pub fn engine() -> SiriusEngine {
    SiriusEngine::with_link(hw::gh200_gpu(), Link::new(hw::nvlink_c2c()), WORKERS)
}

/// Hot-load `data` into `engine` and reset its ledger, as the paper
/// measures hot runs.
pub fn load(engine: SiriusEngine, data: &TpchData) -> SiriusEngine {
    for (name, table) in data.tables() {
        engine.load_table(name.clone(), table);
    }
    engine.device().reset();
    engine
}

/// Schemas and row counts of `data` for the binder.
pub fn catalog(data: &TpchData) -> BinderCatalog {
    let mut cat = BinderCatalog::new();
    for (name, table) in data.tables() {
        cat.add_table(
            name.clone(),
            table.schema().clone(),
            table.num_rows() as u64,
        );
    }
    cat
}

/// SQL text of TPC-H query `q`.
pub fn sql(q: u32) -> &'static str {
    queries::all()
        .into_iter()
        .find_map(|(id, text)| (id == q).then_some(text))
        .unwrap_or_else(|| panic!("TPC-H has no query {q}"))
}

/// Engine configuration printed with every run.
pub fn engine_config() -> String {
    let e = engine();
    format!(
        "GH200 (simulated) over NVLink-C2C, {} workers, fusion {} (max segment {}), \
         dictionary strings, morsel {} rows, {:?} pipelines",
        e.workers(),
        if e.fusion_config().enabled {
            "on"
        } else {
            "off"
        },
        e.fusion_config().max_segment_len,
        e.morsel_config().rows,
        e.pipeline_scheduling(),
    )
}

/// What one run measured.
pub struct Report {
    /// Operations timed: queries, or served requests.
    pub attempted: u64,
    /// Operations that ended in an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Run parameters and per-layer self times, printed before the result.
    pub notes: Vec<String>,
    /// Host spans of the traced run, written out at exit.
    pub spans: Option<spans::Spans>,
}

/// Run one workload.
pub fn run(args: &cli::Args) -> Result<Report, String> {
    match args.workload {
        cli::Workload::TpchAdhoc => batch::run(&batch::ADHOC, args),
        cli::Workload::ScanHot => batch::run(&batch::SCAN_HOT, args),
        cli::Workload::ServeMix => serve::run(args),
    }
}
