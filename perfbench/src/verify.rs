//! The correctness gate: every timed result is compared with the DuckDB
//! stand-in's result for the same plan, by canonical rows with a 1e-9
//! relative float tolerance (the rule of the integration suite's
//! `assert_tables_equivalent`).
//!
//! Results are collected while the workload runs, but the reference runs
//! happen afterwards, so they never fall inside a timed window, `setup_s`
//! or the workload's peak resident set. Each distinct result (bit-exact
//! deduplicated) is kept in canonical form until then; a query whose runs
//! all agree keeps one.

use sirius_columnar::{Scalar, Table};
use sirius_duckdb::DuckDb;
use sirius_plan::Rel;
use sirius_tpch::TpchData;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A result in canonical form: column count and sorted rows.
type Canonical = (usize, Vec<Vec<Scalar>>);

/// Every distinct result each query produced.
#[derive(Default)]
pub struct Results {
    variants: BTreeMap<u32, Vec<Canonical>>,
}

/// One reference run of the DuckDB stand-in.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Host time of the CPU execution.
    pub host: Duration,
    /// Simulated CPU-instance time.
    pub sim: Duration,
}

impl Results {
    /// Record one result of TPC-H query `query`.
    pub fn add(&mut self, query: u32, table: &Table) {
        let canonical = (table.num_columns(), table.canonical_rows());
        let seen = self.variants.entry(query).or_default();
        if !seen.contains(&canonical) {
            seen.push(canonical);
        }
    }

    /// Run each query's plan once on the DuckDB stand-in and compare every
    /// recorded result with it. `plans` must hold a plan for every query
    /// that recorded a result.
    pub fn verify(
        &self,
        data: &TpchData,
        plans: &BTreeMap<u32, Rel>,
    ) -> Result<BTreeMap<u32, Reference>, String> {
        let mut duck = DuckDb::new();
        for (name, table) in data.tables() {
            duck.create_table(name.clone(), table.clone());
        }
        let mut refs = BTreeMap::new();
        for (&q, variants) in &self.variants {
            let plan = plans
                .get(&q)
                .ok_or_else(|| format!("Q{q}: no plan to compute the reference from"))?;
            let before = duck.device().breakdown();
            let t = Instant::now();
            let expected = duck
                .execute_plan(plan)
                .map_err(|e| format!("Q{q}: reference run failed: {e}"))?;
            let host = t.elapsed();
            let sim = duck.device().breakdown().since(&before).total();
            let expected = (expected.num_columns(), expected.canonical_rows());
            for got in variants {
                equivalent(&format!("Q{q}"), got, &expected)?;
            }
            refs.insert(q, Reference { host, sim });
        }
        Ok(refs)
    }
}

fn equivalent(label: &str, got: &Canonical, expected: &Canonical) -> Result<(), String> {
    if got.1.len() != expected.1.len() {
        return Err(format!(
            "{label}: {} rows, reference has {}",
            got.1.len(),
            expected.1.len()
        ));
    }
    if got.0 != expected.0 {
        return Err(format!(
            "{label}: {} columns, reference has {}",
            got.0, expected.0
        ));
    }
    for (i, (x, y)) in got.1.iter().zip(&expected.1).enumerate() {
        for (c, (sx, sy)) in x.iter().zip(y).enumerate() {
            if !scalar_close(sx, sy) {
                return Err(format!(
                    "{label}: row {i} col {c} differs: {sx:?} vs reference {sy:?}"
                ));
            }
        }
    }
    Ok(())
}

fn scalar_close(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float64(x), Scalar::Float64(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_tolerance_is_relative_and_tight() {
        assert!(scalar_close(
            &Scalar::Float64(1e6),
            &Scalar::Float64(1e6 + 1e-4)
        ));
        assert!(!scalar_close(
            &Scalar::Float64(1e6),
            &Scalar::Float64(1e6 + 1e-2)
        ));
        let a = (1, vec![vec![Scalar::Int64(1)]]);
        let b = (1, vec![vec![Scalar::Int64(2)]]);
        assert!(equivalent("t", &a, &a).is_ok());
        assert!(equivalent("t", &a, &b).is_err());
        assert!(equivalent("t", &a, &(1, vec![])).is_err());
    }
}
