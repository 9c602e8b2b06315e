//! Strict command-line parsing: every flag is known, every value parses,
//! and nothing falls back to a default when a given value is malformed.

use std::fmt;
use std::time::Duration;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 22 TPC-H queries planned from SQL text on every execution.
    TpchAdhoc,
    /// Five scan-heavy queries re-executed from cached plans.
    ScanHot,
    /// Open-loop Poisson arrivals replayed through the serving layer.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::TpchAdhoc, Workload::ScanHot, Workload::ServeMix];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchAdhoc => "tpch-adhoc",
            Workload::ScanHot => "scan-hot",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Why the workload exists, printed with every run.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TpchAdhoc => {
                "the only workload where planning and join order matter: every \
                 execution parses, binds, optimizes and compiles, and joins dominate the tail"
            }
            Workload::ScanHot => {
                "fused scan/filter/project/aggregate segments do almost all the work \
                 from cached plans; planning costs nothing and no join spans more than two tables"
            }
            Workload::ServeMix => {
                "the only workload that exercises admission, wave scheduling, shedding, \
                 plan-cache hits with feedback re-plans, and spilling under a shared grant broker"
            }
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A validated invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds the TPC-H generator and the arrival trace.
    pub seed: u64,
    /// Host time the timed phase measures for at least.
    pub seconds: Duration,
    /// Run the traced phase and report per-layer metrics instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Host timings a timed phase collects at least, whatever `seconds`
    /// says, so the p90 has ten samples beyond it. The command line always
    /// uses [`MIN_HOST_SAMPLES`]; the self-tests lower it.
    pub min_samples: usize,
}

/// Smallest sample whose p90 has ten samples beyond it.
pub const MIN_HOST_SAMPLES: usize = 100;

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nusage: perfbench --workload <tpch-adhoc|scan-hot|serve-mix> --seed <u64> \
             [--seconds <1..=600>] [--trace <0|1>]",
            self.0
        )
    }
}

impl std::error::Error for UsageError {}

/// Parse `--flag value` pairs (program name already stripped).
/// `--workload` and `--seed` are required; `--seconds` defaults to 10 and
/// `--trace` to 0 when absent, but a present value that does not parse is
/// an error, as are unknown and repeated flags.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, UsageError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut I::IntoIter| {
            it.next()
                .ok_or_else(|| UsageError(format!("{flag} needs a value")))
        };
        let slot_taken = |taken: bool| {
            if taken {
                Err(UsageError(format!("{flag} given twice")))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                let v = value(&mut it)?;
                workload = Some(
                    Workload::parse(&v)
                        .ok_or_else(|| UsageError(format!("unknown workload {v:?}")))?,
                );
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                let v = value(&mut it)?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| UsageError(format!("--seed {v:?} is not a u64")))?,
                );
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let v = value(&mut it)?;
                match v.parse::<u64>() {
                    Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                    _ => {
                        return Err(UsageError(format!(
                            "--seconds {v:?} is not a whole number in 1..=600"
                        )))
                    }
                }
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                let v = value(&mut it)?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(UsageError(format!("--trace {v:?} is not 0 or 1"))),
                });
            }
            other => return Err(UsageError(format!("unknown argument {other:?}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| UsageError("--workload is required".into()))?,
        seed: seed.ok_or_else(|| UsageError("--seed is required".into()))?,
        seconds: Duration::from_secs(seconds.unwrap_or(10)),
        trace: trace.unwrap_or(false),
        min_samples: MIN_HOST_SAMPLES,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, UsageError> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_every_flag() {
        let a = args("--workload serve-mix --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeMix);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
    }

    #[test]
    fn rejects_what_does_not_parse() {
        for bad in [
            "--workload tpch --seed 1",
            "--workload scan-hot --seed -1",
            "--workload scan-hot --seed 1x",
            "--workload scan-hot --seed 1 --seconds 0",
            "--workload scan-hot --seed 1 --seconds 2.5",
            "--workload scan-hot --seed 1 --trace yes",
            "--workload scan-hot --seed 1 --sf 0.1",
            "--workload scan-hot --seed 1 --seed 2",
            "--workload scan-hot",
            "--seed 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
