//! `perfbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Prints the run's stamp and readable tables, then, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. A wrong result, a malformed argument or any
//! other failure exits non-zero without that line.

use perfbench::{cli, stats};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    one_malloc_arena();
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Put every thread on glibc's main malloc arena. With an arena per
/// worker thread, freed buffers stay in whichever arena allocated them,
/// so the peak resident set follows thread timing: one `tpch-adhoc` seed
/// peaked at 535 MB alone and at 745 MB beside another process; with one
/// arena, at 514 MB and 531 MB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    /// `M_ARENA_MAX` in glibc's `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers and only changes allocator
    // tunables; it runs before this process starts any other thread.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "glibc refused M_ARENA_MAX");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn run(args: &cli::Args) -> Result<String, String> {
    let w = args.workload;
    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    println!("# revision {}", revision());
    println!(
        "# nproc {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# engine {}", perfbench::engine_config());
    println!("# workload {}: {}", w.name(), w.why());
    let report = perfbench::run(args)?;
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "{:<30} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(spans) = &report.spans {
        let path = format!("perfbench/out/spans-{}-{}.json", w.name(), args.seed);
        spans
            .write_chrome(Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("# {} host spans written to {path}", spans.spans().len());
    }
    stats::result_line(report.attempted, report.failed, &report.metrics)
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark's own checkouts may carry no `.git` at all.
fn revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git in the working directory)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference} not found)"))
}
