//! `perfbench`: the end-to-end benchmark of the EAR reproduction.
//!
//! ```text
//! perfbench --workload <tables_cold|sweep_cached|fleet_stream|eard_uds|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process against the workspace's public
//! API. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A human
//! report (run provenance, layer accounting) goes to standard error.
//! `--workload all` runs every workload untraced and traced in child
//! processes and prints one summary table.

mod checks;
mod layers;
mod md5;
mod report;
mod stats;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["tables_cold", "sweep_cached", "fleet_stream", "eard_uds"];

/// Engine workers of the simulation workloads.
pub const WORKERS: usize = 2;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget (s).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Private scratch directory (result cache, artifacts, sockets).
    pub dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The git revision of the checkout, when it is a git work tree.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| r.to_string(), |s| s.trim().to_string()),
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Pins the environment variables the workspace reads, so a caller's
/// shell cannot change what is measured: a private result-cache and
/// break-even directory, the default uncore-domain world, calibrated MPI
/// gating and the benchmark's own worker count.
fn pin_environment(dir: &std::path::Path) {
    for var in [
        "EAR_UNCORE_DOMAINS",
        "EAR_MPI_BREAK_EVEN",
        "EAR_JOBS",
        "EAR_CACHE",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("EAR_CACHE_DIR", dir);
    ear_experiments::set_default_jobs(WORKERS);
    ear_experiments::set_result_cache(None);
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let dir =
        PathBuf::from(".perfbench-runs").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    pin_environment(&dir);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.clone(),
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rustc_version(),
        git_revision()
    );
    let result = match args.workload.as_str() {
        "tables_cold" => workloads::tables_cold(&ctx),
        "sweep_cached" => workloads::sweep_cached(&ctx),
        "fleet_stream" => workloads::fleet_stream(&ctx),
        _ => workloads::eard_uds(&ctx),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-runs");
    let mut outcome = result.map_err(|e| e.to_string())?;
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.set(
        "run.nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
    );
    Ok(outcome)
}

/// `--workload all`: every workload untraced, then traced, each in its own
/// child process; prints one summary row per workload and metric.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    println!("{:<14} {:<28} {:>16} unit", "workload", "metric", "value");
    for w in WORKLOADS {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let t0 = Instant::now();
            let out = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("running {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("").to_string();
            eprintln!(
                "perfbench: {w} trace={trace} took {:.1} s",
                t0.elapsed().as_secs_f64()
            );
            if !out.status.success() || !line.contains("\"correct\": true") {
                all_ok = false;
            }
            lines.push(line);
        }
        let (plain, traced) = (&lines[0], &lines[1]);
        let field = |k| checks::json_field(plain, k).unwrap_or("?");
        println!(
            "{w:<14} {:<28} correct {} attempted {} failed {}",
            "result",
            field("correct"),
            field("attempted"),
            field("failed")
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let src = if END_TO_END.iter().any(|m| m.0 == *name) {
                plain
            } else {
                traced
            };
            if let Some(v) = checks::metric_value(src, name) {
                println!("{w:<14} {name:<28} {v:>16.6} {unit}");
            }
        }
        if let (Some(a), Some(b)) = (
            checks::metric_value(traced, "acct.wall_s"),
            checks::metric_value(plain, "wall_s"),
        ) {
            println!("{w:<14} {:<28} {:>16.6} s", "tracing_overhead_s", a - b);
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run_one(&args) {
        Ok(outcome) => {
            let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", outcome.to_json(catalogue));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload eard_uds --seed 7 --seconds 10 --trace 1"));
        let a = a.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("eard_uds", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload eard_uds --seed x --seconds 1 --trace 0",
            "--workload eard_uds --seed 1 --seconds 0 --trace 0",
            "--workload eard_uds --seed 1 --seconds 1 --trace 2",
            "--workload eard_uds --seed",
            "--seed 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
