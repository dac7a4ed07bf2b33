//! `earsim` — the command-line front end of the reproduction.
//!
//! ```text
//! earsim list                          # the workload catalog
//! earsim run --app HPCG [options]     # one experiment cell
//! earsim sweep [--quick]              # (pstate x uncore) grid + fitted policy
//! earsim table 3 | earsim fig 7       # regenerate a paper table/figure
//! earsim future                       # the future-work experiments
//! earsim surface --app DGEMM          # 2-D CPU x IMC energy surface
//! earsim related                      # ME+eU vs the DUF controller
//! earsim conf                         # print the default ear.conf
//! earsim all                          # the whole evaluation
//! earsim serve --socket /tmp/eard.sock   # networked EARD daemon
//! earsim loadgen --socket /tmp/eard.sock --clients 8 --duration 2
//! ```
//!
//! Run options: `--policy NAME` (default `min_energy_eufs`), `--cpu-th PCT`
//! (0–50, default 5), `--unc-th PCT` (0–50, default 2), `--runs N`
//! (1–1000, default 3), `--seed N`, `--search hw|linear`,
//! `--range maxonly|pinned|band:N`.
//!
//! Every subcommand accepts a global `--jobs N`: the worker-thread count
//! of the parallel experiment engine (default: available parallelism; the
//! `EAR_JOBS` environment variable also works). Results are bit-identical
//! for any `--jobs` value. After the output, a machine-readable engine
//! summary (tasks, wall time, speedup vs serial estimate, calibration
//! cache hits) is printed to stderr as one `earsim-telemetry:` JSON line.
//!
//! Two more global flags: `--model NAME` selects the energy model every
//! EARL instance uses (`avx512` is the default, `default` the plain
//! Intel model), and `--trace FILE` enables the structured trace bus and
//! writes the recorded event stream as JSONL when the command finishes.
//!
//! Results are also cached persistently: every (workload, configuration,
//! seed) cell's averaged result lands in `target/earsim-cache/` keyed by
//! a content digest, so repeated invocations are served from disk with
//! byte-identical output. `--no-cache` (or `EAR_CACHE=0`) disables the
//! store, `EAR_CACHE_DIR` relocates it; corrupt entries are dropped and
//! re-simulated, never trusted.

use ear::core::conf::{parse_ear_conf, render_ear_conf, valid_policy_th};
use ear::core::{EarlConfig, ImcRange, ImcSearch, ModelRegistry, PolicySettings};
use ear::errors::EarError;
use ear::experiments::{compare, figures, run_cell, tables, RunKind};
use ear::workloads::{by_name, full_catalog};
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: earsim <list|run|sweep|table|fig|all> [args]\n\
         \n\
         earsim list\n\
         earsim run --app NAME [--policy P] [--cpu-th PCT] [--unc-th PCT]\n\
         \x20          [--runs N] [--seed N] [--search hw|linear]\n\
         \x20          [--range maxonly|pinned|band:N]\n\
         earsim run --conf FILE --app NAME   (ear.conf instead of flags)\n\
         earsim sweep [--app NAME]... [--quick] [--runs N] [--seed N]\n\
         \x20            [--out-dir DIR] [--max-residual PCT]\n\
         \x20            full (pstate x uncore) grid characterisation,\n\
         \x20            T/P surface fit, one-shot fitted policy report\n\
         earsim sweep --fig1 NAME   fixed-uncore sweep (paper Fig. 1)\n\
         earsim table <1..8>   (8 = per-die uncore domains)\n\
         earsim fig <1|3..8>\n\
         earsim surface --app NAME\n\
         earsim related\n\
         earsim future\n\
         earsim conf\n\
         earsim all\n\
         earsim bench [--quick] [--out FILE]   hot-path micro-benchmarks\n\
         earsim bench --verify FILE            validate a BENCH json artifact\n\
         \x20                                  (fails rows with speedup < 1.0)\n\
         earsim bench --verify-telemetry FILE  validate an earsim-telemetry line\n\
         earsim serve --socket PATH|HOST:PORT [--workers N] [--node N]\n\
         \x20            [--ceiling PSTATE:IMCMAX] [--max-seconds S]\n\
         earsim loadgen --socket PATH|HOST:PORT [--clients K]\n\
         \x20            [--duration S] [--shutdown]\n\
         earsim cluster [--nodes N] [--fanout N] [--duration S]\n\
         \x20            [--shards N] [--poll-every S] [--batch N]\n\
         \x20            [--budget W]   in-process daemons behind an EARGM\n\
         \x20                           aggregation tree, real codec\n\
         earsim jobstream [--nodes N] [--budget W] [--arrival-rate J/H]\n\
         \x20            [--seed N] [--max-jobs N] [--quick] [--uds DIR]\n\
         \x20            [--pstate-only]   Poisson job arrivals over a\n\
         \x20                           powercapped fleet: FCFS queue,\n\
         \x20                           EARGM budget rebalancing, RAPL PL1\n\
         earsim powercap   cap sweep, cap-vs-throughput frontier, and the\n\
         \x20                           oversubscribed-budget stress scenario\n\
         \n\
         global: --jobs N     engine worker threads (default: all cores);\n\
         \x20                results are bit-identical for any worker count.\n\
         \x20                An 'earsim-telemetry:' JSON summary goes to stderr.\n\
         \x20      --model M    energy model for every EARL instance\n\
         \x20                (avx512 default, or default).\n\
         \x20      --trace F    record the structured event stream and write\n\
         \x20                it to F as JSONL on exit.\n\
         \x20      --no-cache   disable the persistent result cache\n\
         \x20                (default store: target/earsim-cache, or\n\
         \x20                $EAR_CACHE_DIR; EAR_CACHE=0 also disables)."
    );
    exit(2)
}

/// Parses the `--key value` pairs of `run` and `surface`. A key outside
/// `accepted`, or a bare word, exits 2 instead of being ignored.
fn parse_flags(cmd: &str, args: &[String], accepted: &[&str]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--").filter(|k| accepted.contains(k)) else {
            eprintln!("unknown {cmd} argument '{a}'");
            usage();
        };
        let Some(v) = it.next() else {
            eprintln!("missing value for --{key}");
            usage();
        };
        flags.insert(key.to_string(), v.clone());
    }
    flags
}

/// `--cpu-th`/`--unc-th`: a policy threshold given in percent, returned
/// as the fraction `valid_policy_th` accepts.
fn flag_th(flags: &HashMap<String, String>, key: &str, default_pct: f64) -> f64 {
    let Some(v) = flags.get(key) else {
        return default_pct / 100.0;
    };
    match v.parse::<f64>().map(|pct| pct / 100.0) {
        Ok(th) if valid_policy_th(th) => th,
        _ => {
            eprintln!("--{key} expects a percentage in [0, 50], got '{v}'");
            usage();
        }
    }
}

/// Most runs one cell may average. Every run is one engine task slot, so
/// the bound keeps a typo from sizing the task table by it.
const MAX_RUNS: usize = 1000;

/// `--runs N` of `run` and `sweep`: an integer in [1, MAX_RUNS].
fn parse_runs(v: &str) -> usize {
    match v.parse::<usize>() {
        Ok(n) if (1..=MAX_RUNS).contains(&n) => n,
        _ => {
            eprintln!("--runs expects an integer in [1, {MAX_RUNS}], got '{v}'");
            usage();
        }
    }
}

fn cmd_list() {
    println!(
        "{:<20} {:>5} {:>6} {:>8} {:>6} {:>7} {:>9}",
        "name", "nodes", "ranks", "time(s)", "CPI", "GB/s", "power(W)"
    );
    for w in full_catalog() {
        println!(
            "{:<20} {:>5} {:>6} {:>8.0} {:>6.2} {:>7.2} {:>9.1}",
            w.name, w.nodes, w.ranks_per_node, w.time_s, w.cpi, w.gbs, w.dc_power_w
        );
    }
}

/// The flags `earsim run` accepts.
const RUN_FLAGS: &[&str] = &[
    "app", "policy", "cpu-th", "unc-th", "runs", "seed", "search", "range", "conf",
];

fn cmd_run(flags: HashMap<String, String>) -> Result<(), EarError> {
    let Some(app) = flags.get("app") else {
        eprintln!("run needs --app (see `earsim list`)");
        usage();
    };
    let Some(targets) = by_name(app) else {
        return Err(EarError::unknown("workload", app));
    };
    let policy = flags
        .get("policy")
        .map_or("min_energy_eufs", |s| s.as_str());
    let cpu_th = flag_th(&flags, "cpu-th", 5.0);
    let unc_th = flag_th(&flags, "unc-th", 2.0);
    let runs = flags.get("runs").map_or(3, |v| parse_runs(v));
    let seed: u64 = flags.get("seed").map_or(42, |v| parse_num(v, "seed"));
    let search = match flags.get("search").map(|s| s.as_str()) {
        None | Some("hw") => ImcSearch::HwGuided,
        Some("linear") => ImcSearch::Linear,
        Some(other) => {
            eprintln!("--search expects hw|linear, got '{other}'");
            usage();
        }
    };
    let range = match flags.get("range").map(|s| s.as_str()) {
        None | Some("maxonly") => ImcRange::MaxOnly,
        Some("pinned") => ImcRange::Pinned,
        Some(b) if b.starts_with("band:") => {
            let n = b[5..].parse().unwrap_or_else(|_| {
                eprintln!("--range band:N expects a number");
                usage();
            });
            ImcRange::Band(n)
        }
        Some(other) => {
            eprintln!("--range expects maxonly|pinned|band:N, got '{other}'");
            usage();
        }
    };

    // --conf FILE loads an ear.conf as the base; flags then override.
    let (policy, settings) = match flags.get("conf") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| EarError::io(path.as_str(), e))?;
            let parsed: EarlConfig = parse_ear_conf(&text)?;
            let mut st = parsed.settings;
            if flags.contains_key("cpu-th") {
                st.cpu_policy_th = cpu_th;
            }
            if flags.contains_key("unc-th") {
                st.unc_policy_th = unc_th;
            }
            // The conf file's Model= applies unless --model overrode it.
            if ear::experiments::default_model().is_none() {
                ear::experiments::set_default_model(&parsed.model_name);
            }
            let name = flags.get("policy").cloned().unwrap_or(parsed.policy_name);
            (name, st)
        }
        None => (
            policy.to_string(),
            PolicySettings {
                cpu_policy_th: cpu_th,
                unc_policy_th: unc_th,
                imc_search: search,
                imc_range: range,
                ..Default::default()
            },
        ),
    };
    let policy = policy.as_str();
    let reference = run_cell(&targets, &RunKind::NoPolicy, "No policy", runs, seed);
    let kind = RunKind::Policy {
        name: policy.to_string(),
        settings,
    };
    let result = run_cell(&targets, &kind, policy, runs, seed);
    let c = compare(&reference, &result);

    println!(
        "workload : {app} ({} nodes, {} runs averaged)",
        targets.nodes, runs
    );
    println!(
        "policy   : {policy} (cpu_th {:.0}%, unc_th {:.0}%)",
        cpu_th * 100.0,
        unc_th * 100.0
    );
    println!();
    println!("            {:>12} {:>12}", "No policy", policy);
    println!(
        "time (s)    {:>12.1} {:>12.1}",
        reference.time_s, result.time_s
    );
    println!(
        "DC power(W) {:>12.1} {:>12.1}",
        reference.dc_power_w, result.dc_power_w
    );
    println!(
        "energy (kJ) {:>12.0} {:>12.0}",
        reference.dc_energy_j / 1e3,
        result.dc_energy_j / 1e3
    );
    println!(
        "CPU (GHz)   {:>12.2} {:>12.2}",
        reference.avg_cpu_ghz, result.avg_cpu_ghz
    );
    println!(
        "IMC (GHz)   {:>12.2} {:>12.2}",
        reference.avg_imc_ghz, result.avg_imc_ghz
    );
    println!();
    println!(
        "time penalty {:.2}%   power saving {:.2}%   energy saving {:.2}%",
        c.time_penalty_pct, c.power_saving_pct, c.energy_saving_pct
    );
    Ok(())
}

/// `earsim sweep`: the grid-scale (pstate × uncore) characterisation
/// campaign — per-workload surfaces, the quadratic fit, the fitted-policy
/// comparison. The valueless `--quick` flag forces a custom
/// argument loop. The paper's fixed-uncore Fig. 1 sweep lives under
/// `earsim fig 1` (and per app via `--fig1 NAME`).
fn cmd_sweep(rest: &[String]) -> Result<(), EarError> {
    let mut cfg = ear::experiments::SweepConfig::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |key: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("missing value for --{key}");
                usage();
            }
        };
        match a.as_str() {
            "--app" => {
                let name = value("app");
                if by_name(&name).is_none() {
                    return Err(EarError::unknown("workload", name));
                }
                cfg.apps.push(name);
            }
            "--fig1" => {
                // The legacy fixed-uncore sweep (paper Fig. 1) this
                // subcommand used to render.
                let name = value("fig1");
                if by_name(&name).is_none() {
                    return Err(EarError::unknown("workload", name));
                }
                print!("{}", figures::fig1_render(&name)?);
                return Ok(());
            }
            "--quick" => cfg.quick = true,
            "--out-dir" => cfg.out_dir = Some(std::path::PathBuf::from(value("out-dir"))),
            "--runs" => cfg.runs = parse_runs(&value("runs")),
            "--seed" => cfg.base_seed = parse_num(&value("seed"), "seed"),
            "--max-residual" => {
                let pct = parse_num::<f64>(&value("max-residual"), "max-residual");
                if !pct.is_finite() || pct <= 0.0 {
                    eprintln!("--max-residual expects a positive percentage");
                    usage();
                }
                cfg.max_residual = Some(pct / 100.0);
            }
            _ => {
                eprintln!("unknown sweep argument '{a}'");
                usage();
            }
        }
    }
    print!("{}", ear::experiments::run_sweep(&cfg)?);
    Ok(())
}

fn cmd_table(n: &str) -> Result<(), EarError> {
    let out = match n {
        "1" => tables::table1(),
        "2" => tables::table2(),
        "3" => tables::table3(),
        "4" => tables::table4(),
        "5" => tables::table5(),
        "6" => tables::table6(),
        "7" => tables::table7(),
        "8" => tables::table8(),
        _ => return Err(EarError::config(format!("tables are 1..8, got '{n}'"))),
    };
    print!("{out}");
    Ok(())
}

fn cmd_fig(n: &str) -> Result<(), EarError> {
    let out = match n {
        "1" => figures::fig1()?,
        "3" => figures::fig3()?,
        "4" => figures::fig4()?,
        "5" => figures::fig5()?,
        "6" => figures::fig6()?,
        "7" => figures::fig7()?,
        "8" => figures::fig8()?,
        _ => {
            return Err(EarError::config(format!(
                "figures are 1 and 3..8, got '{n}'"
            )))
        }
    };
    print!("{out}");
    Ok(())
}

/// `earsim bench`: runs the dependency-free hot-path micro-benchmarks, or
/// validates a previously emitted `BENCH_hotpath.json` with `--verify`.
/// Flags are positionless; `--quick` trims iteration counts for CI smoke.
fn cmd_bench(rest: &[String]) -> Result<(), EarError> {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut verify: Option<String> = None;
    let mut verify_telemetry: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(v) => out = Some(v.clone()),
                None => {
                    eprintln!("missing value for --out");
                    usage();
                }
            },
            "--verify" => match it.next() {
                Some(v) => verify = Some(v.clone()),
                None => {
                    eprintln!("missing value for --verify");
                    usage();
                }
            },
            "--verify-telemetry" => match it.next() {
                Some(v) => verify_telemetry = Some(v.clone()),
                None => {
                    eprintln!("missing value for --verify-telemetry");
                    usage();
                }
            },
            _ => {
                eprintln!("unknown bench argument '{a}'");
                usage();
            }
        }
    }
    if let Some(path) = verify_telemetry {
        let text = std::fs::read_to_string(&path).map_err(|e| EarError::io(path.as_str(), e))?;
        // Accept either the bare JSON object or a captured stderr stream
        // containing the prefixed `earsim-telemetry: {...}` line.
        let line = text
            .lines()
            .rev()
            .find_map(|l| {
                let l = l.trim();
                l.strip_prefix("earsim-telemetry:")
                    .map(str::trim)
                    .or_else(|| l.starts_with('{').then_some(l))
            })
            .ok_or_else(|| EarError::config(format!("{path}: no earsim-telemetry line found")))?;
        ear::trace::metrics::validate(line)
            .map_err(|e| EarError::config(format!("{path}: INVALID: {e}")))?;
        println!("{path}: telemetry valid");
        return Ok(());
    }
    if let Some(path) = verify {
        let text = std::fs::read_to_string(&path).map_err(|e| EarError::io(path.as_str(), e))?;
        let n = ear::experiments::bench::validate_json(&text)
            .map_err(|e| EarError::config(format!("{path}: INVALID: {e}")))?;
        // Schema-valid is not enough: a row whose shipped path lost to the
        // code it races is a regression and fails the verify.
        let gated = ear::experiments::bench::verify_speedups(&text)
            .map_err(|e| EarError::config(format!("{path}: REGRESSION: {e}")))?;
        println!("{path}: valid ({n} benches, {gated} speedup-gated)");
        return Ok(());
    }
    let report = ear::experiments::bench::run(quick);
    print!("{}", report.render());
    if let Some(path) = out {
        std::fs::write(&path, report.to_json()).map_err(|e| EarError::io(path.as_str(), e))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `earsim serve`: runs the networked EARD daemon (the readiness loop)
/// until the shutdown poison frame (or `--max-seconds`).
fn cmd_serve(rest: &[String]) -> Result<(), EarError> {
    let mut cfg = ear::netd::ServerConfig::default();
    let mut socket: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |key: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("missing value for --{key}");
                usage();
            }
        };
        match a.as_str() {
            "--socket" => socket = Some(value("socket")),
            "--workers" => {
                cfg.workers = parse_num(&value("workers"), "workers");
                if cfg.workers == 0 {
                    eprintln!("--workers expects a positive integer");
                    usage();
                }
            }
            "--node" => cfg.eard.node = parse_num::<u64>(&value("node"), "node"),
            "--max-seconds" => {
                cfg.max_seconds = Some(parse_num::<f64>(&value("max-seconds"), "max-seconds"));
            }
            "--ceiling" => {
                let v = value("ceiling");
                let Some((pstate, imc)) = v.split_once(':') else {
                    eprintln!("--ceiling expects PSTATE:IMCMAX, got '{v}'");
                    usage();
                };
                cfg.eard.ceiling = Some(ear::core::NodeFreqs {
                    cpu: parse_num(pstate, "ceiling"),
                    imc_min_ratio: parse_num(imc, "ceiling"),
                    imc_max_ratio: parse_num(imc, "ceiling"),
                    imc_dom: ear::core::DomainLimits::LEGACY,
                });
            }
            _ => {
                eprintln!("unknown serve argument '{a}'");
                usage();
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!("serve needs --socket PATH|HOST:PORT");
        usage();
    };
    let listener = ear::netd::NetListener::bind(&socket)?;
    eprintln!("earsim: serving on {}", listener.describe());
    let report = ear::netd::server::run_async(listener, cfg)?;
    println!(
        "accepted {}  rejected {}  requests {}  conn_errors {}  shutdown {}",
        report.accepted,
        report.rejected,
        report.requests,
        report.conn_errors,
        report.shutdown_requested
    );
    Ok(())
}

/// `earsim loadgen`: closed-loop load against a running daemon. The
/// valueless `--shutdown` flag forces a custom argument loop here too.
fn cmd_loadgen(rest: &[String]) -> Result<(), EarError> {
    let mut cfg = ear::netd::LoadgenConfig::default();
    let mut socket: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |key: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("missing value for --{key}");
                usage();
            }
        };
        match a.as_str() {
            "--socket" => socket = Some(value("socket")),
            "--clients" => {
                cfg.clients = parse_num(&value("clients"), "clients");
                if cfg.clients == 0 {
                    eprintln!("--clients expects a positive integer");
                    usage();
                }
            }
            "--duration" => {
                let s = parse_num::<f64>(&value("duration"), "duration");
                if !s.is_finite() || s <= 0.0 {
                    eprintln!("--duration expects a positive number of seconds");
                    usage();
                }
                cfg.duration = std::time::Duration::from_secs_f64(s);
            }
            "--shutdown" => cfg.shutdown_after = true,
            _ => {
                eprintln!("unknown loadgen argument '{a}'");
                usage();
            }
        }
    }
    let Some(socket) = socket else {
        eprintln!("loadgen needs --socket PATH|HOST:PORT");
        usage();
    };
    let endpoint = ear::netd::Endpoint::parse(&socket);
    let report = ear::netd::loadgen::run(&endpoint, &cfg)?;
    println!("{}", report.render());
    Ok(())
}

/// `earsim cluster`: thousands of in-process simulated daemons behind an
/// EARGM aggregation tree, every byte through the real codec. Exits
/// nonzero on any protocol or decode error.
fn cmd_cluster(rest: &[String]) -> Result<(), EarError> {
    let mut cfg = ear::netd::ClusterConfig::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |key: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("missing value for --{key}");
                usage();
            }
        };
        let positive_secs = |v: &str, key: &str| {
            let s = parse_num::<f64>(v, key);
            if !s.is_finite() || s <= 0.0 {
                eprintln!("--{key} expects a positive number of seconds");
                usage();
            }
            std::time::Duration::from_secs_f64(s)
        };
        match a.as_str() {
            "--nodes" => {
                cfg.nodes = parse_num(&value("nodes"), "nodes");
                if cfg.nodes == 0 {
                    eprintln!("--nodes expects a positive integer");
                    usage();
                }
            }
            "--fanout" => {
                cfg.fanout = parse_num(&value("fanout"), "fanout");
                if cfg.fanout < 2 {
                    eprintln!("--fanout expects an integer >= 2");
                    usage();
                }
            }
            "--shards" => {
                let n: usize = parse_num(&value("shards"), "shards");
                if n == 0 {
                    eprintln!("--shards expects a positive integer");
                    usage();
                }
                cfg.shards = Some(n);
            }
            "--duration" => cfg.duration = positive_secs(&value("duration"), "duration"),
            "--poll-every" => cfg.poll_every = positive_secs(&value("poll-every"), "poll-every"),
            "--batch" => {
                cfg.batch = parse_num(&value("batch"), "batch");
                if cfg.batch == 0 {
                    eprintln!("--batch expects a positive integer");
                    usage();
                }
            }
            "--budget" => cfg.budget_w = Some(parse_num(&value("budget"), "budget")),
            _ => {
                eprintln!("unknown cluster argument '{a}'");
                usage();
            }
        }
    }
    let mut cluster = ear::netd::SimCluster::new(cfg)?;
    eprintln!(
        "earsim: cluster of {} daemons, aggregation tree depth {}",
        cluster.nodes(),
        cluster.tree_depth()
    );
    let report = cluster.run()?;
    println!("{}", report.render());
    if report.errors > 0 {
        return Err(EarError::Protocol(format!(
            "cluster run finished with {} protocol/decode errors",
            report.errors
        )));
    }
    Ok(())
}

/// `earsim jobstream`: a seeded Poisson job stream over a powercapped
/// fleet — arrivals queue FCFS, the manager polls demand and
/// redistributes the datacenter budget as jobs enter and leave, every
/// node runs the dual-knob `powercap` policy with RAPL PL1 armed as the
/// hard backstop. `--uds DIR` moves every manager↔daemon exchange onto
/// real unix sockets through the async netd stack.
fn cmd_jobstream(rest: &[String]) -> Result<(), EarError> {
    let mut cfg = ear::jobstream::StreamConfig::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |key: &str| match it.next() {
            Some(v) => v.clone(),
            None => {
                eprintln!("missing value for --{key}");
                usage();
            }
        };
        match a.as_str() {
            "--nodes" => {
                cfg.fleet_nodes = parse_num(&value("nodes"), "nodes");
                if cfg.fleet_nodes == 0 {
                    eprintln!("--nodes expects a positive integer");
                    usage();
                }
            }
            "--budget" => {
                cfg.budget_w = parse_num(&value("budget"), "budget");
                if !cfg.budget_w.is_finite() || cfg.budget_w <= 0.0 {
                    eprintln!("--budget expects a positive number of watts");
                    usage();
                }
            }
            "--arrival-rate" => {
                cfg.arrival_rate_per_hour = parse_num(&value("arrival-rate"), "arrival-rate");
                if !cfg.arrival_rate_per_hour.is_finite() || cfg.arrival_rate_per_hour <= 0.0 {
                    eprintln!("--arrival-rate expects a positive jobs/hour rate");
                    usage();
                }
            }
            "--seed" => cfg.seed = parse_num(&value("seed"), "seed"),
            "--max-jobs" => {
                cfg.max_jobs = parse_num(&value("max-jobs"), "max-jobs");
                if cfg.max_jobs == 0 {
                    eprintln!("--max-jobs expects a positive integer");
                    usage();
                }
            }
            "--quick" => cfg.quick = true,
            "--pstate-only" => cfg.pstate_only = true,
            "--uds" => {
                let dir = std::path::PathBuf::from(value("uds"));
                // The daemons bind their sockets inside the directory;
                // create it up front so a fresh path just works.
                std::fs::create_dir_all(&dir).map_err(|e| EarError::Io {
                    path: dir.display().to_string(),
                    message: e.to_string(),
                })?;
                cfg.wire = ear::jobstream::Wire::Uds { dir };
            }
            _ => {
                eprintln!("unknown jobstream argument '{a}'");
                usage();
            }
        }
    }
    let report = ear::jobstream::run_stream(cfg)?;
    print!("{}", report.render());
    if report.protocol_errors > 0 {
        return Err(EarError::Protocol(format!(
            "job stream finished with {} protocol errors",
            report.protocol_errors
        )));
    }
    Ok(())
}

/// Parses a numeric flag value or dies with usage.
fn parse_num<T: std::str::FromStr>(v: &str, key: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("--{key} expects a number, got '{v}'");
        usage();
    })
}

/// Strips a valueless global `--flag` from anywhere on the line.
fn take_global_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Strips a global `--flag VALUE` pair from anywhere on the line.
fn take_global(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let value = match args.get(i + 1) {
        Some(v) => v.clone(),
        None => {
            eprintln!("missing value for {flag}");
            usage();
        }
    };
    args.drain(i..=i + 1);
    Some(value)
}

fn real_main(args: Vec<String>) -> Result<(), EarError> {
    let cmd = args.first().map_or("", String::as_str);
    // Fixed-arity subcommands take no flags: anything past their operands
    // is a typo, not something to ignore.
    let operands = match cmd {
        "table" | "fig" => Some(1),
        "list" | "future" | "related" | "conf" | "all" | "powercap" => Some(0),
        _ => None,
    };
    if let Some(extra) = operands.and_then(|n| args.get(n + 1)) {
        eprintln!("unknown {cmd} argument '{extra}'");
        usage();
    }
    match cmd {
        "list" => cmd_list(),
        "run" => cmd_run(parse_flags("run", &args[1..], RUN_FLAGS))?,
        "sweep" => cmd_sweep(&args[1..])?,
        "table" => cmd_table(args.get(1).map_or_else(|| usage(), |s| s.as_str()))?,
        "fig" => cmd_fig(args.get(1).map_or_else(|| usage(), |s| s.as_str()))?,
        "future" => print!("{}", ear::experiments::future_work::run_all_future_work()),
        "related" => print!("{}", ear::experiments::related_work::duf_comparison()),
        "surface" => {
            let flags = parse_flags("surface", &args[1..], &["app"]);
            let app = flags
                .get("app")
                .cloned()
                .unwrap_or_else(|| "BT-MZ.C (OpenMP)".to_string());
            if by_name(&app).is_none() {
                return Err(EarError::unknown("workload", app));
            }
            let s = ear::experiments::surface::measure_surface(&app, 77);
            print!("{}", ear::experiments::surface::render_surface(&s));
        }
        "conf" => print!("{}", render_ear_conf(&EarlConfig::default())),
        "all" => print!("{}", ear::experiments::run_all()),
        "bench" => cmd_bench(&args[1..])?,
        "serve" => cmd_serve(&args[1..])?,
        "loadgen" => cmd_loadgen(&args[1..])?,
        "cluster" => cmd_cluster(&args[1..])?,
        "jobstream" => cmd_jobstream(&args[1..])?,
        "powercap" => print!("{}", ear::experiments::run_powercap()),
        _ => usage(),
    }
    Ok(())
}

/// Drains the trace bus to `path` as JSONL. Runs after the subcommand even
/// when it failed, so a partial stream survives for debugging.
fn write_trace(path: &str) -> Result<(), EarError> {
    let records = ear::trace::drain();
    let dropped = ear::trace::dropped();
    std::fs::write(path, ear::trace::to_jsonl(&records)).map_err(|e| EarError::io(path, e))?;
    if dropped > 0 {
        eprintln!("earsim: trace ring overflowed, oldest {dropped} events lost");
    }
    eprintln!("earsim: wrote {} trace events to {path}", records.len());
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags: accepted anywhere on the line, stripped before the
    // subcommand parsers see the arguments.
    if let Some(v) = take_global(&mut args, "--jobs") {
        let n = match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--jobs expects a positive integer");
                usage();
            }
        };
        ear::experiments::set_default_jobs(n);
    }
    if let Some(model) = take_global(&mut args, "--model") {
        // Validate up front so a typo fails before hours of simulation.
        if let Err(e) = ModelRegistry::with_builtins().resolve(&model) {
            eprintln!("earsim: {e}");
            exit(1);
        }
        ear::experiments::set_default_model(&model);
    }
    let trace_path = take_global(&mut args, "--trace");
    if trace_path.is_some() {
        ear::trace::reset();
        ear::trace::set_enabled(true);
    }
    // Persistent result cache: on by default, off for `--no-cache` or
    // EAR_CACHE=0/off/false, and for `bench` (which must measure real
    // simulation work and manages its own store for the warm-cache bench).
    let no_cache_flag = take_global_flag(&mut args, "--no-cache");
    let no_cache_env = matches!(
        std::env::var("EAR_CACHE").as_deref().map(str::trim),
        Ok("0") | Ok("off") | Ok("false")
    );
    let is_bench = args.first().is_some_and(|a| a == "bench");
    if !(no_cache_flag || no_cache_env || is_bench) {
        ear::experiments::set_result_cache(Some(ear::experiments::default_cache_dir()));
    }

    let result = real_main(args);
    if let Some(path) = &trace_path {
        if let Err(e) = write_trace(path) {
            eprintln!("earsim: {e}");
            exit(1);
        }
    }
    if let Err(e) = result {
        eprintln!("earsim: {e}");
        exit(1);
    }
    // Machine-readable engine summary (stderr keeps stdout parseable).
    ear::experiments::print_process_summary();
}
