//! Sweep determinism: the (pstate × uncore) grid artifact — measured
//! cells and fitted surface coefficients, rendered down to their bit
//! patterns — must not depend on the worker count or on whether the
//! persistent result cache is warm. A release-only byte pin fixes the
//! whole quick campaign: its report and every artifact it writes.

use ear_experiments::sweep::{render_artifact, run_sweep, sweep_app, SweepConfig};
use ear_experiments::{set_default_jobs, set_result_cache};
use ear_workloads::sweep::SweepSpec;
use ear_workloads::WorkloadTargets;
use std::sync::Mutex;

/// The worker-count override and the result cache are process-global;
/// tests that touch them must not interleave.
static GLOBALS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn short_targets() -> WorkloadTargets {
    let mut t = ear_workloads::by_name("BT-MZ.C (OpenMP)").expect("known workload");
    // Same per-iteration physics, fewer iterations: determinism does not
    // depend on workload length and the test stays fast.
    t.time_s *= 12.0 / t.iterations as f64;
    t.iterations = 12;
    t
}

fn spec() -> SweepSpec {
    SweepSpec {
        cpu_pstates: vec![1, 4, 7],
        imc_ratios: vec![24, 18, 12],
    }
}

#[test]
fn artifact_is_identical_for_any_worker_count() {
    let _g = lock();
    set_result_cache(None);
    let targets = short_targets();
    let cfg = SweepConfig::default();
    let mut renders = Vec::new();
    for jobs in [1usize, 2, 8] {
        set_default_jobs(jobs);
        let s = sweep_app(&targets, &spec(), &cfg).expect("sweep succeeds");
        renders.push(render_artifact(&s));
    }
    set_default_jobs(0);
    assert_eq!(renders[0], renders[1], "jobs=1 vs jobs=2 artifacts differ");
    assert_eq!(renders[0], renders[2], "jobs=1 vs jobs=8 artifacts differ");
}

#[test]
fn warm_cache_rerun_is_byte_identical_and_hits() {
    let _g = lock();
    let dir = std::env::temp_dir().join(format!("earsim-sweep-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let targets = short_targets();
    let cfg = SweepConfig::default();

    set_result_cache(Some(dir.clone()));
    let cold = sweep_app(&targets, &spec(), &cfg).expect("cold sweep succeeds");
    assert_eq!(cold.cache_hits, 0, "cold store must not hit");

    let warm = sweep_app(&targets, &spec(), &cfg).expect("warm sweep succeeds");
    assert_eq!(
        warm.cache_hits as usize, warm.cells,
        "warm sweep must serve every cell from disk"
    );
    assert_eq!(
        render_artifact(&cold),
        render_artifact(&warm),
        "warm artifact diverged from the cold one"
    );

    set_result_cache(None);
    let _ = std::fs::remove_dir_all(&dir);
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `EAR_CACHE=0 earsim sweep --quick --out-dir D`: the report has md5
/// `f9f178496c02f8a689ffcf69fef0c224`, and the artifacts concatenated in
/// byte-sorted file-name order have md5 `1e09588a4ef64df112e9c8ccaaf54dfc`,
/// so a CLI run can be cross-checked with `md5sum`. The digests below are
/// FNV-1a 64 over the same bytes. Release-mode only: the quick campaign
/// simulates 16 grids plus their policy comparisons. Run with
/// `cargo test --release -p ear-experiments --test sweep`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode digest")]
fn quick_sweep_bytes_are_pinned() {
    const ARTIFACTS: [(&str, u64); 16] = [
        ("AFiD.sweep", 0x3b4f_d211_518b_7f1c),
        ("BQCD.sweep", 0xa757_22db_216b_93a2),
        ("BT-MZ.C__MPI_.sweep", 0x60a2_9d34_5311_e19d),
        ("BT-MZ.C__OpenMP_.sweep", 0x96c1_a8bf_c873_5fff),
        ("BT-MZ.sweep", 0xd1b8_66c6_58c8_bbbe),
        ("BT.CUDA.D.sweep", 0xb945_87ce_d202_fe2d),
        ("BT.CUDA.D__offload_.sweep", 0x8e86_e733_179f_bc45),
        ("DGEMM.sweep", 0xa056_e20b_aa4e_9a87),
        ("DUMSES.sweep", 0x08fb_3d3a_bbe9_41f7),
        ("GROMACS__II_.sweep", 0x6f9c_5108_ba14_d103),
        ("GROMACS__I_.sweep", 0xa0a2_ce30_345b_1ff2),
        ("HPCG.sweep", 0x2c24_c83b_4d74_67b8),
        ("LU.CUDA.D.sweep", 0xd737_dbc1_5763_bf2a),
        ("LU.D__MPI_.sweep", 0x6bd5_3912_124a_db36),
        ("POP.sweep", 0x36a5_05d9_6533_4c2b),
        ("SP-MZ.C__OpenMP_.sweep", 0x38e4_bc34_0582_d8ae),
    ];
    let _g = lock();
    set_result_cache(None);
    let dir = std::env::temp_dir().join(format!("earsim-sweep-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run_sweep(&SweepConfig {
        quick: true,
        out_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("quick sweep failed: {e}"));
    assert_eq!(out.len(), 3713, "sweep report length changed");
    assert_eq!(
        fnv1a64(out.as_bytes()),
        0xd75d_92bd_1a96_5006,
        "sweep report bytes changed:\n{out}"
    );

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("artifact dir: {e}"))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let expected: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected, "artifact set changed");
    for (name, digest) in ARTIFACTS {
        let bytes = std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            fnv1a64(&bytes),
            digest,
            "{name} bytes changed:\n{}",
            String::from_utf8_lossy(&bytes)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
