//! Byte pins for the RAPL PL1 path. `earsim all` never arms PL1, so its
//! md5 says nothing about the limiter; these digests pin the two reports
//! that do: `earsim powercap` (cap sweep, frontier, stress stream) with
//! the result cache off, and `earsim jobstream --quick`.
//!
//! The digests are FNV-1a 64 over the exact stdout bytes. The same bytes
//! have md5 `dda45a025ab9a054c3c38d288fcf1a2e` (powercap) and
//! `80650bacb6ac3be087e8a1b9545b888d` (jobstream), so a CLI run can be
//! cross-checked with `md5sum`. Release-mode only: the full powercap
//! report takes a few seconds optimised and minutes in a debug build.
//! Run with `cargo test --release -p ear-experiments --test powercap_digest`.

use ear_experiments::set_result_cache;
use ear_jobstream::{run_stream, StreamConfig};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode digest")]
fn powercap_report_bytes_are_pinned() {
    // `EAR_CACHE=0 earsim powercap`: every cell simulated, none served.
    set_result_cache(None);
    let out = ear_experiments::powercap::run_powercap();
    assert_eq!(out.len(), 3625, "powercap report length changed");
    assert_eq!(
        fnv1a64(out.as_bytes()),
        0x470e_b3c0_3c01_8997,
        "powercap report bytes changed:\n{out}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode digest")]
fn quick_jobstream_report_bytes_are_pinned() {
    // `earsim jobstream --quick`: the default fleet, in-process wire.
    let report = run_stream(StreamConfig {
        quick: true,
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("quick job stream failed: {e}"));
    let out = report.render();
    assert_eq!(out.len(), 1173, "jobstream report length changed");
    assert_eq!(
        fnv1a64(out.as_bytes()),
        0x0bb9_9548_7616_3bbe,
        "jobstream report bytes changed:\n{out}"
    );
}
