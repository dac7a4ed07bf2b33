//! Computes the source fingerprint the result cache folds into every key:
//! an FNV-1a digest over the path and bytes of every file under the `src`
//! directories of the crates whose code produces a cell's numbers. A store
//! filled by other code then misses instead of serving stale tables.

use std::path::{Path, PathBuf};

#[path = "src/fnv.rs"]
mod fnv;

/// Source trees that determine a cached cell's result, relative to this
/// crate: the node model, EARL/EARD and the policies, DynAIS, the MPI job
/// driver, the workload catalog and calibration, and this crate (the
/// harness that runs each cell).
const SOURCES: [&str; 6] = [
    "../archsim/src",
    "../core/src",
    "../dynais/src",
    "../mpisim/src",
    "../workloads/src",
    "src",
];

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        panic!("cannot read source directory {}", dir.display());
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_default());
    let mut h = fnv::FNV_OFFSET;
    for root in SOURCES {
        println!("cargo:rerun-if-changed={root}");
        let mut files = Vec::new();
        collect(&manifest.join(root), &mut files);
        files.sort();
        for file in files {
            let rel = file.strip_prefix(&manifest).unwrap_or(&file);
            fnv::fnv1a(&mut h, rel.to_string_lossy().as_bytes());
            fnv::fnv1a(&mut h, &[0]);
            let Ok(bytes) = std::fs::read(&file) else {
                panic!("cannot read source file {}", file.display());
            };
            fnv::fnv1a(&mut h, &bytes);
        }
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").unwrap_or_default());
    let dest = out.join("source_fingerprint.rs");
    if let Err(e) = std::fs::write(&dest, format!("{h:#018x}_u64\n")) {
        panic!("cannot write {}: {e}", dest.display());
    }
}
