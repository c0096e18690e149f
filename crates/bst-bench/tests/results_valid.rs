//! Gate sweep over the committed benchmark artifacts: every
//! `results/BENCH_*.json` must re-parse and still satisfy the pass/gate
//! fields it was generated under. A regressed or hand-edited artifact
//! fails `cargo test` instead of silently shipping.

use bst_bench::minijson::{parse, Value};
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: unreadable: {e}", path.display()));
    parse(&text).unwrap_or_else(|e| panic!("{}: does not parse: {e}", path.display()))
}

/// `doc[key]` as a number, or panic naming the file and field.
fn num(doc: &Value, file: &str, key: &str) -> f64 {
    doc.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("{file}: missing numeric \"{key}\""))
}

fn arr<'a>(doc: &'a Value, file: &str, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{file}: missing array \"{key}\""))
}

/// Gates on the kernel ladder: the dispatched kernel is within 10% of the
/// measured winner on every shape (winner taken over every column, the
/// forced SIMD drivers included, so a misplaced in-place / packed threshold
/// fails too), and on a host with AVX2+FMA the SIMD kernel clears 1.5× the
/// blocked loop, its fallback, on every cube ≥ 64 — below that it silently
/// fell back —
/// and a ragged workload shape stays within reach of its full-panel
/// neighbour: one more row and column may not cost a second micro-tile
/// (the padded edges of PR 20's kernel read 0.48 and 0.68 on this box).
fn check_kernels(doc: &Value, f: &str) {
    let cpu = doc.get("cpu").unwrap_or_else(|| panic!("{f}: missing \"cpu\" record"));
    let has = |feature: &str| {
        cpu.get(feature)
            .and_then(Value::as_bool)
            .unwrap_or_else(|| panic!("{f}: cpu record lacks \"{feature}\""))
    };
    let simd_host = has("avx2") && has("fma");
    let shapes = arr(doc, f, "shapes");
    assert!(!shapes.is_empty(), "{f}: no shapes benchmarked");
    let simd_rate = |shape: (f64, f64, f64)| {
        let s = shapes
            .iter()
            .find(|s| (num(s, f, "m"), num(s, f, "n"), num(s, f, "k")) == shape)
            .unwrap_or_else(|| panic!("{f}: the ladder lacks {shape:?}"));
        num(s.get("gflops").unwrap_or_else(|| panic!("{f}: shape without gflops")), f, "simd")
    };
    for (ragged, neighbour, floor) in [
        ((9.0, 49.0, 35.0), (8.0, 48.0, 35.0), 0.60),
        ((12.0, 35.0, 49.0), (16.0, 48.0, 35.0), 0.85),
    ] {
        let (r, nb) = (simd_rate(ragged), simd_rate(neighbour));
        assert!(
            !simd_host || r >= floor * nb,
            "{f}: simd on {ragged:?} runs at {r} GF/s, below {floor} x the {nb} GF/s of {neighbour:?}"
        );
    }
    let mut cubes = 0;
    for s in shapes {
        let (m, n, k) = (num(s, f, "m"), num(s, f, "n"), num(s, f, "k"));
        let gflops = s.get("gflops").unwrap_or_else(|| panic!("{f}: shape without gflops"));
        let rate = |key: &str| {
            let name = s
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{f}: {m}x{n}x{k} without {key}"));
            num(gflops, f, name)
        };
        assert!(rate("winner") > 0.0, "{f}: winner at zero throughput");
        assert!(
            rate("heuristic") >= 0.9 * rate("winner"),
            "{f}: on {m}x{n}x{k} the dispatched kernel is more than 10% behind the winner"
        );
        if m == n && n == k && m >= 64.0 {
            cubes += 1;
            assert!(
                !simd_host || num(gflops, f, "simd") >= 1.5 * num(gflops, f, "blocked"),
                "{f}: simd below 1.5x blocked on the {m}-cube of an AVX2+FMA host"
            );
        }
    }
    assert!(cubes >= 5, "{f}: the ladder's large cubes are missing");
}

/// Sweeps every committed `BENCH_*.json`. Unknown artifacts fail loudly:
/// adding a benchmark without registering its gates here would otherwise
/// reopen the silent-regression hole this test closes.
#[test]
fn every_committed_bench_artifact_passes_its_gates() {
    let dir = results_dir();
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ directory") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // `*_ci.json` are the CI steps' tiny regenerations: git-ignored,
        // gated by the binary that wrote them.
        if !name.starts_with("BENCH_") || !name.ends_with(".json") || name.ends_with("_ci.json") {
            continue;
        }
        let doc = load(&path);
        match name.as_str() {
            "BENCH_kernels.json" => check_kernels(&doc, &name),
            other => panic!(
                "{other}: committed benchmark artifact with no registered gates — \
add a checker to results_valid.rs"
            ),
        }
        seen.push(name);
    }
    // The sweep must actually cover the committed set; an empty results/
    // would vacuously pass otherwise.
    assert!(
        seen.iter().any(|s| s == "BENCH_kernels.json"),
        "missing committed artifact BENCH_kernels.json"
    );
}
