//! Generator byte-identity: every graph family, at several sizes and seeds,
//! must build exactly the CSR arrays recorded in `tests/golden/graphs.digest`.
//!
//! Trial records pin generator output only where a golden grid happens to
//! use a family; this file pins it for every family directly, so a change
//! that makes a generator cheaper can show it still draws the same graph.
//! `tests/golden/README.md` says how to re-record the file.

use dispersion::graph::PortGraph;
use dispersion::prelude::GraphFamily;
use std::fmt::Write as _;

const SIZES: [usize; 6] = [4, 16, 64, 256, 1024, 2048];
const SEEDS: [u64; 4] = [0, 1, 7, 0x5EED_D16E];
const RANDOM: [&str; 5] = ["er6", "er3.5", "rreg4", "rreg6", "rtree"];
/// Dense families (Θ(n²) edges) stop at this size: they ignore the seed,
/// and at n = 2048 they alone would take seconds of a debug test run.
const DENSE_MAX_N: usize = 256;
const DENSE: [&str; 3] = ["complete", "barbell", "lollipop"];
const DETERMINISTIC: [&str; 11] = [
    "line",
    "ring",
    "star",
    "complete",
    "bintree",
    "grid",
    "torus",
    "hypercube",
    "barbell",
    "lollipop",
    "caterpillar3",
];

fn digest_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/graphs.digest")
}

/// FNV-1a over the CSR arrays as little-endian `u32`s: per node its degree
/// (the offsets), then per port the neighbor and the back port.
fn csr_digest(g: &PortGraph) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut put = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for v in g.nodes() {
        put(g.degree(v) as u32);
        for p in g.ports(v) {
            let (u, q) = g.traverse(v, p);
            put(u.0);
            put(q.0);
        }
    }
    h
}

/// One line per (family, n, seed): random families at every seed,
/// deterministic ones (which ignore the seed) at seed 0.
fn digest_lines() -> String {
    let mut out = String::new();
    let cases = RANDOM
        .iter()
        .flat_map(|f| SEEDS.iter().map(move |&s| (*f, s)))
        .chain(DETERMINISTIC.iter().map(|f| (*f, 0)));
    for (label, seed) in cases {
        let family = GraphFamily::from_label(label).expect("a family label");
        for n in SIZES {
            if DENSE.contains(&label) && n > DENSE_MAX_N {
                continue;
            }
            let g = family.instantiate(n, seed);
            writeln!(
                out,
                "{label} n={n} seed={seed} nodes={} edges={} fnv={:016x}",
                g.num_nodes(),
                g.num_edges(),
                csr_digest(&g)
            )
            .expect("writing to a String");
        }
    }
    out
}

#[test]
fn generators_build_the_recorded_graphs() {
    let want = std::fs::read_to_string(digest_path()).expect("tests/golden/graphs.digest");
    let got = digest_lines();
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  recorded {w}\n  built    {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} generator digests differ ({} recorded, {} built):\n{}",
        diff.len(),
        got.lines().count(),
        want.lines().count(),
        got.lines().count(),
        diff.join("\n")
    );
}

/// Rewrites `tests/golden/graphs.digest` from the current generators. Run
/// it only in a change that means to alter generator output.
#[test]
#[ignore = "rewrites tests/golden/graphs.digest"]
fn record_graph_digests() {
    std::fs::write(digest_path(), digest_lines()).expect("write tests/golden/graphs.digest");
}
