//! Measures the `bst-comm` transport on a traced numeric contraction and
//! emits a self-validated `results/BENCH_comm.json`.
//!
//! One traced contraction on a node-aware topology (`--node-size` ranks
//! per physical node, rank-major packing) with [`LinkShaper::summit_nic`]
//! (23 GB/s, 3 µs) on the inter-node link and [`LinkShaper::summit_intra`]
//! (50 GB/s, 1 µs) intra-node; every transport metric is read from it.
//! (Bit-identity under reordering, shaping and dropped frames is rule 2 of
//! `crates/bst-cli/tests/matrix.rs`, not this binary's.)
//!
//! The comparison point for the broadcast trees is the **unicast**
//! baseline (star broadcast, every C tile shipped straight to the
//! root). Its byte counts are a function of the lowering alone, so
//! [`unicast_baseline`] sums them instead of executing a contraction. A
//! tree re-routes bytes and never adds any — every destination still
//! receives each tile once, and C goes to the root in one hop either way —
//! so the totals must be *equal*; what the trees change is how many of
//! those bytes cross the NIC.
//!
//! The headline deltas — total bytes moved and inter-node A-tile bytes,
//! tree vs unicast — are also swept over `P ∈ {4,16,64} ×
//! node_size ∈ {1,4}` (skip with `--no-sweep`).
//!
//! `effective_gbps` measures **per-link busy time**: matched
//! `Sent -> Received` spans are grouped per directed `(src,dst)` link and
//! unioned within each link, so concurrent transfers on *different* links
//! don't inflate (or deflate) the apparent rate of any one link. The rate
//! is reported for the inter-node (NIC) class, which the Summit shaper
//! caps at 23 GB/s.
//!
//! The emitted JSON is re-parsed and checked — conservation (every byte
//! sent is received), total bytes equal to unicast's, never more
//! inter-node bytes than unicast, the ≥2× inter-node A-byte saving on
//! multi-rank nodes, rates within the calibrated peaks — and any violation
//! exits non-zero, so CI gates on this binary directly.
//!
//! Usage:
//! ```text
//! repro_comm [--tiny] [--nodes N] [--node-size S] [--no-sweep] [--out FILE]
//! ```

use bst_bench::{
    flag_value, minijson, numeric_bench_problem, traced_numeric_run, unicast_baseline, usage_exit,
    BaselineBytes,
};
use bst_contract::{ExecOptions, ExecReport, LinkShaper, ProblemSpec};
use bst_runtime::comm::LinkClass;
use bst_runtime::trace::TracePhase;
use std::collections::HashMap;

const USAGE: &str = "usage: repro_comm [--tiny] [--nodes N] [--node-size S] [--no-sweep] [--out FILE]";

/// The `(P, node_size)` grid of the sweep section.
const SWEEP: [(usize, usize); 6] = [(4, 1), (4, 4), (16, 1), (16, 4), (64, 1), (64, 4)];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tiny = false;
    let mut nodes = 16usize;
    let mut node_size = 4usize;
    let mut sweep = true;
    let mut out_path = "results/BENCH_comm.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => tiny = true,
            "--no-sweep" => sweep = false,
            "--nodes" => {
                nodes = flag_value(USAGE, "--nodes", it.next());
                if nodes < 1 {
                    usage_exit(USAGE, "--nodes must be >= 1");
                }
            }
            "--node-size" => {
                node_size = flag_value(USAGE, "--node-size", it.next());
                if node_size < 1 {
                    usage_exit(USAGE, "--node-size must be >= 1");
                }
            }
            "--out" => out_path = flag_value(USAGE, "--out", it.next()),
            other => usage_exit(USAGE, &format!("unknown argument {other}")),
        }
    }

    let (spec, gpu_mem) = numeric_bench_problem(tiny);

    println!(
        "# transport benchmark — {}x{}x{} on {nodes} ranks x 2 GPUs, {node_size} ranks/physical node",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols()
    );

    let shaped = ExecOptions::builder()
        .tracing(true)
        .node_size(node_size)
        .link_shaper(LinkShaper::summit_nic())
        .intra_shaper(LinkShaper::summit_intra())
        .build();
    let (_, report) = traced_numeric_run(&spec, nodes, 2, gpu_mem, 42, shaped);

    let m = transport_metrics(&report);
    let tree = LegBytes::of(&report);
    let uni = unicast_baseline(&spec, nodes, 2, gpu_mem, node_size);
    let a_inter_reduction = ratio(uni.a_inter, tree.a_inter);

    println!("# tree:    {} B total, {} B inter-node, {} B inter-node A tiles", tree.total, tree.inter, tree.a_inter);
    println!("# unicast: {} B total, {} B inter-node, {} B inter-node A tiles", uni.total, uni.inter, uni.a_inter);
    println!("# savings: {a_inter_reduction:.2}x inter-node A bytes");
    println!(
        "# effective NIC rate: {:.3} GB/s over {} matched transfers (peak 23.0); intra {:.3} GB/s (peak 50.0)",
        m.effective_gbps, m.matched_transfers, m.intra_gbps
    );
    println!(
        "# comm/Gemm overlap: {:.1}% of {:.3} ms in-flight time ({:.3} ms summed per-link busy)",
        m.overlap_fraction * 100.0,
        m.comm_busy_s * 1e3,
        m.link_busy_s * 1e3
    );

    // The P × node_size sweep: tree (FIFO, unshaped) vs unicast bytes.
    let sweep_rows: Vec<SweepRow> = if sweep {
        SWEEP
            .iter()
            .map(|&(p, s)| sweep_point(&spec, p, s, gpu_mem))
            .collect()
    } else {
        Vec::new()
    };

    let per_node: Vec<String> = report
        .comm
        .iter()
        .enumerate()
        .map(|(n, s)| {
            format!(
                "    {{\"node\": {n}, \"sent_bytes\": {}, \"sent_msgs\": {}, \
\"recv_bytes\": {}, \"recv_msgs\": {}, \"inter_sent_bytes\": {}, \"inter_recv_bytes\": {}, \
\"dropped_msgs\": {}, \"duplicate_msgs\": {}, \
\"max_in_flight\": {}, \"credit_window\": {}, \
\"intra_max_in_flight\": {}, \"intra_credit_window\": {}}}",
                s.sent_bytes,
                s.sent_msgs,
                s.recv_bytes,
                s.recv_msgs,
                s.inter_sent_bytes,
                s.inter_recv_bytes,
                s.dropped_msgs,
                s.duplicate_msgs,
                s.max_in_flight,
                s.credit_window,
                s.intra_max_in_flight,
                s.intra_credit_window
            )
        })
        .collect();
    let sweep_json: Vec<String> = sweep_rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"nodes\": {}, \"node_size\": {}, \
\"tree_bytes\": {}, \"tree_inter_bytes\": {}, \"tree_a_inter_bytes\": {}, \
\"unicast_bytes\": {}, \"unicast_inter_bytes\": {}, \"unicast_a_inter_bytes\": {}, \
\"a_inter_reduction\": {:.4}}}",
                r.nodes,
                r.node_size,
                r.tree.total,
                r.tree.inter,
                r.tree.a_inter,
                r.unicast.total,
                r.unicast.inter,
                r.unicast.a_inter,
                ratio(r.unicast.a_inter, r.tree.a_inter)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"problem\": {{\"m\": {}, \"n\": {}, \"k\": {}, \"tiny\": {tiny}}},\n  \
\"nodes\": {nodes},\n  \"node_size\": {node_size},\n  \"collectives\": \"tree\",\n  \
\"bytes_moved\": {},\n  \"messages\": {},\n  \
\"recv_bytes\": {},\n  \"recv_msgs\": {},\n  \
\"inter_bytes_moved\": {},\n  \"a_inter_bytes\": {},\n  \
\"unicast_bytes_moved\": {},\n  \"unicast_inter_bytes\": {},\n  \"unicast_a_inter_bytes\": {},\n  \
\"a_inter_reduction\": {a_inter_reduction:.4},\n  \
\"effective_gbps\": {:.4},\n  \"intra_gbps\": {:.4},\n  \"matched_transfers\": {},\n  \
\"link_busy_s\": {:.6},\n  \"comm_busy_s\": {:.6},\n  \"overlap_fraction\": {:.4},\n  \
\"per_node\": [\n{}\n  ],\n  \"sweep\": [\n{}\n  ]\n}}\n",
        spec.a.rows(),
        spec.b.cols(),
        spec.a.cols(),
        tree.total,
        tree.msgs,
        tree.recv_total,
        tree.recv_msgs,
        tree.inter,
        tree.a_inter,
        uni.total,
        uni.inter,
        uni.a_inter,
        m.effective_gbps,
        m.intra_gbps,
        m.matched_transfers,
        m.link_busy_s,
        m.comm_busy_s,
        m.overlap_fraction,
        per_node.join(",\n"),
        sweep_json.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write BENCH JSON");

    // ---- Self-validation --------------------------------------------------
    let mut errors = Vec::new();
    if tree.total != tree.recv_total || tree.msgs != tree.recv_msgs {
        errors.push(format!(
            "conservation violated: sent {} B / {} msgs vs received {} B / {} msgs",
            tree.total, tree.msgs, tree.recv_total, tree.recv_msgs
        ));
    }
    if nodes > 1 && tree.total == 0 {
        errors.push("no bytes crossed the fabric on a multi-node run".into());
    }
    if tree.total != uni.total {
        errors.push(format!(
            "the trees changed the byte total: {} moved vs {} unicast (they only re-route)",
            tree.total, uni.total
        ));
    }
    if tree.inter > uni.inter {
        errors.push(format!(
            "the run moved MORE inter-node bytes than unicast ({} > {})",
            tree.inter, uni.inter
        ));
    }
    // The headline claim: on multi-rank physical nodes the broadcast trees
    // cut the A tiles' NIC traffic at least in half vs point-to-point.
    if node_size > 1 && nodes >= 2 * node_size && uni.a_inter > 0 && 2 * tree.a_inter > uni.a_inter
    {
        errors.push(format!(
            "inter-node A bytes only fell from {} to {} ({a_inter_reduction:.2}x, need >= 2x)",
            uni.a_inter, tree.a_inter
        ));
    }
    if m.matched_inter > 0 && !(0.0 < m.effective_gbps && m.effective_gbps <= 23.0 + 1e-9) {
        errors.push(format!(
            "effective NIC rate {:.3} GB/s outside (0, 23] — shaping is miscalibrated",
            m.effective_gbps
        ));
    }
    if m.matched_intra > 0 && !(0.0 < m.intra_gbps && m.intra_gbps <= 50.0 + 1e-9) {
        errors.push(format!(
            "intra-node rate {:.3} GB/s outside (0, 50] — shaping is miscalibrated",
            m.intra_gbps
        ));
    }
    if !(0.0..=1.0).contains(&m.overlap_fraction) {
        errors.push(format!("overlap fraction {} outside [0, 1]", m.overlap_fraction));
    }
    for row in &sweep_rows {
        if row.tree.total != row.unicast.total {
            errors.push(format!(
                "sweep P={} S={}: the trees changed the byte total ({} vs {} unicast)",
                row.nodes, row.node_size, row.tree.total, row.unicast.total
            ));
        }
        if row.tree.inter > row.unicast.inter {
            errors.push(format!(
                "sweep P={} S={}: tree moved more inter-node bytes than unicast ({} > {})",
                row.nodes, row.node_size, row.tree.inter, row.unicast.inter
            ));
        }
    }
    match minijson::parse(&json) {
        Ok(doc) => {
            for key in [
                "problem",
                "nodes",
                "node_size",
                "bytes_moved",
                "messages",
                "inter_bytes_moved",
                "a_inter_bytes",
                "unicast_a_inter_bytes",
                "a_inter_reduction",
                "effective_gbps",
                "overlap_fraction",
                "per_node",
                "sweep",
            ] {
                if doc.get(key).is_none() {
                    errors.push(format!("emitted JSON lacks \"{key}\""));
                }
            }
            let n_rows = doc.get("per_node").and_then(minijson::Value::as_arr).map(|a| a.len());
            if n_rows != Some(nodes) {
                errors.push(format!("per_node has {n_rows:?} rows, want {nodes}"));
            }
            let s_rows = doc.get("sweep").and_then(minijson::Value::as_arr).map(|a| a.len());
            if s_rows != Some(sweep_rows.len()) {
                errors.push(format!("sweep has {s_rows:?} rows, want {}", sweep_rows.len()));
            }
        }
        Err(e) => errors.push(format!("emitted JSON does not re-parse: {e}")),
    }
    if !errors.is_empty() {
        eprintln!("error: BENCH_comm self-validation failed:");
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    println!("# wrote {out_path}: self-validation OK");
}

/// Byte totals of one executed leg's transport, summed over nodes.
#[derive(Clone, Copy)]
struct LegBytes {
    total: u64,
    msgs: u64,
    recv_total: u64,
    recv_msgs: u64,
    inter: u64,
    a_inter: u64,
}

impl LegBytes {
    fn of(report: &ExecReport) -> Self {
        let mut out = Self {
            total: 0,
            msgs: 0,
            recv_total: 0,
            recv_msgs: 0,
            inter: 0,
            a_inter: report.a_network_inter_bytes,
        };
        for n in &report.comm {
            out.total += n.sent_bytes;
            out.msgs += n.sent_msgs;
            out.recv_total += n.recv_bytes;
            out.recv_msgs += n.recv_msgs;
            out.inter += n.inter_sent_bytes;
        }
        out
    }
}

/// `num / den` with a sensible value when nothing was moved: 1.0 when both
/// sides are zero (no saving, no regression), `num` when only the
/// denominator is (all traffic eliminated).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        if num == 0 {
            1.0
        } else {
            num as f64
        }
    } else {
        num as f64 / den as f64
    }
}

/// One `(P, node_size)` comparison point: measured tree bytes (FIFO
/// delivery, unshaped links) vs the unicast baseline on the same problem.
struct SweepRow {
    nodes: usize,
    node_size: usize,
    tree: LegBytes,
    unicast: BaselineBytes,
}

fn sweep_point(spec: &ProblemSpec, nodes: usize, node_size: usize, gpu_mem: u64) -> SweepRow {
    let opts = ExecOptions::builder().tracing(true).node_size(node_size).build();
    let tree = LegBytes::of(&traced_numeric_run(spec, nodes, 2, gpu_mem, 42, opts).1);
    let unicast = unicast_baseline(spec, nodes, 2, gpu_mem, node_size);
    eprintln!(
        "  [sweep] P={nodes} S={node_size}: inter-node A bytes {} (tree) vs {} (unicast), {:.2}x",
        tree.a_inter,
        unicast.a_inter,
        ratio(unicast.a_inter, tree.a_inter)
    );
    SweepRow {
        nodes,
        node_size,
        tree,
        unicast,
    }
}

/// Transport metrics read from one traced shaped run.
struct TransportMetrics {
    /// Inter-node bytes over the time the inter-node links were actually
    /// busy moving them (the transport's per-endpoint, per-class shaping
    /// accounting), in GB/s — the NIC rate the shaper caps at 23. Unlike
    /// dividing by matched `Sent -> Received` spans, this excludes credit
    /// and endpoint queueing time, which is *waiting*, not link busyness.
    effective_gbps: f64,
    /// The same rate for the intra-node link class (cap 50).
    intra_gbps: f64,
    /// Received events with a matching Sent.
    matched_transfers: usize,
    /// Matched transfers on inter-node links.
    matched_inter: usize,
    /// Matched transfers on intra-node links.
    matched_intra: usize,
    /// Summed per-link busy time (seconds, all classes).
    link_busy_s: f64,
    /// Union length of all in-flight spans (wall-clock seconds some
    /// transfer was in flight, queueing included).
    comm_busy_s: f64,
    /// Fraction of `comm_busy_s` during which some `Gemm` was running.
    overlap_fraction: f64,
}

fn transport_metrics(report: &ExecReport) -> TransportMetrics {
    let trace = report.trace.as_ref().expect("tracing was enabled");
    let mut sent_at: HashMap<(String, usize, usize, u32), u64> = HashMap::new();
    for e in &trace.comm_events {
        if e.phase == TracePhase::Sent {
            sent_at.entry((format!("{:?}", e.key), e.src, e.dst, e.epoch)).or_insert(e.t_ns);
        }
    }
    let mut all_spans: Vec<(u64, u64)> = Vec::new();
    let (mut matched_inter, mut matched_intra) = (0usize, 0usize);
    let (mut inter_bytes, mut intra_bytes) = (0u64, 0u64);
    for e in &trace.comm_events {
        if e.phase != TracePhase::Received {
            continue;
        }
        if let Some(&s) = sent_at.get(&(format!("{:?}", e.key), e.src, e.dst, e.epoch)) {
            if e.t_ns > s {
                all_spans.push((s, e.t_ns));
                match e.class {
                    LinkClass::Inter => {
                        matched_inter += 1;
                        inter_bytes += e.bytes;
                    }
                    _ => {
                        matched_intra += 1;
                        intra_bytes += e.bytes;
                    }
                }
            }
        }
    }
    let matched_transfers = all_spans.len();
    // Per-link busy time, as the transport measured it: each endpoint
    // accounts the shaping delay of every frame it delivered against the
    // frame's link class.
    let (inter_busy_ns, intra_busy_ns) = report
        .comm
        .iter()
        .fold((0u64, 0u64), |(e, a), n| (e + n.inter_busy_ns, a + n.intra_busy_ns));
    let rate = |bytes: u64, busy_ns: u64| {
        if busy_ns > 0 {
            bytes as f64 / (busy_ns as f64 / 1e9) / 1e9
        } else {
            0.0
        }
    };
    let comm_union = union_intervals(all_spans);
    let gemm_union = union_intervals(
        trace
            .records
            .iter()
            .filter(|r| r.kind == "Gemm")
            .map(|r| (r.span.start_ns, r.span.end_ns))
            .collect(),
    );
    let comm_busy: u64 = comm_union.iter().map(|(a, b)| b - a).sum();
    let overlap = intersection_len(&comm_union, &gemm_union);
    TransportMetrics {
        effective_gbps: rate(inter_bytes, inter_busy_ns),
        intra_gbps: rate(intra_bytes, intra_busy_ns),
        matched_transfers,
        matched_inter,
        matched_intra,
        link_busy_s: (inter_busy_ns + intra_busy_ns) as f64 / 1e9,
        comm_busy_s: comm_busy as f64 / 1e9,
        overlap_fraction: if comm_busy > 0 {
            overlap as f64 / comm_busy as f64
        } else {
            0.0
        },
    }
}

/// Sorts and merges intervals into a disjoint union.
fn union_intervals(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.retain(|(a, b)| b > a);
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (a, b) in spans {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Total overlap length of two disjoint sorted interval unions.
fn intersection_len(xs: &[(u64, u64)], ys: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0u64);
    while i < xs.len() && j < ys.len() {
        let lo = xs[i].0.max(ys[j].0);
        let hi = xs[i].1.min(ys[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if xs[i].1 <= ys[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}
