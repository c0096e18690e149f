//! The metric vocabulary: every name the harness prints, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `manifest_matches_registry` test keeps the two from drifting.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may get worse before it counts as a regression.
    pub bound: Option<f64>,
    /// A count made by the program or computed from shapes: it must repeat
    /// bit for bit for a fixed seed, on any machine.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. An *operation* is one whole contraction:
/// an `Einsum::contract` call, a service request (submit → result), or a
/// `bst_net::launch` of the worker fleet.
///
/// Every bound is 25%, the widest the pipeline accepts: on the reference box
/// a fixed single-threaded scalar loop (`host.calib_s`) itself moves by ±20%
/// from one minute to the next, and the same commit measured twice, ten seeds
/// each, shifts its medians by up to 15% (README.md has the numbers). A
/// tighter bound would reject innocent changes.
pub const END_TO_END: &[MetricDef] = &[
    e2e("contract_s", "s", Lower, 0.25),
    e2e("gflops", "GF/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The task kinds of the lowered DAG, as the engine's trace labels them,
/// each with the metric that reports its busy time.
pub const BUSY_BY_KIND: [(&str, &str); 9] = [
    ("Gemm", "engine.busy_s.Gemm"),
    ("GenB", "engine.busy_s.GenB"),
    ("LoadBlock", "engine.busy_s.LoadBlock"),
    ("LoadA", "engine.busy_s.LoadA"),
    ("SendA", "engine.busy_s.SendA"),
    ("RecvA", "engine.busy_s.RecvA"),
    ("ReduceC", "engine.busy_s.ReduceC"),
    ("FlushBlock", "engine.busy_s.FlushBlock"),
    ("EvictChunk", "engine.busy_s.EvictChunk"),
];

/// Kinds whose ready-to-start wait is reported, with the metric.
pub const QUEUE_BY_KIND: [(&str, &str); 2] = [
    ("Gemm", "engine.queue_s.Gemm"),
    ("GenB", "engine.queue_s.GenB"),
];

/// Single layers, named `<module>.<quantity>`. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // bst-sparse / bst-chem
    layer("sparse.generate_s", "s", Lower),
    layer("chem.build_s", "s", Lower),
    layer("sparse.materialise_a_s", "s", Lower),
    layer("sparse.genb_s_1t", "s", Lower),
    layer("sparse.genb_gbps_1t", "GB/s", Higher),
    // core::plan
    layer("plan.build_s", "s", Lower),
    count("plan.gemm_tasks", "count", Lower),
    count("plan.flops", "flop", Lower),
    count("plan.blocks", "count", Lower),
    count("plan.chunks", "count", Lower),
    count("plan.a_network_bytes", "B", Lower),
    count("plan.b_generated_bytes", "B", Lower),
    count("plan.load_imbalance", "ratio", Lower),
    // core::engine::inspector
    layer("inspector.lower_s", "s", Lower),
    layer("inspector.restrict_s", "s", Lower),
    count("inspector.dag_tasks", "count", Lower),
    count("inspector.dag_edges", "count", Lower),
    // core::engine (the existing ExecOptions::tracing)
    layer("engine.run_s", "s", Lower),
    layer("engine.busy_s.Gemm", "s", Lower),
    layer("engine.busy_s.GenB", "s", Lower),
    layer("engine.busy_s.LoadBlock", "s", Lower),
    layer("engine.busy_s.LoadA", "s", Lower),
    layer("engine.busy_s.SendA", "s", Lower),
    layer("engine.busy_s.RecvA", "s", Lower),
    layer("engine.busy_s.ReduceC", "s", Lower),
    layer("engine.busy_s.FlushBlock", "s", Lower),
    layer("engine.busy_s.EvictChunk", "s", Lower),
    layer("engine.queue_s.Gemm", "s", Lower),
    layer("engine.queue_s.GenB", "s", Lower),
    layer("engine.gemm_busy_frac", "ratio", Higher),
    layer("engine.gpu_lane_idle_frac", "ratio", Lower),
    layer("engine.critical_path_s", "s", Lower),
    layer("engine.tasks_per_s", "1/s", Higher),
    layer("engine.genb_overlap", "count", Higher),
    layer("engine.trace_overhead_frac", "ratio", Lower),
    // bst-runtime::engine
    layer("runtime.sched_us_per_task", "us", Lower),
    // bst-runtime::comm
    count("comm.msgs", "count", Lower),
    count("comm.bytes", "B", Lower),
    count("comm.inter_bytes", "B", Lower),
    layer("comm.max_in_flight", "count", Lower),
    layer("comm.fabric_us_per_msg", "us", Lower),
    layer("comm.fabric_gbps", "GB/s", Higher),
    // bst-tile::kernel / pool
    layer("kernel.gflops_1t", "GF/s", Higher),
    layer("kernel.roofline_frac", "ratio", Higher),
    count("kernel.flops_per_byte", "flop/B", Higher),
    count("kernel.median_task_flops", "flop", Higher),
    layer("pool.hit_frac", "ratio", Higher),
    layer("pool.ns_per_take", "ns", Lower),
    // core::service
    layer("service.plan_hit_frac", "ratio", Higher),
    layer("service.b_hit_frac", "ratio", Higher),
    layer("service.b_evictions", "count", Lower),
    layer("service.queue_highwater", "count", Lower),
    layer("service.req_per_s", "1/s", Higher),
    layer("service.req_p95_ms", "ms", Lower),
    layer("service.warm_req_ms_p50", "ms", Lower),
    layer("service.cold_req_ms_p50", "ms", Lower),
    // bst-net
    layer("net.encode_gbps", "GB/s", Higher),
    layer("net.decode_gbps", "GB/s", Higher),
    layer("net.crc_gbps", "GB/s", Higher),
    layer("net.uds_rtt_us", "us", Lower),
    layer("net.uds_gbps", "GB/s", Higher),
    count("net.frames", "count", Lower),
    layer("net.spawn_s", "s", Lower),
    layer("net.overhead_frac", "ratio", Lower),
    // bst-sim
    layer("sim.replay_s", "s", Lower),
    layer("sim.predicted_s", "s", Lower),
    layer("sim.model_ratio", "ratio", Higher),
    // process / host: not targets — they separate "the program got slower"
    // from "the box got busier".
    layer("proc.cpu_s", "s", Lower),
    layer("proc.cpu_util", "ratio", Higher),
    layer("proc.rss_growth_mb", "MB", Lower),
    layer("host.calib_s", "s", Lower),
    layer("host.loadavg", "count", Lower),
];
