//! The five named workloads: what each runs, at which size, and why it
//! exists. Sizes were measured on the 2-core reference box (see README.md);
//! `smoke` shrinks every workload to well under a second on the same code
//! paths.

use crate::adapter::{Chem, Machine, Shape};

pub enum Input {
    /// `bst_sparse::generate` structures.
    Synthetic(Shape),
    /// The paper's application through `bst-chem` and the einsum frontend.
    Ccsd(Chem),
    /// The CLI job `synthetic:MxNxK:density`; the CLI derives the tile range
    /// from `m` (`m/40 ..= m/10`), so the shape's own range is unused.
    CliJob(Shape),
}

/// How operations are driven.
pub enum Drive {
    /// One `Einsum::contract` after another, from one thread.
    Contract { warmups: usize },
    /// A `ContractionService` under a closed loop of client threads.
    Service(ServiceLoad),
    /// One `bst_net::launch` of the worker fleet after another.
    Launch,
}

pub struct ServiceLoad {
    /// Closed-loop client threads: each sends its next request only after
    /// the previous one completed.
    pub clients: usize,
    /// Every `fresh_every`-th request uses a never-seen `b_key` (cold B:
    /// cache fill and eviction beside the reads); the rest reuse one key.
    pub fresh_every: u64,
    /// Distinct A value sets cycled through, as the amplitudes of
    /// successive CCSD sweeps.
    pub a_variants: u64,
    /// Per-node B-cache budget. Smaller than the service default (256 MiB)
    /// so that a few fresh keys fill it: every set-up ends with fresh-key
    /// requests until the cache evicts, so evictions happen throughout the
    /// timed window and memory does not grow with the number of requests a
    /// faster program completes.
    pub b_cache_budget_bytes: u64,
}

/// The regime a workload was chosen for, checked on the traced pass: the
/// share of traced busy time spent in `Gemm` tasks.
#[derive(Clone, Copy)]
pub enum GemmShare {
    AtLeast(f64),
    AtMost(f64),
    Any,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    pub machine: Machine,
    pub drive: Drive,
    /// Fewest timed operations, however short the window.
    pub min_ops: usize,
    /// The percentile of the operation times that `contract_s` reports.
    /// Back-to-back repetitions of one contraction do identical work, so
    /// their times differ by interference alone, and interference only ever
    /// slows an operation down: their fast decile ([`IDENTICAL_OPS`]) tracks
    /// the program where the median tracks the box's neighbours. A traffic
    /// mix differs by design (warm and cold requests, queueing), so there the
    /// median ([`TRAFFIC_MIX`]) is the typical operation.
    pub op_pct: f64,
    pub gemm_share: GemmShare,
}

pub const NAMES: [&str; 5] = [
    "dense_tiles",
    "sparse_grid",
    "ccsd_abcd",
    "service_sweeps",
    "launch_uds",
];

const MIB: u64 = 1 << 20;
const IDENTICAL_OPS: f64 = 10.0;
const TRAFFIC_MIX: f64 = 50.0;

/// The full-size value, or the `--smoke` one.
fn pick<T>(smoke: bool, full: T, small: T) -> T {
    if smoke {
        small
    } else {
        full
    }
}

pub fn get(name: &str, smoke: bool) -> Option<Workload> {
    Some(match name {
        "dense_tiles" => Workload {
            name: "dense_tiles",
            why: "large tiles on one node: GEMM kernels do almost all the work, comm and \
                  scheduling almost none; SIMD kernels must show here, a scheduler change must not",
            input: Input::Synthetic(pick(
                smoke,
                Shape {
                    m: 768,
                    n: 3840,
                    k: 3840,
                    density: 0.6,
                    tile_min: 192,
                    tile_max: 384,
                },
                Shape {
                    m: 96,
                    n: 384,
                    k: 384,
                    density: 0.6,
                    tile_min: 48,
                    tile_max: 96,
                },
            )),
            machine: Machine {
                p: 1,
                q: 1,
                gpus_per_node: 2,
                gpu_mem_bytes: pick(smoke, 64 * MIB, 2 * MIB),
                node_size: 1,
            },
            drive: Drive::Contract { warmups: 1 },
            min_ops: 5,
            op_pct: IDENTICAL_OPS,
            gemm_share: pick(smoke, GemmShare::AtLeast(0.70), GemmShare::Any),
        },
        "sparse_grid" => Workload {
            name: "sparse_grid",
            why:
                "tiny ragged tiles on a 2x2 grid with both link classes: per-task cost (planner, \
                  lowering, scheduler, pool, fabric, reduction) dominates and kernel speed does not",
            input: Input::Synthetic(pick(
                smoke,
                Shape {
                    m: 2000,
                    n: 8000,
                    k: 8000,
                    density: 0.08,
                    tile_min: 16,
                    tile_max: 48,
                },
                Shape {
                    m: 240,
                    n: 960,
                    k: 960,
                    density: 0.1,
                    tile_min: 8,
                    tile_max: 24,
                },
            )),
            machine: Machine {
                p: 2,
                q: 2,
                gpus_per_node: 1,
                gpu_mem_bytes: pick(smoke, 32 * MIB, MIB),
                node_size: 2,
            },
            drive: Drive::Contract { warmups: 2 },
            min_ops: 5,
            op_pct: IDENTICAL_OPS,
            gemm_share: pick(smoke, GemmShare::AtMost(0.50), GemmShare::Any),
        },
        "ccsd_abcd" => Workload {
            name: "ccsd_abcd",
            why: "the paper's ABCD term through the einsum frontend: k-means-irregular small \
                  tiles, banded V, screened R; a kernel tuned for big uniform tiles loses here",
            input: Input::Ccsd(pick(
                smoke,
                Chem {
                    carbons: 4,
                    occ_clusters: 4,
                    ao_clusters: 15,
                    ao_pair_len: 1.0,
                    t_threshold: 0.1,
                    v_threshold: 0.1,
                },
                Chem {
                    carbons: 2,
                    occ_clusters: 2,
                    ao_clusters: 4,
                    ao_pair_len: 1.0,
                    t_threshold: 0.1,
                    v_threshold: 0.1,
                },
            )),
            machine: Machine {
                p: 1,
                q: 2,
                gpus_per_node: 1,
                gpu_mem_bytes: 64 * MIB,
                node_size: 1,
            },
            drive: Drive::Contract { warmups: 1 },
            min_ops: 5,
            op_pct: IDENTICAL_OPS,
            gemm_share: GemmShare::Any,
        },
        "service_sweeps" => Workload {
            name: "service_sweeps",
            why: "ContractionService under 2 closed-loop clients, 7 of 8 requests on a warm \
                  plan and B cache: the only workload where GenB is bypassed and queueing matters",
            input: Input::Synthetic(pick(
                smoke,
                Shape {
                    m: 200,
                    n: 1600,
                    k: 1600,
                    density: 0.5,
                    tile_min: 48,
                    tile_max: 128,
                },
                Shape {
                    m: 64,
                    n: 320,
                    k: 320,
                    density: 0.5,
                    tile_min: 16,
                    tile_max: 48,
                },
            )),
            machine: Machine {
                p: 1,
                q: 2,
                gpus_per_node: 1,
                gpu_mem_bytes: 8 * MIB,
                node_size: 1,
            },
            drive: Drive::Service(ServiceLoad {
                clients: 2,
                fresh_every: 8,
                a_variants: 4,
                b_cache_budget_bytes: pick(smoke, 24 * MIB, MIB / 2),
            }),
            min_ops: pick(smoke, 240, 24),
            op_pct: TRAFFIC_MIX,
            gemm_share: GemmShare::Any,
        },
        "launch_uds" => Workload {
            name: "launch_uds",
            why: "2 worker processes over Unix sockets: the only path through the bst-net \
                  codec, CRC, sockets, Lowered::restrict and process spawn",
            input: Input::CliJob(pick(
                smoke,
                Shape {
                    m: 500,
                    n: 4000,
                    k: 4000,
                    density: 0.4,
                    tile_min: 12,
                    tile_max: 50,
                },
                Shape {
                    m: 64,
                    n: 320,
                    k: 320,
                    density: 0.6,
                    tile_min: 4,
                    tile_max: 12,
                },
            )),
            machine: Machine {
                p: 1,
                q: 2,
                gpus_per_node: 1,
                gpu_mem_bytes: 16 << 30,
                node_size: 1,
            },
            drive: Drive::Launch,
            min_ops: 5,
            op_pct: IDENTICAL_OPS,
            gemm_share: GemmShare::Any,
        },
        _ => return None,
    })
}
