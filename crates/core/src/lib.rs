#![warn(missing_docs)]

//! The paper's contribution: the distributed-memory multi-GPU block-sparse
//! matrix-product algorithm (`C ← C + A·B` with a huge stationary `B`).
//!
//! The algorithm (paper §3.2), for a `p × q` process grid where each node
//! has `g` GPUs:
//!
//! 1. `A`/`C` are sliced by tile row across the `p` grid rows
//!    (`i mod p = k`); each grid row computes `C(k) ← C(k) + A(k)·B`
//!    independently, with its own replica of `B`'s columns.
//! 2. **Column assignment** ([`assign`], §3.2.1) — within a grid row, the
//!    tile columns of `B` are dealt to the `q` nodes by non-decreasing flop
//!    weight in a *mirrored cyclic* order.
//! 3. **Block partitioning** ([`partition`], §3.2.2) — on each node, the
//!    assigned columns are dealt to the GPUs by footprint (B column + local
//!    C tiles), largest first to the lightest GPU, and each GPU packs its
//!    share into *blocks* that fit **half** its memory by a size-descending
//!    *worst-fit* heuristic; blocks run one after the other on their GPU, so
//!    every B/C tile is transferred to the GPU exactly once.
//! 4. **Chunk segmentation** ([`chunk`], §3.2.3) — within a block, the
//!    needed tiles of `A` stream through a **quarter** of the GPU memory in
//!    chunks (one tile per participating row of `A`, added cyclically),
//!    with the last quarter reserved for prefetching the next chunk.
//!
//! The [`plan`] module runs all of the above as an *inspector* producing an
//! [`plan::ExecutionPlan`] — the same inspector/executor split the paper
//! implements over PaRSEC's PTG — and the [`engine`] module tree executes a
//! plan numerically on the `bst-runtime` dataflow runtime. The performance
//! simulator (`bst-sim`) replays the same inspector lowering against a
//! Summit platform model.
//!
//! There are two doors into the engine: callers holding operands describe
//! the contraction to [`Einsum`] and call [`Einsum::contract`]; callers
//! already holding a [`ProblemSpec`] and an [`ExecutionPlan`] call
//! [`engine::execute`] (or [`engine::execute_rank`] as one process of an
//! SPMD run).
//! For iterative solvers that issue the same contraction shape repeatedly,
//! the [`service`] module keeps a persistent engine: plans and generated B
//! tiles are cached across requests behind a bounded, concurrent frontend.

pub mod assign;
pub mod chunk;
pub mod config;
pub mod einsum;
pub mod engine;
pub mod error;
pub mod fault;
pub mod partition;
pub mod plan;
pub mod service;
pub mod spec;
pub mod stationary_c;

pub use config::{DeviceConfig, GridConfig, PlanError, PlannerConfig};
pub use einsum::{Einsum, EinsumOutcome, EinsumSpec, SpecError};
pub use error::{BstError, ExecError, GenError, ServiceError};
pub use engine::policies::{ExecOptions, ExecOptionsBuilder};
pub use engine::report::{
    validate_trace_invariants, BCacheRunStats, ExecReport, ExecTraceData, RecoveryStats,
};
pub use fault::{FaultPlan, FaultSite, RetryPolicy};
pub use plan::{ExecutionPlan, PlanStats};
pub use service::{
    ContractionRequest, ContractionService, PendingContraction, RequestOutcome, RequestStats,
    ServiceBGen, ServiceConfig, ServiceStats,
};
pub use spec::ProblemSpec;
// The transport knob types [`ExecOptions`] carries, so callers configuring a
// run don't need a direct `bst-runtime` dependency.
pub use bst_runtime::comm::{DeliveryPolicy, LinkClass, LinkShaper, NodeCommStats, Topology};
