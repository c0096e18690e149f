//! The einsum contraction frontend: one spec-driven entry point over the
//! planned engine.
//!
//! Every contraction this crate evaluates — the plain matrix product, the
//! on-demand stationary-B product, the fused ABCD term, and multi-term
//! chains — is a *generated instance* of the same machinery: an einsum spec
//! (`"ik,kj->ij"`, `"ijcd,cdab->ijab"`, `"ij,jk,kl->il"`, …) is parsed,
//! validated against the bound operands (typed
//! [`crate::error::BstError::Spec`] errors), and lowered
//! into a left-to-right chain of planned `C += A·B` products executed by
//! [`crate::engine`].
//!
//! # Lowering
//!
//! Operands are consumed in their **stored matricised frame** — a matrix
//! contributes `rows × cols`, an order-4 tensor its fused
//! `(mode0,mode1) × (mode2,mode3)` layout ([`Tensor4Meta`]) — and the
//! lowering is *transpose-free*: per binary term it chooses between the two
//! orientations `acc · next` and `next · acc` (the **stationarity** choice:
//! whichever operand lands on the right becomes the stationary `B` of that
//! product, generated or served on demand), and rejects specs whose
//! contracted index groups would require physically transposing tile data
//! ([`SpecError::Unlowerable`]). Intermediates between terms carry
//! **screened structures**: the sparse shape product of the factors (at
//! [`Einsum::screen_threshold`]) becomes the intermediate's `c_shape`, so a
//! chain never materialises tiles the next term would screen away.
//!
//! # Entry point
//!
//! [`Einsum::contract`] runs each term through the engine. Callers that
//! already hold a [`ProblemSpec`] and an [`ExecutionPlan`] skip the builder
//! and call [`engine::execute`](crate::engine::execute) directly; callers
//! that repeat one contraction shape submit
//! [`ContractionRequest`](crate::service::ContractionRequest)s to a
//! [`ContractionService`](crate::service::ContractionService).
//!
//! ```
//! use bst_contract::einsum::Einsum;
//! use bst_contract::{DeviceConfig, GridConfig, PlannerConfig};
//! use bst_sparse::{BlockSparseMatrix, MatrixStructure};
//! use bst_tile::Tiling;
//!
//! let sa = MatrixStructure::dense(Tiling::uniform(4, 2), Tiling::uniform(6, 2));
//! let sb = MatrixStructure::dense(Tiling::uniform(6, 2), Tiling::uniform(8, 2));
//! let a = BlockSparseMatrix::random_from_structure(sa, 1);
//! let b = BlockSparseMatrix::random_from_structure(sb, 2);
//! let config = PlannerConfig::paper(
//!     GridConfig { p: 1, q: 1 },
//!     DeviceConfig { gpus_per_node: 1, gpu_mem_bytes: 1 << 20 },
//! );
//! let out = Einsum::new("ik,kj->ij")
//!     .operand(&a)
//!     .operand(&b)
//!     .contract(config)
//!     .unwrap();
//! assert_eq!(out.matrix().structure().rows(), 4);
//! assert_eq!(out.output_labels(), "ij");
//! ```

pub mod spec;

pub use spec::{EinsumSpec, SpecError};

use crate::config::PlannerConfig;
use crate::engine::policies::ExecOptions;
use crate::engine::report::ExecReport;
use crate::engine::{execute, BGen};
use crate::error::{BstError, GenError};
use crate::plan::ExecutionPlan;
use crate::spec::ProblemSpec;
use bst_sparse::shape::SparseShape;
use bst_sparse::structure::product_structure;
use bst_sparse::tensor::{BlockSparseTensor4, Tensor4Meta};
use bst_sparse::{BlockSparseMatrix, MatrixStructure};
use bst_tile::pool::TilePool;
use bst_tile::Tiling;

enum Operand<'a> {
    /// A materialised matrix.
    Matrix(&'a BlockSparseMatrix),
    /// A materialised order-4 tensor (consumed in its matricised frame).
    Tensor4(&'a BlockSparseTensor4),
    /// An operand generated on demand; `meta` is present for order-4
    /// operands and declares the per-mode tilings of the matricised
    /// `structure`.
    OnDemand {
        structure: &'a MatrixStructure,
        meta: Option<Tensor4Meta>,
        gen: BGen<'a>,
    },
}

/// The per-operand label/tiling view the symbolic lowering works on.
#[derive(Clone)]
struct OperandView {
    row_labels: Vec<char>,
    col_labels: Vec<char>,
    row_tilings: Vec<Tiling>,
    col_tilings: Vec<Tiling>,
}

/// Which matrix takes a side of one lowered product.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Side {
    /// The running intermediate from the previous term.
    Acc,
    /// Bound operand `i`.
    Op(usize),
}

/// One lowered binary product: `out = A · B` with the sides resolved.
struct TermPlan {
    a: Side,
    b: Side,
}

/// The result of a contracted einsum expression: the matricised result plus
/// the label/tiling bookkeeping to view it as a tensor, and the per-term
/// engine reports.
pub struct EinsumOutcome {
    matrix: BlockSparseMatrix,
    row_labels: Vec<char>,
    col_labels: Vec<char>,
    row_tilings: Vec<Tiling>,
    col_tilings: Vec<Tiling>,
    /// One engine report per lowered term, in execution order.
    pub reports: Vec<ExecReport>,
}

impl std::fmt::Debug for EinsumOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EinsumOutcome")
            .field("output_labels", &self.output_labels())
            .field("tile_rows", &self.matrix.structure().shape().rows())
            .field("tile_cols", &self.matrix.structure().shape().cols())
            .field("terms", &self.reports.len())
            .finish_non_exhaustive()
    }
}

impl EinsumOutcome {
    /// The matricised result.
    pub fn matrix(&self) -> &BlockSparseMatrix {
        &self.matrix
    }

    /// Consumes the outcome, returning the matricised result.
    pub fn into_matrix(self) -> BlockSparseMatrix {
        self.matrix
    }

    /// The output index order this result carries (row labels then column
    /// labels).
    pub fn output_labels(&self) -> String {
        self.row_labels.iter().chain(&self.col_labels).collect()
    }

    /// The final term's engine report.
    pub fn report(&self) -> &ExecReport {
        self.reports.last().expect("at least one term was executed")
    }

    /// Views a rank-4 result as an order-4 tensor sharing the result's
    /// tiles (no data movement). Fails with a typed error when the output
    /// has rank 2.
    pub fn tensor4(&self) -> Result<BlockSparseTensor4, BstError> {
        if self.row_labels.len() != 2 || self.col_labels.len() != 2 {
            return Err(SpecError::UnsupportedRank {
                term: "the output tensor view".to_string(),
                rank: self.row_labels.len() + self.col_labels.len(),
            }
            .into());
        }
        let meta = Tensor4Meta::new([
            self.row_tilings[0].clone(),
            self.row_tilings[1].clone(),
            self.col_tilings[0].clone(),
            self.col_tilings[1].clone(),
        ]);
        Ok(BlockSparseTensor4::from_matricised(meta, self.matrix.clone())
            .expect("result tilings fuse to the result structure by construction"))
    }
}

/// Builder-style einsum entry point — see the [module docs](self).
///
/// Bind one operand per spec term, in spec order, then call
/// [`contract`](Einsum::contract).
pub struct Einsum<'a> {
    spec: String,
    operands: Vec<Operand<'a>>,
    output_shape: Option<SparseShape>,
    screen_threshold: f32,
    opts: ExecOptions,
}

impl<'a> Einsum<'a> {
    /// Starts a contraction for `spec` (e.g. `"ijcd,cdab->ijab"`). The spec
    /// is parsed and validated when [`contract`](Einsum::contract) runs, so
    /// malformed specs surface as typed errors, not panics.
    pub fn new(spec: impl Into<String>) -> Self {
        Einsum {
            spec: spec.into(),
            operands: Vec::new(),
            output_shape: None,
            screen_threshold: 0.0,
            opts: ExecOptions::default(),
        }
    }

    /// Binds the next spec term to a materialised matrix.
    pub fn operand(mut self, m: &'a BlockSparseMatrix) -> Self {
        self.operands.push(Operand::Matrix(m));
        self
    }

    /// Binds the next spec term to a materialised order-4 tensor.
    pub fn tensor(mut self, t: &'a BlockSparseTensor4) -> Self {
        self.operands.push(Operand::Tensor4(t));
        self
    }

    /// Binds the next spec term to an on-demand **matrix** operand:
    /// `structure` declares its sparsity, `gen` materialises tiles when a
    /// node first needs them. The operand must land on the stationary `B`
    /// side of its product.
    pub fn on_demand(mut self, structure: &'a MatrixStructure, gen: BGen<'a>) -> Self {
        self.operands.push(Operand::OnDemand { structure, meta: None, gen });
        self
    }

    /// Binds the next spec term to an on-demand **order-4** operand:
    /// `meta` declares the per-mode tilings, `structure` the matricised
    /// sparsity. `meta`'s fused tilings must equal `structure`'s tilings —
    /// a mismatch is a typed [`SpecError::MatricisationMismatch`].
    pub fn on_demand_tensor4(
        mut self,
        meta: &Tensor4Meta,
        structure: &'a MatrixStructure,
        gen: BGen<'a>,
    ) -> Self {
        self.operands.push(Operand::OnDemand { structure, meta: Some(meta.clone()), gen });
        self
    }

    /// Screens the **final** result to `shape` (tile-level sparsity of the
    /// output) — the `c_shape` of the final term's [`ProblemSpec`].
    pub fn output_shape(mut self, shape: SparseShape) -> Self {
        self.output_shape = Some(shape);
        self
    }

    /// Norm threshold for the screened structures of chain intermediates
    /// (sparse shape product of the factors); `0.0` (the default) keeps
    /// every structurally non-zero tile.
    pub fn screen_threshold(mut self, threshold: f32) -> Self {
        self.screen_threshold = threshold;
        self
    }

    /// Execution options (tracing, fault injection, retry, transport knobs)
    /// applied to every lowered term.
    pub fn options(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Low-rank compression tolerance for every lowered term (sugar for
    /// setting [`ExecOptions::compress_tol`] on [`Einsum::options`]):
    /// operand tiles are truncated to `‖T − U·Vᵀ‖_F ≤ tol·‖T‖_F` as they
    /// enter the runtime. `0.0` (the default) keeps every tile dense and
    /// the contraction bit-identical to the uncompressed engine. Negative
    /// values clamp to `0.0`.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.opts.compress_tol = tol.max(0.0);
        self
    }

    /// Parses, validates, lowers and executes the expression, one planned
    /// product per binary term.
    pub fn contract(self, config: PlannerConfig) -> Result<EinsumOutcome, BstError> {
        let spec = EinsumSpec::parse(&self.spec)?;
        if spec.num_operands() != self.operands.len() {
            return Err(SpecError::OperandCount {
                expected: spec.num_operands(),
                got: self.operands.len(),
            }
            .into());
        }
        let views = build_views(&spec, &self.operands)?;
        check_shared_tilings(&views)?;
        let (plans, out_view) = plan_chain(&spec, &self.operands, &views)?;
        if let Some(shape) = &self.output_shape {
            let want_rows: usize = out_view.row_tilings.iter().map(Tiling::num_tiles).product();
            let want_cols: usize = out_view.col_tilings.iter().map(Tiling::num_tiles).product();
            if shape.rows() != want_rows || shape.cols() != want_cols {
                return Err(SpecError::ShapeDims {
                    rows: shape.rows(),
                    cols: shape.cols(),
                    want_rows,
                    want_cols,
                }
                .into());
            }
        }

        let mut reports = Vec::with_capacity(plans.len());
        let mut acc: Option<BlockSparseMatrix> = None;
        let last = plans.len() - 1;
        for (t, term) in plans.iter().enumerate() {
            let a_structure = match term.a {
                Side::Acc => {
                    acc.as_ref().expect("accumulator exists after term 0").structure().clone()
                }
                Side::Op(i) => self.operand_structure(i).clone(),
            };
            let b_structure = match term.b {
                Side::Acc => {
                    acc.as_ref().expect("accumulator exists after term 0").structure().clone()
                }
                Side::Op(i) => self.operand_structure(i).clone(),
            };
            // Intermediates carry the screened shape product of their
            // factors; the final term takes the caller's output shape.
            let c_shape = if t == last {
                self.output_shape.clone()
            } else {
                Some(
                    product_structure(&a_structure, &b_structure, self.screen_threshold)
                        .shape()
                        .clone(),
                )
            };
            let (c, report) =
                self.run_term(term, &acc, a_structure, b_structure, c_shape, config)?;
            reports.push(report);
            acc = Some(c);
        }
        Ok(EinsumOutcome {
            matrix: acc.expect("at least one term was executed"),
            row_labels: out_view.row_labels,
            col_labels: out_view.col_labels,
            row_tilings: out_view.row_tilings,
            col_tilings: out_view.col_tilings,
            reports,
        })
    }

    /// Executes one lowered term.
    fn run_term(
        &self,
        term: &TermPlan,
        acc: &Option<BlockSparseMatrix>,
        a_structure: MatrixStructure,
        b_structure: MatrixStructure,
        c_shape: Option<SparseShape>,
        config: PlannerConfig,
    ) -> Result<(BlockSparseMatrix, ExecReport), BstError> {
        let a_mat: &BlockSparseMatrix = match term.a {
            Side::Acc => acc.as_ref().expect("accumulator exists after term 0"),
            Side::Op(i) => self.materialised(i),
        };
        let pspec = ProblemSpec::new(a_structure, b_structure, c_shape);
        let plan = ExecutionPlan::build(&pspec, config)?;
        let run = |b_gen: BGen<'_>| {
            execute(&pspec, &plan, a_mat, b_gen, self.opts).map_err(BstError::from)
        };
        // A materialised B side (operand or intermediate) is served straight
        // from its tile map; only on-demand operands invoke a caller
        // generator.
        let b_mat: &BlockSparseMatrix = match term.b {
            Side::Acc => acc.as_ref().expect("accumulator exists after term 0"),
            Side::Op(i) => match &self.operands[i] {
                Operand::OnDemand { gen, .. } => return run(*gen),
                Operand::Matrix(_) | Operand::Tensor4(_) => self.materialised(i),
            },
        };
        run(&|k: usize, j: usize, _r: usize, _c: usize, _pool: &TilePool| {
            b_mat.tile_arc(k, j).cloned().ok_or(GenError::MissingTile { k, j })
        })
    }

    /// The materialised matrix of operand `i` (its matricised frame for
    /// tensors). Must not be called for on-demand operands.
    fn materialised(&self, i: usize) -> &BlockSparseMatrix {
        match &self.operands[i] {
            Operand::Matrix(m) => m,
            Operand::Tensor4(t) => t.matricised(),
            Operand::OnDemand { .. } => {
                unreachable!("lowering keeps on-demand operands on the B side")
            }
        }
    }

    /// The block structure of operand `i`.
    fn operand_structure(&self, i: usize) -> &MatrixStructure {
        match &self.operands[i] {
            Operand::Matrix(m) => m.structure(),
            Operand::Tensor4(t) => t.matricised().structure(),
            Operand::OnDemand { structure, .. } => structure,
        }
    }
}

/// Resolves each operand into its matricised label/tiling view, checking
/// rank agreement and (for on-demand tensors) that the declared mode
/// tilings fuse to the supplied structure.
fn build_views(
    spec: &EinsumSpec,
    operands: &[Operand<'_>],
) -> Result<Vec<OperandView>, SpecError> {
    let mut views = Vec::with_capacity(operands.len());
    for (i, (labels, entry)) in spec.inputs().iter().zip(operands).enumerate() {
        let operand_rank = match entry {
            Operand::Matrix(_) => 2,
            Operand::Tensor4(_) => 4,
            Operand::OnDemand { meta, .. } => {
                if meta.is_some() {
                    4
                } else {
                    2
                }
            }
        };
        if labels.len() != operand_rank {
            return Err(SpecError::RankMismatch {
                term: i,
                spec_rank: labels.len(),
                operand_rank,
            });
        }
        let (row_tilings, col_tilings) = match entry {
            Operand::Matrix(m) => (
                vec![m.structure().row_tiling().clone()],
                vec![m.structure().col_tiling().clone()],
            ),
            Operand::Tensor4(t) => {
                let meta = t.meta();
                check_fused(i, meta, t.matricised().structure())?;
                let [t0, t1, t2, t3] = meta.mode_tilings().clone();
                (vec![t0, t1], vec![t2, t3])
            }
            Operand::OnDemand { structure, meta: Some(meta), .. } => {
                check_fused(i, meta, structure)?;
                let [t0, t1, t2, t3] = meta.mode_tilings().clone();
                (vec![t0, t1], vec![t2, t3])
            }
            Operand::OnDemand { structure, meta: None, .. } => (
                vec![structure.row_tiling().clone()],
                vec![structure.col_tiling().clone()],
            ),
        };
        let (row_labels, col_labels) = labels.split_at(labels.len() / 2);
        views.push(OperandView {
            row_labels: row_labels.to_vec(),
            col_labels: col_labels.to_vec(),
            row_tilings,
            col_tilings,
        });
    }
    Ok(views)
}

/// Checks that `meta`'s fused tilings equal `structure`'s tilings.
fn check_fused(
    term: usize,
    meta: &Tensor4Meta,
    structure: &MatrixStructure,
) -> Result<(), SpecError> {
    if meta.fused_row_tiling() != *structure.row_tiling() {
        return Err(SpecError::MatricisationMismatch { term, side: "row" });
    }
    if meta.fused_col_tiling() != *structure.col_tiling() {
        return Err(SpecError::MatricisationMismatch { term, side: "column" });
    }
    Ok(())
}

/// Checks that every index shared by two terms carries the same tiling in
/// both.
fn check_shared_tilings(views: &[OperandView]) -> Result<(), SpecError> {
    let mut seen: Vec<(char, usize, &Tiling)> = Vec::new();
    for (i, view) in views.iter().enumerate() {
        let modes = view
            .row_labels
            .iter()
            .zip(&view.row_tilings)
            .chain(view.col_labels.iter().zip(&view.col_tilings));
        for (&label, tiling) in modes {
            if let Some(&(_, first, prior)) = seen.iter().find(|(l, _, _)| *l == label) {
                if prior != tiling {
                    return Err(SpecError::TilingMismatch { index: label, first, second: i });
                }
            } else {
                seen.push((label, i, tiling));
            }
        }
    }
    Ok(())
}

/// Folds the operand views left to right, choosing per binary term the
/// transpose-free orientation (and thereby which side is stationary), and
/// returns the lowered term plans plus the final result view.
fn plan_chain(
    spec: &EinsumSpec,
    operands: &[Operand<'_>],
    views: &[OperandView],
) -> Result<(Vec<TermPlan>, OperandView), SpecError> {
    let is_on_demand =
        |side: Side| matches!(side, Side::Op(i) if matches!(operands[i], Operand::OnDemand { .. }));
    let mut acc = views[0].clone();
    let mut acc_side = Side::Op(0);
    let mut plans = Vec::with_capacity(views.len() - 1);
    for (x, next) in views.iter().enumerate().skip(1) {
        let term = x - 1;
        let direct = acc.col_labels == next.row_labels;
        let swapped = next.col_labels == acc.row_labels;
        let (a_side, b_side, out) = if direct {
            (
                acc_side,
                Side::Op(x),
                OperandView {
                    row_labels: acc.row_labels.clone(),
                    col_labels: next.col_labels.clone(),
                    row_tilings: acc.row_tilings.clone(),
                    col_tilings: next.col_tilings.clone(),
                },
            )
        } else if swapped {
            (
                Side::Op(x),
                acc_side,
                OperandView {
                    row_labels: next.row_labels.clone(),
                    col_labels: acc.col_labels.clone(),
                    row_tilings: next.row_tilings.clone(),
                    col_tilings: acc.col_tilings.clone(),
                },
            )
        } else {
            let render = |ls: &[char]| ls.iter().collect::<String>();
            return Err(SpecError::Unlowerable {
                term,
                reason: format!(
                    "neither ({}|{})·({}|{}) nor ({}|{})·({}|{}) has matching inner index groups \
in the stored matricised frames",
                    render(&acc.row_labels),
                    render(&acc.col_labels),
                    render(&next.row_labels),
                    render(&next.col_labels),
                    render(&next.row_labels),
                    render(&next.col_labels),
                    render(&acc.row_labels),
                    render(&acc.col_labels),
                ),
            });
        };
        if is_on_demand(a_side) {
            let Side::Op(i) = a_side else { unreachable!() };
            return Err(SpecError::Unlowerable {
                term,
                reason: format!(
                    "operand {i} is generated on demand but the orientation puts it on the \
moving (A) side; on-demand operands must be stationary (B)"
                ),
            });
        }
        plans.push(TermPlan { a: a_side, b: b_side });
        acc = out;
        acc_side = Side::Acc;
    }
    let achieved: String = acc.row_labels.iter().chain(&acc.col_labels).collect();
    let requested: String = spec.output().iter().collect();
    if achieved != requested {
        return Err(SpecError::OutputOrder { achievable: achieved, requested });
    }
    Ok((plans, acc))
}
