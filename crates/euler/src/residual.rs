//! The edge-based residual and its first-order analytic Jacobian.
//!
//! `R_i(q) = sum_{edges (i,j)} F_rusanov(q_i, q_j, n_ij)
//!          + sum_{boundary faces at i} F_bc(q_i, n_f / 3)`
//!
//! so the steady state satisfies `R(q) = 0` and pseudo-transient
//! continuation integrates `V_i dq_i/dtau = -R_i`.
//!
//! The flux through each dual face is Rusanov (local Lax–Friedrichs):
//! central average plus `lambda_max` dissipation — robust, smooth, and with
//! a compact analytic Jacobian, which is what the preconditioner wants
//! ("the preconditioner matrix is always built out of a first-order
//! analytical Jacobian matrix").  Second-order accuracy comes from limited
//! MUSCL reconstruction of the endpoint states (see [`crate::gradient`]);
//! per the paper the Jacobian stays first-order regardless.
//!
//! The first-order loops run in two passes.  A vertex pass computes each
//! vertex's flux record once per evaluation (see the crate docs); the
//! edge, boundary-face, wave-speed and Jacobian loops then combine records
//! with face normals.  Each loop is one kernel, monomorphized over the flow
//! model and the field layout and dispatched once per call.

use crate::field::{FieldVec, Interlaced, Layout, Record, Segregated};
use crate::gradient::{reconstruct_edge, Gradients};
use crate::model::{Comp, CompressibleFlux, FlowModel, FluxSplit, IncompressibleFlux, MAX_COMP};
use fun3d_mesh::tet::{BoundaryKind, TetMesh};
use fun3d_sparse::csr::{CsrMatrix, CsrPattern};
use fun3d_sparse::layout::FieldLayout;
use fun3d_sparse::par::ParCtx;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::OnceLock;

/// Spatial accuracy of the flux evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialOrder {
    /// Pure Rusanov on nodal states.
    First,
    /// Unlimited kappa = 1/3 MUSCL reconstruction — the paper's choice for
    /// shock-free simulations ("in shock-free simulations we use
    /// second-order accuracy throughout").
    Second,
    /// Van Albada–limited MUSCL reconstruction, for flows with (near-)
    /// discontinuities.
    SecondLimited,
}

/// Scratch space reused across residual evaluations.
#[derive(Debug, Clone)]
pub struct Workspace {
    grads: Gradients,
    /// The vertex pass's flux records, in the discretization's layout
    /// (empty for a model that stores nothing per vertex).
    records: Vec<f64>,
}

/// The per-vertex part of the flux at one state, built once per flux
/// evaluation by [`Discretization::vertex_states`] and shared by every edge
/// range and thread of that evaluation.
///
/// It holds one record per vertex in the discretization's layout: adjacent
/// values when interlaced, one plane per quantity when segregated.  For a
/// model that stores nothing per vertex it is the state itself.
#[derive(Debug, Clone, Copy)]
pub struct VertexStates<'a> {
    records: &'a [f64],
}

/// Evaluates `$body` with `$s` bound to the flux split of `$disc`'s model
/// and the type aliases `$P` and `$L` naming that split and `$disc`'s
/// layout: the one (model, layout) dispatch of each kernel call.
macro_rules! dispatch {
    ($disc:expr, |$s:ident: $P:ident, $L:ident| $body:expr) => {
        match ($disc.model, $disc.layout) {
            (FlowModel::Incompressible { beta }, FieldLayout::Interlaced) => {
                type $P = IncompressibleFlux;
                type $L = Interlaced;
                let $s = $P { beta };
                $body
            }
            (FlowModel::Incompressible { beta }, FieldLayout::Segregated) => {
                type $P = IncompressibleFlux;
                type $L = Segregated;
                let $s = $P { beta };
                $body
            }
            (FlowModel::Compressible { gamma }, FieldLayout::Interlaced) => {
                type $P = CompressibleFlux;
                type $L = Interlaced;
                let $s = $P { gamma };
                $body
            }
            (FlowModel::Compressible { gamma }, FieldLayout::Segregated) => {
                type $P = CompressibleFlux;
                type $L = Segregated;
                let $s = $P { gamma };
                $body
            }
        }
    };
}

/// The spatial discretization on a mesh.
pub struct Discretization<'m> {
    mesh: &'m TetMesh,
    model: FlowModel,
    layout: FieldLayout,
    order: SpatialOrder,
    freestream: Comp,
    /// Optional laminar viscosity: adds an edge-based diffusion of the
    /// velocity/momentum components (a thin-layer Navier-Stokes term; FUN3D
    /// solves "the Euler and Navier-Stokes equations", the paper's
    /// experiments are inviscid so this defaults to off).
    viscosity: Option<f64>,
    /// The Jacobian's sparsity pattern and value slots, built by the first
    /// [`jacobian`](Self::jacobian) or
    /// [`jacobian_pattern`](Self::jacobian_pattern) call (not at
    /// construction, which stays as cheap as the setup it belongs to).
    jacobian_pattern: OnceLock<JacobianPattern>,
}

impl<'m> Discretization<'m> {
    /// Create a discretization.
    pub fn new(
        mesh: &'m TetMesh,
        model: FlowModel,
        layout: FieldLayout,
        order: SpatialOrder,
    ) -> Self {
        let freestream = model.freestream();
        Self {
            mesh,
            model,
            layout,
            order,
            freestream,
            viscosity: None,
            jacobian_pattern: OnceLock::new(),
        }
    }

    /// Enable the laminar viscous term with viscosity `mu`.
    pub fn with_viscosity(mut self, mu: f64) -> Self {
        assert!(mu >= 0.0, "viscosity must be nonnegative");
        self.viscosity = if mu > 0.0 { Some(mu) } else { None };
        self
    }

    /// The configured viscosity, if any.
    pub fn viscosity(&self) -> Option<f64> {
        self.viscosity
    }

    /// The mesh.
    pub fn mesh(&self) -> &TetMesh {
        self.mesh
    }

    /// The flow model.
    pub fn model(&self) -> &FlowModel {
        &self.model
    }

    /// Unknown layout.
    pub fn layout(&self) -> FieldLayout {
        self.layout
    }

    /// Spatial order currently in effect.
    pub fn order(&self) -> SpatialOrder {
        self.order
    }

    /// Switch spatial order (the first/second-order continuation switch of
    /// Section 2.4.1).
    pub fn set_order(&mut self, order: SpatialOrder) {
        self.order = order;
    }

    /// Components per vertex.
    pub fn ncomp(&self) -> usize {
        self.model.ncomp()
    }

    /// Total unknowns.
    pub fn nunknowns(&self) -> usize {
        self.mesh.nverts() * self.ncomp()
    }

    /// Freestream initial state.
    pub fn initial_state(&self) -> FieldVec {
        FieldVec::constant(
            self.mesh.nverts(),
            self.ncomp(),
            self.layout,
            &self.freestream,
        )
    }

    /// Allocate the reusable workspace.
    pub fn workspace(&self) -> Workspace {
        Workspace {
            grads: Gradients::zeros(self.mesh.nverts(), self.ncomp()),
            records: self.record_buffer(),
        }
    }

    /// A buffer for the vertex pass's records.
    fn record_buffer(&self) -> Vec<f64> {
        vec![0.0; self.mesh.nverts() * self.model.hoisted_len()]
    }

    fn check_state(&self, q: &FieldVec) {
        assert_eq!(q.nverts(), self.mesh.nverts());
        assert_eq!(q.ncomp(), self.ncomp());
        assert_eq!(q.layout(), self.layout);
    }

    /// Run the vertex pass at `q`: compute each vertex's flux record into
    /// `ws`, for the [`edge_flux_residual`](Self::edge_flux_residual) calls
    /// of one flux evaluation to share.
    pub fn vertex_states<'a>(&self, q: &'a FieldVec, ws: &'a mut Workspace) -> VertexStates<'a> {
        self.fill_states(q, &mut ws.records)
    }

    fn fill_states<'a>(&self, q: &'a FieldVec, buf: &'a mut [f64]) -> VertexStates<'a> {
        self.check_state(q);
        dispatch!(self, |s: P, L| {
            if P::HOISTED == 0 {
                return VertexStates {
                    records: q.as_slice(),
                };
            }
            let nv = self.mesh.nverts();
            assert_eq!(
                buf.len(),
                nv * P::HOISTED,
                "workspace built for another discretization"
            );
            let data = q.as_slice();
            for v in 0..nv {
                let mut state = [0.0; MAX_COMP];
                for c in 0..P::NCOMP {
                    state[c] = data[L::at(nv, P::NCOMP, v, c)];
                }
                s.record(&state).store::<L>(buf, nv, v);
            }
        });
        VertexStates { records: buf }
    }

    /// Gradients for a second-order evaluation at `q`, computed into
    /// `grads`; `None` at first order.
    fn gradients<'a>(&self, q: &FieldVec, grads: &'a mut Gradients) -> Option<&'a Gradients> {
        if matches!(self.order, SpatialOrder::First) {
            return None;
        }
        grads.compute(self.mesh, q);
        Some(grads)
    }

    /// Evaluate `R(q)` into `res` (both in this discretization's layout).
    pub fn residual(&self, q: &FieldVec, res: &mut FieldVec, ws: &mut Workspace) {
        res.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
        let Workspace { grads, records } = ws;
        let states = self.fill_states(q, records);
        let grads = self.gradients(q, grads);
        let nedges = self.mesh.nedges();
        self.flux_pass(&states, q, grads, res, 0..nedges);
        if let Some(mu) = self.viscosity {
            self.viscous_pass(mu, q, res, 0..nedges);
        }
        self.boundary_pass(&states, res);
    }

    /// Threaded [`residual`](Self::residual): the edge loops are partitioned
    /// across the team with per-thread *private* residual arrays, gathered
    /// into `res` in ascending thread order afterwards — the paper's
    /// OpenMP private-array scheme (Section 2.5), where the gather is the
    /// ghost-accumulation step.  The vertex pass, gradients and boundary
    /// fluxes stay sequential.  The gather reorders floating-point
    /// additions, so the result matches the sequential kernel to rounding
    /// (~1e-15 relative), deterministically for a fixed thread count.
    pub fn residual_par(&self, q: &FieldVec, res: &mut FieldVec, ws: &mut Workspace, ctx: &ParCtx) {
        if ctx.nthreads() == 1 {
            return self.residual(q, res, ws);
        }
        res.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
        let Workspace { grads, records } = ws;
        let states = self.fill_states(q, records);
        let grads = self.gradients(q, grads);
        let nedges = self.mesh.nedges();
        let privates = ctx.map_chunks("residual_flux", nedges, |_, range| {
            let mut local = FieldVec::zeros(self.mesh.nverts(), self.ncomp(), self.layout);
            self.flux_pass(&states, q, grads, &mut local, range.clone());
            if let Some(mu) = self.viscosity {
                self.viscous_pass(mu, q, &mut local, range);
            }
            local
        });
        for private in &privates {
            for (r, p) in res.as_mut_slice().iter_mut().zip(private.as_slice()) {
                *r += p;
            }
        }
        self.boundary_pass(&states, res);
    }

    /// Analytic bytes moved by one [`residual`](Self::residual) evaluation
    /// under perfect vertex-state reuse: per edge, two `ncomp`-wide states
    /// read, one 24-byte normal, and two read-modify-write residual
    /// updates; plus one streaming write to zero `res`.  A lower bound in
    /// the spirit of the paper's Eq. 1 edge-loop traffic model (gather
    /// locality decides how far reality sits above it).  It models the
    /// edge loop's state traffic: the vertex pass's record buffer, which
    /// the edge loop gathers from instead, is not counted.
    pub fn residual_traffic_bytes(&self) -> f64 {
        let ncomp = self.ncomp() as f64;
        let nedges = self.mesh.nedges() as f64;
        let n = (self.mesh.nverts() as f64) * ncomp;
        nedges * (2.0 * 8.0 * ncomp + 24.0 + 4.0 * 8.0 * ncomp) + 8.0 * n
    }

    /// Rusanov flux accumulation over a range of interior edges — the
    /// kernel of Table 1 / Figure 3.  First order reads the vertex states;
    /// second order reconstructs each edge's endpoint states from `q` and
    /// `grads`.  Contributions are *added* to `res`.
    fn flux_pass(
        &self,
        states: &VertexStates,
        q: &FieldVec,
        grads: Option<&Gradients>,
        res: &mut FieldVec,
        range: Range<usize>,
    ) {
        let limited = matches!(self.order, SpatialOrder::SecondLimited);
        let res = res.as_mut_slice();
        dispatch!(self, |s: P, L| {
            let k = Kernel::<P, L>::new(s, self, states);
            match grads {
                None => k.edge_fluxes(res, range),
                Some(g) => k.reconstructed_edge_fluxes(q, g, limited, res, range),
            }
        })
    }

    /// Viscous (edge-based diffusion) term on the momentum components, over
    /// a range of edges.
    fn viscous_pass(&self, mu: f64, q: &FieldVec, res: &mut FieldVec, range: Range<usize>) {
        let normals = self.mesh.edge_normals();
        let coords = self.mesh.coords();
        let edges = self.mesh.edges();
        for e in range {
            let [a, b] = edges[e];
            let (a, b) = (a as usize, b as usize);
            let n = normals[e];
            let area = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
            let dx = [
                coords[b][0] - coords[a][0],
                coords[b][1] - coords[a][1],
                coords[b][2] - coords[a][2],
            ];
            let dist = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]).sqrt();
            let kappa = mu * area / dist;
            let qa = q.get(a);
            let qb = q.get(b);
            let mut fa = [0.0; MAX_COMP];
            for c in 1..4 {
                fa[c] = kappa * (qa[c] - qb[c]);
            }
            let mut fb = [0.0; MAX_COMP];
            for c in 1..4 {
                fb[c] = -fa[c];
            }
            res.add(a, &fa);
            res.add(b, &fb);
        }
    }

    /// Boundary-face fluxes (always sequential: the face count is small and
    /// faces of one vertex may repeat).
    fn boundary_pass(&self, states: &VertexStates, res: &mut FieldVec) {
        let res = res.as_mut_slice();
        dispatch!(self, |s: P, L| Kernel::<P, L>::new(s, self, states)
            .boundary_fluxes(res))
    }

    /// Integrated pressure force over the solid (wall) boundary — the
    /// aerodynamic quantity a FUN3D user extracts (drag/lift components).
    /// Each boundary face contributes `p_v * n_f / 3` per vertex.
    pub fn wall_forces(&self, q: &FieldVec) -> [f64; 3] {
        let mut f = [0.0f64; 3];
        for face in self.mesh.boundary_faces() {
            if face.kind != fun3d_mesh::tet::BoundaryKind::Wall {
                continue;
            }
            for &v in &face.verts {
                let p = self.model.pressure(&q.get(v as usize));
                f[0] += p * face.normal[0] / 3.0;
                f[1] += p * face.normal[1] / 3.0;
                f[2] += p * face.normal[2] / 3.0;
            }
        }
        f
    }

    /// First-order flux accumulation over a *range* of edges only, with no
    /// boundary terms — the kernel Table 5 parallelizes across threads
    /// (OpenMP analogue) or subdomain processes.  `states` comes from one
    /// [`vertex_states`](Self::vertex_states) call per flux evaluation,
    /// shared by all its ranges.  `res` must be zeroed (or hold a partial
    /// sum) on entry; contributions are added.
    pub fn edge_flux_residual(
        &self,
        states: &VertexStates,
        res: &mut FieldVec,
        range: Range<usize>,
    ) {
        assert!(range.end <= self.mesh.nedges());
        let res = res.as_mut_slice();
        dispatch!(self, |s: P, L| Kernel::<P, L>::new(s, self, states)
            .edge_fluxes(res, range))
    }

    /// Global L2 norm of a residual field.
    pub fn residual_norm(&self, res: &FieldVec) -> f64 {
        fun3d_sparse::vec_ops::norm2(res.as_slice())
    }

    /// Per-unknown dual volumes in this layout (for the `V/dtau` diagonal of
    /// pseudo-transient continuation).
    pub fn unknown_volumes(&self) -> Vec<f64> {
        let nv = self.mesh.nverts();
        let ncomp = self.ncomp();
        let vols = self.mesh.dual_volumes();
        let mut out = vec![0.0; nv * ncomp];
        for v in 0..nv {
            for c in 0..ncomp {
                let idx = match self.layout {
                    FieldLayout::Interlaced => v * ncomp + c,
                    FieldLayout::Segregated => c * nv + v,
                };
                out[idx] = vols[v];
            }
        }
        out
    }

    /// Per-vertex sums of face wave speeds at state `q` — the denominator of
    /// the local pseudo-timestep `dtau_i = CFL * V_i / sum lambda`.
    pub fn wavespeed_sums(&self, q: &FieldVec) -> Vec<f64> {
        let mut buf = self.record_buffer();
        let states = self.fill_states(q, &mut buf);
        dispatch!(self, |s: P, L| Kernel::<P, L>::new(s, self, &states)
            .wavespeed_sums())
    }

    /// Assemble the first-order analytic Jacobian `dR/dq` at `q` (Rusanov
    /// with frozen dissipation coefficient), in this discretization's
    /// unknown layout.
    ///
    /// Full `ncomp x ncomp` blocks are always stored (PETSc BAIJ semantics)
    /// and the pattern never depends on the linearization state, so
    /// pattern-reusing consumers (ILU refactor, BCSR refill) stay valid.
    /// The pattern is built and validated on the first call, and every
    /// returned matrix shares it ([`CsrMatrix::pattern`]): no call after the
    /// first copies or re-checks it, and the diagonal positions a shift
    /// finds once serve every later step.  Each call adds each contribution
    /// straight into its value slot, in loop order (edges, viscous edges,
    /// boundary faces), so a given `q` always gives the same bits.
    pub fn jacobian(&self, q: &FieldVec) -> CsrMatrix {
        let pat = self.pattern();
        let mut buf = self.record_buffer();
        let states = self.fill_states(q, &mut buf);
        let mut vals = vec![0.0; pat.csr.nnz()];
        dispatch!(self, |s: P, L| {
            let k = Kernel::<P, L>::new(s, self, &states);
            k.jacobian_edges(pat, &mut vals);
            if let Some(mu) = self.viscosity {
                self.viscous_jacobian(mu, pat, &mut vals);
            }
            k.jacobian_boundary(pat, &mut vals);
        });
        CsrMatrix::from_pattern(&pat.csr, vals)
    }

    /// The point pattern every [`jacobian`](Self::jacobian) of this
    /// discretization shares, without assembling one (built on first use,
    /// like the assembly's).  In the interlaced layout it is made of dense
    /// `ncomp x ncomp` blocks ([`CsrPattern::block_size`]).
    pub fn jacobian_pattern(&self) -> &CsrPattern {
        &self.pattern().csr
    }

    fn pattern(&self) -> &JacobianPattern {
        self.jacobian_pattern
            .get_or_init(|| JacobianPattern::new(self.mesh, self.ncomp(), self.layout))
    }

    /// Viscous term of the Jacobian: exact (linear) entries on momentum
    /// rows.
    fn viscous_jacobian(&self, mu: f64, pat: &JacobianPattern, vals: &mut [f64]) {
        let normals = self.mesh.edge_normals();
        let coords = self.mesh.coords();
        for (e, &[a, b]) in self.mesh.edges().iter().enumerate() {
            let (a, b) = (a as usize, b as usize);
            let n = normals[e];
            let area = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
            let dx = [
                coords[b][0] - coords[a][0],
                coords[b][1] - coords[a][1],
                coords[b][2] - coords[a][2],
            ];
            let dist = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]).sqrt();
            let kappa = mu * area / dist;
            let [aa, ab, ba, bb] = pat.edge_blocks[e];
            for c in 1..4 {
                vals[pat.slot(a, aa, c, c)] += kappa;
                vals[pat.slot(a, ab, c, c)] -= kappa;
                vals[pat.slot(b, bb, c, c)] += kappa;
                vals[pat.slot(b, ba, c, c)] -= kappa;
            }
        }
    }

    /// Estimated floating-point work of one residual evaluation (for the
    /// machine-model experiments). Calibrated constants: ~110 flops per
    /// edge-flux (first order) for 4 components, scaled by component count;
    /// second order roughly doubles it (gradients + reconstruction).
    pub fn residual_flops(&self) -> f64 {
        let per_edge = 110.0 * (self.ncomp() as f64 / 4.0);
        let base = per_edge * self.mesh.nedges() as f64;
        match self.order {
            SpatialOrder::First => base,
            SpatialOrder::Second | SpatialOrder::SecondLimited => 2.2 * base,
        }
    }

    /// Estimated bytes touched by one residual evaluation: edge geometry
    /// streamed once plus state/residual traffic.
    pub fn residual_bytes(&self) -> f64 {
        let ncomp = self.ncomp() as f64;
        let per_edge = 32.0 + 4.0 * ncomp * 8.0;
        let order_factor = match self.order {
            SpatialOrder::First => 1.0,
            SpatialOrder::Second | SpatialOrder::SecondLimited => 2.0,
        };
        order_factor * per_edge * self.mesh.nedges() as f64
    }
}

/// The flux kernels of one flow model `P` on one field layout `L`, over the
/// vertex states of one evaluation.  Every loop keeps the order of the
/// additions into its output, so results do not depend on the split.
struct Kernel<'a, P: FluxSplit, L: Layout> {
    split: P,
    mesh: &'a TetMesh,
    nv: usize,
    records: &'a [f64],
    freestream: P::Rec,
    layout: PhantomData<L>,
}

impl<'a, P: FluxSplit, L: Layout> Kernel<'a, P, L> {
    fn new(split: P, disc: &Discretization<'a>, states: &VertexStates<'a>) -> Self {
        Self {
            split,
            mesh: disc.mesh,
            nv: disc.mesh.nverts(),
            records: states.records,
            freestream: split.record(&disc.freestream),
            layout: PhantomData,
        }
    }

    #[inline(always)]
    fn record(&self, v: usize) -> P::Rec {
        P::Rec::load::<L>(self.records, self.nv, v)
    }

    /// The boundary faces with their per-vertex normal shares `n_f / 3`.
    fn boundary_faces(&self) -> impl Iterator<Item = (BoundaryKind, [u32; 3], [f64; 3])> + 'a {
        self.mesh.boundary_faces().iter().map(|face| {
            let n3 = [
                face.normal[0] / 3.0,
                face.normal[1] / 3.0,
                face.normal[2] / 3.0,
            ];
            (face.kind, face.verts, n3)
        })
    }

    /// First-order Rusanov fluxes of the edges in `range`, added to `res`.
    fn edge_fluxes(&self, res: &mut [f64], range: Range<usize>) {
        let (edges, normals) = (self.mesh.edges(), self.mesh.edge_normals());
        for e in range {
            let [a, b] = edges[e];
            let (a, b) = (a as usize, b as usize);
            let f = self
                .split
                .rusanov(&self.record(a), &self.record(b), normals[e]);
            L::add(res, self.nv, P::NCOMP, a, &f);
            L::sub(res, self.nv, P::NCOMP, b, &f);
        }
    }

    /// Second-order fluxes of the edges in `range`: MUSCL-reconstructed
    /// endpoint states, each turned into a record on the spot.
    fn reconstructed_edge_fluxes(
        &self,
        q: &FieldVec,
        grads: &Gradients,
        limited: bool,
        res: &mut [f64],
        range: Range<usize>,
    ) {
        let (edges, normals) = (self.mesh.edges(), self.mesh.edge_normals());
        let coords = self.mesh.coords();
        for e in range {
            let [a, b] = edges[e];
            let (a, b) = (a as usize, b as usize);
            let r_ab = [
                coords[b][0] - coords[a][0],
                coords[b][1] - coords[a][1],
                coords[b][2] - coords[a][2],
            ];
            let (ql, qr) =
                reconstruct_edge(grads, a, b, r_ab, &q.get(a), &q.get(b), P::NCOMP, limited);
            let f =
                self.split
                    .rusanov(&self.split.record(&ql), &self.split.record(&qr), normals[e]);
            L::add(res, self.nv, P::NCOMP, a, &f);
            L::sub(res, self.nv, P::NCOMP, b, &f);
        }
    }

    /// Boundary-face fluxes, added to `res`.
    fn boundary_fluxes(&self, res: &mut [f64]) {
        for (kind, verts, n3) in self.boundary_faces() {
            for v in verts {
                let v = v as usize;
                let r = self.record(v);
                let f = match kind {
                    BoundaryKind::Wall => {
                        // Slip wall: no through-flow; only the pressure force.
                        let p = self.split.pressure(&r);
                        [0.0, p * n3[0], p * n3[1], p * n3[2], 0.0]
                    }
                    BoundaryKind::Inflow => self.split.rusanov(&r, &self.freestream, n3),
                    BoundaryKind::Outflow => self.split.flux(&r, n3),
                };
                L::add(res, self.nv, P::NCOMP, v, &f);
            }
        }
    }

    /// Per-vertex sums of face wave speeds.
    fn wavespeed_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.nv];
        let normals = self.mesh.edge_normals();
        for (e, &[a, b]) in self.mesh.edges().iter().enumerate() {
            let (a, b) = (a as usize, b as usize);
            let n = normals[e];
            let lam = self
                .split
                .wavespeed(&self.record(a), n)
                .max(self.split.wavespeed(&self.record(b), n));
            sums[a] += lam;
            sums[b] += lam;
        }
        for (_, verts, n3) in self.boundary_faces() {
            for v in verts {
                let v = v as usize;
                sums[v] += self.split.wavespeed(&self.record(v), n3);
            }
        }
        sums
    }

    /// The edges' Rusanov Jacobian blocks (frozen dissipation coefficient),
    /// added into `vals`.
    fn jacobian_edges(&self, pat: &JacobianPattern, vals: &mut [f64]) {
        let normals = self.mesh.edge_normals();
        for (e, &[a, b]) in self.mesh.edges().iter().enumerate() {
            let (a, b) = (a as usize, b as usize);
            let n = normals[e];
            let (ra, rb) = (self.record(a), self.record(b));
            let lam = self
                .split
                .wavespeed(&ra, n)
                .max(self.split.wavespeed(&rb, n));
            // dF/dqa = A(qa)/2 + lam/2 I ; dF/dqb = A(qb)/2 - lam/2 I.
            let ja = self.split.flux_jacobian(&ra, n);
            let jb = self.split.flux_jacobian(&rb, n);
            let [aa, ab, ba, bb] = pat.edge_blocks[e];
            // R_a += F  => rows of a; R_b -= F  => rows of b.
            for (v, offset, sign, jac, extra_diag) in [
                (a, aa, 1.0, &ja, 0.5 * lam),
                (a, ab, 1.0, &jb, -0.5 * lam),
                (b, ba, -1.0, &ja, 0.5 * lam),
                (b, bb, -1.0, &jb, -0.5 * lam),
            ] {
                pat.add_block::<L>(vals, v, offset, 0..P::NCOMP, P::NCOMP, |r, c| {
                    let mut val = jac[r * MAX_COMP + c] * 0.5;
                    if r == c {
                        val += extra_diag;
                    }
                    sign * val
                });
            }
        }
    }

    /// The boundary faces' Jacobian contributions, all on diagonal blocks,
    /// added into `vals`.
    fn jacobian_boundary(&self, pat: &JacobianPattern, vals: &mut [f64]) {
        for (kind, verts, n3) in self.boundary_faces() {
            for v in verts {
                let v = v as usize;
                let rec = self.record(v);
                let diag = pat.diag_blocks[v];
                match kind {
                    BoundaryKind::Wall => {
                        // d(p n)/dq: rank-one n (x) dp/dq on momentum rows.
                        let dp = self.split.pressure_gradient(&rec);
                        pat.add_block::<L>(vals, v, diag, 1..4, P::NCOMP, |r, c| n3[r - 1] * dp[c]);
                    }
                    BoundaryKind::Inflow => {
                        // d Rusanov(q, qinf)/dq = A(q)/2 + lam/2 I (frozen).
                        let lam = self
                            .split
                            .wavespeed(&rec, n3)
                            .max(self.split.wavespeed(&self.freestream, n3));
                        let a = self.split.flux_jacobian(&rec, n3);
                        pat.add_block::<L>(vals, v, diag, 0..P::NCOMP, P::NCOMP, |r, c| {
                            let mut val = 0.5 * a[r * MAX_COMP + c];
                            if r == c {
                                val += 0.5 * lam;
                            }
                            val
                        });
                    }
                    BoundaryKind::Outflow => {
                        let a = self.split.flux_jacobian(&rec, n3);
                        pat.add_block::<L>(vals, v, diag, 0..P::NCOMP, P::NCOMP, |r, c| {
                            a[r * MAX_COMP + c]
                        });
                    }
                }
            }
        }
    }
}

/// The point-CSR pattern of the first-order Jacobian, and where each edge's
/// and each vertex's `ncomp x ncomp` block sits in its value array.
///
/// The rows of vertex `v` hold full blocks for `v` and its edge neighbours
/// with columns ascending, so the pattern is the one assembling triplets
/// and sorting them into CSR produces.  Entry `(r, c)` of a block with
/// value offset `offset` in the rows of vertex `v` is at
/// `offset + r * strides[v].0 + c * strides[v].1`: in the interlaced layout
/// a block's rows are one vertex row apart and its columns adjacent, so
/// each block row is one contiguous slice that the kernels add through
/// ([`Self::add_block`]); in the segregated layout its rows are one
/// component plane apart and its columns one vertex row length apart, and
/// each entry is found through [`Self::slot`].
#[derive(Debug)]
struct JacobianPattern {
    /// The point-CSR pattern every assembled Jacobian shares.
    csr: CsrPattern,
    /// Per edge `[a, b]`: offsets of the blocks (a,a), (a,b), (b,a), (b,b).
    edge_blocks: Vec<[usize; 4]>,
    /// Per vertex: offset of its diagonal block.
    diag_blocks: Vec<usize>,
    /// Per vertex: (row, column) strides of the blocks in its rows.
    strides: Vec<(usize, usize)>,
}

impl JacobianPattern {
    fn new(mesh: &TetMesh, ncomp: usize, layout: FieldLayout) -> Self {
        let g = mesh.vertex_graph();
        let nv = mesh.nverts();
        // The block columns of vertex v: its neighbours and itself,
        // ascending.  `first[v]` counts the block columns of earlier
        // vertices.
        let block_cols = |v: usize| {
            let nbrs = g.neighbors(v);
            let (below, above) = nbrs.split_at(nbrs.partition_point(|&w| (w as usize) < v));
            let as_usize = |w: &u32| *w as usize;
            below
                .iter()
                .map(as_usize)
                .chain([v])
                .chain(above.iter().map(as_usize))
        };
        let mut first = Vec::with_capacity(nv + 1);
        first.push(0);
        for v in 0..nv {
            first.push(first[v] + g.degree(v) + 1);
        }
        let total = first[nv];

        let mut row_ptr = Vec::with_capacity(nv * ncomp + 1);
        let mut col_idx = Vec::with_capacity(ncomp * ncomp * total);
        row_ptr.push(0);
        match layout {
            FieldLayout::Interlaced => {
                for v in 0..nv {
                    for _ in 0..ncomp {
                        for u in block_cols(v) {
                            col_idx.extend((0..ncomp).map(|c| (u * ncomp + c) as u32));
                        }
                        row_ptr.push(col_idx.len());
                    }
                }
            }
            FieldLayout::Segregated => {
                for _ in 0..ncomp {
                    for v in 0..nv {
                        for c in 0..ncomp {
                            col_idx.extend(block_cols(v).map(|u| (c * nv + u) as u32));
                        }
                        row_ptr.push(col_idx.len());
                    }
                }
            }
        }

        // Offset of block (v, u): u's position among v's block columns
        // plus the entries of earlier vertices in v's first block row.
        let block = |v: usize, u: usize| -> usize {
            let k = g.neighbors(v).partition_point(|&w| (w as usize) < u) + usize::from(u > v);
            match layout {
                FieldLayout::Interlaced => ncomp * ncomp * first[v] + k * ncomp,
                FieldLayout::Segregated => ncomp * first[v] + k,
            }
        };
        let edge_blocks = mesh
            .edges()
            .iter()
            .map(|&[a, b]| {
                let (a, b) = (a as usize, b as usize);
                [block(a, a), block(a, b), block(b, a), block(b, b)]
            })
            .collect();
        let diag_blocks = (0..nv).map(|v| block(v, v)).collect();
        let strides = (0..nv)
            .map(|v| {
                let ncols = first[v + 1] - first[v];
                match layout {
                    FieldLayout::Interlaced => (ncomp * ncols, 1),
                    FieldLayout::Segregated => (ncomp * total, ncols),
                }
            })
            .collect();
        let n = nv * ncomp;
        Self {
            csr: CsrPattern::new(n, n, row_ptr, col_idx),
            edge_blocks,
            diag_blocks,
            strides,
        }
    }

    /// Value index of entry `(r, c)` of the block at `offset` in the rows
    /// of vertex `v`.
    #[inline]
    fn slot(&self, v: usize, offset: usize, r: usize, c: usize) -> usize {
        let (rs, cs) = self.strides[v];
        offset + r * rs + c * cs
    }

    /// Add `f(r, c)` to entry `(r, c)` of the block at `offset` in the rows
    /// of vertex `v`, for `r` in `rows` and `c < ncomp`, row by row with
    /// columns ascending.  Interlaced, each block row is one contiguous
    /// `ncomp`-wide slice of `vals` and is added through that slice (one
    /// bounds check per row); segregated, each entry goes through
    /// [`Self::slot`].  Either way every entry sees the same addition.
    #[inline(always)]
    fn add_block<L: Layout>(
        &self,
        vals: &mut [f64],
        v: usize,
        offset: usize,
        rows: Range<usize>,
        ncomp: usize,
        f: impl Fn(usize, usize) -> f64,
    ) {
        match L::LAYOUT {
            FieldLayout::Interlaced => {
                let row_stride = self.strides[v].0;
                for r in rows {
                    let row = &mut vals[offset + r * row_stride..][..ncomp];
                    for (c, x) in row.iter_mut().enumerate() {
                        *x += f(r, c);
                    }
                }
            }
            FieldLayout::Segregated => {
                for r in rows {
                    for c in 0..ncomp {
                        vals[self.slot(v, offset, r, c)] += f(r, c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CompMat;
    use fun3d_mesh::generator::BumpChannelSpec;
    use fun3d_mesh::reorder::{edge_order, vertex_permutation, EdgeOrdering, VertexOrdering};
    use fun3d_sparse::triplet::TripletMatrix;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn flat_channel(dims: (usize, usize, usize)) -> TetMesh {
        let mut spec = BumpChannelSpec::with_dims(dims.0, dims.1, dims.2);
        spec.bump_height = 0.0;
        spec.jitter = 0.12;
        spec.build()
    }

    fn both_models() -> Vec<FlowModel> {
        vec![FlowModel::incompressible(), FlowModel::compressible()]
    }

    /// The triplet assembly the pattern assembly replaced, kept as its
    /// reference: push every contribution, then sort and merge into CSR.
    fn triplet_jacobian(disc: &Discretization, q: &FieldVec) -> CsrMatrix {
        let ncomp = disc.ncomp();
        let nv = disc.mesh.nverts();
        let n_unknowns = nv * ncomp;
        let idx = |v: usize, c: usize| -> usize {
            match disc.layout {
                FieldLayout::Interlaced => v * ncomp + c,
                FieldLayout::Segregated => c * nv + v,
            }
        };
        let mut t = TripletMatrix::with_capacity(
            n_unknowns,
            n_unknowns,
            (disc.mesh.nedges() * 4 + nv) * ncomp * ncomp,
        );
        // Full ncomp x ncomp blocks are always stored (PETSc BAIJ semantics):
        // the sparsity pattern must not depend on the linearization state, or
        // pattern-reusing consumers (ILU refactor, BCSR refill) would break.
        let mut push_block = |vi: usize, vj: usize, sign: f64, a: &[f64], extra_diag: f64| {
            for r in 0..ncomp {
                for c in 0..ncomp {
                    let mut val = a[r * MAX_COMP + c];
                    if r == c {
                        val += extra_diag;
                    }
                    t.push(idx(vi, r), idx(vj, c), sign * val);
                }
            }
        };
        let half = 0.5;
        let normals = disc.mesh.edge_normals();
        for (e, &[a, b]) in disc.mesh.edges().iter().enumerate() {
            let (a, b) = (a as usize, b as usize);
            let n = normals[e];
            let qa = q.get(a);
            let qb = q.get(b);
            let lam = disc
                .model
                .max_wavespeed(&qa, n)
                .max(disc.model.max_wavespeed(&qb, n));
            let ja = disc.model.flux_jacobian(&qa, n);
            let jb = disc.model.flux_jacobian(&qb, n);
            // dF/dqa = A(qa)/2 + lam/2 I ; dF/dqb = A(qb)/2 - lam/2 I.
            let scaled = |m: &[f64; MAX_COMP * MAX_COMP]| -> [f64; MAX_COMP * MAX_COMP] {
                let mut s = *m;
                for v in s.iter_mut() {
                    *v *= half;
                }
                s
            };
            let ja2 = scaled(&ja);
            let jb2 = scaled(&jb);
            // R_a += F  => rows of a.
            push_block(a, a, 1.0, &ja2, half * lam);
            push_block(a, b, 1.0, &jb2, -half * lam);
            // R_b -= F  => rows of b.
            push_block(b, a, -1.0, &ja2, half * lam);
            push_block(b, b, -1.0, &jb2, -half * lam);
        }
        // Viscous term: exact (linear) Jacobian entries on momentum rows.
        if let Some(mu) = disc.viscosity {
            let coords = disc.mesh.coords();
            for (e, &[a, b]) in disc.mesh.edges().iter().enumerate() {
                let (a, b) = (a as usize, b as usize);
                let n = normals[e];
                let area = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
                let dx = [
                    coords[b][0] - coords[a][0],
                    coords[b][1] - coords[a][1],
                    coords[b][2] - coords[a][2],
                ];
                let dist = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]).sqrt();
                let kappa = mu * area / dist;
                for c in 1..4 {
                    t.push(idx(a, c), idx(a, c), kappa);
                    t.push(idx(a, c), idx(b, c), -kappa);
                    t.push(idx(b, c), idx(b, c), kappa);
                    t.push(idx(b, c), idx(a, c), -kappa);
                }
            }
        }
        // Boundary contributions.
        for face in disc.mesh.boundary_faces() {
            let n3 = [
                face.normal[0] / 3.0,
                face.normal[1] / 3.0,
                face.normal[2] / 3.0,
            ];
            for &v in &face.verts {
                let v = v as usize;
                let qv = q.get(v);
                match face.kind {
                    BoundaryKind::Wall => {
                        // d(p n)/dq: rank-one n (x) dp/dq on momentum rows.
                        let dp = reference::pressure_gradient(&disc.model, &qv);
                        for r in 1..4usize {
                            for c in 0..ncomp {
                                t.push(idx(v, r), idx(v, c), n3[r - 1] * dp[c]);
                            }
                        }
                    }
                    BoundaryKind::Inflow => {
                        // d Rusanov(q, qinf)/dq = A(q)/2 + lam/2 I (frozen).
                        let lam = disc
                            .model
                            .max_wavespeed(&qv, n3)
                            .max(disc.model.max_wavespeed(&disc.freestream, n3));
                        let a = disc.model.flux_jacobian(&qv, n3);
                        for r in 0..ncomp {
                            for c in 0..ncomp {
                                let mut val = 0.5 * a[r * MAX_COMP + c];
                                if r == c {
                                    val += 0.5 * lam;
                                }
                                t.push(idx(v, r), idx(v, c), val);
                            }
                        }
                    }
                    BoundaryKind::Outflow => {
                        let a = disc.model.flux_jacobian(&qv, n3);
                        for r in 0..ncomp {
                            for c in 0..ncomp {
                                t.push(idx(v, r), idx(v, c), a[r * MAX_COMP + c]);
                            }
                        }
                    }
                }
            }
        }
        // Guarantee a structural diagonal (pseudo-time terms are added to it).
        for v in 0..nv {
            for c in 0..ncomp {
                t.push(idx(v, c), idx(v, c), 0.0);
            }
        }
        t.to_csr()
    }

    /// The formulas and per-edge loops the vertex/face split replaced, kept
    /// as bitwise references for the kernels and the [`FlowModel`]
    /// wrappers: every flux and wave speed re-derives its vertex's
    /// quantities, and every call matches on model and layout.
    mod reference {
        use super::*;

        pub fn flux(model: &FlowModel, q: &Comp, n: [f64; 3]) -> Comp {
            let mut f = [0.0; MAX_COMP];
            match *model {
                FlowModel::Incompressible { beta } => {
                    let (p, u, v, w) = (q[0], q[1], q[2], q[3]);
                    let theta = u * n[0] + v * n[1] + w * n[2];
                    f[0] = beta * theta;
                    f[1] = u * theta + p * n[0];
                    f[2] = v * theta + p * n[1];
                    f[3] = w * theta + p * n[2];
                }
                FlowModel::Compressible { gamma } => {
                    let rho = q[0];
                    let inv_rho = 1.0 / rho;
                    let (u, v, w) = (q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho);
                    let e = q[4];
                    let p = (gamma - 1.0) * (e - 0.5 * rho * (u * u + v * v + w * w));
                    let theta = u * n[0] + v * n[1] + w * n[2];
                    f[0] = rho * theta;
                    f[1] = q[1] * theta + p * n[0];
                    f[2] = q[2] * theta + p * n[1];
                    f[3] = q[3] * theta + p * n[2];
                    f[4] = (e + p) * theta;
                }
            }
            f
        }

        pub fn pressure(model: &FlowModel, q: &Comp) -> f64 {
            match *model {
                FlowModel::Incompressible { .. } => q[0],
                FlowModel::Compressible { gamma } => {
                    let rho = q[0];
                    let ke = 0.5 * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / rho;
                    (gamma - 1.0) * (q[4] - ke)
                }
            }
        }

        pub fn max_wavespeed(model: &FlowModel, q: &Comp, n: [f64; 3]) -> f64 {
            let area2 = n[0] * n[0] + n[1] * n[1] + n[2] * n[2];
            match *model {
                FlowModel::Incompressible { beta } => {
                    let theta = q[1] * n[0] + q[2] * n[1] + q[3] * n[2];
                    theta.abs() + (theta * theta + beta * area2).sqrt()
                }
                FlowModel::Compressible { gamma } => {
                    let inv_rho = 1.0 / q[0];
                    let theta = (q[1] * n[0] + q[2] * n[1] + q[3] * n[2]) * inv_rho;
                    let p = pressure(model, q);
                    let c = (gamma * p * inv_rho).max(0.0).sqrt();
                    theta.abs() + c * area2.sqrt()
                }
            }
        }

        pub fn flux_jacobian(model: &FlowModel, q: &Comp, n: [f64; 3]) -> CompMat {
            let mut a = [0.0; MAX_COMP * MAX_COMP];
            let m = MAX_COMP;
            match *model {
                FlowModel::Incompressible { beta } => {
                    let (u, v, w) = (q[1], q[2], q[3]);
                    let theta = u * n[0] + v * n[1] + w * n[2];
                    a[1] = beta * n[0];
                    a[2] = beta * n[1];
                    a[3] = beta * n[2];
                    a[m] = n[0];
                    a[m + 1] = theta + u * n[0];
                    a[m + 2] = u * n[1];
                    a[m + 3] = u * n[2];
                    a[2 * m] = n[1];
                    a[2 * m + 1] = v * n[0];
                    a[2 * m + 2] = theta + v * n[1];
                    a[2 * m + 3] = v * n[2];
                    a[3 * m] = n[2];
                    a[3 * m + 1] = w * n[0];
                    a[3 * m + 2] = w * n[1];
                    a[3 * m + 3] = theta + w * n[2];
                }
                FlowModel::Compressible { gamma } => {
                    let g1 = gamma - 1.0;
                    let rho = q[0];
                    let inv_rho = 1.0 / rho;
                    let (u, v, w) = (q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho);
                    let e = q[4];
                    let q2 = u * u + v * v + w * w;
                    let phi2 = 0.5 * g1 * q2;
                    let theta = u * n[0] + v * n[1] + w * n[2];
                    let p = g1 * (e - 0.5 * rho * q2);
                    let h = (e + p) * inv_rho;
                    let vel = [u, v, w];
                    a[1] = n[0];
                    a[2] = n[1];
                    a[3] = n[2];
                    for i in 0..3 {
                        let r = (i + 1) * m;
                        a[r] = phi2 * n[i] - vel[i] * theta;
                        for j in 0..3 {
                            a[r + 1 + j] = vel[i] * n[j] - g1 * vel[j] * n[i]
                                + if i == j { theta } else { 0.0 };
                        }
                        a[r + 4] = g1 * n[i];
                    }
                    let r = 4 * m;
                    a[r] = (phi2 - h) * theta;
                    for j in 0..3 {
                        a[r + 1 + j] = h * n[j] - g1 * vel[j] * theta;
                    }
                    a[r + 4] = gamma * theta;
                }
            }
            a
        }

        pub fn pressure_gradient(model: &FlowModel, q: &Comp) -> Comp {
            match *model {
                FlowModel::Incompressible { .. } => {
                    let mut d = [0.0; MAX_COMP];
                    d[0] = 1.0;
                    d
                }
                FlowModel::Compressible { gamma } => {
                    let g1 = gamma - 1.0;
                    let rho = q[0];
                    let (u, v, w) = (q[1] / rho, q[2] / rho, q[3] / rho);
                    [
                        0.5 * g1 * (u * u + v * v + w * w),
                        -g1 * u,
                        -g1 * v,
                        -g1 * w,
                        g1,
                    ]
                }
            }
        }

        fn rusanov(model: &FlowModel, ql: &Comp, qr: &Comp, n: [f64; 3]) -> Comp {
            let fl = flux(model, ql, n);
            let fr = flux(model, qr, n);
            let lam = max_wavespeed(model, ql, n).max(max_wavespeed(model, qr, n));
            let mut f = [0.0; MAX_COMP];
            for c in 0..model.ncomp() {
                f[c] = 0.5 * (fl[c] + fr[c]) - 0.5 * lam * (qr[c] - ql[c]);
            }
            f
        }

        fn boundary_flux(disc: &Discretization, kind: BoundaryKind, q: &Comp, n: [f64; 3]) -> Comp {
            match kind {
                BoundaryKind::Wall => {
                    let p = pressure(&disc.model, q);
                    let mut f = [0.0; MAX_COMP];
                    f[1] = p * n[0];
                    f[2] = p * n[1];
                    f[3] = p * n[2];
                    f
                }
                BoundaryKind::Inflow => rusanov(&disc.model, q, &disc.freestream, n),
                BoundaryKind::Outflow => flux(&disc.model, q, n),
            }
        }

        fn face_share(normal: [f64; 3]) -> [f64; 3] {
            [normal[0] / 3.0, normal[1] / 3.0, normal[2] / 3.0]
        }

        /// The per-edge first-order flux loop over `range`.
        pub fn edge_flux_residual(
            disc: &Discretization,
            q: &FieldVec,
            res: &mut FieldVec,
            range: Range<usize>,
        ) {
            let ncomp = disc.ncomp();
            let normals = disc.mesh.edge_normals();
            let edges = disc.mesh.edges();
            for e in range {
                let [a, b] = edges[e];
                let (a, b) = (a as usize, b as usize);
                let f = rusanov(&disc.model, &q.get(a), &q.get(b), normals[e]);
                let mut fneg = [0.0; MAX_COMP];
                for c in 0..ncomp {
                    fneg[c] = -f[c];
                }
                res.add(a, &f);
                res.add(b, &fneg);
            }
        }

        /// The first-order residual: edges, viscous edges, boundary faces.
        pub fn residual(disc: &Discretization, q: &FieldVec) -> FieldVec {
            let mut res = FieldVec::zeros(q.nverts(), q.ncomp(), q.layout());
            let nedges = disc.mesh.nedges();
            edge_flux_residual(disc, q, &mut res, 0..nedges);
            if let Some(mu) = disc.viscosity {
                disc.viscous_pass(mu, q, &mut res, 0..nedges);
            }
            for face in disc.mesh.boundary_faces() {
                let n3 = face_share(face.normal);
                for &v in &face.verts {
                    let v = v as usize;
                    let f = boundary_flux(disc, face.kind, &q.get(v), n3);
                    res.add(v, &f);
                }
            }
            res
        }

        pub fn wavespeed_sums(disc: &Discretization, q: &FieldVec) -> Vec<f64> {
            let model = &disc.model;
            let mut sums = vec![0.0; disc.mesh.nverts()];
            let normals = disc.mesh.edge_normals();
            for (e, &[a, b]) in disc.mesh.edges().iter().enumerate() {
                let (a, b) = (a as usize, b as usize);
                let lam = max_wavespeed(model, &q.get(a), normals[e]).max(max_wavespeed(
                    model,
                    &q.get(b),
                    normals[e],
                ));
                sums[a] += lam;
                sums[b] += lam;
            }
            for face in disc.mesh.boundary_faces() {
                let n3 = face_share(face.normal);
                for &v in &face.verts {
                    let v = v as usize;
                    sums[v] += max_wavespeed(model, &q.get(v), n3);
                }
            }
            sums
        }

        /// The pattern assembly's values, one `flux_jacobian` and two wave
        /// speeds per edge.
        pub fn jacobian_values(disc: &Discretization, q: &FieldVec) -> Vec<f64> {
            let model = &disc.model;
            let pat = JacobianPattern::new(disc.mesh, disc.ncomp(), disc.layout);
            let ncomp = disc.ncomp();
            let mut vals = vec![0.0; pat.csr.nnz()];
            let add_block =
                |vals: &mut [f64], v: usize, offset: usize, sign: f64, a: &[f64], extra: f64| {
                    for r in 0..ncomp {
                        for c in 0..ncomp {
                            let mut val = a[r * MAX_COMP + c];
                            if r == c {
                                val += extra;
                            }
                            vals[pat.slot(v, offset, r, c)] += sign * val;
                        }
                    }
                };
            let half = 0.5;
            let normals = disc.mesh.edge_normals();
            for (e, &[a, b]) in disc.mesh.edges().iter().enumerate() {
                let (a, b) = (a as usize, b as usize);
                let n = normals[e];
                let (qa, qb) = (q.get(a), q.get(b));
                let lam = max_wavespeed(model, &qa, n).max(max_wavespeed(model, &qb, n));
                let mut ja2 = flux_jacobian(model, &qa, n);
                let mut jb2 = flux_jacobian(model, &qb, n);
                ja2.iter_mut().for_each(|v| *v *= half);
                jb2.iter_mut().for_each(|v| *v *= half);
                let [aa, ab, ba, bb] = pat.edge_blocks[e];
                add_block(&mut vals, a, aa, 1.0, &ja2, half * lam);
                add_block(&mut vals, a, ab, 1.0, &jb2, -half * lam);
                add_block(&mut vals, b, ba, -1.0, &ja2, half * lam);
                add_block(&mut vals, b, bb, -1.0, &jb2, -half * lam);
            }
            if let Some(mu) = disc.viscosity {
                disc.viscous_jacobian(mu, &pat, &mut vals);
            }
            for face in disc.mesh.boundary_faces() {
                let n3 = face_share(face.normal);
                for &v in &face.verts {
                    let v = v as usize;
                    let qv = q.get(v);
                    let diag = pat.diag_blocks[v];
                    match face.kind {
                        BoundaryKind::Wall => {
                            let dp = pressure_gradient(model, &qv);
                            for r in 1..4usize {
                                for c in 0..ncomp {
                                    vals[pat.slot(v, diag, r, c)] += n3[r - 1] * dp[c];
                                }
                            }
                        }
                        BoundaryKind::Inflow => {
                            let lam = max_wavespeed(model, &qv, n3).max(max_wavespeed(
                                model,
                                &disc.freestream,
                                n3,
                            ));
                            let a = flux_jacobian(model, &qv, n3);
                            for r in 0..ncomp {
                                for c in 0..ncomp {
                                    let mut val = 0.5 * a[r * MAX_COMP + c];
                                    if r == c {
                                        val += 0.5 * lam;
                                    }
                                    vals[pat.slot(v, diag, r, c)] += val;
                                }
                            }
                        }
                        BoundaryKind::Outflow => {
                            let a = flux_jacobian(model, &qv, n3);
                            for r in 0..ncomp {
                                for c in 0..ncomp {
                                    vals[pat.slot(v, diag, r, c)] += a[r * MAX_COMP + c];
                                }
                            }
                        }
                    }
                }
            }
            vals
        }
    }

    /// The benchmark's mesh: 15x8x8 from seed 1, renumbered by reverse
    /// Cuthill-McKee with vertex-sorted edges.
    fn benchmark_mesh() -> TetMesh {
        let mut spec = BumpChannelSpec::with_dims(15, 8, 8);
        spec.seed = 1;
        let mesh = spec.build();
        let perm = vertex_permutation(&mesh.vertex_graph(), VertexOrdering::ReverseCuthillMcKee);
        let mut mesh = mesh.renumber_vertices(&perm);
        let order = edge_order(mesh.edges(), mesh.nverts(), EdgeOrdering::VertexSorted);
        mesh.reorder_edges(&order);
        mesh
    }

    /// Freestream plus a random smooth perturbation of every component:
    /// `amp_c sin(k_c . x + phase_c)` with up to 10% amplitude.
    fn smooth_perturbation(mesh: &TetMesh, model: FlowModel, rng: &mut SmallRng) -> FieldVec {
        let ncomp = model.ncomp();
        let waves: Vec<(f64, [f64; 3], f64)> = (0..ncomp)
            .map(|_| {
                let k = [
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                ];
                (rng.gen_range(0.0..0.1), k, rng.gen_range(0.0..6.3))
            })
            .collect();
        let mut q = FieldVec::constant(
            mesh.nverts(),
            ncomp,
            FieldLayout::Interlaced,
            &model.freestream(),
        );
        for v in 0..mesh.nverts() {
            let x = mesh.coords()[v];
            let mut s = q.get(v);
            for (c, &(amp, k, phase)) in waves.iter().enumerate() {
                s[c] += amp * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2] + phase).sin();
            }
            q.set(v, &s);
        }
        q
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn kernels_match_the_per_edge_reference_bitwise() {
        let meshes = [
            ("6x5x4", BumpChannelSpec::with_dims(6, 5, 4).build()),
            ("15x8x8 rcm", benchmark_mesh()),
        ];
        let mut rng = SmallRng::seed_from_u64(0x5eed_f1c5);
        for (name, mesh) in &meshes {
            let nedges = mesh.nedges();
            for trial in 0..3 {
                for model in both_models() {
                    let q0 = smooth_perturbation(mesh, model, &mut rng);
                    for layout in [FieldLayout::Interlaced, FieldLayout::Segregated] {
                        let q = q0.to_layout(layout);
                        let case = format!("{name} trial {trial} {model:?} {layout:?}");
                        for mu in [0.0, 0.05] {
                            let disc =
                                Discretization::new(mesh, model, layout, SpatialOrder::First)
                                    .with_viscosity(mu);
                            let want = bits(reference::residual(&disc, &q).as_slice());
                            let mut ws = disc.workspace();
                            let mut res = FieldVec::zeros(mesh.nverts(), model.ncomp(), layout);
                            disc.residual(&q, &mut res, &mut ws);
                            assert!(bits(res.as_slice()) == want, "{case} mu={mu}: residual");
                            res.as_mut_slice().fill(f64::NAN);
                            disc.residual_par(&q, &mut res, &mut ws, &ParCtx::new(1));
                            assert!(bits(res.as_slice()) == want, "{case} mu={mu}: residual_par");
                            let want = bits(&reference::jacobian_values(&disc, &q));
                            assert!(
                                bits(disc.jacobian(&q).values()) == want,
                                "{case} mu={mu}: jacobian"
                            );
                        }
                        let disc = Discretization::new(mesh, model, layout, SpatialOrder::First);
                        let mut want = FieldVec::zeros(mesh.nverts(), model.ncomp(), layout);
                        reference::edge_flux_residual(&disc, &q, &mut want, 0..nedges);
                        let mut cuts: Vec<usize> = (0..rng.gen_range(1..6))
                            .map(|_| rng.gen_range(0..=nedges))
                            .collect();
                        cuts.extend([0, nedges]);
                        cuts.sort_unstable();
                        let mut ws = disc.workspace();
                        let states = disc.vertex_states(&q, &mut ws);
                        let mut res = FieldVec::zeros(mesh.nverts(), model.ncomp(), layout);
                        for w in cuts.windows(2) {
                            disc.edge_flux_residual(&states, &mut res, w[0]..w[1]);
                        }
                        assert!(
                            bits(res.as_slice()) == bits(want.as_slice()),
                            "{case}: edge_flux_residual over {cuts:?}"
                        );
                        assert!(
                            bits(&disc.wavespeed_sums(&q))
                                == bits(&reference::wavespeed_sums(&disc, &q)),
                            "{case}: wavespeed_sums"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn freestream_is_discretely_preserved_in_flat_channel() {
        // Uniform x-flow in a flat channel: walls are x-parallel planes so
        // the wall BC (pressure only) matches the exact flux; inflow/outflow
        // reduce to F(q_inf). Residual must vanish identically.
        let mesh = flat_channel((7, 5, 5));
        for model in both_models() {
            for order in [
                SpatialOrder::First,
                SpatialOrder::Second,
                SpatialOrder::SecondLimited,
            ] {
                let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, order);
                let q = disc.initial_state();
                let mut res = FieldVec::zeros(mesh.nverts(), disc.ncomp(), FieldLayout::Interlaced);
                let mut ws = disc.workspace();
                disc.residual(&q, &mut res, &mut ws);
                let norm = disc.residual_norm(&res);
                assert!(norm < 1e-9, "{model:?} {order:?}: |R(q_inf)| = {norm}");
            }
        }
    }

    #[test]
    fn bump_induces_nonzero_residual_at_freestream() {
        let mesh = BumpChannelSpec::with_dims(9, 5, 5).build();
        let model = FlowModel::incompressible();
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let q = disc.initial_state();
        let mut res = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        let mut ws = disc.workspace();
        disc.residual(&q, &mut res, &mut ws);
        assert!(
            disc.residual_norm(&res) > 1e-6,
            "the bump must deflect the flow"
        );
    }

    #[test]
    fn residual_is_layout_invariant() {
        let mesh = BumpChannelSpec::with_dims(6, 5, 4).build();
        for model in both_models() {
            let ncomp = model.ncomp();
            let di =
                Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
            let ds =
                Discretization::new(&mesh, model, FieldLayout::Segregated, SpatialOrder::First);
            // A non-trivial state: freestream + smooth perturbation.
            let mut qi = di.initial_state();
            for v in 0..mesh.nverts() {
                let mut s = qi.get(v);
                let x = mesh.coords()[v];
                for c in 0..ncomp {
                    s[c] += 0.01 * ((c + 1) as f64) * (x[0] + 0.5 * x[1]).sin();
                }
                qi.set(v, &s);
            }
            let qs = qi.to_layout(FieldLayout::Segregated);
            let mut ri = FieldVec::zeros(mesh.nverts(), ncomp, FieldLayout::Interlaced);
            let mut rs = FieldVec::zeros(mesh.nverts(), ncomp, FieldLayout::Segregated);
            let mut wi = di.workspace();
            let mut wsws = ds.workspace();
            di.residual(&qi, &mut ri, &mut wi);
            ds.residual(&qs, &mut rs, &mut wsws);
            for v in 0..mesh.nverts() {
                let a = ri.get(v);
                let b = rs.get(v);
                for c in 0..ncomp {
                    assert!(
                        (a[c] - b[c]).abs() < 1e-12,
                        "{model:?} v={v} c={c}: {} vs {}",
                        a[c],
                        b[c]
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_residual_matches_sequential() {
        // The private-array gather reorders additions, so compare to a tight
        // tolerance rather than bitwise — across orders, models, viscosity,
        // and team sizes (including more threads than edges would ever need).
        let mesh = BumpChannelSpec::with_dims(6, 5, 4).build();
        for model in both_models() {
            let ncomp = model.ncomp();
            for order in [
                SpatialOrder::First,
                SpatialOrder::Second,
                SpatialOrder::SecondLimited,
            ] {
                for mu in [0.0, 0.05] {
                    let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, order)
                        .with_viscosity(mu);
                    let mut q = disc.initial_state();
                    for v in 0..mesh.nverts() {
                        let mut s = q.get(v);
                        let x = mesh.coords()[v];
                        for c in 0..ncomp {
                            s[c] += 0.02 * ((c + 1) as f64) * (x[0] - 0.3 * x[2]).cos();
                        }
                        q.set(v, &s);
                    }
                    let mut rs = FieldVec::zeros(mesh.nverts(), ncomp, FieldLayout::Interlaced);
                    let mut ws = disc.workspace();
                    disc.residual(&q, &mut rs, &mut ws);
                    for nthreads in [1usize, 2, 3, 8] {
                        let ctx = ParCtx::new(nthreads);
                        let mut rp = FieldVec::zeros(mesh.nverts(), ncomp, FieldLayout::Interlaced);
                        let mut wp = disc.workspace();
                        disc.residual_par(&q, &mut rp, &mut wp, &ctx);
                        for (a, b) in rs.as_slice().iter().zip(rp.as_slice()) {
                            assert!(
                                (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                                "{model:?} {order:?} mu={mu} nthreads={nthreads}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn jacobian_matches_finite_differences_near_freestream() {
        let mesh = BumpChannelSpec::with_dims(5, 4, 4).build();
        for model in both_models() {
            let ncomp = model.ncomp();
            let disc =
                Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
            // Small smooth perturbation so the frozen-lambda error is O(perturbation).
            let mut q = disc.initial_state();
            for v in 0..mesh.nverts() {
                let mut s = q.get(v);
                let x = mesh.coords()[v];
                for c in 0..ncomp {
                    s[c] += 1e-3 * ((v % 7) as f64 / 7.0) * ((c + 1) as f64) * (1.0 + x[2]);
                }
                q.set(v, &s);
            }
            let jac = disc.jacobian(&q);
            let n = disc.nunknowns();
            // Random direction.
            let dir: Vec<f64> = (0..n)
                .map(|i| ((i * 31 + 7) % 13) as f64 / 13.0 - 0.5)
                .collect();
            let mut jd = vec![0.0; n];
            jac.spmv(&dir, &mut jd);
            // FD directional derivative.
            let eps = 1e-7;
            let mut ws = disc.workspace();
            let mut qp = q.clone();
            for (i, d) in dir.iter().enumerate() {
                qp.as_mut_slice()[i] += eps * d;
            }
            let mut rp = FieldVec::zeros(mesh.nverts(), ncomp, FieldLayout::Interlaced);
            let mut r0 = FieldVec::zeros(mesh.nverts(), ncomp, FieldLayout::Interlaced);
            disc.residual(&qp, &mut rp, &mut ws);
            disc.residual(&q, &mut r0, &mut ws);
            let mut fd = vec![0.0; n];
            for i in 0..n {
                fd[i] = (rp.as_slice()[i] - r0.as_slice()[i]) / eps;
            }
            let scale = fd.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
            let mut max_rel = 0.0f64;
            for i in 0..n {
                max_rel = max_rel.max((jd[i] - fd[i]).abs() / scale);
            }
            assert!(
                max_rel < 5e-2,
                "{model:?}: Jacobian-vector mismatch {max_rel} (frozen-lambda tolerance)"
            );
        }
    }

    #[test]
    fn second_order_reduces_dissipation_error() {
        // On a smooth non-constant field, the second-order residual should
        // differ from first-order (less dissipation) — sanity check that the
        // order switch does something.
        let mesh = flat_channel((8, 5, 5));
        let model = FlowModel::incompressible();
        let d1 = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let d2 = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::Second);
        let mut q = d1.initial_state();
        for v in 0..mesh.nverts() {
            let mut s = q.get(v);
            let x = mesh.coords()[v];
            s[0] += 0.1 * (x[0]).sin();
            s[1] += 0.05 * (x[2]).cos();
            q.set(v, &s);
        }
        let mut r1 = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        let mut r2 = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        let mut w1 = d1.workspace();
        let mut w2 = d2.workspace();
        d1.residual(&q, &mut r1, &mut w1);
        d2.residual(&q, &mut r2, &mut w2);
        let diff: f64 = r1
            .as_slice()
            .iter()
            .zip(r2.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-8, "order switch must change the stencil");
    }

    #[test]
    fn jacobian_has_block_sparsity() {
        let mesh = BumpChannelSpec::with_dims(5, 4, 4).build();
        let model = FlowModel::incompressible();
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let q = disc.initial_state();
        let jac = disc.jacobian(&q);
        assert_eq!(jac.nrows(), disc.nunknowns());
        // Interlaced layout: bandwidth ~ ncomp * vertex-graph bandwidth.
        let g = mesh.vertex_graph();
        assert!(jac.bandwidth() <= 4 * (g.bandwidth() + 1));
        // Convertible to BCSR with block size 4.
        let b = fun3d_sparse::bcsr::BcsrMatrix::from_csr(&jac, 4);
        assert_eq!(b.nbrows(), mesh.nverts());
    }

    #[test]
    fn jacobian_pattern_block_size_follows_the_layout() {
        // Interlaced Jacobians are made of dense vertex blocks (4
        // incompressible, 5 compressible); segregated ones are point-wise.
        let mesh = BumpChannelSpec::with_dims(5, 4, 4).build();
        for model in both_models() {
            for (layout, want) in [
                (FieldLayout::Interlaced, model.ncomp()),
                (FieldLayout::Segregated, 1),
            ] {
                let disc = Discretization::new(&mesh, model, layout, SpatialOrder::First);
                let pattern = disc.jacobian_pattern().clone();
                assert_eq!(pattern.block_size(), want, "{layout:?} {}", model.ncomp());
                // The pattern comes without an assembly, and the assembled
                // Jacobians share it.
                let jac = disc.jacobian(&disc.initial_state());
                assert!(CsrPattern::ptr_eq(jac.pattern(), &pattern));
            }
        }
    }

    #[test]
    fn jacobians_share_one_pattern_and_own_their_values() {
        let mesh = BumpChannelSpec::with_dims(5, 4, 4).build();
        for model in both_models() {
            for layout in [FieldLayout::Interlaced, FieldLayout::Segregated] {
                let disc = Discretization::new(&mesh, model, layout, SpatialOrder::First);
                let q = disc.initial_state();
                let first = disc.jacobian(&q);
                let mut second = disc.jacobian(&q);
                assert!(CsrPattern::ptr_eq(first.pattern(), second.pattern()));
                let mut clone = first.clone();
                assert!(CsrPattern::ptr_eq(first.pattern(), clone.pattern()));
                // Values are per matrix: shifting or scaling one leaves the
                // others as assembled.
                clone.shift_diagonal(1.0);
                second.scale(2.0);
                assert_eq!(disc.jacobian(&q), first);
                assert_eq!(clone.get(0, 0), first.get(0, 0) + 1.0);
                assert_eq!(second.get(0, 0), 2.0 * first.get(0, 0));
                // Another discretization builds an equal pattern of its own.
                let other = Discretization::new(&mesh, model, layout, SpatialOrder::First);
                let twin = other.jacobian(&q);
                assert!(!CsrPattern::ptr_eq(first.pattern(), twin.pattern()));
                assert_eq!(twin, first);
            }
        }
    }

    #[test]
    fn pattern_assembly_matches_triplet_reference() {
        // Same pattern as the sort-and-merge reference, values to rounding:
        // the reference sums duplicates in whatever order its unstable sort
        // leaves them, the pattern assembly in loop order.
        let mesh = BumpChannelSpec::with_dims(6, 5, 4).build();
        for model in both_models() {
            let ncomp = model.ncomp();
            for layout in [FieldLayout::Interlaced, FieldLayout::Segregated] {
                for mu in [0.0, 0.05] {
                    let disc = Discretization::new(&mesh, model, layout, SpatialOrder::First)
                        .with_viscosity(mu);
                    let mut q = disc.initial_state();
                    for v in 0..mesh.nverts() {
                        let mut s = q.get(v);
                        let x = mesh.coords()[v];
                        for c in 0..ncomp {
                            s[c] += 0.05 * ((c + 1) as f64) * (x[0] - 0.7 * x[1] + x[2]).sin();
                        }
                        q.set(v, &s);
                    }
                    let case = format!("{model:?} {layout:?} mu={mu}");
                    let reference = triplet_jacobian(&disc, &q);
                    let jac = disc.jacobian(&q);
                    assert_eq!(jac.row_ptr(), reference.row_ptr(), "{case}");
                    assert_eq!(jac.col_idx(), reference.col_idx(), "{case}");
                    for i in 0..jac.nrows() {
                        let want = reference.row_vals(i);
                        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                        for (a, b) in jac.row_vals(i).iter().zip(want) {
                            assert!((a - b).abs() <= 1e-13 * scale, "{case} row {i}: {a} vs {b}");
                        }
                    }
                    let again = disc.jacobian(&q);
                    let bits = |m: &CsrMatrix| -> Vec<u64> {
                        m.values().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&again), bits(&jac), "{case}: repeat call");
                }
            }
        }
    }

    #[test]
    fn segregated_jacobian_has_wide_bandwidth() {
        let mesh = BumpChannelSpec::with_dims(6, 4, 4).build();
        let model = FlowModel::incompressible();
        let di = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let ds = Discretization::new(&mesh, model, FieldLayout::Segregated, SpatialOrder::First);
        let qi = di.initial_state();
        let qs = ds.initial_state();
        let ji = di.jacobian(&qi);
        let js = ds.jacobian(&qs);
        assert!(
            js.bandwidth() > 2 * ji.bandwidth(),
            "segregated bandwidth {} should dwarf interlaced {}",
            js.bandwidth(),
            ji.bandwidth()
        );
        // Same entries up to permutation: identical Frobenius norms.
        assert!((ji.frobenius_norm() - js.frobenius_norm()).abs() < 1e-9);
    }

    #[test]
    fn volumes_and_wavespeeds_are_positive() {
        let mesh = BumpChannelSpec::with_dims(5, 4, 4).build();
        let disc = Discretization::new(
            &mesh,
            FlowModel::compressible(),
            FieldLayout::Interlaced,
            SpatialOrder::First,
        );
        let q = disc.initial_state();
        assert!(disc.unknown_volumes().iter().all(|&v| v > 0.0));
        assert!(disc.wavespeed_sums(&q).iter().all(|&v| v > 0.0));
        assert_eq!(disc.unknown_volumes().len(), disc.nunknowns());
    }

    #[test]
    fn constant_pressure_exerts_zero_net_wall_force() {
        // In a flat channel, the wall normals of opposite walls cancel, so a
        // constant-pressure state exerts no net force.
        let mesh = flat_channel((6, 5, 5));
        let model = FlowModel::incompressible();
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let mut q = disc.initial_state();
        for v in 0..mesh.nverts() {
            let mut s = q.get(v);
            s[0] = 2.5; // constant gauge pressure
            q.set(v, &s);
        }
        let f = disc.wall_forces(&q);
        for c in 0..3 {
            assert!(f[c].abs() < 1e-10, "force {c}: {}", f[c]);
        }
    }

    #[test]
    fn bump_generates_vertical_force() {
        // A pressure field that varies with height pushes on the bump.
        let mesh = BumpChannelSpec::with_dims(9, 5, 5).build();
        let model = FlowModel::incompressible();
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let mut q = disc.initial_state();
        for v in 0..mesh.nverts() {
            let mut s = q.get(v);
            s[0] = 1.0 - 0.5 * mesh.coords()[v][2];
            q.set(v, &s);
        }
        let f = disc.wall_forces(&q);
        assert!(f[2].abs() > 1e-3, "vertical force expected: {f:?}");
    }

    #[test]
    fn viscosity_damps_shear_perturbations() {
        let mesh = flat_channel((6, 5, 5));
        let model = FlowModel::incompressible();
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First)
            .with_viscosity(0.1);
        // A shear: u varies with z; viscosity must create a residual that
        // opposes the variation at interior vertices.
        let mut q = disc.initial_state();
        for v in 0..mesh.nverts() {
            let mut s = q.get(v);
            s[1] = 1.0 + 0.3 * (mesh.coords()[v][2] * 3.0).sin();
            q.set(v, &s);
        }
        let mut r_visc = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        let mut ws = disc.workspace();
        disc.residual(&q, &mut r_visc, &mut ws);
        let disc0 = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let mut r0 = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        let mut ws0 = disc0.workspace();
        disc0.residual(&q, &mut r0, &mut ws0);
        let dnorm: f64 = r_visc
            .as_slice()
            .iter()
            .zip(r0.as_slice())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(dnorm > 1e-6, "viscous term must contribute: {dnorm}");
        // And a constant flow is still steady (diffusion of a constant = 0).
        let qc = disc.initial_state();
        let mut rc = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        disc.residual(&qc, &mut rc, &mut ws);
        assert!(disc.residual_norm(&rc) < 1e-9);
    }

    #[test]
    fn viscous_jacobian_matches_fd() {
        let mesh = BumpChannelSpec::with_dims(5, 4, 4).build();
        let model = FlowModel::incompressible();
        let disc = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First)
            .with_viscosity(0.05);
        let mut q = disc.initial_state();
        for v in 0..mesh.nverts() {
            let mut s = q.get(v);
            s[1] += 1e-3 * (v % 5) as f64;
            q.set(v, &s);
        }
        let jac = disc.jacobian(&q);
        let n = disc.nunknowns();
        let dir: Vec<f64> = (0..n)
            .map(|i| ((i * 17 + 3) % 11) as f64 / 11.0 - 0.5)
            .collect();
        let mut jd = vec![0.0; n];
        jac.spmv(&dir, &mut jd);
        let eps = 1e-7;
        let mut ws = disc.workspace();
        let mut qp = q.clone();
        for (i, d) in dir.iter().enumerate() {
            qp.as_mut_slice()[i] += eps * d;
        }
        let mut rp = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        let mut r0 = FieldVec::zeros(mesh.nverts(), 4, FieldLayout::Interlaced);
        disc.residual(&qp, &mut rp, &mut ws);
        disc.residual(&q, &mut r0, &mut ws);
        let scale = jd.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            let fd = (rp.as_slice()[i] - r0.as_slice()[i]) / eps;
            assert!(
                (jd[i] - fd).abs() / scale < 5e-2,
                "i={i}: {} vs {}",
                jd[i],
                fd
            );
        }
    }

    #[test]
    fn work_estimates_scale_with_order() {
        let mesh = BumpChannelSpec::with_dims(5, 4, 4).build();
        let model = FlowModel::compressible();
        let d1 = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::First);
        let d2 = Discretization::new(&mesh, model, FieldLayout::Interlaced, SpatialOrder::Second);
        assert!(d2.residual_flops() > 2.0 * d1.residual_flops());
        assert!(d2.residual_bytes() > d1.residual_bytes());
    }

    fn random_state() -> impl Strategy<Value = (FlowModel, Comp)> {
        (
            0usize..2,
            (
                0.3f64..2.0,
                -0.8f64..0.8,
                -0.5f64..0.5,
                -0.5f64..0.5,
                0.3f64..2.0,
            ),
        )
            .prop_map(|(m, (a, u, v, w, p))| {
                if m == 0 {
                    (FlowModel::incompressible(), [a - 1.0, u, v, w, 0.0])
                } else {
                    let gamma = 1.4;
                    let e = p / (gamma - 1.0) + 0.5 * a * (u * u + v * v + w * w);
                    (FlowModel::compressible(), [a, a * u, a * v, a * w, e])
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn model_wrappers_match_the_reference_formulas_bitwise(
            (model, q) in random_state(),
            n in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        ) {
            let n = [n.0, n.1, n.2];
            let case = format!("{model:?} q={q:?} n={n:?}");
            prop_assert!(bits(&model.flux(&q, n)) == bits(&reference::flux(&model, &q, n)), "{case}: flux");
            prop_assert!(
                model.pressure(&q).to_bits() == reference::pressure(&model, &q).to_bits(),
                "{case}: pressure"
            );
            prop_assert!(
                model.max_wavespeed(&q, n).to_bits() == reference::max_wavespeed(&model, &q, n).to_bits(),
                "{case}: max_wavespeed"
            );
            prop_assert!(
                bits(&model.flux_jacobian(&q, n)) == bits(&reference::flux_jacobian(&model, &q, n)),
                "{case}: flux_jacobian"
            );
        }
    }
}
