//! Flow models: incompressible (artificial compressibility) and
//! compressible Euler, with fluxes, wave speeds, and analytic Jacobians.
//!
//! States and fluxes use fixed `[f64; 5]` buffers with a runtime component
//! count (4 incompressible, 5 compressible), so the kernels are free of heap
//! allocation.
//!
//! Conventions: face normals are *area-weighted* (not unit); all fluxes and
//! Jacobians are per-face, i.e. already multiplied by the face area.
//!
//! Each model's formulas are written once, split into a per-vertex record,
//! computed once per state, and per-face parts that combine records with a
//! normal.  The [`FlowModel`] methods are thin wrappers over that split.

use crate::field::Record;

/// Maximum number of components any model uses.
pub const MAX_COMP: usize = 5;

/// A small state/flux vector.
pub type Comp = [f64; MAX_COMP];

/// A small `ncomp x ncomp` Jacobian in row-major `[f64; 25]`.
pub type CompMat = [f64; MAX_COMP * MAX_COMP];

/// The flow model and its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowModel {
    /// Incompressible Euler in Chorin artificial-compressibility form.
    /// State: `[p, u, v, w]`.  `beta` is the artificial compressibility
    /// parameter (the pseudo-sound-speed squared).
    Incompressible {
        /// Artificial compressibility parameter.
        beta: f64,
    },
    /// Compressible Euler, conservative state `[rho, rho u, rho v, rho w, E]`
    /// with ideal-gas pressure `p = (gamma - 1)(E - rho |u|^2 / 2)`.
    Compressible {
        /// Ratio of specific heats.
        gamma: f64,
    },
}

impl FlowModel {
    /// Default incompressible model (`beta = 10`, a robust mid-range value).
    pub fn incompressible() -> Self {
        FlowModel::Incompressible { beta: 10.0 }
    }

    /// Default compressible model (`gamma = 1.4`, subsonic M6-like regime).
    pub fn compressible() -> Self {
        FlowModel::Compressible { gamma: 1.4 }
    }

    /// Unknowns per vertex: 4 incompressible, 5 compressible (the block
    /// sizes of Table 1's two columns).
    pub fn ncomp(&self) -> usize {
        match self {
            FlowModel::Incompressible { .. } => 4,
            FlowModel::Compressible { .. } => 5,
        }
    }

    /// The freestream state used for initialization and inflow boundaries:
    /// unit streamwise velocity.
    pub fn freestream(&self) -> Comp {
        match self {
            // p = 0 gauge, u = (1, 0, 0).
            FlowModel::Incompressible { .. } => [0.0, 1.0, 0.0, 0.0, 0.0],
            // rho = 1, u = (M, 0, 0) with M = 0.3 subsonic at unit sound
            // speed scaling: p0 chosen so c = 1 => p = rho c^2 / gamma.
            FlowModel::Compressible { gamma } => {
                let rho = 1.0;
                let mach = 0.3;
                let p = rho / gamma; // c = sqrt(gamma p / rho) = 1
                let u = mach;
                let e = p / (gamma - 1.0) + 0.5 * rho * u * u;
                [rho, rho * u, 0.0, 0.0, e]
            }
        }
    }

    /// Convective flux through an area-weighted normal: `F(q) . n`.
    #[inline]
    pub fn flux(&self, q: &Comp, n: [f64; 3]) -> Comp {
        with_split!(*self, |s| s.flux(&s.record(q), n))
    }

    /// The pressure of a state (gauge pressure for incompressible).
    #[inline]
    pub fn pressure(&self, q: &Comp) -> f64 {
        with_split!(*self, |s| s.pressure(&s.record(q)))
    }

    /// Maximum characteristic speed through the (area-weighted) normal —
    /// the Rusanov dissipation coefficient, already scaled by face area.
    #[inline]
    pub fn max_wavespeed(&self, q: &Comp, n: [f64; 3]) -> f64 {
        with_split!(*self, |s| s.wavespeed(&s.record(q), n))
    }

    /// Analytic flux Jacobian `A(q) = d(F(q).n)/dq`, row-major `ncomp x
    /// ncomp` in the top-left of the returned buffer.
    #[inline]
    pub fn flux_jacobian(&self, q: &Comp, n: [f64; 3]) -> CompMat {
        with_split!(*self, |s| s.flux_jacobian(&s.record(q), n))
    }

    /// Values the flux kernels store per vertex: zero when they read the
    /// state itself.
    pub(crate) fn hoisted_len(&self) -> usize {
        match self {
            FlowModel::Incompressible { .. } => IncompressibleFlux::HOISTED,
            FlowModel::Compressible { .. } => CompressibleFlux::HOISTED,
        }
    }
}

/// Evaluates `$body` with `$s` bound to the [`FluxSplit`] of `$model`.
macro_rules! with_split {
    ($model:expr, |$s:ident| $body:expr) => {
        match $model {
            FlowModel::Incompressible { beta } => {
                let $s = IncompressibleFlux { beta };
                $body
            }
            FlowModel::Compressible { gamma } => {
                let $s = CompressibleFlux { gamma };
                $body
            }
        }
    };
}
use with_split;

/// A flow model's Rusanov flux, split into a per-vertex record computed
/// once per state and per-face parts that combine records with a normal.
///
/// A record holds the state in its first [`NCOMP`](Self::NCOMP) values,
/// then whatever per-vertex quantities the face parts reuse.  Each formula
/// is written once, here: the [`FlowModel`] methods build a record and call
/// a face part, and the discretization's kernels read records from a
/// buffer filled once per evaluation.  Both give the same bits.
pub(crate) trait FluxSplit: Copy {
    /// Unknowns per vertex.
    const NCOMP: usize;
    /// Values a kernel stores per vertex; zero when the record is the state
    /// and the kernels read the state directly.
    const HOISTED: usize;
    /// The per-vertex record.
    type Rec: Record;

    /// The record of state `q`.
    fn record(&self, q: &Comp) -> Self::Rec;

    /// Convective flux `F(q) . n`.
    fn flux(&self, r: &Self::Rec, n: [f64; 3]) -> Comp;

    /// Maximum characteristic speed through `n`.
    fn wavespeed(&self, r: &Self::Rec, n: [f64; 3]) -> f64;

    /// [`flux`](Self::flux) and [`wavespeed`](Self::wavespeed) together,
    /// for a model whose two share work.
    #[inline(always)]
    fn flux_wavespeed(&self, r: &Self::Rec, n: [f64; 3]) -> (Comp, f64) {
        (self.flux(r, n), self.wavespeed(r, n))
    }

    /// Pressure, as the wall flux and [`FlowModel::pressure`] see it.
    fn pressure(&self, r: &Self::Rec) -> f64;

    /// `dp/dq`, for the wall-flux Jacobian.
    fn pressure_gradient(&self, r: &Self::Rec) -> Comp;

    /// Analytic flux Jacobian `d(F(q).n)/dq`.
    fn flux_jacobian(&self, r: &Self::Rec, n: [f64; 3]) -> CompMat;

    /// Rusanov numerical flux between the states of records `l` and `r`.
    #[inline(always)]
    fn rusanov(&self, l: &Self::Rec, r: &Self::Rec, n: [f64; 3]) -> Comp {
        let (fl, lam_l) = self.flux_wavespeed(l, n);
        let (fr, lam_r) = self.flux_wavespeed(r, n);
        let lam = lam_l.max(lam_r);
        let mut f = [0.0; MAX_COMP];
        for c in 0..Self::NCOMP {
            f[c] = 0.5 * (fl[c] + fr[c]) - 0.5 * lam * (r[c] - l[c]);
        }
        f
    }
}

/// Incompressible Euler's split.  Nothing per vertex is worth storing: the
/// record is the state `[p, u, v, w]`, and the flux and the wave speed
/// share the normal velocity `theta = u . n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IncompressibleFlux {
    pub(crate) beta: f64,
}

impl IncompressibleFlux {
    #[inline(always)]
    fn theta(r: &[f64; 4], n: [f64; 3]) -> f64 {
        r[1] * n[0] + r[2] * n[1] + r[3] * n[2]
    }

    #[inline(always)]
    fn flux_at(&self, r: &[f64; 4], n: [f64; 3], theta: f64) -> Comp {
        let (p, u, v, w) = (r[0], r[1], r[2], r[3]);
        [
            self.beta * theta,
            u * theta + p * n[0],
            v * theta + p * n[1],
            w * theta + p * n[2],
            0.0,
        ]
    }

    #[inline(always)]
    fn wavespeed_at(&self, n: [f64; 3], theta: f64) -> f64 {
        let area2 = n[0] * n[0] + n[1] * n[1] + n[2] * n[2];
        theta.abs() + (theta * theta + self.beta * area2).sqrt()
    }
}

impl FluxSplit for IncompressibleFlux {
    const NCOMP: usize = 4;
    const HOISTED: usize = 0;
    type Rec = [f64; 4];

    #[inline(always)]
    fn record(&self, q: &Comp) -> [f64; 4] {
        [q[0], q[1], q[2], q[3]]
    }

    #[inline(always)]
    fn flux(&self, r: &[f64; 4], n: [f64; 3]) -> Comp {
        self.flux_at(r, n, Self::theta(r, n))
    }

    #[inline(always)]
    fn wavespeed(&self, r: &[f64; 4], n: [f64; 3]) -> f64 {
        self.wavespeed_at(n, Self::theta(r, n))
    }

    #[inline(always)]
    fn flux_wavespeed(&self, r: &[f64; 4], n: [f64; 3]) -> (Comp, f64) {
        let theta = Self::theta(r, n);
        (self.flux_at(r, n, theta), self.wavespeed_at(n, theta))
    }

    #[inline(always)]
    fn pressure(&self, r: &[f64; 4]) -> f64 {
        r[0]
    }

    #[inline(always)]
    fn pressure_gradient(&self, _r: &[f64; 4]) -> Comp {
        [1.0, 0.0, 0.0, 0.0, 0.0]
    }

    #[inline(always)]
    fn flux_jacobian(&self, r: &[f64; 4], n: [f64; 3]) -> CompMat {
        let beta = self.beta;
        let mut a = [0.0; MAX_COMP * MAX_COMP];
        let m = MAX_COMP;
        let (u, v, w) = (r[1], r[2], r[3]);
        let theta = Self::theta(r, n);
        // Row 0: d(beta theta)/d[p,u,v,w]
        a[1] = beta * n[0];
        a[2] = beta * n[1];
        a[3] = beta * n[2];
        // Row 1: d(u theta + p nx)
        a[m] = n[0];
        a[m + 1] = theta + u * n[0];
        a[m + 2] = u * n[1];
        a[m + 3] = u * n[2];
        // Row 2: d(v theta + p ny)
        a[2 * m] = n[1];
        a[2 * m + 1] = v * n[0];
        a[2 * m + 2] = theta + v * n[1];
        a[2 * m + 3] = v * n[2];
        // Row 3: d(w theta + p nz)
        a[3 * m] = n[2];
        a[3 * m + 1] = w * n[0];
        a[3 * m + 2] = w * n[1];
        a[3 * m + 3] = theta + w * n[2];
        a
    }
}

/// Compressible Euler's split.  The record holds the state `[rho, rho u,
/// rho v, rho w, E]`, then `1/rho`, the velocities, two pressures and the
/// sound speed.  The two pressures round differently and each stays where
/// it was always used: the flux and its Jacobian take
/// `(gamma - 1)(E - rho |u|^2 / 2)` from the velocities, while the wall
/// flux and the wave speed take `(gamma - 1)(E - |m|^2 / (2 rho))`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompressibleFlux {
    pub(crate) gamma: f64,
}

impl CompressibleFlux {
    const INV_RHO: usize = 5;
    const U: usize = 6;
    const P_FLUX: usize = 9;
    const P: usize = 10;
    const C: usize = 11;
}

impl FluxSplit for CompressibleFlux {
    const NCOMP: usize = 5;
    const HOISTED: usize = 12;
    type Rec = [f64; 12];

    #[inline(always)]
    fn record(&self, q: &Comp) -> [f64; 12] {
        let gamma = self.gamma;
        let rho = q[0];
        let inv_rho = 1.0 / rho;
        let (u, v, w) = (q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho);
        let e = q[4];
        let p_flux = (gamma - 1.0) * (e - 0.5 * rho * (u * u + v * v + w * w));
        let ke = 0.5 * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / rho;
        let p = (gamma - 1.0) * (q[4] - ke);
        let c = (gamma * p * inv_rho).max(0.0).sqrt();
        [q[0], q[1], q[2], q[3], q[4], inv_rho, u, v, w, p_flux, p, c]
    }

    #[inline(always)]
    fn flux(&self, r: &[f64; 12], n: [f64; 3]) -> Comp {
        let (rho, e, p) = (r[0], r[4], r[Self::P_FLUX]);
        let (u, v, w) = (r[Self::U], r[Self::U + 1], r[Self::U + 2]);
        let theta = u * n[0] + v * n[1] + w * n[2];
        [
            rho * theta,
            r[1] * theta + p * n[0],
            r[2] * theta + p * n[1],
            r[3] * theta + p * n[2],
            (e + p) * theta,
        ]
    }

    #[inline(always)]
    fn wavespeed(&self, r: &[f64; 12], n: [f64; 3]) -> f64 {
        let area2 = n[0] * n[0] + n[1] * n[1] + n[2] * n[2];
        let theta = (r[1] * n[0] + r[2] * n[1] + r[3] * n[2]) * r[Self::INV_RHO];
        theta.abs() + r[Self::C] * area2.sqrt()
    }

    #[inline(always)]
    fn pressure(&self, r: &[f64; 12]) -> f64 {
        r[Self::P]
    }

    /// Takes the velocities as `m / rho`, which rounds differently from the
    /// record's `m * (1 / rho)`.
    #[inline(always)]
    fn pressure_gradient(&self, r: &[f64; 12]) -> Comp {
        let g1 = self.gamma - 1.0;
        let rho = r[0];
        let (u, v, w) = (r[1] / rho, r[2] / rho, r[3] / rho);
        [
            0.5 * g1 * (u * u + v * v + w * w),
            -g1 * u,
            -g1 * v,
            -g1 * w,
            g1,
        ]
    }

    #[inline(always)]
    fn flux_jacobian(&self, r: &[f64; 12], n: [f64; 3]) -> CompMat {
        let gamma = self.gamma;
        let mut a = [0.0; MAX_COMP * MAX_COMP];
        let m = MAX_COMP;
        let g1 = gamma - 1.0;
        let inv_rho = r[Self::INV_RHO];
        let (u, v, w) = (r[Self::U], r[Self::U + 1], r[Self::U + 2]);
        let e = r[4];
        let q2 = u * u + v * v + w * w;
        let phi2 = 0.5 * g1 * q2;
        let theta = u * n[0] + v * n[1] + w * n[2];
        let p = r[Self::P_FLUX];
        let h = (e + p) * inv_rho; // total enthalpy
        let vel = [u, v, w];
        // Row 0.
        a[1] = n[0];
        a[2] = n[1];
        a[3] = n[2];
        // Rows 1..3 (momentum i).
        for i in 0..3 {
            let row = (i + 1) * m;
            a[row] = phi2 * n[i] - vel[i] * theta;
            for j in 0..3 {
                a[row + 1 + j] =
                    vel[i] * n[j] - g1 * vel[j] * n[i] + if i == j { theta } else { 0.0 };
            }
            a[row + 4] = g1 * n[i];
        }
        // Row 4 (energy).
        let row = 4 * m;
        a[row] = (phi2 - h) * theta;
        for j in 0..3 {
            a[row + 1 + j] = h * n[j] - g1 * vel[j] * theta;
        }
        a[row + 4] = gamma * theta;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> Vec<FlowModel> {
        vec![FlowModel::incompressible(), FlowModel::compressible()]
    }

    fn test_state(model: &FlowModel) -> Comp {
        match model {
            FlowModel::Incompressible { .. } => [0.3, 0.9, -0.2, 0.15, 0.0],
            FlowModel::Compressible { .. } => {
                // rho=1.1, u=(0.4,-0.1,0.2), p=0.8
                let gamma = 1.4;
                let rho: f64 = 1.1;
                let (u, v, w) = (0.4, -0.1, 0.2);
                let p = 0.8;
                let e = p / (gamma - 1.0) + 0.5 * rho * (u * u + v * v + w * w);
                [rho, rho * u, rho * v, rho * w, e]
            }
        }
    }

    #[test]
    fn flux_jacobian_matches_finite_differences() {
        let n = [0.3, -0.7, 0.2];
        for model in models() {
            let m = model.ncomp();
            let q0 = test_state(&model);
            let a = model.flux_jacobian(&q0, n);
            let f0 = model.flux(&q0, n);
            let eps = 1e-7;
            for j in 0..m {
                let mut qp = q0;
                qp[j] += eps;
                let fp = model.flux(&qp, n);
                for i in 0..m {
                    let fd = (fp[i] - f0[i]) / eps;
                    let an = a[i * MAX_COMP + j];
                    assert!(
                        (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                        "{model:?} A[{i}][{j}]: analytic {an} vs FD {fd}"
                    );
                }
            }
        }
    }

    #[test]
    fn flux_is_linear_in_normal() {
        for model in models() {
            let q = test_state(&model);
            let n1 = [0.2, 0.5, -0.1];
            let f1 = model.flux(&q, n1);
            let f2 = model.flux(&q, [0.4, 1.0, -0.2]);
            for i in 0..model.ncomp() {
                assert!((f2[i] - 2.0 * f1[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn wavespeed_positive_and_scales_with_area() {
        for model in models() {
            let q = test_state(&model);
            let lam1 = model.max_wavespeed(&q, [0.1, 0.2, 0.2]);
            let lam2 = model.max_wavespeed(&q, [0.2, 0.4, 0.4]);
            assert!(lam1 > 0.0);
            assert!((lam2 - 2.0 * lam1).abs() < 1e-12, "{model:?}");
        }
    }

    #[test]
    fn wavespeed_dominates_flux_jacobian_normal_speed() {
        // |theta| <= lambda_max: Rusanov dissipation upper-bounds transport.
        for model in models() {
            let q = test_state(&model);
            let n = [0.5, -0.3, 0.2];
            let lam = model.max_wavespeed(&q, n);
            let theta = match model {
                FlowModel::Incompressible { .. } => q[1] * n[0] + q[2] * n[1] + q[3] * n[2],
                FlowModel::Compressible { .. } => (q[1] * n[0] + q[2] * n[1] + q[3] * n[2]) / q[0],
            };
            assert!(lam >= theta.abs());
        }
    }

    #[test]
    fn compressible_pressure_recovered() {
        let model = FlowModel::compressible();
        let q = test_state(&model);
        assert!((model.pressure(&q) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn freestream_is_physical() {
        let m = FlowModel::compressible();
        let q = m.freestream();
        assert!(q[0] > 0.0);
        assert!(m.pressure(&q) > 0.0);
        let mi = FlowModel::incompressible();
        assert_eq!(mi.freestream()[1], 1.0);
    }

    #[test]
    fn ncomp_matches_dofs_in_paper() {
        // 22,677 vertices -> 90,708 DOFs incompressible; 113,385 compressible.
        assert_eq!(22_677 * FlowModel::incompressible().ncomp(), 90_708);
        assert_eq!(22_677 * FlowModel::compressible().ncomp(), 113_385);
    }
}
