//! Layout-aware field storage (Section 2.1.1).
//!
//! The same physical state can live in memory interlaced
//! (`u1,v1,w1,p1, u2,...`) or segregated (`u1,u2,..., v1,v2,...`).  The flux
//! and Jacobian kernels index through [`FieldVec`] so a single implementation
//! serves both layouts; the *addresses* it generates — and hence the cache
//! behaviour Table 1 measures — differ.

use fun3d_sparse::layout::FieldLayout;

use crate::model::{Comp, MAX_COMP};

/// A per-vertex multicomponent field in one of the two layouts.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldVec {
    data: Vec<f64>,
    nverts: usize,
    ncomp: usize,
    layout: FieldLayout,
}

impl FieldVec {
    /// A zero field.
    pub fn zeros(nverts: usize, ncomp: usize, layout: FieldLayout) -> Self {
        assert!(ncomp <= MAX_COMP);
        Self {
            data: vec![0.0; nverts * ncomp],
            nverts,
            ncomp,
            layout,
        }
    }

    /// A field with every vertex set to `state`.
    pub fn constant(nverts: usize, ncomp: usize, layout: FieldLayout, state: &Comp) -> Self {
        let mut f = Self::zeros(nverts, ncomp, layout);
        for v in 0..nverts {
            f.set(v, state);
        }
        f
    }

    /// Wrap an existing flat vector (must have `nverts * ncomp` entries,
    /// already in `layout` order).
    pub fn from_vec(data: Vec<f64>, nverts: usize, ncomp: usize, layout: FieldLayout) -> Self {
        assert_eq!(data.len(), nverts * ncomp);
        assert!(ncomp <= MAX_COMP);
        Self {
            data,
            nverts,
            ncomp,
            layout,
        }
    }

    /// Number of vertices.
    pub fn nverts(&self) -> usize {
        self.nverts
    }

    /// Components per vertex.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// The storage layout.
    pub fn layout(&self) -> FieldLayout {
        self.layout
    }

    /// The flat storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Flat index of component `c` at vertex `v`.
    #[inline(always)]
    pub fn idx(&self, v: usize, c: usize) -> usize {
        match self.layout {
            FieldLayout::Interlaced => v * self.ncomp + c,
            FieldLayout::Segregated => c * self.nverts + v,
        }
    }

    /// Read the state at vertex `v` into a fixed buffer.
    #[inline(always)]
    pub fn get(&self, v: usize) -> Comp {
        let mut q = [0.0; MAX_COMP];
        match self.layout {
            FieldLayout::Interlaced => {
                let base = v * self.ncomp;
                q[..self.ncomp].copy_from_slice(&self.data[base..base + self.ncomp]);
            }
            FieldLayout::Segregated => {
                for c in 0..self.ncomp {
                    q[c] = self.data[c * self.nverts + v];
                }
            }
        }
        q
    }

    /// Write the state at vertex `v`.
    #[inline(always)]
    pub fn set(&mut self, v: usize, q: &Comp) {
        match self.layout {
            FieldLayout::Interlaced => {
                let base = v * self.ncomp;
                self.data[base..base + self.ncomp].copy_from_slice(&q[..self.ncomp]);
            }
            FieldLayout::Segregated => {
                for c in 0..self.ncomp {
                    self.data[c * self.nverts + v] = q[c];
                }
            }
        }
    }

    /// Add `q` into the state at vertex `v`.
    #[inline(always)]
    pub fn add(&mut self, v: usize, q: &Comp) {
        match self.layout {
            FieldLayout::Interlaced => {
                let base = v * self.ncomp;
                for c in 0..self.ncomp {
                    self.data[base + c] += q[c];
                }
            }
            FieldLayout::Segregated => {
                for c in 0..self.ncomp {
                    self.data[c * self.nverts + v] += q[c];
                }
            }
        }
    }

    /// Convert to the other layout (new storage, same logical content).
    pub fn to_layout(&self, layout: FieldLayout) -> FieldVec {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = FieldVec::zeros(self.nverts, self.ncomp, layout);
        for v in 0..self.nverts {
            let q = self.get(v);
            out.set(v, &q);
        }
        out
    }
}

/// A field layout fixed at compile time, for kernels monomorphized per
/// layout.  A field holds `width` values per vertex: interlaced, those of
/// one vertex are adjacent; segregated, each value index has its own plane
/// of `nv` entries.
pub(crate) trait Layout {
    /// The runtime layout this type stands for.
    const LAYOUT: FieldLayout;

    /// Flat index of value `k` of vertex `v`.
    #[inline(always)]
    fn at(nv: usize, width: usize, v: usize, k: usize) -> usize {
        match Self::LAYOUT {
            FieldLayout::Interlaced => v * width + k,
            FieldLayout::Segregated => k * nv + v,
        }
    }

    /// The `N` values of vertex `v` in a field of width `N`.
    #[inline(always)]
    fn load<const N: usize>(data: &[f64], nv: usize, v: usize) -> [f64; N] {
        match Self::LAYOUT {
            FieldLayout::Interlaced => {
                let s = &data[v * N..(v + 1) * N];
                std::array::from_fn(|k| s[k])
            }
            FieldLayout::Segregated => std::array::from_fn(|k| data[k * nv + v]),
        }
    }

    /// Store the `N` values of vertex `v` in a field of width `N`.
    #[inline(always)]
    fn store<const N: usize>(data: &mut [f64], nv: usize, v: usize, vals: &[f64; N]) {
        match Self::LAYOUT {
            FieldLayout::Interlaced => data[v * N..(v + 1) * N].copy_from_slice(vals),
            FieldLayout::Segregated => {
                for k in 0..N {
                    data[k * nv + v] = vals[k];
                }
            }
        }
    }

    /// Add `f[..width]` to the values of vertex `v`.
    #[inline(always)]
    fn add(data: &mut [f64], nv: usize, width: usize, v: usize, f: &Comp) {
        for k in 0..width {
            data[Self::at(nv, width, v, k)] += f[k];
        }
    }

    /// Subtract `f[..width]` from the values of vertex `v`.
    #[inline(always)]
    fn sub(data: &mut [f64], nv: usize, width: usize, v: usize, f: &Comp) {
        for k in 0..width {
            data[Self::at(nv, width, v, k)] -= f[k];
        }
    }
}

/// [`FieldLayout::Interlaced`] as a type.
pub(crate) struct Interlaced;

impl Layout for Interlaced {
    const LAYOUT: FieldLayout = FieldLayout::Interlaced;
}

/// [`FieldLayout::Segregated`] as a type.
pub(crate) struct Segregated;

impl Layout for Segregated {
    const LAYOUT: FieldLayout = FieldLayout::Segregated;
}

/// A fixed-size per-vertex record that kernels gather from, and store to,
/// a field of its own width in a compile-time layout.
pub(crate) trait Record: Copy + std::ops::Index<usize, Output = f64> {
    /// The record of vertex `v`.
    fn load<L: Layout>(data: &[f64], nv: usize, v: usize) -> Self;

    /// Store this record as vertex `v`'s.
    fn store<L: Layout>(&self, data: &mut [f64], nv: usize, v: usize);
}

impl<const N: usize> Record for [f64; N] {
    #[inline(always)]
    fn load<L: Layout>(data: &[f64], nv: usize, v: usize) -> Self {
        L::load(data, nv, v)
    }

    #[inline(always)]
    fn store<L: Layout>(&self, data: &mut [f64], nv: usize, v: usize) {
        L::store(data, nv, v, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip_both_layouts() {
        for layout in [FieldLayout::Interlaced, FieldLayout::Segregated] {
            let mut f = FieldVec::zeros(5, 4, layout);
            let q = [1.0, 2.0, 3.0, 4.0, 0.0];
            f.set(3, &q);
            assert_eq!(f.get(3)[..4], q[..4]);
            assert_eq!(f.get(2)[..4], [0.0; 4]);
        }
    }

    #[test]
    fn layouts_place_data_differently() {
        let mut a = FieldVec::zeros(3, 2, FieldLayout::Interlaced);
        let mut b = FieldVec::zeros(3, 2, FieldLayout::Segregated);
        let q = [7.0, 9.0, 0.0, 0.0, 0.0];
        a.set(1, &q);
        b.set(1, &q);
        assert_eq!(a.as_slice(), &[0.0, 0.0, 7.0, 9.0, 0.0, 0.0]);
        assert_eq!(b.as_slice(), &[0.0, 7.0, 0.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn layout_conversion_preserves_content() {
        let mut f = FieldVec::zeros(4, 3, FieldLayout::Interlaced);
        for v in 0..4 {
            f.set(v, &[v as f64, 10.0 + v as f64, 20.0 + v as f64, 0.0, 0.0]);
        }
        let s = f.to_layout(FieldLayout::Segregated);
        for v in 0..4 {
            assert_eq!(f.get(v), s.get(v));
        }
        let back = s.to_layout(FieldLayout::Interlaced);
        assert_eq!(back.as_slice(), f.as_slice());
    }

    #[test]
    fn add_accumulates() {
        let mut f = FieldVec::constant(2, 4, FieldLayout::Segregated, &[1.0, 1.0, 1.0, 1.0, 0.0]);
        f.add(0, &[0.5, -1.0, 2.0, 0.0, 0.0]);
        assert_eq!(f.get(0)[..4], [1.5, 0.0, 3.0, 1.0]);
        assert_eq!(f.get(1)[..4], [1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn idx_matches_layout_formulas() {
        let f = FieldVec::zeros(10, 4, FieldLayout::Interlaced);
        assert_eq!(f.idx(3, 2), 14);
        let g = FieldVec::zeros(10, 4, FieldLayout::Segregated);
        assert_eq!(g.idx(3, 2), 23);
    }
}
