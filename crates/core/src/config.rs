//! Case configuration: every tunable the paper sweeps, in one place.

use fun3d_euler::model::FlowModel;
use fun3d_euler::residual::SpatialOrder;
use fun3d_mesh::generator::BumpChannelSpec;
use fun3d_mesh::reorder::{edge_order, vertex_permutation, EdgeOrdering, VertexOrdering};
use fun3d_mesh::tet::TetMesh;
use fun3d_solver::pseudo::PseudoTransientOptions;
use fun3d_sparse::layout::FieldLayout;

/// The three data-layout enhancements of Table 1 plus the orderings behind
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayoutConfig {
    /// Field interlacing (Section 2.1.1). Off = segregated/vector layout.
    pub interlaced: bool,
    /// Structural blocking of the Jacobian (Section 2.1.2). Requires
    /// interlacing (a blocked matrix only exists when the unknowns at a
    /// point are adjacent).
    pub blocked: bool,
    /// Edge ordering (Section 2.1.3). `VectorColored` is the original
    /// FUN3D / "NOER" baseline; `VertexSorted` is the paper's reordering.
    pub edge_ordering: EdgeOrdering,
    /// Vertex ordering. The paper pairs edge reordering with RCM.
    pub vertex_ordering: VertexOrdering,
}

impl LayoutConfig {
    /// The fully tuned configuration (last row of Table 1).
    pub fn tuned() -> Self {
        Self {
            interlaced: true,
            blocked: true,
            edge_ordering: EdgeOrdering::VertexSorted,
            vertex_ordering: VertexOrdering::ReverseCuthillMcKee,
        }
    }

    /// The untuned vector-machine baseline (first row of Table 1): colored
    /// edges and no cache-aware vertex numbering.
    pub fn baseline() -> Self {
        Self {
            interlaced: false,
            blocked: false,
            edge_ordering: EdgeOrdering::VectorColored,
            vertex_ordering: VertexOrdering::Random(0xF3D0),
        }
    }

    /// The six rows of Table 1, in the paper's order:
    /// (interlacing, blocking, edge reordering).
    pub fn table1_rows() -> Vec<(Self, [bool; 3])> {
        let combos = [
            [false, false, false],
            [true, false, false],
            [true, true, false],
            [false, false, true],
            [true, false, true],
            [true, true, true],
        ];
        combos
            .iter()
            .map(|&[inter, blk, reord]| {
                (
                    Self {
                        interlaced: inter,
                        blocked: blk,
                        edge_ordering: if reord {
                            EdgeOrdering::VertexSorted
                        } else {
                            EdgeOrdering::VectorColored
                        },
                        // The original FUN3D grids carried no cache-aware
                        // numbering (they were vector-tuned); a seeded
                        // shuffle models that baseline, RCM the tuned rows.
                        vertex_ordering: if reord {
                            VertexOrdering::ReverseCuthillMcKee
                        } else {
                            VertexOrdering::Random(0xF3D0)
                        },
                    },
                    [inter, blk, reord],
                )
            })
            .collect()
    }

    /// The unknown layout this config induces.
    pub fn field_layout(&self) -> FieldLayout {
        if self.interlaced {
            FieldLayout::Interlaced
        } else {
            FieldLayout::Segregated
        }
    }
}

/// A full experiment case.
#[derive(Debug, Clone)]
pub struct CaseConfig {
    /// Mesh generator parameters.
    pub mesh: BumpChannelSpec,
    /// Flow model (incompressible: 4 dof/vertex; compressible: 5).
    pub model: FlowModel,
    /// Data layout enhancements.
    pub layout: LayoutConfig,
    /// Spatial order of the residual at start.
    pub order: SpatialOrder,
    /// ΨNKS options (CFL law, Krylov, preconditioner).
    pub nks: PseudoTransientOptions,
}

impl CaseConfig {
    /// A small default case: tuned layout, incompressible, first order.
    pub fn small() -> Self {
        Self {
            mesh: BumpChannelSpec::with_dims(12, 8, 8),
            model: FlowModel::incompressible(),
            layout: LayoutConfig::tuned(),
            order: SpatialOrder::First,
            nks: PseudoTransientOptions::default(),
        }
    }

    /// Build the mesh with this case's vertex and edge orderings applied.
    pub fn build_mesh(&self) -> TetMesh {
        let mesh = self.mesh.build();
        apply_orderings(mesh, self.layout.vertex_ordering, self.layout.edge_ordering)
    }

    /// The block size structural blocking would use (the component count).
    pub fn block_size(&self) -> usize {
        self.model.ncomp()
    }
}

/// Renumber vertices and reorder edges per the given strategies.
pub fn apply_orderings(mesh: TetMesh, vord: VertexOrdering, eord: EdgeOrdering) -> TetMesh {
    let g = mesh.vertex_graph();
    let perm = vertex_permutation(&g, vord);
    let mut mesh = mesh.renumber_vertices(&perm);
    let order = edge_order(mesh.edges(), mesh.nverts(), eord);
    mesh.reorder_edges(&order);
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_rows_in_paper_order() {
        let rows = LayoutConfig::table1_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].1, [false, false, false]);
        assert_eq!(rows[5].1, [true, true, true]);
        // Blocking only appears with interlacing.
        for (cfg, _) in &rows {
            if cfg.blocked {
                assert!(cfg.interlaced);
            }
        }
    }

    #[test]
    fn orderings_change_edge_sequence_not_geometry() {
        let cfg = CaseConfig::small();
        let baseline = CaseConfig {
            layout: LayoutConfig::baseline(),
            ..cfg.clone()
        };
        let m1 = cfg.build_mesh();
        let m2 = baseline.build_mesh();
        assert_eq!(m1.nverts(), m2.nverts());
        assert_eq!(m1.nedges(), m2.nedges());
        assert!((m1.total_volume() - m2.total_volume()).abs() < 1e-9);
        assert!(m1.closure_residual() < 1e-9);
        assert!(m2.closure_residual() < 1e-9);
        // The tuned mesh has sorted edges; the baseline (colored) does not.
        let sorted = |m: &TetMesh| m.edges().windows(2).all(|w| w[0] <= w[1]);
        assert!(sorted(&m1));
        assert!(!sorted(&m2));
    }

    #[test]
    fn rcm_reduces_graph_bandwidth_on_the_case_mesh() {
        let cfg = CaseConfig::small();
        let tuned = cfg.build_mesh();
        let shuffled = apply_orderings(
            cfg.mesh.build(),
            VertexOrdering::Random(42),
            EdgeOrdering::VertexSorted,
        );
        let bt = tuned.vertex_graph().bandwidth();
        let bs = shuffled.vertex_graph().bandwidth();
        assert!(bt * 4 < bs, "RCM {bt} vs shuffled {bs}");
    }

    #[test]
    fn block_size_follows_model() {
        let mut cfg = CaseConfig::small();
        assert_eq!(cfg.block_size(), 4);
        cfg.model = FlowModel::compressible();
        assert_eq!(cfg.block_size(), 5);
    }
}
