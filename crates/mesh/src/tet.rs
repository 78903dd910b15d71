//! Tetrahedral mesh storage and median-dual finite-volume geometry.
//!
//! FUN3D is a vertex-centered code: unknowns live at mesh vertices, control
//! volumes are the median duals of the tetrahedra, and the residual is
//! accumulated in a loop over *edges*, each edge carrying the directed area
//! of the dual face separating its two endpoints.  This module computes that
//! geometry exactly (via the barycentric subdivision), because the paper's
//! flux kernels — whose memory behaviour Table 1 and Figure 3 measure — are
//! edge loops over precisely these arrays.

use crate::graph::Graph;

/// Physical classification of a boundary face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryKind {
    /// Upstream plane: characteristic inflow data.
    Inflow,
    /// Downstream plane: characteristic outflow data.
    Outflow,
    /// Solid (slip) wall, including the wing-like bump.
    Wall,
}

/// A triangular boundary face with its outward area normal (magnitude =
/// face area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryFace {
    /// The three vertex indices of the face.
    pub verts: [u32; 3],
    /// Outward normal scaled by face area.
    pub normal: [f64; 3],
    /// Physical boundary classification.
    pub kind: BoundaryKind,
}

/// An unstructured tetrahedral mesh with precomputed median-dual geometry.
#[derive(Debug, Clone)]
pub struct TetMesh {
    coords: Vec<[f64; 3]>,
    tets: Vec<[u32; 4]>,
    /// Unique edges, canonical `[lo, hi]` with `lo < hi` (as given for a
    /// mesh built [from dual parts](Self::from_dual_parts)).
    edges: Vec<[u32; 2]>,
    /// Directed dual-face area of each edge, oriented from `edge[0]` to
    /// `edge[1]`.
    edge_normals: Vec<[f64; 3]>,
    /// Median-dual control volume of each vertex.
    dual_volumes: Vec<f64>,
    boundary_faces: Vec<BoundaryFace>,
}

#[inline]
fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

#[inline]
fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

#[inline]
fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

#[inline]
fn scaled(a: [f64; 3], s: f64) -> [f64; 3] {
    [a[0] * s, a[1] * s, a[2] * s]
}

#[inline]
fn add3(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// Signed volume of the tetrahedron `(a, b, c, d)` (positive when `(b-a,
/// c-a, d-a)` is a right-handed triple).
fn signed_volume(a: [f64; 3], b: [f64; 3], c: [f64; 3], d: [f64; 3]) -> f64 {
    dot(sub(b, a), cross(sub(c, a), sub(d, a))) / 6.0
}

impl TetMesh {
    /// Build a mesh from vertex coordinates and tetrahedra, computing unique
    /// edges, dual geometry, and boundary faces. `classify` maps a boundary
    /// face centroid to its physical kind.
    ///
    /// Tets with negative orientation are silently reoriented; degenerate
    /// (zero-volume) tets panic.
    pub fn new(
        coords: Vec<[f64; 3]>,
        mut tets: Vec<[u32; 4]>,
        classify: impl Fn([f64; 3]) -> BoundaryKind,
    ) -> Self {
        let nv = coords.len();
        for t in &tets {
            for &v in t {
                assert!((v as usize) < nv, "tet vertex out of range");
            }
        }
        // Reorient so every tet has positive volume.
        for t in tets.iter_mut() {
            let v = signed_volume(
                coords[t[0] as usize],
                coords[t[1] as usize],
                coords[t[2] as usize],
                coords[t[3] as usize],
            );
            assert!(v != 0.0, "degenerate tetrahedron {t:?}");
            if v < 0.0 {
                t.swap(2, 3);
            }
        }

        // Unique edges.
        let mut edges: Vec<[u32; 2]> = Vec::with_capacity(tets.len() * 6);
        for t in &tets {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let (a, b) = (t[i].min(t[j]), t[i].max(t[j]));
                    edges.push([a, b]);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();

        // Edge index lookup.
        let edge_of = |a: u32, b: u32| -> usize {
            let key = [a.min(b), a.max(b)];
            edges.binary_search(&key).expect("edge must exist")
        };

        // Median-dual geometry.
        let mut edge_normals = vec![[0.0f64; 3]; edges.len()];
        let mut dual_volumes = vec![0.0f64; nv];
        for t in &tets {
            let p: [[f64; 3]; 4] = [
                coords[t[0] as usize],
                coords[t[1] as usize],
                coords[t[2] as usize],
                coords[t[3] as usize],
            ];
            let vol = signed_volume(p[0], p[1], p[2], p[3]);
            debug_assert!(vol > 0.0);
            for &v in t {
                dual_volumes[v as usize] += vol / 4.0;
            }
            let centroid = scaled(add3(add3(p[0], p[1]), add3(p[2], p[3])), 0.25);
            // All 6 edges of the tet.
            for i in 0..4usize {
                for j in (i + 1)..4 {
                    // Remaining two local vertices.
                    let mut rest = [0usize; 2];
                    let mut r = 0;
                    for k in 0..4 {
                        if k != i && k != j {
                            rest[r] = k;
                            r += 1;
                        }
                    }
                    // Pick (k, l) such that (pi, pj, pk, pl) is positively
                    // oriented; this fixes the winding of the dual quad so
                    // its area vector points from i to j.
                    let (k, l) = if signed_volume(p[i], p[j], p[rest[0]], p[rest[1]]) > 0.0 {
                        (rest[0], rest[1])
                    } else {
                        (rest[1], rest[0])
                    };
                    let m = scaled(add3(p[i], p[j]), 0.5);
                    let f1 = scaled(add3(add3(p[i], p[j]), p[k]), 1.0 / 3.0);
                    let f2 = scaled(add3(add3(p[i], p[j]), p[l]), 1.0 / 3.0);
                    // Quad (m, f1, c, f2) split into triangles (m,f1,c), (m,c,f2).
                    let a1 = scaled(cross(sub(f1, m), sub(centroid, m)), 0.5);
                    let a2 = scaled(cross(sub(centroid, m), sub(f2, m)), 0.5);
                    let area = add3(a1, a2);
                    // Accumulate oriented from edge[0] (= min) to edge[1].
                    let e = edge_of(t[i], t[j]);
                    let sign = if t[i] < t[j] { 1.0 } else { -1.0 };
                    edge_normals[e] = add3(edge_normals[e], scaled(area, sign));
                }
            }
        }

        // Boundary faces: tet faces seen exactly once.
        use std::collections::HashMap;
        let mut face_count: HashMap<[u32; 3], ([u32; 3], u32)> = HashMap::new();
        for t in &tets {
            const FACES: [[usize; 3]; 4] = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]];
            for f in FACES.iter() {
                let tri = [t[f[0]], t[f[1]], t[f[2]]];
                let mut key = tri;
                key.sort_unstable();
                face_count
                    .entry(key)
                    .and_modify(|e| e.1 += 1)
                    .or_insert((tri, 1));
            }
        }
        let mut boundary_faces: Vec<BoundaryFace> = Vec::new();
        for (_, (tri, count)) in face_count {
            debug_assert!(count <= 2, "face shared by more than two tets");
            if count == 1 {
                let a = coords[tri[0] as usize];
                let b = coords[tri[1] as usize];
                let c = coords[tri[2] as usize];
                // FACES orderings above are outward for a positively oriented
                // tet: verify and keep the stored winding's normal.
                let n = scaled(cross(sub(b, a), sub(c, a)), 0.5);
                let centroid = scaled(add3(add3(a, b), c), 1.0 / 3.0);
                boundary_faces.push(BoundaryFace {
                    verts: tri,
                    normal: n,
                    kind: classify(centroid),
                });
            }
        }
        // Deterministic order regardless of HashMap iteration.
        boundary_faces.sort_unstable_by_key(|f| {
            let mut k = f.verts;
            k.sort_unstable();
            k
        });

        Self {
            coords,
            tets,
            edges,
            edge_normals,
            dual_volumes,
            boundary_faces,
        }
    }

    /// A mesh given by its median-dual parts alone, with no tetrahedra:
    /// everything a vertex-centered discretization reads.  Edges keep the
    /// given order and orientation (each normal points from `edge[0]` to
    /// `edge[1]`), so a subdomain cut out of a larger mesh can keep that
    /// mesh's edge order in its own vertex numbering.
    pub fn from_dual_parts(
        coords: Vec<[f64; 3]>,
        edges: Vec<[u32; 2]>,
        edge_normals: Vec<[f64; 3]>,
        dual_volumes: Vec<f64>,
        boundary_faces: Vec<BoundaryFace>,
    ) -> Self {
        let nv = coords.len();
        let lengths_agree = edges.len() == edge_normals.len() && dual_volumes.len() == nv;
        assert!(lengths_agree, "one normal per edge, one volume per vertex");
        let mut verts = edges
            .iter()
            .flatten()
            .chain(boundary_faces.iter().flat_map(|f| &f.verts));
        assert!(verts.all(|&v| (v as usize) < nv), "vertex out of range");
        Self {
            coords,
            tets: Vec::new(),
            edges,
            edge_normals,
            dual_volumes,
            boundary_faces,
        }
    }

    /// Number of vertices.
    pub fn nverts(&self) -> usize {
        self.coords.len()
    }

    /// Number of tetrahedra.
    pub fn ntets(&self) -> usize {
        self.tets.len()
    }

    /// Number of unique edges.
    pub fn nedges(&self) -> usize {
        self.edges.len()
    }

    /// Vertex coordinates.
    pub fn coords(&self) -> &[[f64; 3]] {
        &self.coords
    }

    /// Tetrahedra (positively oriented; none for a mesh built
    /// [from dual parts](Self::from_dual_parts)).
    pub fn tets(&self) -> &[[u32; 4]] {
        &self.tets
    }

    /// Unique edges: `[lo, hi]`, unless built
    /// [from dual parts](Self::from_dual_parts).
    pub fn edges(&self) -> &[[u32; 2]] {
        &self.edges
    }

    /// Dual-face area normals, oriented `edge[0] -> edge[1]`.
    pub fn edge_normals(&self) -> &[[f64; 3]] {
        &self.edge_normals
    }

    /// Median-dual control volumes per vertex.
    pub fn dual_volumes(&self) -> &[f64] {
        &self.dual_volumes
    }

    /// Boundary faces with outward area normals.
    pub fn boundary_faces(&self) -> &[BoundaryFace] {
        &self.boundary_faces
    }

    /// Total mesh volume (sum of dual volumes == sum of tet volumes).
    pub fn total_volume(&self) -> f64 {
        self.dual_volumes.iter().sum()
    }

    /// The vertex adjacency graph (vertices adjacent iff they share an edge).
    pub fn vertex_graph(&self) -> Graph {
        Graph::from_edges(self.nverts(), &self.edges)
    }

    /// Maximum over vertices of the control-surface closure residual:
    /// for each vertex, the sum of outward dual-face normals plus one third
    /// of each adjacent boundary-face normal must vanish (a constant flux
    /// leaves every control volume unchanged). Exact geometry gives ~1e-12.
    pub fn closure_residual(&self) -> f64 {
        let mut acc = vec![[0.0f64; 3]; self.nverts()];
        for (e, &[a, b]) in self.edges.iter().enumerate() {
            let n = self.edge_normals[e];
            let (a, b) = (a as usize, b as usize);
            acc[a] = add3(acc[a], n);
            acc[b] = sub(acc[b], n);
        }
        for f in &self.boundary_faces {
            let share = scaled(f.normal, 1.0 / 3.0);
            for &v in &f.verts {
                acc[v as usize] = add3(acc[v as usize], share);
            }
        }
        acc.iter().map(|v| dot(*v, *v).sqrt()).fold(0.0, f64::max)
    }

    /// Renumber vertices by `perm` (old index -> new index), producing a new
    /// mesh with identical geometry. Edge canonical order (and normal signs)
    /// are recomputed; edges come out sorted by the new numbering.
    pub fn renumber_vertices(&self, perm: &[usize]) -> TetMesh {
        assert_eq!(perm.len(), self.nverts());
        let n = self.nverts();
        let mut coords = vec![[0.0; 3]; n];
        let mut dual_volumes = vec![0.0; n];
        for old in 0..n {
            coords[perm[old]] = self.coords[old];
            dual_volumes[perm[old]] = self.dual_volumes[old];
        }
        let tets: Vec<[u32; 4]> = self
            .tets
            .iter()
            .map(|t| {
                [
                    perm[t[0] as usize] as u32,
                    perm[t[1] as usize] as u32,
                    perm[t[2] as usize] as u32,
                    perm[t[3] as usize] as u32,
                ]
            })
            .collect();
        let mut edge_pairs: Vec<([u32; 2], [f64; 3])> = self
            .edges
            .iter()
            .zip(&self.edge_normals)
            .map(|(&[a, b], &nrm)| {
                let (na, nb) = (perm[a as usize] as u32, perm[b as usize] as u32);
                if na < nb {
                    ([na, nb], nrm)
                } else {
                    ([nb, na], scaled(nrm, -1.0))
                }
            })
            .collect();
        edge_pairs.sort_unstable_by_key(|&(e, _)| e);
        let edges: Vec<[u32; 2]> = edge_pairs.iter().map(|&(e, _)| e).collect();
        let edge_normals: Vec<[f64; 3]> = edge_pairs.iter().map(|&(_, n)| n).collect();
        let boundary_faces: Vec<BoundaryFace> = self
            .boundary_faces
            .iter()
            .map(|f| BoundaryFace {
                verts: [
                    perm[f.verts[0] as usize] as u32,
                    perm[f.verts[1] as usize] as u32,
                    perm[f.verts[2] as usize] as u32,
                ],
                normal: f.normal,
                kind: f.kind,
            })
            .collect();
        TetMesh {
            coords,
            tets,
            edges,
            edge_normals,
            dual_volumes,
            boundary_faces,
        }
    }

    /// Replace the edge *ordering* (not the vertex numbering): `order[k]`
    /// gives the index into the current edge list of the edge that should
    /// come `k`-th. Used to apply edge reorderings / colorings.
    pub fn reorder_edges(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.edges.len());
        let mut seen = vec![false; order.len()];
        for &o in order {
            assert!(!seen[o], "edge order must be a permutation");
            seen[o] = true;
        }
        self.edges = order.iter().map(|&o| self.edges[o]).collect();
        self.edge_normals = order.iter().map(|&o| self.edge_normals[o]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unit cube split into 6 Kuhn tetrahedra.
    pub(crate) fn unit_cube() -> TetMesh {
        let coords = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
        ];
        // Kuhn subdivision along the main diagonal 0-7.
        let tets = vec![
            [0u32, 1, 3, 7],
            [0, 1, 5, 7],
            [0, 2, 3, 7],
            [0, 2, 6, 7],
            [0, 4, 5, 7],
            [0, 4, 6, 7],
        ];
        TetMesh::new(coords, tets, |_| BoundaryKind::Wall)
    }

    #[test]
    fn cube_volume_is_one() {
        let m = unit_cube();
        assert!((m.total_volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cube_has_19_edges() {
        // 12 cube edges + 6 face diagonals + 1 body diagonal.
        let m = unit_cube();
        assert_eq!(m.nedges(), 19);
        assert_eq!(m.ntets(), 6);
    }

    #[test]
    fn cube_boundary_is_closed() {
        let m = unit_cube();
        // 2 triangles per cube face.
        assert_eq!(m.boundary_faces().len(), 12);
        // Outward normals of a closed surface sum to zero.
        let mut s = [0.0f64; 3];
        let mut total_area = 0.0;
        for f in m.boundary_faces() {
            s = add3(s, f.normal);
            total_area += dot(f.normal, f.normal).sqrt();
        }
        assert!(dot(s, s).sqrt() < 1e-12, "normals must close: {s:?}");
        assert!((total_area - 6.0).abs() < 1e-12, "cube surface area is 6");
    }

    #[test]
    fn boundary_normals_point_outward() {
        let m = unit_cube();
        for f in m.boundary_faces() {
            let c = f
                .verts
                .iter()
                .fold([0.0; 3], |acc, &v| add3(acc, m.coords()[v as usize]));
            let c = scaled(c, 1.0 / 3.0);
            let from_center = sub(c, [0.5, 0.5, 0.5]);
            assert!(
                dot(f.normal, from_center) > 0.0,
                "face {:?} normal {:?} not outward",
                f.verts,
                f.normal
            );
        }
    }

    #[test]
    fn control_surfaces_close() {
        let m = unit_cube();
        assert!(
            m.closure_residual() < 1e-12,
            "residual {}",
            m.closure_residual()
        );
    }

    #[test]
    fn dual_volumes_partition_the_domain() {
        let m = unit_cube();
        let total: f64 = m.dual_volumes().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(m.dual_volumes().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn negative_orientation_is_fixed() {
        let coords = vec![
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        // Swapped ordering gives negative volume; constructor must fix it.
        let tets = vec![[0u32, 2, 1, 3]];
        let m = TetMesh::new(coords, tets, |_| BoundaryKind::Wall);
        assert!((m.total_volume() - 1.0 / 6.0).abs() < 1e-14);
        assert!(m.closure_residual() < 1e-14);
    }

    #[test]
    fn renumbering_preserves_geometry() {
        let m = unit_cube();
        let perm = vec![7usize, 2, 5, 0, 3, 6, 1, 4];
        let r = m.renumber_vertices(&perm);
        assert!((r.total_volume() - 1.0).abs() < 1e-12);
        assert!(r.closure_residual() < 1e-12);
        assert_eq!(r.nedges(), m.nedges());
        // Coordinates moved with the permutation.
        for old in 0..8 {
            assert_eq!(r.coords()[perm[old]], m.coords()[old]);
        }
        // Edges are canonical and sorted.
        for w in r.edges().windows(2) {
            assert!(w[0] < w[1]);
        }
        for &[a, b] in r.edges() {
            assert!(a < b);
        }
    }

    #[test]
    fn reorder_edges_permutes_normals_with_edges() {
        let mut m = unit_cube();
        let e0 = m.edges()[0];
        let n0 = m.edge_normals()[0];
        let order: Vec<usize> = (0..m.nedges()).rev().collect();
        m.reorder_edges(&order);
        assert_eq!(m.edges()[m.nedges() - 1], e0);
        assert_eq!(m.edge_normals()[m.nedges() - 1], n0);
        assert!(m.closure_residual() < 1e-12);
    }

    #[test]
    fn dual_parts_keep_the_edge_orientation() {
        let m = unit_cube();
        let flipped: Vec<[u32; 2]> = m.edges().iter().map(|&[a, b]| [b, a]).collect();
        let normals = m.edge_normals().iter().map(|&n| scaled(n, -1.0)).collect();
        let d = TetMesh::from_dual_parts(
            m.coords().to_vec(),
            flipped.clone(),
            normals,
            m.dual_volumes().to_vec(),
            m.boundary_faces().to_vec(),
        );
        assert_eq!(d.ntets(), 0);
        assert_eq!(d.edges(), &flipped[..]);
        assert!(d.closure_residual() < 1e-12);
        assert_eq!(d.vertex_graph(), m.vertex_graph());
    }

    #[test]
    fn vertex_graph_matches_edges() {
        let m = unit_cube();
        let g = m.vertex_graph();
        assert_eq!(g.nedges(), m.nedges());
        // Vertex 0 connects to everything (hub of the Kuhn split).
        assert_eq!(g.degree(0), 7);
    }
}
