//! Pre-normalized random-walk transition kernel.
//!
//! Every walk in this workspace moves with probability `p_ij = w_ij / d_i`
//! (Eq. 3 of the paper). The naive implementation recomputes that division
//! for every edge on every iteration of the truncated dynamic program — τ·m
//! divisions per query for τ iterations over m edges. [`TransitionMatrix`]
//! performs the normalization once, storing the row-stochastic kernel in CSR
//! form so the iteration kernels reduce to multiply-accumulate loops over
//! contiguous slices.

use crate::adjacency::Adjacency;

/// A row-stochastic transition kernel in CSR form.
///
/// Row `i` holds the out-transition probabilities of node `i`; rows of
/// zero-degree (dangling) nodes are empty. Each probability is the exact
/// rounded quotient `w_ij / d_i` the unnormalized code recomputed per
/// iteration, so kernel walks evaluate the same recursion (up to summation
/// order within a row).
///
/// Every stored column is `< n_nodes()`: `from_adjacency` reads a square
/// adjacency, `load_from` validates, and the subgraph scratch stores local
/// ids of admitted nodes only. The walk DP's AVX2 gather relies on it to
/// stay in bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    pub(crate) n: usize,
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) col_idx: Vec<u32>,
    pub(crate) prob: Vec<f64>,
    pub(crate) degree: Vec<f64>,
}

impl TransitionMatrix {
    /// An empty kernel over zero nodes (useful as reusable scratch — see
    /// [`crate::SubgraphScratch`]).
    pub fn empty() -> Self {
        Self {
            n: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            prob: Vec::new(),
            degree: Vec::new(),
        }
    }

    /// Normalize an adjacency into its transition kernel. O(n + m).
    pub fn from_adjacency(adj: &Adjacency) -> Self {
        let n = adj.n_nodes();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(adj.n_arcs());
        let mut prob = Vec::with_capacity(adj.n_arcs());
        let mut degree = Vec::with_capacity(n);
        row_ptr.push(0);
        for i in 0..n {
            let d = adj.degree(i);
            degree.push(d);
            if d > 0.0 {
                for (j, w) in adj.neighbors(i) {
                    col_idx.push(j);
                    prob.push(w / d);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            n,
            row_ptr,
            col_idx,
            prob,
            degree,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of stored transitions.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Targets and probabilities of node `i`'s out-transitions, as parallel
    /// slices. Empty for dangling nodes.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.prob[span])
    }

    /// Weighted degree the row was normalized by (0 for dangling nodes).
    #[inline]
    pub fn degree(&self, i: usize) -> f64 {
        self.degree[i]
    }

    /// Whether node `i` has no outgoing transitions.
    #[inline]
    pub fn is_dangling(&self, i: usize) -> bool {
        self.row_ptr[i] == self.row_ptr[i + 1]
    }

    /// Serialize this kernel into a snapshot under `prefix`: sections
    /// `{prefix}.n` (`u64`), `{prefix}.row_ptr` (`u64`), `{prefix}.col_idx`
    /// (`u32`), `{prefix}.prob` (`f64`) and `{prefix}.degree` (`f64`).
    pub fn save_into(&self, w: &mut crate::snapshot::SnapshotWriter, prefix: &str) {
        w.put_u64s(&format!("{prefix}.n"), &[self.n as u64]);
        let row_ptr: Vec<u64> = self.row_ptr.iter().map(|&p| p as u64).collect();
        w.put_u64s(&format!("{prefix}.row_ptr"), &row_ptr);
        w.put_u32s(&format!("{prefix}.col_idx"), &self.col_idx);
        w.put_f64s(&format!("{prefix}.prob"), &self.prob);
        w.put_f64s(&format!("{prefix}.degree"), &self.degree);
    }

    /// Deserialize a kernel written by [`TransitionMatrix::save_into`]
    /// under the same `prefix`, validating structure fallibly (see
    /// [`crate::CsrMatrix::load_from`] for the validation philosophy).
    pub fn load_from(
        snap: &crate::snapshot::Snapshot,
        prefix: &str,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let invalid =
            |section: String, reason: String| SnapshotError::InvalidSection { section, reason };
        let n_name = format!("{prefix}.n");
        let n_vals = snap.usizes(&n_name)?;
        let [n] = n_vals[..] else {
            return Err(invalid(
                n_name,
                format!("expected [n], found {} element(s)", n_vals.len()),
            ));
        };
        let ptr_name = format!("{prefix}.row_ptr");
        let row_ptr = snap.usizes(&ptr_name)?;
        let col_idx = snap.u32s(&format!("{prefix}.col_idx"))?;
        let prob = snap.f64s(&format!("{prefix}.prob"))?;
        let degree = snap.f64s(&format!("{prefix}.degree"))?;

        if row_ptr.len() != n + 1 {
            return Err(invalid(
                ptr_name,
                format!("length {} != n + 1 = {}", row_ptr.len(), n + 1),
            ));
        }
        if row_ptr[0] != 0 || row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid(
                ptr_name,
                "row_ptr must start at 0 and be non-decreasing".to_string(),
            ));
        }
        let nnz = *row_ptr.last().unwrap();
        if col_idx.len() != nnz || prob.len() != nnz {
            return Err(invalid(
                format!("{prefix}.col_idx"),
                format!(
                    "row_ptr promises {nnz} transitions, found {} targets / {} probabilities",
                    col_idx.len(),
                    prob.len()
                ),
            ));
        }
        if degree.len() != n {
            return Err(invalid(
                format!("{prefix}.degree"),
                format!("length {} != n = {n}", degree.len()),
            ));
        }
        if let Some(&bad) = col_idx.iter().find(|&&c| c as usize >= n) {
            return Err(invalid(
                format!("{prefix}.col_idx"),
                format!("transition target {bad} out of bounds ({n} nodes)"),
            ));
        }
        Ok(Self {
            n,
            row_ptr,
            col_idx,
            prob,
            degree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;
    use crate::csr::CsrMatrix;

    fn tiny() -> Adjacency {
        let g = BipartiteGraph::from_ratings(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0), (1, 2, 4.0)],
        );
        Adjacency::from_bipartite(&g)
    }

    #[test]
    fn rows_are_stochastic() {
        let kernel = TransitionMatrix::from_adjacency(&tiny());
        for i in 0..kernel.n_nodes() {
            if kernel.is_dangling(i) {
                continue;
            }
            let (_, probs) = kernel.row(i);
            let sum: f64 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn probabilities_match_weight_over_degree() {
        let adj = tiny();
        let kernel = TransitionMatrix::from_adjacency(&adj);
        for i in 0..adj.n_nodes() {
            let (cols, probs) = kernel.row(i);
            let expected: Vec<(u32, f64)> = adj
                .neighbors(i)
                .map(|(j, w)| (j, w / adj.degree(i)))
                .collect();
            assert_eq!(cols.len(), expected.len());
            for (k, &(j, p)) in expected.iter().enumerate() {
                assert_eq!(cols[k], j);
                assert_eq!(probs[k], p, "exact division expected at ({i}, {j})");
            }
        }
    }

    #[test]
    fn dangling_nodes_have_empty_rows() {
        let csr = CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let adj = Adjacency::from_symmetric_csr(csr);
        let kernel = TransitionMatrix::from_adjacency(&adj);
        assert!(kernel.is_dangling(2));
        assert_eq!(kernel.row(2), (&[][..], &[][..]));
        assert_eq!(kernel.degree(2), 0.0);
        assert!(!kernel.is_dangling(0));
    }

    #[test]
    fn empty_kernel_has_no_nodes() {
        let k = TransitionMatrix::empty();
        assert_eq!(k.n_nodes(), 0);
        assert_eq!(k.nnz(), 0);
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        use crate::snapshot::{Snapshot, SnapshotError, SnapshotWriter};
        let kernel = TransitionMatrix::from_adjacency(&tiny());
        let mut w = SnapshotWriter::new("KERNEL", 1);
        kernel.save_into(&mut w, "k");
        let snap = Snapshot::from_bytes(w.to_bytes()).unwrap();
        let back = TransitionMatrix::load_from(&snap, "k").unwrap();
        assert_eq!(back, kernel);
        // Structurally invalid kernel fails with a typed error.
        let mut w = SnapshotWriter::new("KERNEL", 1);
        w.put_u64s("k.n", &[2]);
        w.put_u64s("k.row_ptr", &[0, 1, 1]);
        w.put_u32s("k.col_idx", &[7]); // target out of bounds
        w.put_f64s("k.prob", &[1.0]);
        w.put_f64s("k.degree", &[1.0, 0.0]);
        let snap = Snapshot::from_bytes(w.to_bytes()).unwrap();
        assert!(matches!(
            TransitionMatrix::load_from(&snap, "k"),
            Err(SnapshotError::InvalidSection { .. })
        ));
    }
}
