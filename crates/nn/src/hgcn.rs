//! Heterogeneous GCN block (paper §III-D).
//!
//! One [`ChebGcn`] over the geographic graph plus one per temporal graph
//! (each temporal graph corresponds to a time-of-day interval and is built
//! from historical-pattern DTW similarities). For an input sample observed
//! at time-of-day slot `s`, the temporal branches are combined by a weighted
//! sum whose weights decay with the circular distance between `s` and each
//! branch's interval; the result is concatenated with the geographic
//! branch's output to form the block's embedding.

use crate::{Activation, ChebBasis, ChebGcn, ParamId, ParamStore, Session};
use st_autodiff::Var;
use st_graph::{interval_weights, scaled_laplacian_from_adjacency, Interval};
use st_tensor::{Matrix, StRng};

/// The heterogeneous graph-convolution block.
///
/// Output width is `2 × gcn_dim` when temporal graphs are present
/// (geographic ‖ temporal) and `gcn_dim` otherwise.
///
/// At construction the block turns every adjacency (geographic plus the M
/// temporal graphs) into a scaled Laplacian and a precomputed
/// [`ChebBasis`]; that per-graph fan-out runs across `st-par` workers, with
/// each graph processed wholly by one worker so the result is bit-identical
/// at any thread count. [`HgcnBlock::forward`] then spends one constant
/// matmul per Chebyshev order per graph.
#[derive(Debug, Clone)]
pub struct HgcnBlock {
    geo: ChebGcn,
    gate: Option<ParamId>,
    temporal: Vec<ChebGcn>,
    geo_basis: ChebBasis,
    temporal_bases: Vec<ChebBasis>,
    intervals: Vec<Interval>,
    // interval_weights(slot, …, tau) for every time-of-day slot, precomputed
    // at construction so the training hot loop never allocates for them.
    weight_cache: Vec<Vec<f64>>,
    slots_per_day: usize,
    num_nodes: usize,
}

impl HgcnBlock {
    /// Builds the block from pre-computed adjacency matrices.
    ///
    /// `temporal_graphs` pairs each time-of-day [`Interval`] with its
    /// adjacency matrix; pass an empty vector for a plain-GCN ablation
    /// (the `GCN-LSTM-I` baseline).
    ///
    /// # Panics
    ///
    /// Panics if adjacency shapes are inconsistent or `tau <= 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StRng,
        in_dim: usize,
        gcn_dim: usize,
        k: usize,
        geo_adjacency: &Matrix,
        temporal_graphs: Vec<(Interval, Matrix)>,
        slots_per_day: usize,
        tau: f64,
        name: &str,
    ) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        let n = geo_adjacency.rows();
        assert_eq!(
            geo_adjacency.cols(),
            n,
            "geographic adjacency must be square"
        );
        for (_, adj) in &temporal_graphs {
            assert_eq!(adj.shape(), (n, n), "temporal adjacency shape mismatch");
        }

        let geo = ChebGcn::new(
            store,
            rng,
            in_dim,
            gcn_dim,
            k,
            Activation::Relu,
            &format!("{name}.geo"),
        );

        // Learnable gate on the temporal branch, initialised near zero so
        // the block starts out as a plain geographic GCN and smoothly
        // learns how much heterogeneous-graph signal to mix in. This keeps
        // the extra capacity of the temporal branch from acting as noise
        // early in training (a gated-residual refinement of the paper's
        // weighted aggregation).
        let gate = (!temporal_graphs.is_empty())
            .then(|| store.add(format!("{name}.gate"), Matrix::from_rows(&[&[0.1]])));

        // Parameter initialisation must stay strictly sequential (the RNG
        // stream defines the reproducibility contract), so only the layer
        // construction happens in this loop.
        let mut temporal = Vec::with_capacity(temporal_graphs.len());
        let mut intervals = Vec::with_capacity(temporal_graphs.len());
        for (i, (interval, _)) in temporal_graphs.iter().enumerate() {
            temporal.push(ChebGcn::new(
                store,
                rng,
                in_dim,
                gcn_dim,
                k,
                Activation::Relu,
                &format!("{name}.t{i}"),
            ));
            intervals.push(*interval);
        }

        // Per-graph fan-out: the geographic graph and the M temporal graphs
        // each need a scaled Laplacian and a Chebyshev basis. Each graph is
        // processed wholly by one st-par worker (slot-disjoint writes), so
        // the bases are bit-identical at any thread count.
        let adjacencies: Vec<&Matrix> = std::iter::once(geo_adjacency)
            .chain(temporal_graphs.iter().map(|(_, adj)| adj))
            .collect();
        let mut bases: Vec<Option<ChebBasis>> = vec![None; adjacencies.len()];
        st_par::par_chunks_mut(&mut bases, 1, |idx, slot| {
            let laplacian = scaled_laplacian_from_adjacency(adjacencies[idx]);
            slot[0] = Some(ChebBasis::new(&laplacian, k));
        });
        let mut bases = bases.into_iter().map(|b| b.expect("basis computed"));
        let geo_basis = bases.next().expect("geographic basis");

        let weight_cache = if intervals.is_empty() || slots_per_day == 0 {
            Vec::new()
        } else {
            (0..slots_per_day)
                .map(|slot| interval_weights(slot, &intervals, slots_per_day, tau))
                .collect()
        };

        Self {
            geo,
            gate,
            temporal,
            geo_basis,
            temporal_bases: bases.collect(),
            intervals,
            weight_cache,
            slots_per_day,
            num_nodes: n,
        }
    }

    /// Number of graph nodes the block was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of temporal graphs.
    pub fn num_temporal_graphs(&self) -> usize {
        self.temporal.len()
    }

    /// Embedding width `p` produced by [`HgcnBlock::forward`].
    pub fn out_dim(&self) -> usize {
        if self.temporal.is_empty() {
            self.geo.out_dim()
        } else {
            2 * self.geo.out_dim()
        }
    }

    /// The soft interval weights used for a given time-of-day slot.
    pub fn weights_for_slot(&self, slot: usize) -> Vec<f64> {
        if self.intervals.is_empty() {
            return Vec::new();
        }
        self.weights_for_slot_cached(slot).to_vec()
    }

    /// Cached (allocation-free) variant of [`HgcnBlock::weights_for_slot`].
    /// Requires at least one temporal graph.
    fn weights_for_slot_cached(&self, slot: usize) -> &[f64] {
        &self.weight_cache[slot % self.slots_per_day]
    }

    /// Computes the node embeddings `S = HGCN(x)` for a batch of
    /// `slots.len()` windows; a single window is a batch of one.
    ///
    /// `x` is the row-stacked `(B·N) × in_dim` batch; window `b` occupies
    /// rows `[b·N, (b+1)·N)` and was observed at time-of-day `slots[b]`.
    /// The wide `N × (B·in_dim)` permutation is computed once here and
    /// shared by the geographic convolution and every temporal branch, so
    /// each Chebyshev propagation is a single packed-panel matmul over all
    /// windows. Per-window interval weights enter as a `B × 1` constant
    /// through `scale_blocks` — one multiply per element — and the
    /// learnable gate is one scalar shared by every window. Block `b` of
    /// the output is bit-identical to `forward(sess, store, &[slots[b]],
    /// window_b)`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or `x` is not `(B·N) × in_dim`.
    pub fn forward(&self, sess: &mut Session, store: &ParamStore, slots: &[usize], x: Var) -> Var {
        let b = slots.len();
        assert!(b > 0, "forward needs at least one window");
        assert_eq!(
            sess.tape.value(x).rows(),
            b * self.num_nodes,
            "input must have one row per (window, node) pair"
        );
        let x_wide = sess.tape.to_wide(x, b);
        let geo_out = self
            .geo
            .forward_with_basis(sess, store, &self.geo_basis, x, x_wide, b);
        if self.temporal.is_empty() {
            return geo_out;
        }
        let mut acc: Option<Var> = None;
        for (branch, (gcn, basis)) in self.temporal.iter().zip(&self.temporal_bases).enumerate() {
            let out = gcn.forward_with_basis(sess, store, basis, x, x_wide, b);
            let s = sess
                .tape
                .constant_col_with(b, |w| self.weights_for_slot_cached(slots[w])[branch]);
            let weighted = sess.tape.scale_blocks(out, s);
            acc = Some(match acc {
                Some(a) => sess.tape.add(a, weighted),
                None => weighted,
            });
        }
        let temporal_out = acc.expect("temporal branch list is non-empty");
        let gate = sess.var(store, self.gate.expect("gate exists with temporal graphs"));
        let gated = sess.tape.scale_var(temporal_out, gate);
        sess.tape.concat_cols(geo_out, gated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::{gaussian_adjacency, RoadNetwork};
    use st_tensor::rng;

    fn geo_adj(n: usize) -> Matrix {
        let net = RoadNetwork::corridor(n, 1.0);
        gaussian_adjacency(&net.distance_matrix(), None, 0.1)
    }

    fn temporal_pair(n: usize) -> Vec<(Interval, Matrix)> {
        // Two crude temporal graphs: "day" fully connected, "night" sparse.
        let day = Matrix::from_fn(n, n, |i, j| if i != j { 0.8 } else { 0.0 });
        let night = Matrix::from_fn(n, n, |i, j| {
            if i != j && i.abs_diff(j) == 1 {
                0.5
            } else {
                0.0
            }
        });
        vec![
            (Interval::new(72, 216), day), // 6:00–18:00
            (Interval::new(0, 72), night), // 0:00–6:00 (rest of day wraps)
        ]
    }

    #[test]
    fn out_dim_doubles_with_temporal_graphs() {
        let mut store = ParamStore::new();
        let block = HgcnBlock::new(
            &mut store,
            &mut rng(1),
            2,
            4,
            3,
            &geo_adj(5),
            temporal_pair(5),
            288,
            4.0,
            "hgcn",
        );
        assert_eq!(block.out_dim(), 8);
        assert_eq!(block.num_temporal_graphs(), 2);

        let mut store2 = ParamStore::new();
        let plain = HgcnBlock::new(
            &mut store2,
            &mut rng(1),
            2,
            4,
            3,
            &geo_adj(5),
            Vec::new(),
            288,
            4.0,
            "gcn",
        );
        assert_eq!(plain.out_dim(), 4);
    }

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let block = HgcnBlock::new(
            &mut store,
            &mut rng(2),
            3,
            4,
            3,
            &geo_adj(6),
            temporal_pair(6),
            288,
            4.0,
            "hgcn",
        );
        let mut sess = Session::new(&store);
        let x = sess.constant(Matrix::ones(6, 3));
        let y = block.forward(&mut sess, &store, &[100], x);
        assert_eq!(sess.tape.value(y).shape(), (6, 8));
        assert!(sess.tape.value(y).is_finite());
    }

    #[test]
    fn slot_changes_output_through_interval_weights() {
        let mut store = ParamStore::new();
        let block = HgcnBlock::new(
            &mut store,
            &mut rng(3),
            2,
            4,
            3,
            &geo_adj(5),
            temporal_pair(5),
            288,
            4.0,
            "hgcn",
        );
        let x0 = Matrix::from_fn(5, 2, |r, c| (r + c) as f64 * 0.3);
        let run = |slot: usize| {
            let mut sess = Session::new(&store);
            let x = sess.constant(x0.clone());
            let y = block.forward(&mut sess, &store, &[slot], x);
            sess.tape.value(y).clone()
        };
        let noon = run(144);
        let midnight = run(12);
        assert!(
            noon.max_abs_diff(&midnight) > 1e-9,
            "slot must modulate the output"
        );
        // Geographic half is slot-independent.
        assert!(
            noon.slice_cols(0, 4)
                .max_abs_diff(&midnight.slice_cols(0, 4))
                < 1e-12
        );
    }

    #[test]
    fn weights_prefer_containing_interval() {
        let mut store = ParamStore::new();
        let block = HgcnBlock::new(
            &mut store,
            &mut rng(4),
            2,
            4,
            2,
            &geo_adj(4),
            temporal_pair(4),
            288,
            4.0,
            "hgcn",
        );
        let w_noon = block.weights_for_slot(144);
        assert!(w_noon[0] > w_noon[1]); // noon is inside the "day" interval
        let w_night = block.weights_for_slot(36);
        assert!(w_night[1] > w_night[0]);
    }

    #[test]
    fn temporal_gate_starts_small_and_receives_gradients() {
        let mut store = ParamStore::new();
        let block = HgcnBlock::new(
            &mut store,
            &mut rng(6),
            2,
            3,
            2,
            &geo_adj(4),
            temporal_pair(4),
            288,
            4.0,
            "hgcn",
        );
        let gate_id = store
            .ids()
            .find(|&id| store.name(id).ends_with(".gate"))
            .expect("gate param exists");
        assert_eq!(store.value(gate_id)[(0, 0)], 0.1);
        let mut sess = Session::new(&store);
        let x = sess.constant(Matrix::ones(4, 2));
        let y = block.forward(&mut sess, &store, &[144], x);
        let loss = sess.tape.mean(y);
        sess.backward(loss);
        sess.write_grads(&mut store);
        assert!(store.grad(gate_id).max_abs() > 0.0, "gate must learn");
    }

    #[test]
    fn gradients_reach_temporal_branch_weights() {
        let mut store = ParamStore::new();
        let block = HgcnBlock::new(
            &mut store,
            &mut rng(5),
            2,
            3,
            2,
            &geo_adj(4),
            temporal_pair(4),
            288,
            4.0,
            "hgcn",
        );
        let before = store.num_scalars();
        assert!(before > 0);
        let mut sess = Session::new(&store);
        let x = sess.constant(Matrix::ones(4, 2));
        let y = block.forward(&mut sess, &store, &[144], x);
        let loss = sess.tape.mean(y);
        sess.backward(loss);
        sess.write_grads(&mut store);
        // At least one temporal parameter must receive non-zero gradient.
        let got_temporal_grad = store
            .ids()
            .filter(|&id| store.name(id).contains(".t0"))
            .any(|id| store.grad(id).max_abs() > 0.0);
        assert!(got_temporal_grad, "temporal branch got no gradient");
    }
}
