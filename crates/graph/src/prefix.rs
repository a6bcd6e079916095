//! Cached frozen prefixes: the part of a graph that a set of free key
//! slots cannot reach, evaluated once over a fixed row set.
//!
//! The learning attack (paper §3.6) trains the multipliers of a few *free*
//! key slots while every weight and every other key stays fixed, and it
//! sweeps the same training rows epoch after epoch. A node none of whose
//! ancestors (itself included) holds a free slot is *frozen*: its value
//! for a given row is the same in every epoch. [`FrozenPrefix`] evaluates
//! the frozen nodes that feed the rest of the graph — the *frontier* —
//! once per row, and the planned forward pass
//! ([`Graph::forward_prefixed_into`]) then starts from those cached rows
//! instead of the graph input.
//!
//! Every op computes each batch row independently of the others (the gemm
//! kernels fold every output element in the same order whatever the row
//! count; DESIGN.md §3g), so a row cached from one batch is bit-equal to
//! the same row computed inside any other batch. A pass seeded from the
//! prefix therefore produces bit-identical values and free-key gradients.

use crate::exec::Source;
use crate::graph::{Graph, NodeId};
use crate::key::{KeyAssignment, KeySlot};
use crate::plan::Workspace;
use relock_tensor::Tensor;
use std::collections::HashSet;

/// The frontier rows of a graph's frozen prefix over a fixed set of input
/// rows. Build one with [`Graph::frozen_prefix`].
#[derive(Debug, Clone)]
pub struct FrozenPrefix {
    /// Per node: no ancestor (inclusive) holds a free key slot.
    frozen: Vec<bool>,
    /// Frontier nodes (frozen nodes consumed by a non-frozen node, or a
    /// frozen output) in topological order, with each one's column offset
    /// inside a cached row.
    frontier: Vec<(NodeId, usize)>,
    /// Cached row width: the sum of the frontier nodes' widths.
    width: usize,
    /// `(rows × width)` row-major: row `i` holds every frontier node's
    /// value for input row `i`, side by side.
    rows: Vec<f64>,
}

impl FrozenPrefix {
    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.rows.len() / self.width.max(1)
    }

    /// Whether the prefix caches no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The frontier nodes, in topological order.
    pub fn frontier(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.frontier.iter().map(|&(id, _)| id)
    }

    pub(crate) fn is_frozen(&self, idx: usize) -> bool {
        self.frozen[idx]
    }

    /// Column offset of `idx` inside a cached row, if it is a frontier node.
    pub(crate) fn offset_of(&self, idx: usize) -> Option<usize> {
        self.frontier
            .iter()
            .find(|&&(id, _)| id.index() == idx)
            .map(|&(_, off)| off)
    }

    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }
}

impl Graph {
    /// Evaluates the frozen prefix of the graph under `free` slots over
    /// the rows of `x` (`(n, P)`), `chunk` rows per planned pass through
    /// `ws`.
    ///
    /// `keys` must hold the values every non-free slot keeps while the
    /// prefix is in use. The cache takes over `x`'s buffer whenever a
    /// cached row is no wider than an input row, so building it costs no
    /// memory beyond `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `(n, P)` or `chunk` is zero.
    pub fn frozen_prefix(
        &self,
        ws: &mut Workspace,
        x: Tensor,
        keys: &KeyAssignment,
        free: &[KeySlot],
        chunk: usize,
    ) -> FrozenPrefix {
        assert!(chunk > 0, "frozen prefix needs a positive chunk size");
        let p = self.input_size();
        assert!(
            x.rank() == 2 && x.dims()[1] == p,
            "frozen prefix rows must be (n, {p})"
        );
        let n_rows = x.dims()[0];
        let free: HashSet<KeySlot> = free.iter().copied().collect();
        let nodes = self.nodes();
        let mut frozen = Vec::with_capacity(nodes.len());
        for node in nodes {
            let holds_free = node.op.key_slots().iter().any(|s| free.contains(s));
            frozen.push(!holds_free && node.inputs.iter().all(|i| frozen[i.index()]));
        }
        let mut on_frontier = vec![false; nodes.len()];
        on_frontier[self.output_id().index()] = frozen[self.output_id().index()];
        for (i, node) in nodes.iter().enumerate() {
            if !frozen[i] {
                for inp in &node.inputs {
                    on_frontier[inp.index()] |= frozen[inp.index()];
                }
            }
        }
        let mut frontier = Vec::new();
        let mut width = 0;
        for (i, &on) in on_frontier.iter().enumerate() {
            if on {
                frontier.push((NodeId(i), width));
                width += nodes[i].out_size;
            }
        }
        let mut prefix = FrozenPrefix {
            frozen,
            frontier,
            width,
            rows: Vec::new(),
        };

        // Chunk `c`'s cached rows end at or before its input rows do when
        // `width <= p`, and every later chunk's input lies past that, so
        // the rows can overwrite the inputs already consumed.
        let mut data = x.into_vec();
        let mut spare = (width > p).then(|| vec![0.0; n_rows * width]);
        let last = prefix.frontier.last().map_or(0, |&(id, _)| id.index());
        for start in (0..n_rows).step_by(chunk) {
            let batch = chunk.min(n_rows - start);
            let input = &data[start * p..(start + batch) * p];
            self.run_planned(ws, Source::Fill(input, &prefix, last), batch, keys);
            let out = match &mut spare {
                Some(rows) => &mut rows[start * width..(start + batch) * width],
                None => &mut data[start * width..(start + batch) * width],
            };
            for &(id, off) in &prefix.frontier {
                let w = nodes[id.index()].out_size;
                for (r, src) in ws.value(id).as_slice().chunks_exact(w).enumerate() {
                    out[r * width + off..r * width + off + w].copy_from_slice(src);
                }
            }
        }
        prefix.rows = spare.unwrap_or_else(|| {
            data.truncate(n_rows * width);
            data.shrink_to_fit();
            data
        });
        prefix
    }

    /// Planned forward pass of the rows `rows` of a [`FrozenPrefix`]:
    /// frontier nodes are copied in from the cache, the frozen nodes below
    /// them are skipped, and every other node is computed as in
    /// [`Graph::forward_into`] — bit-identically, for the same keys.
    ///
    /// A following keys-only [`Graph::backward_into`] stops at the
    /// frontier: it yields the same gradients for every free slot as the
    /// full pass, and no parameter gradients at or below the frontier.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range.
    pub fn forward_prefixed_into(
        &self,
        ws: &mut Workspace,
        prefix: &FrozenPrefix,
        rows: &[usize],
        keys: &KeyAssignment,
    ) {
        self.run_planned(ws, Source::Prefix(prefix, rows), rows.len(), keys)
    }
}
