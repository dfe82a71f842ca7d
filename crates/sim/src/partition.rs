//! Component → shard partitioning for the parallel engine.
//!
//! The parallel engine ([`crate::parallel`]) assigns every component to
//! exactly one worker shard. Correctness only needs the *co-location*
//! invariant: components that exchange zero-lookahead messages (a host and
//! its own NIC, a NIC and its receive port) must share a shard, because
//! only cross-fabric messages carry the link latency that funds the
//! conservative lookahead window. Both cluster backends lay components out
//! as `[hosts 0..n][NICs n..2n]`, so "everything belonging to node `j`"
//! is simply every component id congruent to `j` mod `n` — and nodes are
//! then split into `shards` contiguous, balanced ranges.
//!
//! Contiguous ranges (rather than round-robin) keep each shard's dissemination
//! peers — which are `rank ± 2^k` — partially local at the low rounds, which
//! slightly reduces cross-shard mail volume.
//!
//! Two refinements close the profiler loop (see `DESIGN.md`, "Performance
//! II"):
//!
//! * [`LatencyMatrix`] — the per-*pair* minimum cross-shard message latency.
//!   The engine's conservative window used to be funded by one global
//!   minimum; with the matrix each shard gets its own granted window end
//!   `W(j) = min over i≠j of (EAT(i) + L(i, j))`, where the
//!   earliest-activation time `EAT(i) = min over m of (next_m + dist(m, i))`
//!   bounds wake-up relay chains through the shortest-path closure
//!   ([`LatencyMatrix::closure`]) — so a pair of far-apart shards stops
//!   re-synchronizing at the worst-case (nearest-pair) rate, and a
//!   momentarily idle shard still constrains the peers that could wake it
//!   (see `crate::parallel` for the derivation).
//! * [`PartitionSel`] / [`ShardMap::balanced_by_weight`] — profile-guided
//!   partitioning: per-node busy-time weights (measured by a prior
//!   `engine-prof` run) are split into contiguous ranges minimizing the
//!   bottleneck shard load, then cut positions slide (within the bottleneck
//!   bound) to the cheapest measured cross-traffic boundaries.

use crate::engine::ComponentId;
use crate::time::SimTime;
use std::sync::Arc;

/// A complete component → shard assignment.
#[derive(Clone, Debug)]
pub struct ShardMap {
    table: Vec<u32>,
    shards: u32,
}

/// Shard of node `node` when `nodes` nodes are split into `shards`
/// balanced contiguous ranges: `node * shards / nodes`.
#[inline]
pub fn node_shard(node: usize, nodes: usize, shards: usize) -> u32 {
    debug_assert!(node < nodes);
    ((node as u64 * shards as u64) / nodes as u64) as u32
}

impl ShardMap {
    /// Build a map for `components` component slots over `nodes` nodes,
    /// with `node_of` giving each component's owning node. Nodes are split
    /// into `shards` balanced contiguous ranges; `shards` is clamped to
    /// `[1, nodes]`.
    pub fn by_node(
        components: usize,
        nodes: usize,
        shards: usize,
        node_of: impl Fn(usize) -> usize,
    ) -> ShardMap {
        assert!(nodes > 0, "a cluster needs at least one node");
        let shards = shards.clamp(1, nodes);
        let table = (0..components)
            .map(|c| node_shard(node_of(c), nodes, shards))
            .collect();
        ShardMap {
            table,
            shards: shards as u32,
        }
    }

    /// The trivial single-shard map (every component on shard 0).
    pub fn single(components: usize) -> ShardMap {
        ShardMap {
            table: vec![0; components],
            shards: 1,
        }
    }

    /// Number of shards this map distributes over.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Shard owning component `id`.
    #[inline]
    pub fn shard_of(&self, id: ComponentId) -> u32 {
        self.table[id.0]
    }

    /// The raw component → shard table.
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Components assigned to each shard, shard-index order. The engine
    /// self-profiler reports these next to per-shard busy times so a
    /// partition imbalance is visible at a glance.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards as usize];
        for &s in &self.table {
            sizes[s as usize] += 1;
        }
        sizes
    }

    pub(crate) fn into_table(self) -> Vec<u32> {
        self.table
    }

    /// Profile-guided partition: split `nodes` nodes into `shards`
    /// contiguous ranges minimizing the maximum per-shard weight, then
    /// slide each cut — within that bottleneck bound — to the position
    /// with the smallest boundary cost.
    ///
    /// `weights[i]` is the measured cost of profile node `i` (per-shard
    /// busy time spread over the shard's nodes); `boundary_cost[i]` is the
    /// measured cross-shard traffic a cut *before* node `i` would sever.
    /// Both are sampled onto this run's node count (`weights` from a
    /// 4096-node profile steers a 1024-node run), so a profile taken at
    /// one scale transfers to nearby scales. Empty slices mean "uniform" /
    /// "free" respectively. Zero weights are clamped to 1 so every node
    /// keeps a nonzero cost and ranges stay non-empty.
    ///
    /// The result is deterministic: same inputs, same table. `shards` is
    /// clamped to `[1, nodes]` exactly as in [`ShardMap::by_node`].
    pub fn balanced_by_weight(
        components: usize,
        nodes: usize,
        shards: usize,
        node_of: impl Fn(usize) -> usize,
        weights: &[u64],
        boundary_cost: &[u64],
    ) -> ShardMap {
        assert!(nodes > 0, "a cluster needs at least one node");
        let shards = shards.clamp(1, nodes);
        // Sample the profile-indexed vectors onto this run's nodes.
        let sample = |v: &[u64], j: usize| -> u64 {
            if v.is_empty() {
                0
            } else {
                v[j * v.len() / nodes]
            }
        };
        let w: Vec<u64> = (0..nodes).map(|j| sample(weights, j).max(1)).collect();
        // prefix[i] = total weight of nodes 0..i.
        let mut prefix = vec![0u64; nodes + 1];
        for j in 0..nodes {
            prefix[j + 1] = prefix[j] + w[j];
        }
        let range_w = |a: usize, b: usize| prefix[b] - prefix[a];
        // Binary-search the smallest bottleneck B for which a greedy split
        // needs at most `shards` ranges (each range's weight <= B). The
        // greedy range count is monotone in B, and splitting a range never
        // raises its weight, so "greedy needs <= shards ranges" is exactly
        // feasibility for an exactly-`shards` partition once every shard is
        // guaranteed a node (nodes >= shards by the clamp above).
        let feasible = |bound: u64| -> bool {
            let mut ranges = 1usize;
            let mut start = 0usize;
            for j in 0..nodes {
                if range_w(start, j + 1) > bound {
                    ranges += 1;
                    start = j;
                    if ranges > shards {
                        return false;
                    }
                }
            }
            true
        };
        let mut lo = w.iter().copied().max().unwrap_or(1);
        let mut hi = prefix[nodes];
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let bound = lo;
        // Construct the cuts: each range takes the longest prefix that fits
        // under the bound while leaving at least one node for every shard
        // still to come (the final shard takes the rest — within the bound,
        // by the feasibility of `bound` and the exchange argument).
        let mut cuts = vec![0usize; shards + 1];
        cuts[shards] = nodes;
        let mut start = 0usize;
        for (s, cut) in cuts.iter_mut().enumerate().take(shards.saturating_sub(1)) {
            *cut = start;
            let mut end = start + 1;
            while end < nodes
                && nodes - (end + 1) >= shards - (s + 1)
                && range_w(start, end + 1) <= bound
            {
                end += 1;
            }
            start = end;
        }
        if shards > 1 {
            cuts[shards - 1] = start;
        }
        debug_assert!(
            (0..shards).all(|s| range_w(cuts[s], cuts[s + 1]) <= bound),
            "greedy fill exceeded the bottleneck bound"
        );
        // Refinement: slide each cut, within the bottleneck bound, to the
        // cheapest measured boundary (every position is equally free when
        // no boundary costs were given), breaking ties toward the more
        // balanced neighbour pair and then the leftmost position. The
        // greedy fill above takes maximal prefixes, so without this pass a
        // uniform profile would end in one starved trailing range.
        // Processed left to right with the updated neighbours —
        // deterministic.
        for c in 1..shards {
            let (left, right) = (cuts[c - 1], cuts[c + 1]);
            let score = |q: usize| -> (u64, u64) {
                (
                    sample(boundary_cost, q),
                    range_w(left, q).max(range_w(q, right)),
                )
            };
            let mut best = cuts[c];
            let mut best_score = (u64::MAX, u64::MAX);
            for q in (left + 1)..right {
                if range_w(left, q) > bound || range_w(q, right) > bound {
                    continue;
                }
                let s = score(q);
                if s < best_score {
                    best = q;
                    best_score = s;
                }
            }
            cuts[c] = best;
        }
        // Node -> shard via the cut positions, then component -> shard.
        let mut node_to_shard = vec![0u32; nodes];
        for s in 0..shards {
            for slot in node_to_shard.iter_mut().take(cuts[s + 1]).skip(cuts[s]) {
                *slot = s as u32;
            }
        }
        let table = (0..components).map(|c| node_to_shard[node_of(c)]).collect();
        ShardMap {
            table,
            shards: shards as u32,
        }
    }
}

/// How a cluster builder should map components to shards.
///
/// Carried by run configs (`RunCfg` in the driver layer) and threaded into
/// the builders; `--partition profile=<path>` on the bench commands parses an
/// `engine_prof.json` into the [`PartitionSel::Weighted`] form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum PartitionSel {
    /// Balanced contiguous node ranges (the static default).
    #[default]
    Contiguous,
    /// Profile-guided: per-node weights and per-boundary cut costs from a
    /// prior profiled run (see [`ShardMap::balanced_by_weight`]).
    Weighted {
        /// Per profile-node busy-time weight.
        weights: Arc<[u64]>,
        /// Per profile-node boundary (cut-traffic) cost.
        boundary_cost: Arc<[u64]>,
    },
}

impl PartitionSel {
    /// Build the shard map this selection describes (same contract as
    /// [`ShardMap::by_node`]).
    pub fn map(
        &self,
        components: usize,
        nodes: usize,
        shards: usize,
        node_of: impl Fn(usize) -> usize,
    ) -> ShardMap {
        match self {
            PartitionSel::Contiguous => ShardMap::by_node(components, nodes, shards, node_of),
            PartitionSel::Weighted {
                weights,
                boundary_cost,
            } => ShardMap::balanced_by_weight(
                components,
                nodes,
                shards,
                node_of,
                weights,
                boundary_cost,
            ),
        }
    }
}

/// Per-pair minimum cross-shard message latency, in nanoseconds: the
/// conservative lookahead funding the parallel engine's per-shard windows.
/// `get(i, j)` must lower-bound the latency of *every* message a component
/// on shard `i` can send to a component on shard `j` — overstating it
/// breaks the byte-identity guarantee (and trips the debug deposit assert).
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    shards: usize,
    /// Flat `shards * shards`, ns. Diagonal entries are unused (intra-shard
    /// sends never cross a window boundary) and stored as `u64::MAX`.
    ns: Vec<u64>,
    /// Minimum off-diagonal entry (the old global lookahead).
    min_ns: u64,
}

impl LatencyMatrix {
    /// Every pair bounded by the same global minimum — always sound, since
    /// the scalar is a lower bound of each pair's true minimum.
    pub fn uniform(shards: usize, min: SimTime) -> Self {
        assert!(shards > 0, "a latency matrix needs at least one shard");
        assert!(!min.is_zero(), "parallel engine needs lookahead > 0");
        let mut ns = vec![min.as_ns(); shards * shards];
        for i in 0..shards {
            ns[i * shards + i] = u64::MAX;
        }
        LatencyMatrix {
            shards,
            ns,
            min_ns: min.as_ns(),
        }
    }

    /// Exact per-pair bounds: `f(i, j)` is the minimum latency of any
    /// message from shard `i` to shard `j` (`i != j`). Panics if any pair's
    /// bound is zero — a zero bound admits no parallel window between the
    /// pair.
    pub fn from_fn(shards: usize, mut f: impl FnMut(usize, usize) -> SimTime) -> Self {
        assert!(shards > 1, "per-pair bounds need at least two shards");
        let mut ns = vec![u64::MAX; shards * shards];
        let mut min_ns = u64::MAX;
        for i in 0..shards {
            for j in 0..shards {
                if i == j {
                    continue;
                }
                let v = f(i, j).as_ns();
                assert!(v > 0, "zero lookahead between shards {i} and {j}");
                ns[i * shards + j] = v;
                min_ns = min_ns.min(v);
            }
        }
        LatencyMatrix { shards, ns, min_ns }
    }

    /// Minimum latency of a message from shard `from` to shard `to`.
    #[inline]
    pub fn get(&self, from: usize, to: usize) -> u64 {
        self.ns[from * self.shards + to]
    }

    /// The smallest cross-pair bound — what the old global-window protocol
    /// used for every pair.
    pub fn min_ns(&self) -> u64 {
        self.min_ns
    }

    /// Shard count this matrix covers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// All-pairs shortest-path closure of the latency graph, flat
    /// row-major (`dist[i * shards + j]`), with a zero diagonal.
    ///
    /// `dist(i, j)` is the minimum total latency of any *relay chain* of
    /// messages from shard `i` to shard `j` — possibly via intermediate
    /// shards — and is what the parallel engine's window computation needs
    /// to bound wake-up cascades: a shard whose own queue is empty can
    /// still be activated by a message relayed through any path, no
    /// earlier than the sending shard's earliest event plus `dist`.
    pub fn closure(&self) -> Vec<u64> {
        let k = self.shards;
        let mut dist: Vec<u64> = self.ns.clone();
        for i in 0..k {
            dist[i * k + i] = 0;
        }
        for via in 0..k {
            for i in 0..k {
                let base = dist[i * k + via];
                if base == u64::MAX {
                    continue;
                }
                for j in 0..k {
                    let relayed = base.saturating_add(dist[via * k + j]);
                    if relayed < dist[i * k + j] {
                        dist[i * k + j] = relayed;
                    }
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_and_balanced() {
        let n = 10;
        let map = ShardMap::by_node(2 * n, n, 4, |c| c % n);
        // Host j and NIC j share a shard.
        for j in 0..n {
            assert_eq!(
                map.shard_of(ComponentId(j)),
                map.shard_of(ComponentId(n + j)),
                "host and NIC of node {j} split across shards"
            );
        }
        // Shards are contiguous in node order and non-decreasing.
        let shards: Vec<u32> = (0..n).map(|j| map.shard_of(ComponentId(j))).collect();
        assert!(shards.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*shards.last().unwrap(), 3);
        // Balanced: every shard owns 2 or 3 of the 10 nodes.
        for s in 0..4u32 {
            let owned = shards.iter().filter(|&&x| x == s).count();
            assert!((2..=3).contains(&owned), "shard {s} owns {owned} nodes");
        }
    }

    #[test]
    fn shard_count_is_clamped_to_nodes() {
        let map = ShardMap::by_node(4, 2, 16, |c| c % 2);
        assert_eq!(map.shards(), 2);
        let map = ShardMap::by_node(4, 2, 0, |c| c % 2);
        assert_eq!(map.shards(), 1);
        assert!(map.table().iter().all(|&s| s == 0));
    }

    #[test]
    fn single_puts_everything_on_shard_zero() {
        let map = ShardMap::single(7);
        assert_eq!(map.shards(), 1);
        assert!(map.table().iter().all(|&s| s == 0));
    }

    /// Check the structural invariants every weighted partition must hold:
    /// covers all components exactly once, contiguous non-decreasing in
    /// node order, every shard non-empty, host/NIC co-location preserved.
    fn assert_valid(map: &ShardMap, n: usize, shards: usize) {
        assert_eq!(map.shards(), shards);
        assert_eq!(map.table().len(), 2 * n);
        for j in 0..n {
            assert_eq!(
                map.shard_of(ComponentId(j)),
                map.shard_of(ComponentId(n + j)),
                "host and NIC of node {j} split across shards"
            );
        }
        let node_shards: Vec<u32> = (0..n).map(|j| map.shard_of(ComponentId(j))).collect();
        assert!(
            node_shards
                .windows(2)
                .all(|w| w[0] <= w[1] && w[1] <= w[0] + 1),
            "not contiguous: {node_shards:?}"
        );
        assert_eq!(node_shards[0], 0);
        assert_eq!(*node_shards.last().unwrap() as usize, shards - 1);
    }

    #[test]
    fn weighted_uniform_matches_balanced_contiguous_shape() {
        let n = 10;
        let map = ShardMap::balanced_by_weight(2 * n, n, 4, |c| c % n, &[], &[]);
        assert_valid(&map, n, 4);
        let sizes = map.shard_sizes();
        assert!(sizes.iter().all(|&s| s == 4 || s == 6), "{sizes:?}");
    }

    #[test]
    fn weighted_skew_shrinks_the_hot_range() {
        // Node 0 carries half the total weight: it must sit alone on its
        // shard, and the bottleneck must equal its weight.
        let n = 8;
        let weights = [70u64, 10, 10, 10, 10, 10, 10, 10];
        let map = ShardMap::balanced_by_weight(2 * n, n, 4, |c| c % n, &weights, &[]);
        assert_valid(&map, n, 4);
        let mut load = [0u64; 4];
        for (j, &w) in weights.iter().enumerate() {
            load[map.shard_of(ComponentId(j)) as usize] += w;
        }
        assert_eq!(
            map.shard_sizes()[0],
            2,
            "hot node 0 should own shard 0 alone (host + NIC)"
        );
        assert_eq!(load.iter().copied().max().unwrap(), 70, "{load:?}");
    }

    #[test]
    fn weighted_uneven_rank_ranges() {
        // 7 nodes over 3 shards: ranges must be uneven (3/2/2-ish) but
        // still contiguous and total-covering.
        let n = 7;
        let map = ShardMap::balanced_by_weight(2 * n, n, 3, |c| c % n, &[1; 7], &[]);
        assert_valid(&map, n, 3);
        assert_eq!(map.shard_sizes().iter().sum::<usize>(), 2 * n);
    }

    #[test]
    fn weighted_shards_clamped_and_single_rank_shards() {
        // shards > ranks clamps to ranks; nodes == shards pins one node
        // per shard.
        let n = 4;
        let map = ShardMap::balanced_by_weight(2 * n, n, 16, |c| c % n, &[3, 1, 4, 1], &[]);
        assert_valid(&map, n, 4);
        assert!(map.shard_sizes().iter().all(|&s| s == 2), "one node each");
    }

    #[test]
    fn boundary_cost_steers_cuts_within_the_bound() {
        // Uniform unit weights, 9 nodes over 2 shards: the bottleneck
        // bound is 5, so a cut before node 4 or node 5 both satisfy it.
        // Greedy picks 5; a free boundary before node 4 must pull the cut
        // there, but a free boundary before node 3 must NOT (ranges 3/6
        // would break the bound).
        let n = 9;
        let mut bc = [10u64; 9];
        bc[4] = 0;
        bc[3] = 0;
        let map = ShardMap::balanced_by_weight(2 * n, n, 2, |c| c % n, &[1; 9], &bc);
        assert_valid(&map, n, 2);
        assert_eq!(
            map.shard_sizes(),
            vec![8, 10],
            "cut should slide to the free in-bound boundary before node 4"
        );
    }

    #[test]
    fn weighted_partition_is_deterministic_and_rescales() {
        // Round-trip: a synthetic 16-entry profile steers an 8-node run;
        // two invocations agree byte-for-byte and cover all ranks once.
        let n = 8;
        let weights: Vec<u64> = (0..16).map(|i| 1 + (i % 5)).collect();
        let bc: Vec<u64> = (0..16).map(|i| (i * 7) % 11).collect();
        let a = ShardMap::balanced_by_weight(2 * n, n, 3, |c| c % n, &weights, &bc);
        let b = ShardMap::balanced_by_weight(2 * n, n, 3, |c| c % n, &weights, &bc);
        assert_eq!(
            a.table(),
            b.table(),
            "profile-guided map must be deterministic"
        );
        assert_valid(&a, n, 3);
        assert_eq!(
            a.table().len(),
            2 * n,
            "every component assigned exactly once"
        );
        for c in 0..2 * n {
            assert!(a.shard_of(ComponentId(c)) < 3);
        }
    }

    #[test]
    fn partition_sel_dispatches() {
        let n = 6;
        let contiguous = PartitionSel::Contiguous.map(2 * n, n, 2, |c| c % n);
        let by_node = ShardMap::by_node(2 * n, n, 2, |c| c % n);
        assert_eq!(contiguous.table(), by_node.table());
        let weighted = PartitionSel::Weighted {
            weights: vec![5, 1, 1, 1, 1, 1].into(),
            boundary_cost: Vec::new().into(),
        }
        .map(2 * n, n, 2, |c| c % n);
        assert_valid(&weighted, n, 2);
    }

    #[test]
    fn latency_matrix_uniform_and_exact() {
        let u = LatencyMatrix::uniform(3, SimTime::from_ns(450));
        assert_eq!(u.shards(), 3);
        assert_eq!(u.min_ns(), 450);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert_eq!(u.get(i, j), 450);
                }
            }
        }
        let m = LatencyMatrix::from_fn(3, |i, j| {
            SimTime::from_ns(100 + 100 * (i.abs_diff(j) as u64))
        });
        assert_eq!(m.get(0, 1), 200);
        assert_eq!(m.get(0, 2), 300);
        assert_eq!(m.min_ns(), 200);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn latency_matrix_rejects_zero() {
        LatencyMatrix::uniform(2, SimTime::ZERO);
    }

    #[test]
    fn latency_closure_takes_relay_shortcuts() {
        // Direct 0→2 costs 900 but relaying through 1 costs 200 + 200:
        // the closure must take the two-hop path, keep the cheaper direct
        // entries, and zero the diagonal.
        let m = LatencyMatrix::from_fn(3, |i, j| {
            SimTime::from_ns(if i.abs_diff(j) == 2 { 900 } else { 200 })
        });
        let d = m.closure();
        let at = |i: usize, j: usize| d[i * 3 + j];
        assert_eq!(at(0, 2), 400, "relay via shard 1 beats direct 900");
        assert_eq!(at(2, 0), 400);
        assert_eq!(at(0, 1), 200);
        for i in 0..3 {
            assert_eq!(d[i * 3 + i], 0, "diagonal is self-distance");
        }
        // Uniform matrices are already metric: closure == direct + zeros.
        let u = LatencyMatrix::uniform(3, SimTime::from_ns(450));
        let du = u.closure();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(du[i * 3 + j], if i == j { 0 } else { 450 });
            }
        }
    }

    #[test]
    fn shard_sizes_sum_to_component_count() {
        let n = 10;
        let map = ShardMap::by_node(2 * n, n, 4, |c| c % n);
        let sizes = map.shard_sizes();
        assert_eq!(sizes.len(), 4);
        assert_eq!(sizes.iter().sum::<usize>(), 2 * n);
        // Balanced contiguous split: 2 or 3 nodes (4 or 6 components) each.
        assert!(sizes.iter().all(|&s| s == 4 || s == 6), "{sizes:?}");
        assert_eq!(ShardMap::single(7).shard_sizes(), vec![7]);
    }
}
