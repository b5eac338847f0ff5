//! Constrained hash rules: Grid and PDS (§5.2.3).
//!
//! Constrained strategies hash edges but restrict placement to the
//! intersection of per-vertex *constraint sets* `S(v)`, which caps the
//! replication factor of `v` at `|S(v)|`. Both are stateless: their per-edge
//! functions below are two of the seven rules `HashRule` serves to batch
//! ingress and to serving alike.
//!
//! * **Grid** arranges machines in a matrix; `S(v)` is the row+column of the
//!   machine `v` hashes to, giving a `2*sqrt(N) - 1` replication bound.
//!   PowerGraph requires a perfect-square machine count; we always run the
//!   §9.1 resilient form, which rounds up to the next square and maps
//!   assignments back down modulo `N` — on a square count that is
//!   PowerGraph's placement exactly.
//! * **PDS** derives `S(v)` from a perfect difference set modulo
//!   `N = p² + p + 1` (p prime), giving `|S(v)| = p + 1 ≈ sqrt(N)` with the
//!   projective-plane property that any two constraint sets intersect in
//!   *exactly one* machine. It runs on 7, 13, 31, 57 or 133 machines
//!   (`pds_order`).

use gp_core::{hash_canonical_edge, hash_vertex, Edge, PartitionId};

/// Grid's per-edge assignment — shared by the batch path and the incremental
/// (serving) path. `side` and `virtual_n` must come from the same partition
/// count: `side = ceil(sqrt(p))`, `virtual_n = side²`.
pub(crate) fn grid_edge(e: Edge, seed: u64, p: u32, side: u64, virtual_n: u64) -> PartitionId {
    let mu = hash_vertex(e.src, seed) % virtual_n;
    let mv = hash_vertex(e.dst, seed) % virtual_n;
    let h = hash_canonical_edge(e.src, e.dst, seed ^ 0x6161);
    PartitionId((grid_pick(mu, mv, side, h) % p as u64) as u32)
}

/// The `h`-th cell (modulo the intersection's size) of `S(mu) ∩ S(mv)` in
/// ascending cell-index order, where `S(m)` is the row plus the column of
/// cell `m` in a `side × side` grid. The intersection has a closed form in
/// each of the four ways two cells can relate, so no set is ever built.
#[inline]
fn grid_pick(mu: u64, mv: u64, side: u64, h: u64) -> u64 {
    let (r1, c1) = (mu / side, mu % side);
    let (r2, c2) = (mv / side, mv % side);
    match (r1 == r2, c1 == c2) {
        // The two opposite corners of the rectangle the cells span.
        (false, false) => {
            let (a, b) = (r1 * side + c2, r2 * side + c1);
            if h.is_multiple_of(2) {
                a.min(b)
            } else {
                a.max(b)
            }
        }
        // Shared row: each column crosses it inside the row itself.
        (true, false) => r1 * side + h % side,
        // Shared column, likewise.
        (false, true) => (h % side) * side + c1,
        // Same cell: its whole cross. Ascending order is the column cells
        // above the row, the row, then the column cells below it.
        (true, true) => {
            let k = h % (2 * side - 1);
            if k < r1 {
                k * side + c1
            } else if k < r1 + side {
                r1 * side + (k - r1)
            } else {
                (k - side + 1) * side + c1
            }
        }
    }
}

/// What [`pds_edge`] needs of one PDS order: the sorted difference set and,
/// for every non-zero residue `r`, the unique member `d_i` with
/// `d_i − d_j ≡ r (mod n)` — the projective-plane property that makes two
/// distinct constraint sets meet in exactly one machine.
pub(crate) struct PdsTable {
    n: u32,
    /// Ascending, as [`difference_set`] builds it.
    ds: Vec<u32>,
    /// `first[r] = d_i`; slot 0 is unused.
    first: Vec<u32>,
}

impl PdsTable {
    /// The table for `n` machines; panics unless [`pds_order`] accepts `n`.
    pub(crate) fn new(n: u32) -> Self {
        let p = pds_order(n).unwrap_or_else(|| {
            panic!(
                "PDS requires p^2+p+1 machines for a prime p <= 11 (7, 13, 31, 57 or 133), got {n}"
            )
        });
        let ds = difference_set(p).expect("difference set exists for prime order");
        debug_assert!(ds.is_sorted());
        let mut first = vec![0u32; n as usize];
        for &di in &ds {
            for &dj in &ds {
                first[((di + n - dj) % n) as usize] = di;
            }
        }
        PdsTable { n, ds, first }
    }
}

/// PDS's per-edge assignment — shared by the batch and incremental paths.
pub(crate) fn pds_edge(e: Edge, seed: u64, table: &PdsTable) -> PartitionId {
    let a = (hash_vertex(e.src, seed) % table.n as u64) as u32;
    let b = (hash_vertex(e.dst, seed) % table.n as u64) as u32;
    let h = hash_canonical_edge(e.src, e.dst, seed ^ 0x9d5);
    PartitionId(pds_pick(table, a, b, h))
}

/// The `h`-th machine (modulo the intersection's size) common to the lines
/// of base residues `a` and `b`, in ascending order.
#[inline]
fn pds_pick(table: &PdsTable, a: u32, b: u32, h: u64) -> u32 {
    let (n, ds) = (table.n, &table.ds);
    if a != b {
        // a + d_i ≡ b + d_j  ⇔  d_i − d_j ≡ b − a: one solution, no choice.
        return (a + table.first[((b + n - a) % n) as usize]) % n;
    }
    // Same line: all p + 1 of its machines. The members with a + d ≥ n wrap
    // below every unwrapped one, and both runs keep the order of `ds`.
    let k = (h % ds.len() as u64) as usize;
    let unwrapped = ds.partition_point(|&d| d < n - a);
    let wrapped = ds.len() - unwrapped;
    if k < wrapped {
        a + ds[unwrapped + k] - n
    } else {
        a + ds[k - wrapped]
    }
}

/// Largest prime order `p` PDS accepts. [`difference_set`] backtracks: it
/// takes about a millisecond for `p = 7` and seconds for `p = 11`
/// (133 machines), and did not finish within a minute for `p = 13`.
const MAX_PDS_ORDER: u64 = 11;

/// The prime `p ≤ MAX_PDS_ORDER` with `n = p² + p + 1`, if there is one: PDS
/// runs on 7, 13, 31, 57 or 133 machines.
pub(crate) fn pds_order(n: u32) -> Option<u32> {
    let n = u64::from(n);
    (2..=MAX_PDS_ORDER)
        .map(|p| (p, p * p + p + 1))
        .take_while(|&(_, machines)| machines <= n)
        .find(|&(p, machines)| machines == n && is_prime(p))
        .map(|(p, _)| p as u32)
}

/// A perfect difference set of size `p + 1` modulo `p² + p + 1`, found by
/// backtracking (Singer difference sets exist for every prime `p`).
fn difference_set(p: u32) -> Option<Vec<u32>> {
    let n = p * p + p + 1;
    let k = (p + 1) as usize;
    // Normalize: 0 and 1 can always be rotated/scaled into the set.
    let mut set: Vec<u32> = vec![0, 1];
    let mut used = vec![false; n as usize];
    used[1] = true; // differences ±1 (1 and n-1 share a slot pair)
    used[(n - 1) as usize] = true;
    if backtrack(&mut set, &mut used, k, n) {
        Some(set)
    } else {
        None
    }
}

fn backtrack(set: &mut Vec<u32>, used: &mut [bool], k: usize, n: u32) -> bool {
    if set.len() == k {
        return true;
    }
    let start = set.last().copied().unwrap_or(0) + 1;
    for cand in start..n {
        // Compute differences to existing members; all must be fresh, both
        // against committed differences (`used`) and against differences
        // introduced earlier for this same candidate (`diffs`).
        let mut diffs = Vec::with_capacity(set.len() * 2);
        let mut ok = true;
        for &s in set.iter() {
            let d1 = (cand - s) % n;
            let d2 = (n - d1) % n;
            if used[d1 as usize]
                || used[d2 as usize]
                || d1 == d2
                || diffs.contains(&d1)
                || diffs.contains(&d2)
            {
                ok = false;
                break;
            }
            diffs.push(d1);
            diffs.push(d2);
        }
        if !ok {
            continue;
        }
        for &d in &diffs {
            used[d as usize] = true;
        }
        set.push(cand);
        if backtrack(set, used, k, n) {
            return true;
        }
        set.pop();
        for &d in &diffs {
            used[d as usize] = false;
        }
    }
    false
}

fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionContext, Strategy};
    use gp_core::VertexId;

    fn ctx(p: u32) -> PartitionContext {
        PartitionContext::new(p)
    }

    /// Constraint set of the machine with index `m` in a `side × side` grid:
    /// all machines in its row and column. The oracle [`grid_pick`] is
    /// tested against.
    fn grid_constraint_set(m: u64, side: u64) -> Vec<u64> {
        let (row, col) = (m / side, m % side);
        let mut set: Vec<u64> = (0..side).map(|c| row * side + c).collect();
        for r in 0..side {
            let idx = r * side + col;
            if r != row {
                set.push(idx);
            }
        }
        set.sort_unstable();
        set
    }

    /// Constraint set of a vertex hash, sorted: the oracle [`pds_edge`] is
    /// tested against.
    fn pds_constraint_set(v_hash: u64, ds: &[u32], n: u32) -> Vec<u64> {
        let base = v_hash % n as u64;
        let mut set: Vec<u64> = ds.iter().map(|&d| (base + d as u64) % n as u64).collect();
        set.sort_unstable();
        set
    }

    #[test]
    fn grid_respects_replication_bound() {
        let g = gp_gen::barabasi_albert(5_000, 8, 3);
        let p = 9u32;
        let out = Strategy::Grid.build().partition(&g, &ctx(p));
        let bound = 2 * 3 - 1;
        for v in 0..g.num_vertices() {
            let rc = out.assignment.replica_count(VertexId(v));
            assert!(rc <= bound, "v{v} has {rc} replicas, bound {bound}");
        }
    }

    #[test]
    fn resilient_grid_accepts_non_square() {
        let g = gp_gen::erdos_renyi(2_000, 20_000, 1);
        let out = Strategy::Grid.build().partition(&g, &ctx(10));
        let counts = out.assignment.edge_counts();
        assert_eq!(counts.len(), 10);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn grid_constraint_sets_intersect() {
        for side in [2u64, 3, 4, 5] {
            let n = side * side;
            for a in 0..n {
                for b in 0..n {
                    let sa = grid_constraint_set(a, side);
                    let sb = grid_constraint_set(b, side);
                    assert!(
                        sa.iter().any(|x| sb.contains(x)),
                        "no intersection for machines {a},{b} side {side}"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_constraint_set_size_is_2s_minus_1() {
        let s = grid_constraint_set(4, 3);
        assert_eq!(s.len(), 5);
        // Machine 4 = row 1, col 1 in 3x3: row {3,4,5}, col {1,4,7}.
        assert_eq!(s, vec![1, 3, 4, 5, 7]);
    }

    /// `grid_pick` as it was before the closed form: build both constraint
    /// sets, intersect, index.
    fn grid_pick_oracle(mu: u64, mv: u64, side: u64, h: u64) -> u64 {
        let su = grid_constraint_set(mu, side);
        let sv = grid_constraint_set(mv, side);
        let inter: Vec<u64> = su
            .iter()
            .copied()
            .filter(|x| sv.binary_search(x).is_ok())
            .collect();
        inter[h as usize % inter.len()]
    }

    #[test]
    fn grid_closed_form_matches_the_set_intersection() {
        for side in 1..=6u64 {
            let n = side * side;
            for mu in 0..n {
                for mv in 0..n {
                    for h in 0..4 * side {
                        assert_eq!(
                            grid_pick(mu, mv, side, h),
                            grid_pick_oracle(mu, mv, side, h),
                            "side {side}, cells {mu},{mv}, h {h}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resilient_grid_edge_matches_the_oracle_on_non_square_counts() {
        let g = gp_gen::erdos_renyi(300, 3_000, 8);
        for p in [2u32, 3, 10, 15] {
            let side = (p as f64).sqrt().ceil() as u64;
            let virtual_n = side * side;
            for seed in [0u64, 42] {
                for &e in g.edges() {
                    let mu = hash_vertex(e.src, seed) % virtual_n;
                    let mv = hash_vertex(e.dst, seed) % virtual_n;
                    let h = hash_canonical_edge(e.src, e.dst, seed ^ 0x6161);
                    let want = (grid_pick_oracle(mu, mv, side, h) % p as u64) as u32;
                    assert_eq!(
                        grid_edge(e, seed, p, side, virtual_n),
                        PartitionId(want),
                        "p {p}, seed {seed}, edge {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_rf_beats_random_on_heavy_tailed() {
        // The core Fig 5.6 observation.
        let g = gp_gen::barabasi_albert(20_000, 10, 5);
        let grid_rf = Strategy::Grid
            .build()
            .partition(&g, &ctx(16))
            .assignment
            .replication_factor();
        let rand_rf = Strategy::Random
            .build()
            .partition(&g, &ctx(16))
            .assignment
            .replication_factor();
        assert!(
            grid_rf < rand_rf,
            "grid {grid_rf} should beat random {rand_rf}"
        );
    }

    #[test]
    fn pds_order_detection() {
        assert_eq!(pds_order(7), Some(2));
        assert_eq!(pds_order(13), Some(3));
        assert_eq!(pds_order(31), Some(5));
        assert_eq!(pds_order(57), Some(7));
        assert_eq!(pds_order(133), Some(11));
        assert_eq!(pds_order(9), None);
        assert_eq!(pds_order(21), None); // 4^2+4+1 but 4 is not prime
        assert_eq!(pds_order(183), None); // p = 13: the search does not finish
                                          // p*p + p + 1 wraps to these in u32 arithmetic for p = 65537, 65539.
        assert_eq!(pds_order(196_611), None);
        assert_eq!(pds_order(458_765), None);
        assert_eq!(pds_order(u32::MAX), None);
    }

    #[test]
    fn difference_sets_are_perfect() {
        for p in [2u32, 3, 5, 7] {
            let n = p * p + p + 1;
            let ds = difference_set(p).expect("set exists");
            assert_eq!(ds.len(), (p + 1) as usize, "size for p={p}");
            // Every nonzero residue appears exactly once as a difference.
            let mut seen = vec![0u32; n as usize];
            for &a in &ds {
                for &b in &ds {
                    if a != b {
                        seen[((a + n - b) % n) as usize] += 1;
                    }
                }
            }
            assert_eq!(seen[0], 0);
            assert!(
                seen[1..].iter().all(|&c| c == 1),
                "p={p}: differences not perfect: {seen:?}"
            );
        }
    }

    #[test]
    fn pds_constraint_sets_intersect_in_exactly_one() {
        let p = 3u32;
        let n = p * p + p + 1; // 13
        let ds = difference_set(p).unwrap();
        for a in 0..n as u64 {
            for b in 0..n as u64 {
                if a == b {
                    continue;
                }
                let sa = pds_constraint_set(a, &ds, n);
                let sb = pds_constraint_set(b, &ds, n);
                let inter = sa.iter().filter(|x| sb.contains(x)).count();
                assert_eq!(inter, 1, "machines {a},{b}");
            }
        }
    }

    #[test]
    fn pds_table_matches_the_set_intersection() {
        for n in [7u32, 13, 31, 57] {
            let table = PdsTable::new(n);
            let picks = 2 * table.ds.len() as u64;
            for a in 0..n {
                for b in 0..n {
                    let sa = pds_constraint_set(a as u64, &table.ds, n);
                    let sb = pds_constraint_set(b as u64, &table.ds, n);
                    let inter: Vec<u64> = sa
                        .iter()
                        .copied()
                        .filter(|x| sb.binary_search(x).is_ok())
                        .collect();
                    for h in 0..picks {
                        assert_eq!(
                            pds_pick(&table, a, b, h) as u64,
                            inter[h as usize % inter.len()],
                            "n {n}, bases {a},{b}, h {h}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pds_partitions_within_bound() {
        let g = gp_gen::barabasi_albert(3_000, 6, 9);
        let n = 13u32; // p = 3
        let out = Strategy::Pds.build().partition(&g, &ctx(n));
        for v in 0..g.num_vertices() {
            assert!(out.assignment.replica_count(VertexId(v)) <= 4); // p+1
        }
        assert!(out.assignment.edge_counts().iter().all(|&c| c > 0));
    }

    #[test]
    #[should_panic(expected = "PDS requires")]
    fn pds_rejects_invalid_machine_counts() {
        let g = gp_gen::erdos_renyi(100, 500, 1);
        Strategy::Pds.build().partition(&g, &ctx(9));
    }

    #[test]
    fn constrained_strategies_are_deterministic() {
        let g = gp_gen::erdos_renyi(1_000, 5_000, 4);
        let a = Strategy::Grid.build().partition(&g, &ctx(9));
        let b = Strategy::Grid.build().partition(&g, &ctx(9));
        assert_eq!(
            a.assignment.edge_partitions(),
            b.assignment.edge_partitions()
        );
    }
}
