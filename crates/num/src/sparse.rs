//! Sparse matrices and sparse LU factorization.
//!
//! Circuit matrices produced by modified nodal analysis are extremely
//! sparse (a handful of nonzeros per row) and, with a sensible node
//! numbering, nearly banded. The factorization here is a straightforward
//! row-oriented Gaussian elimination with partial pivoting over sorted
//! sparse rows; combined with the reverse Cuthill–McKee ordering from
//! [`crate::ordering`] it keeps fill-in low for every circuit in this
//! workspace while staying simple enough to verify against the dense path.
//!
//! Elimination keeps the rows not yet used as pivots bucketed by their
//! leading column. Before step `k` those rows hold no column below `k`,
//! so column `k`'s bucket is exactly the set of rows holding column `k`:
//! the pivot search and the elimination sweep visit only them, instead of
//! probing all `n` rows per step. The pivot rule is the plain one: the
//! largest `|a_ik|` among rows not yet eliminated, ties going to the
//! lowest elimination position.
//!
//! [`LuWorkspace`] records each elimination it runs and replays the
//! recording on later matrices of the same pattern, for as long as every
//! pivot and every cancellation comes out the same; otherwise it runs
//! the general kernel again. Either way the bits are the kernel's.
//!
//! [`StampMap`] serves Newton loops that re-stamp the same triplet
//! sequence with new values: it sorts once, then gathers each new set of
//! values straight into the permuted, assembled matrix.

use crate::{NumError, Result};

/// A coordinate-format (triplet) builder for a square sparse matrix.
///
/// Duplicate entries are *summed* when the matrix is assembled, which is
/// exactly the semantics MNA stamping wants.
///
/// # Examples
///
/// ```
/// use mtk_num::sparse::Triplets;
///
/// let mut t = Triplets::new(2);
/// t.add(0, 0, 1.0);
/// t.add(0, 0, 1.0); // stamps accumulate
/// t.add(1, 1, 4.0);
/// let x = t.factor().unwrap().solve(&[2.0, 4.0]).unwrap();
/// assert_eq!(x, vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Triplets {
    n: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplets {
    /// Creates an empty builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Triplets {
            n,
            entries: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of raw (possibly duplicate) entries added so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`. Duplicates accumulate on assembly.
    ///
    /// Exact zeros are kept as *structural* entries: a stamp whose
    /// conductance happens to evaluate to `0.0` (e.g. a MOSFET in deep
    /// cutoff) still occupies its slot in the sparsity pattern. That
    /// keeps the assembled pattern a function of the stamp sequence
    /// alone, so a factorization's pivot order can be reused across
    /// Newton iterations whose values cross zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet index out of bounds");
        self.entries.push((row, col, value));
    }

    /// The raw `(row, col, value)` entries in the order they were added.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Removes all entries while keeping the dimension, so the allocation
    /// can be reused across Newton iterations.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Assembles into sorted, duplicate-summed sparse rows.
    ///
    /// Entries that sum to exactly zero are kept (structurally), for the
    /// same pattern-stability reason as in [`Triplets::add`].
    pub fn to_rows(&self) -> SparseRows {
        let mut out = SparseRows::empty(self.n);
        self.assemble_into(&mut out);
        out
    }

    /// [`Triplets::to_rows`] into a caller-owned [`SparseRows`], reusing
    /// its row allocations. Produces exactly the same result.
    ///
    /// # Panics
    ///
    /// Panics if `out` was built for a different dimension.
    pub fn assemble_into(&self, out: &mut SparseRows) {
        assert_eq!(out.n, self.n, "assemble_into dimension mismatch");
        for row in &mut out.rows {
            row.clear();
        }
        for &(r, c, v) in &self.entries {
            out.rows[r].push((c, v));
        }
        for row in &mut out.rows {
            sort_by_col(row);
            // Sum duplicates in place.
            let mut w = 0usize;
            for i in 0..row.len() {
                if w > 0 && row[w - 1].0 == row[i].0 {
                    row[w - 1].1 += row[i].1;
                } else {
                    row[w] = row[i];
                    w += 1;
                }
            }
            row.truncate(w);
        }
    }

    /// Assembles and factors the matrix in one step.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] when elimination hits an empty
    /// pivot column.
    pub fn factor(&self) -> Result<SparseLu> {
        self.to_rows().factor()
    }

    /// Computes `A x` without assembling, useful for residual checks.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.n];
        for &(r, c, v) in &self.entries {
            y[r] += v * x[c];
        }
        Ok(y)
    }
}

/// An assembled sparse matrix stored as sorted rows of `(col, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseRows {
    /// An all-empty (structurally zero) `n × n` matrix, useful as the
    /// reusable target of [`Triplets::assemble_into`].
    pub fn empty(n: usize) -> SparseRows {
        SparseRows {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The column pattern of each row (values discarded), for callers
    /// that cache a pivot order and must detect pattern changes.
    pub fn pattern(&self) -> Vec<Vec<usize>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(|&(c, _)| c).collect())
            .collect()
    }

    /// Whether this matrix has exactly the given column pattern.
    pub fn same_pattern(&self, pattern: &[Vec<usize>]) -> bool {
        self.n == pattern.len()
            && self.rows.iter().zip(pattern).all(|(row, cols)| {
                row.len() == cols.len() && row.iter().map(|&(c, _)| c).eq(cols.iter().copied())
            })
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Returns entry `(row, col)`, or `0.0` if it is structurally absent.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        match self.rows[row].binary_search_by_key(&col, |&(c, _)| c) {
            Ok(i) => self.rows[row][i].1,
            Err(_) => 0.0,
        }
    }

    /// The symmetric adjacency structure (union of `A` and `Aᵀ` patterns,
    /// diagonal removed), used by ordering heuristics.
    pub fn symmetric_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, _) in row {
                if c != r {
                    adj[r].push(c);
                    adj[c].push(r);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// Applies a symmetric permutation: entry `(i, j)` moves to
    /// `(pos[i], pos[j])` where `pos` is the inverse of `order`
    /// (`order[k]` = original index placed at position `k`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn permute_symmetric(&self, order: &[usize]) -> SparseRows {
        assert_eq!(order.len(), self.n, "order must have length n");
        let mut pos = vec![usize::MAX; self.n];
        for (k, &orig) in order.iter().enumerate() {
            assert!(pos[orig] == usize::MAX, "order is not a permutation");
            pos[orig] = k;
        }
        let mut out = SparseRows::empty(self.n);
        self.permute_symmetric_into(&pos, &mut out);
        out
    }

    /// [`SparseRows::permute_symmetric`] with a precomputed inverse
    /// permutation `pos` (`pos[orig] = new position`), writing into a
    /// caller-owned matrix whose row allocations are reused. Produces
    /// exactly the same result.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    pub fn permute_symmetric_into(&self, pos: &[usize], out: &mut SparseRows) {
        assert_eq!(pos.len(), self.n, "pos must have length n");
        assert_eq!(out.n, self.n, "permute_symmetric_into dimension mismatch");
        for row in &mut out.rows {
            row.clear();
        }
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, v) in row {
                out.rows[pos[r]].push((pos[c], v));
            }
        }
        for row in &mut out.rows {
            row.sort_unstable_by_key(|&(c, _)| c);
        }
    }

    /// Factors the matrix as `P A = L U` with partial pivoting over sparse
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] when a pivot column has no
    /// usable entry.
    pub fn factor(self) -> Result<SparseLu> {
        let n = self.n;
        let mut rows = self.rows;
        // l_rows[i] holds the multipliers applied to row i, as (col, factor).
        let mut l_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        // row_of[k] = which original row currently sits at elimination
        // position k (row swaps are done on this indirection).
        let mut row_of: Vec<usize> = (0..n).collect();
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        eliminate(
            &mut rows,
            &mut l_rows,
            &mut row_of,
            &mut LeadIndex::default(),
            &mut scratch,
            None,
        )?;

        // Collect U rows in elimination order.
        let mut u_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for &ri in &row_of {
            let row = std::mem::take(&mut rows[ri]);
            u_rows.push(row);
        }
        // Reindex l_rows into elimination order; each l_rows entry was
        // recorded against the original row index.
        let mut l_in_order: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for &ri in &row_of {
            l_in_order.push(std::mem::take(&mut l_rows[ri]));
        }

        Ok(SparseLu {
            n,
            u_rows,
            l_rows: l_in_order,
            row_of,
        })
    }
}

/// Sparse LU factorization produced by [`SparseRows::factor`] or
/// [`Triplets::factor`].
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Upper-triangular rows in elimination order (col >= row position).
    u_rows: Vec<Vec<(usize, f64)>>,
    /// Multipliers applied to the row now at each elimination position,
    /// in the order they were applied.
    l_rows: Vec<Vec<(usize, f64)>>,
    /// `row_of[k]` = original row index at elimination position `k`.
    row_of: Vec<usize>,
}

impl SparseLu {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros in the U factor (a fill-in metric).
    pub fn u_nnz(&self) -> usize {
        self.u_rows.iter().map(Vec::len).sum()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        let n = self.n;
        // Permute b into elimination order and forward-substitute.
        let mut y: Vec<f64> = self.row_of.iter().map(|&r| b[r]).collect();
        for i in 0..n {
            let mut s = y[i];
            for &(col, factor) in &self.l_rows[i] {
                s -= factor * y[col];
            }
            y[i] = s;
        }
        // Back-substitute through U.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let row = &self.u_rows[i];
            let mut s = y[i];
            let mut diag = 0.0;
            for &(c, v) in row {
                if c == i {
                    diag = v;
                } else if c > i {
                    s -= v * x[c];
                }
            }
            debug_assert!(diag != 0.0, "zero diagonal slipped through factor()");
            x[i] = s / diag;
        }
        Ok(x)
    }
}

/// In-place LU elimination with partial pivoting: on success `rows`
/// holds the U rows (indexed through `row_of`), `l_rows` the multipliers
/// applied to each original row in application order, and `row_of[k]`
/// the original row at elimination position `k`.
///
/// This is the single general numeric kernel behind both
/// [`SparseRows::factor`] and [`LuWorkspace::factor_solve`], so the two
/// paths are arithmetic-identical by construction. The pivot *search*
/// runs on every call. Given `rec`, it also records the run as a
/// [`Plan`] that [`replay`] can repeat (see [`LuWorkspace`]).
///
/// `row_of` must be a permutation on entry (both callers pass the
/// identity). Before step `k` no row at position >= k holds a column
/// below `k`, so the rows holding column `k` are exactly those whose
/// *first* entry is in column `k`. `index` keeps the rows bucketed by
/// that leading column, and step `k` visits only its bucket: a step
/// costs the rows holding column `k`, not `n` probes.
fn eliminate(
    rows: &mut [Vec<(usize, f64)>],
    l_rows: &mut [Vec<(usize, f64)>],
    row_of: &mut [usize],
    index: &mut LeadIndex,
    scratch: &mut Vec<(usize, f64)>,
    rec: Option<&mut Recorder>,
) -> Result<()> {
    let n = rows.len();
    index.reset(rows, row_of);
    let mut rec = rec.and_then(|r| r.begin(rows).then_some(r));
    let LeadIndex { head, next, pos_of } = index;
    for k in 0..n {
        // Find the pivot: the largest |a_ik| among rows at position >= k,
        // ties going to the lowest position (see `beats`).
        let mut pivot_pos = usize::MAX;
        let mut pivot_mag = 0.0f64;
        let mut ri = head[k];
        while ri != NONE {
            debug_assert_eq!(rows[ri][0].0, k, "row {ri} is in the wrong bucket");
            let p = pos_of[ri];
            let mag = rows[ri][0].1.abs();
            if beats(mag, p, pivot_mag, pivot_pos) {
                pivot_mag = mag;
                pivot_pos = p;
            }
            if let Some(r) = rec.as_deref_mut() {
                r.candidate(ri, p);
            }
            ri = next[ri];
        }
        if is_singular(pivot_mag, pivot_pos) {
            return Err(NumError::SingularMatrix { step: k });
        }
        if let Some(r) = rec.as_deref_mut() {
            r.pivot(pivot_pos);
        }
        row_of.swap(k, pivot_pos);
        pos_of[row_of[k]] = k;
        pos_of[row_of[pivot_pos]] = pivot_pos;
        let pivot_row_idx = row_of[k];
        let pivot_val = rows[pivot_row_idx][0].1;

        // Eliminate column k from every other row in the bucket. A row's
        // update reads only itself and the pivot row, so visiting rows in
        // bucket order rather than position order changes no bits.
        let mut ri = std::mem::replace(&mut head[k], NONE);
        while ri != NONE {
            let following = next[ri];
            if ri == pivot_row_idx {
                ri = following;
                continue;
            }
            let factor = rows[ri][0].1 / pivot_val;
            l_rows[ri].push((k, factor));
            // rows[ri] -= factor * rows[pivot]; merge the two sorted rows.
            scratch.clear();
            let (target, pivot_row) = {
                // Split borrows: pivot_row_idx != ri is guaranteed.
                let (a, b) = if pivot_row_idx < ri {
                    let (lo, hi) = rows.split_at_mut(ri);
                    (&mut hi[0], &lo[pivot_row_idx])
                } else {
                    let (lo, hi) = rows.split_at_mut(pivot_row_idx);
                    (&mut lo[ri], &hi[0])
                };
                (a, b)
            };
            let mut ti = 0usize;
            let mut pi = 0usize;
            while ti < target.len() || pi < pivot_row.len() {
                let tc = target.get(ti).map(|&(c, _)| c).unwrap_or(usize::MAX);
                let pc = pivot_row.get(pi).map(|&(c, _)| c).unwrap_or(usize::MAX);
                if tc < pc {
                    if tc > k {
                        scratch.push(target[ti]);
                        if let Some(r) = rec.as_deref_mut() {
                            r.carry(ri, ti);
                        }
                    }
                    ti += 1;
                } else if pc < tc {
                    if pc > k {
                        scratch.push((pc, -factor * pivot_row[pi].1));
                        if let Some(r) = rec.as_deref_mut() {
                            r.fill();
                        }
                    }
                    pi += 1;
                } else {
                    if tc > k {
                        let v = target[ti].1 - factor * pivot_row[pi].1;
                        let keep = kept(v);
                        if keep {
                            scratch.push((tc, v));
                        }
                        if let Some(r) = rec.as_deref_mut() {
                            r.combine(ri, ti, keep);
                        }
                    }
                    ti += 1;
                    pi += 1;
                }
            }
            replace_row(target, scratch);
            // A recording that outgrows the budget is dropped here; the
            // elimination goes on without it.
            if rec.as_deref_mut().is_some_and(|r| !r.end_update(ri)) {
                rec = None;
            }
            // Re-bucket under the new leading column. A row left empty
            // holds no column and will surface as a singular step.
            if let Some(&(lead, _)) = target.first() {
                next[ri] = head[lead];
                head[lead] = ri;
            }
            ri = following;
        }
    }
    if let Some(r) = rec {
        r.finish(rows, row_of);
    }
    Ok(())
}

/// Moves the row an update built in `scratch` into `row`. Swapping the
/// buffers is free, but it would hand a long row's buffer on to the next
/// row updated, and over an elimination every row would come to hold a
/// buffer as long as the longest. So a result much shorter than the
/// scratch buffer is copied instead, and long buffers stay with long
/// rows.
fn replace_row<T: Copy>(row: &mut Vec<T>, scratch: &mut Vec<T>) {
    if scratch.capacity() > 2 * scratch.len() + 8 {
        row.clear();
        row.extend_from_slice(scratch);
    } else {
        std::mem::swap(row, scratch);
    }
}

/// The pivot rule: whether a candidate of magnitude `mag` at elimination
/// position `pos` beats the best so far. The largest magnitude wins,
/// ties going to the lowest position — the row a strict-`>` scan in
/// position order keeps. Zero and NaN magnitudes never win.
fn beats(mag: f64, pos: usize, best_mag: f64, best_pos: usize) -> bool {
    mag > best_mag || (mag == best_mag && mag > 0.0 && pos < best_pos)
}

/// Whether the pivot search found no usable pivot: no candidate won, or
/// the winner is too small to divide by.
fn is_singular(pivot_mag: f64, pivot_pos: usize) -> bool {
    pivot_pos == usize::MAX || pivot_mag < f64::MIN_POSITIVE * 1e4
}

/// Whether an updated entry `t − factor·p` stays in its row: an exact
/// zero (either sign) is dropped, anything else, NaN included, is kept.
fn kept(v: f64) -> bool {
    v != 0.0
}

/// End of a bucket list in [`LeadIndex`].
const NONE: usize = usize::MAX;

/// Sorts one row's `(col, value)` pairs by column. Every assembly path
/// sorts through this one function: an unstable sort's permutation
/// depends only on the keys and the element type, so [`StampMap`] can
/// replay the exact order in which [`Triplets::assemble_into`] sums
/// duplicates by sorting the same `(usize, f64)` pairs with triplet
/// indices in the value bits.
fn sort_by_col(row: &mut [(usize, f64)]) {
    row.sort_unstable_by_key(|&(c, _)| c);
}

/// The rows not yet used as pivots, bucketed by leading column, as
/// intrusive singly linked lists: `eliminate` walks one bucket per step
/// instead of scanning every row. Each row sits in exactly one bucket
/// (none once it is a pivot or empty), so the index is `O(n)` whatever
/// the fill, and keeping it costs one relink per row update.
#[derive(Debug, Clone, Default)]
struct LeadIndex {
    /// `head[c]`: first row whose leading entry is in column `c`, or
    /// [`NONE`].
    head: Vec<usize>,
    /// `next[row]`: the following row in the same bucket, or [`NONE`].
    next: Vec<usize>,
    /// `pos_of[row]`: the row's current elimination position, the
    /// inverse of `row_of`.
    pos_of: Vec<usize>,
}

impl LeadIndex {
    /// Buckets `rows` (reusing the allocations) with positions taken
    /// from `row_of`.
    fn reset(&mut self, rows: &[Vec<(usize, f64)>], row_of: &[usize]) {
        let n = rows.len();
        self.head.clear();
        self.head.resize(n, NONE);
        self.next.clear();
        self.next.resize(n, NONE);
        for (ri, row) in rows.iter().enumerate() {
            if let Some(&(lead, _)) = row.first() {
                self.next[ri] = self.head[lead];
                self.head[lead] = ri;
            }
        }
        self.pos_of.clear();
        self.pos_of.resize(n, 0);
        for (p, &ri) in row_of.iter().enumerate() {
            self.pos_of[ri] = p;
        }
    }
}

/// Reusable buffers for repeated factor-and-solve calls on matrices of
/// the same (or varying) dimension — the numeric-refactor half of the
/// symbolic/numeric LU split.
///
/// A Newton loop factors a matrix with an unchanged sparsity pattern at
/// every iteration. `LuWorkspace::factor_solve` produces exactly the bits
/// of [`SparseRows::factor`] + [`SparseLu::solve`], inside recycled
/// buffers, and mostly without rerunning the general kernel:
///
/// * Each general elimination (`eliminate`) also records a *plan*: the
///   input pattern, every pivot search's candidates and winner, and every
///   row update as operations over numbered value slots, with the
///   kept/dropped outcome of each exact-zero test.
/// * A later call on the same pattern *replays* a cached plan: the same
///   operations on the same operands in the same order. It reruns each
///   pivot search over the recorded candidates and requires the recorded
///   winner to win again and to pass the singularity test, and it
///   requires every kept/dropped outcome to repeat. Those are all the
///   branches the general kernel takes on values, so a replay that
///   passes every check *is* the general kernel's run, bit for bit.
/// * On the first mismatch the replay's partial result is thrown away
///   and the next cached plan for the pattern is tried, then the general
///   kernel, which records a fresh plan.
///
/// At most four plans are kept, most recently used first, within a
/// fixed 1 MiB budget. A recording that outgrows the budget is dropped
/// as soon as it does (the elimination goes on unrecorded), so matrices
/// with heavy fill stay on the general kernel at flat memory.
///
/// ```
/// use mtk_num::sparse::{LuWorkspace, Triplets};
///
/// let mut t = Triplets::new(2);
/// t.add(0, 0, 2.0);
/// t.add(1, 1, 4.0);
/// let mut ws = LuWorkspace::new();
/// let mut x = Vec::new();
/// ws.factor_solve(&t.to_rows(), &[2.0, 8.0], &mut x).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
/// // Same pattern, new values: served by the recorded plan.
/// t.add(0, 0, 2.0);
/// ws.factor_solve(&t.to_rows(), &[2.0, 8.0], &mut x).unwrap();
/// assert_eq!(x, vec![0.5, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    rows: Vec<Vec<(usize, f64)>>,
    l_rows: Vec<Vec<(usize, f64)>>,
    row_of: Vec<usize>,
    index: LeadIndex,
    scratch: Vec<(usize, f64)>,
    y: Vec<f64>,
    /// Recorded eliminations, most recently used first.
    plans: Vec<Plan>,
    recorder: Recorder,
    /// A replay's value slots.
    vals: Vec<f64>,
    #[cfg(test)]
    stats: ReplayStats,
}

/// Most plans one [`LuWorkspace`] keeps. Newton iterations on one
/// pattern move between a few cancellation outcomes as devices cross
/// cutoff, so a handful of plans serves nearly every factorization.
const PLAN_CACHE_LEN: usize = 4;

/// Bytes the plans of one [`LuWorkspace`] may hold together. A plan
/// costs about 4 bytes per multiply-subtract of its elimination: the
/// 167-unknown ALU slice records 20–35 KB, the 8×8 multiplier's 1,125
/// unknowns about 28 MB, which stays on the general kernel.
const PLAN_BUDGET_BYTES: usize = 1 << 20;

/// How a workspace's factorizations went, for the unit tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ReplayStats {
    /// Factorizations served by a replay.
    replayed: usize,
    /// Replays of a pattern-matching plan that hit a mismatch.
    diverged: usize,
    /// Factorizations the general kernel ran.
    general: usize,
}

impl LuWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LuWorkspace::default()
    }

    /// Factors `a` and solves `A x = b` in one pass, writing the solution
    /// into `x` (resized as needed). Bitwise-identical to
    /// `a.clone().factor()?.solve(b)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `b.len() != a.n()`,
    /// and [`NumError::SingularMatrix`] when elimination hits an empty
    /// pivot column. The workspace stays reusable after either error.
    pub fn factor_solve(&mut self, a: &SparseRows, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let n = a.n;
        if b.len() != n {
            return Err(NumError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        for i in 0..self.plans.len() {
            let plan = &self.plans[i];
            if !plan.fits(a) {
                continue;
            }
            self.vals.clear();
            self.vals.extend(a.rows.iter().flatten().map(|&(_, v)| v));
            self.vals.resize(plan.slots as usize, 0.0);
            if replay(plan, &mut self.vals, b, &mut self.y) {
                plan.back_substitute(&self.vals, &self.y, x);
                self.plans[..=i].rotate_right(1);
                #[cfg(test)]
                {
                    self.stats.replayed += 1;
                }
                return Ok(());
            }
            #[cfg(test)]
            {
                self.stats.diverged += 1;
            }
        }
        #[cfg(test)]
        {
            self.stats.general += 1;
        }

        // A full cache gives up its least recently used plan now, so the
        // recording reuses its buffers instead of growing a fifth plan.
        if self.plans.len() == PLAN_CACHE_LEN {
            self.recorder.plan = self.plans.pop().expect("the cache is full");
        }

        // Copy the matrix into the recycled row buffers.
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
            self.l_rows.resize_with(n, Vec::new);
        }
        for (dst, src) in self.rows.iter_mut().zip(&a.rows) {
            dst.clear();
            dst.extend_from_slice(src);
        }
        for l in self.l_rows.iter_mut().take(n) {
            l.clear();
        }
        self.row_of.clear();
        self.row_of.extend(0..n);

        eliminate(
            &mut self.rows[..n],
            &mut self.l_rows[..n],
            &mut self.row_of,
            &mut self.index,
            &mut self.scratch,
            Some(&mut self.recorder),
        )?;
        self.keep_recorded_plan();

        // Forward-substitute b (permuted into elimination order) through L.
        self.y.clear();
        self.y.extend(self.row_of.iter().map(|&r| b[r]));
        for i in 0..n {
            let mut s = self.y[i];
            for &(col, factor) in &self.l_rows[self.row_of[i]] {
                s -= factor * self.y[col];
            }
            self.y[i] = s;
        }
        // Back-substitute through U.
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let row = &self.rows[self.row_of[i]];
            let mut s = self.y[i];
            let mut diag = 0.0;
            for &(c, v) in row {
                if c == i {
                    diag = v;
                } else if c > i {
                    s -= v * x[c];
                }
            }
            debug_assert!(diag != 0.0, "zero diagonal slipped through eliminate()");
            x[i] = s / diag;
        }
        Ok(())
    }

    /// Caches the plan the last general elimination recorded, unless it
    /// outgrew the budget, and evicts least recently used plans until
    /// the cache is back within [`PLAN_BUDGET_BYTES`]. (`factor_solve`
    /// made room for it under [`PLAN_CACHE_LEN`] before recording.)
    fn keep_recorded_plan(&mut self) {
        if !self.recorder.live {
            return;
        }
        let mut plan = std::mem::take(&mut self.recorder.plan);
        plan.shrink_to_fit();
        self.plans.insert(0, plan);
        let mut total = 0;
        let keep = self
            .plans
            .iter()
            .take_while(|p| {
                total += p.bytes();
                total <= PLAN_BUDGET_BYTES
            })
            .count();
        self.plans.truncate(keep);
    }
}

/// One recorded run of `eliminate` on one input pattern.
///
/// Values live in numbered *slots*: input entry `j` (row-major) is slot
/// `j`, and each fill entry gets the next free slot. An entry that an
/// update keeps stays in its slot, so a row update records one operation
/// per pivot-row entry right of the pivot, in column order: an in-place
/// `t − factor·p` kept as nonzero ([`OP_KEEP`]), the same dropped as an
/// exact zero ([`OP_DROP`]), or a fill `(−factor)·p` into a new slot
/// ([`OP_FILL`]). The pivot row of step `k` is final by then, so its
/// slots are U row `k`'s and the operations need not repeat them.
///
/// Step `k` updates every candidate but the winner, in candidate order,
/// so the candidates also stand for the row updates and for L: the
/// multiplier of a candidate's update is its L entry in column `k`.
#[derive(Debug, Clone, Default)]
struct Plan {
    /// The input pattern: row `r` holds columns
    /// `cols[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    cols: Vec<u32>,
    /// Value slots used: the input entries plus one per fill.
    slots: u32,
    /// One per elimination step.
    steps: Vec<Step>,
    /// Every step's pivot candidates, in the order the search visited
    /// them.
    cands: Vec<Cand>,
    /// Every row update's operations: an `OP_*` kind or'ed with a slot.
    ops: Vec<u32>,
    /// `row_of[k]`: the original row at elimination position `k`.
    row_of: Vec<u32>,
    /// U rows in elimination order, `(col, slot)`; row `k` starts at its
    /// pivot `(k, _)`.
    u_starts: Vec<u32>,
    u: Vec<(u32, u32)>,
}

/// One elimination step of a [`Plan`].
#[derive(Debug, Clone, Copy)]
struct Step {
    /// End of the step's candidates in [`Plan::cands`].
    cands_end: u32,
    /// Index of the winning candidate within the step's candidates.
    winner: u32,
}

/// One pivot candidate.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Its leading entry's slot.
    slot: u32,
    /// Its elimination position when the search ran.
    pos: u32,
    /// Its final elimination position (the original row while
    /// recording).
    dest: u32,
}

/// Plan operation kinds, in the top two bits of an operation.
const OP_KEEP: u32 = 0;
const OP_DROP: u32 = 1 << 30;
const OP_FILL: u32 = 2 << 30;
/// The slot bits of an operation.
const SLOT_MASK: u32 = (1 << 30) - 1;

impl Plan {
    /// Whether `a` has exactly the recorded input pattern.
    fn fits(&self, a: &SparseRows) -> bool {
        self.starts.len() == a.n + 1
            && a.rows.iter().zip(self.starts.windows(2)).all(|(row, w)| {
                let cols = &self.cols[w[0] as usize..w[1] as usize];
                cols.len() == row.len()
                    && cols.iter().zip(row).all(|(&c, &(rc, _))| c as usize == rc)
            })
    }

    /// Heap bytes in use.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let words = self.starts.len()
            + self.cols.len()
            + self.ops.len()
            + self.row_of.len()
            + self.u_starts.len();
        words * size_of::<u32>()
            + self.steps.len() * size_of::<Step>()
            + self.cands.len() * size_of::<Cand>()
            + self.u.len() * size_of::<(u32, u32)>()
    }

    fn shrink_to_fit(&mut self) {
        for v in [
            &mut self.starts,
            &mut self.cols,
            &mut self.ops,
            &mut self.row_of,
            &mut self.u_starts,
        ] {
            v.shrink_to_fit();
        }
        self.steps.shrink_to_fit();
        self.cands.shrink_to_fit();
        self.u.shrink_to_fit();
    }

    /// Back-substitutes `y` through the U factor a successful [`replay`]
    /// left in `vals`, with `LuWorkspace::factor_solve`'s arithmetic in
    /// its order.
    fn back_substitute(&self, vals: &[f64], y: &[f64], x: &mut Vec<f64>) {
        let n = self.row_of.len();
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let row = &self.u[self.u_starts[i] as usize..self.u_starts[i + 1] as usize];
            let mut s = y[i];
            for &(c, slot) in &row[1..] {
                s -= vals[slot as usize] * x[c as usize];
            }
            x[i] = s / vals[row[0].1 as usize];
        }
    }
}

/// Replays `plan` over `vals`, which holds the input values in their
/// slots, and forward-substitutes `b` into `y` along the way. Returns
/// false at the first pivot search or kept/dropped outcome that differs
/// from the recording, or at a winner that fails the singularity test;
/// `vals` and `y` are then garbage.
///
/// The forward substitution runs by columns: step `k` subtracts
/// `factor·y[k]` from each updated row's `y` as soon as the factor is
/// known. Each `y[i]` still receives its subtractions in increasing `k`,
/// and `y[k]` is final by step `k`, so this is the row-wise loop's
/// arithmetic in the row-wise order.
fn replay(plan: &Plan, vals: &mut [f64], b: &[f64], y: &mut Vec<f64>) -> bool {
    y.clear();
    y.extend(plan.row_of.iter().map(|&r| b[r as usize]));
    let (mut cands_at, mut ops_at) = (0, 0);
    for (k, step) in plan.steps.iter().enumerate() {
        let cands = &plan.cands[cands_at..step.cands_end as usize];
        cands_at = step.cands_end as usize;
        let (mut pivot_mag, mut pivot_pos, mut winner) = (0.0f64, usize::MAX, usize::MAX);
        for (i, c) in cands.iter().enumerate() {
            let mag = vals[c.slot as usize].abs();
            if beats(mag, c.pos as usize, pivot_mag, pivot_pos) {
                pivot_mag = mag;
                pivot_pos = c.pos as usize;
                winner = i;
            }
        }
        if winner != step.winner as usize || is_singular(pivot_mag, pivot_pos) {
            return false;
        }
        let pivot_val = vals[cands[winner].slot as usize];
        let pivot_row = &plan.u[plan.u_starts[k] as usize + 1..plan.u_starts[k + 1] as usize];
        let y_k = y[k];
        for (i, c) in cands.iter().enumerate() {
            if i == winner {
                continue;
            }
            let factor = vals[c.slot as usize] / pivot_val;
            y[c.dest as usize] -= factor * y_k;
            let ops = &plan.ops[ops_at..ops_at + pivot_row.len()];
            ops_at += pivot_row.len();
            for (&op, &(_, p)) in ops.iter().zip(pivot_row) {
                let p = vals[p as usize];
                let slot = (op & SLOT_MASK) as usize;
                if op & !SLOT_MASK == OP_FILL {
                    vals[slot] = -factor * p;
                } else {
                    let v = vals[slot] - factor * p;
                    if kept(v) != (op & !SLOT_MASK == OP_KEEP) {
                        return false;
                    }
                    vals[slot] = v;
                }
            }
        }
    }
    true
}

/// Builds a [`Plan`] while `eliminate` runs: it mirrors every row with
/// the slots of its entries and logs each search and operation. Its
/// buffers persist across recordings.
#[derive(Debug, Clone, Default)]
struct Recorder {
    plan: Plan,
    /// `slots[row]`: the slot of each entry of the row, in step with it.
    slots: Vec<Vec<u32>>,
    /// The slots of the row an update is building.
    scratch: Vec<u32>,
    /// Whether the plan is complete and within budget so far.
    live: bool,
}

impl Recorder {
    /// Starts a plan for the input `rows`. Returns false, recording
    /// nothing, when the pattern alone outgrows the budget.
    fn begin(&mut self, rows: &[Vec<(usize, f64)>]) -> bool {
        let n = rows.len();
        let nnz: usize = rows.iter().map(Vec::len).sum();
        self.live = (n + 1 + nnz) * std::mem::size_of::<u32>() <= PLAN_BUDGET_BYTES;
        if !self.live {
            return false;
        }
        let plan = &mut self.plan;
        for v in [
            &mut plan.starts,
            &mut plan.cols,
            &mut plan.ops,
            &mut plan.row_of,
            &mut plan.u_starts,
        ] {
            v.clear();
        }
        plan.steps.clear();
        plan.cands.clear();
        plan.u.clear();
        if self.slots.len() < n {
            self.slots.resize_with(n, Vec::new);
        }
        plan.starts.push(0);
        for (row, slots) in rows.iter().zip(&mut self.slots) {
            let start = plan.cols.len() as u32;
            plan.cols.extend(row.iter().map(|&(c, _)| c as u32));
            plan.starts.push(plan.cols.len() as u32);
            slots.clear();
            slots.extend(start..plan.cols.len() as u32);
        }
        plan.slots = nnz as u32;
        self.scratch.clear();
        true
    }

    /// Row `ri`, at position `pos`, is the next pivot candidate.
    fn candidate(&mut self, ri: usize, pos: usize) {
        self.plan.cands.push(Cand {
            slot: self.slots[ri][0],
            pos: pos as u32,
            dest: ri as u32,
        });
    }

    /// The candidate at `pos` won this step's search.
    fn pivot(&mut self, pos: usize) {
        let from = self.plan.steps.last().map_or(0, |s| s.cands_end as usize);
        let winner = self.plan.cands[from..]
            .iter()
            .position(|c| c.pos as usize == pos)
            .expect("the winner is a candidate");
        self.plan.steps.push(Step {
            cands_end: self.plan.cands.len() as u32,
            winner: winner as u32,
        });
    }

    /// Entry `ti` of row `ri` moves to the updated row unchanged.
    fn carry(&mut self, ri: usize, ti: usize) {
        self.scratch.push(self.slots[ri][ti]);
    }

    /// A pivot-row entry fills a new slot of the updated row.
    fn fill(&mut self) {
        let slot = self.plan.slots;
        self.plan.slots += 1;
        self.plan.ops.push(OP_FILL | slot);
        self.scratch.push(slot);
    }

    /// Entry `ti` of row `ri` is updated in place and kept or dropped.
    fn combine(&mut self, ri: usize, ti: usize, keep: bool) {
        let slot = self.slots[ri][ti];
        self.plan
            .ops
            .push(if keep { OP_KEEP } else { OP_DROP } | slot);
        if keep {
            self.scratch.push(slot);
        }
    }

    /// Row `ri`'s update is done. Returns whether the recording is still
    /// within budget; once it is not, the plan is dropped.
    fn end_update(&mut self, ri: usize) -> bool {
        replace_row(&mut self.slots[ri], &mut self.scratch);
        self.scratch.clear();
        self.live = self.plan.bytes() <= PLAN_BUDGET_BYTES;
        self.live
    }

    /// Completes the plan with U in elimination order and each
    /// candidate's final position.
    fn finish(&mut self, rows: &[Vec<(usize, f64)>], row_of: &[usize]) {
        let plan = &mut self.plan;
        plan.row_of.extend(row_of.iter().map(|&r| r as u32));
        plan.u_starts.push(0);
        for &r in row_of {
            let u = rows[r].iter().zip(&self.slots[r]);
            plan.u.extend(u.map(|(&(c, _), &slot)| (c as u32, slot)));
            plan.u_starts.push(plan.u.len() as u32);
        }
        // The update scratch holds the inverse permutation.
        let pos_of = &mut self.scratch;
        pos_of.clear();
        pos_of.resize(row_of.len(), 0);
        for (k, &r) in row_of.iter().enumerate() {
            pos_of[r] = k as u32;
        }
        for c in &mut plan.cands {
            c.dest = pos_of[c.dest as usize];
        }
        self.live = plan.bytes() <= PLAN_BUDGET_BYTES;
    }
}

/// A cached assembly plan for one triplet `(row, col)` sequence: where
/// each triplet's value lands in the symmetrically permuted, assembled
/// matrix, and in which order duplicates are summed.
///
/// A Newton loop stamps the same `(row, col)` sequence at every
/// iteration; only the values change. [`StampMap::new`] sorts once, and
/// [`StampMap::scatter_values`] then fills the permuted matrix from the
/// values alone, in one pass. The caller knows when its sequence
/// changes; the map keeps no keys to check. The result is bitwise what
/// [`Triplets::assemble_into`] followed by
/// [`SparseRows::permute_symmetric_into`] produces: duplicates are
/// summed in the order the assembly sort leaves them, starting from the
/// first value rather than from `0.0` (so a lone `-0.0` survives), and
/// exact zeros stay structural. Summing in stamp order instead could
/// differ, because that sort is not stable.
///
/// ```
/// use mtk_num::sparse::{StampMap, Triplets};
///
/// let mut t = Triplets::new(2);
/// t.add(0, 1, 1.0);
/// t.add(1, 1, 2.0);
/// t.add(1, 1, 0.5);
/// let pos = [1, 0]; // the two unknowns trade places
/// let (map, mut perm) = StampMap::new(&t, &pos);
/// assert_eq!(perm, t.to_rows().permute_symmetric(&[1, 0]));
///
/// // The same stamps with new values: gather instead of re-sorting.
/// map.scatter_values(&[3.0, 4.0, -4.0], &mut perm);
/// let mut next = Triplets::new(2);
/// next.add(0, 1, 3.0);
/// next.add(1, 1, 4.0);
/// next.add(1, 1, -4.0);
/// assert_eq!(perm, next.to_rows().permute_symmetric(&[1, 0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StampMap {
    /// Triplet indices grouped by slot of the permuted matrix (slots in
    /// row-major order), each group in summation order.
    gather: Vec<u32>,
    /// `ends[s]`: where slot `s`'s group ends in `gather`.
    ends: Vec<u32>,
}

impl StampMap {
    /// Builds the map for `t` under the inverse permutation `pos`
    /// (`pos[orig] = new position`, a permutation of `0..n`), and returns
    /// it with the permuted, assembled matrix of `t`'s values.
    ///
    /// # Panics
    ///
    /// Panics if `pos.len() != t.n()`, or if the dimension or the number
    /// of triplets does not fit in `u32`.
    pub fn new(t: &Triplets, pos: &[usize]) -> (StampMap, SparseRows) {
        let n = t.n;
        assert_eq!(pos.len(), n, "pos must have length n");
        assert!(
            u32::try_from(n.max(t.entries.len())).is_ok(),
            "stamp map indices must fit in u32"
        );
        // Each original row's triplets, filed under its permuted row in
        // triplet order with the triplet index in the value bits: the
        // sequence `assemble_into` sorts, so the same sort replays its
        // summation order. One flat counting-sorted buffer holds them all.
        let mut starts = vec![0usize; n + 1];
        for &(r, _, _) in &t.entries {
            starts[pos[r] + 1] += 1;
        }
        for p in 0..n {
            starts[p + 1] += starts[p];
        }
        let mut cursor = starts[..n].to_vec();
        let mut flat = vec![(0usize, 0.0f64); t.entries.len()];
        for (i, &(r, c, _)) in t.entries.iter().enumerate() {
            flat[cursor[pos[r]]] = (c, f64::from_bits(i as u64));
            cursor[pos[r]] += 1;
        }
        let mut map = StampMap {
            gather: Vec::with_capacity(t.entries.len()),
            ends: Vec::new(),
        };
        let mut out = SparseRows::empty(n);
        // Per row: (permuted col, start, end) of each run of duplicates.
        let mut runs = Vec::new();
        for (p, out_row) in out.rows.iter_mut().enumerate() {
            let row = &mut flat[starts[p]..starts[p + 1]];
            sort_by_col(row);
            runs.clear();
            let mut start = 0;
            for dup in row.chunk_by(|a, b| a.0 == b.0) {
                runs.push((pos[dup[0].0], start, start + dup.len()));
                start += dup.len();
            }
            // Columns within a row are distinct, so any sort agrees with
            // `permute_symmetric_into`'s.
            runs.sort_unstable_by_key(|&(c, _, _)| c);
            for &(c, start, end) in &runs {
                let indices = row[start..end].iter().map(|&(_, i)| i.to_bits() as u32);
                map.gather.extend(indices);
                map.ends.push(map.gather.len() as u32);
                out_row.push((c, 0.0));
            }
        }
        map.fill(|i| t.entries[i].2, &mut out);
        (map, out)
    }

    /// Writes the assembled, permuted matrix of one stamp sequence's
    /// values into `out`, which must hold the pattern [`StampMap::new`]
    /// returned: `values[k]` is the value of triplet `k` of a sequence
    /// with the `(row, col)` keys the map was built for.
    ///
    /// # Panics
    ///
    /// Panics if `values` has a different length than that sequence, or
    /// `out` a different number of entries than the map has slots.
    pub fn scatter_values(&self, values: &[f64], out: &mut SparseRows) {
        assert_eq!(
            values.len(),
            self.gather.len(),
            "scatter_values on a different stamp count"
        );
        self.fill(|i| values[i], out);
    }

    /// Writes each slot's sum of `value(triplet index)` into `out`, slots
    /// in row-major order.
    fn fill(&self, value: impl Fn(usize) -> f64, out: &mut SparseRows) {
        let mut slots = self.ends.iter();
        let mut start = 0;
        for entry in out.rows.iter_mut().flatten() {
            let end = *slots.next().expect("out has more entries than the map") as usize;
            let run = &self.gather[start..end];
            let mut v = value(run[0] as usize);
            for &i in &run[1..] {
                v += value(i as usize);
            }
            entry.1 = v;
            start = end;
        }
        assert!(slots.next().is_none(), "out has fewer entries than the map");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::prng::Xoshiro256pp;

    /// Random `(row, col, value)` entries for the randomized solver
    /// checks, mirroring the old property-test strategy.
    fn random_entries(
        rng: &mut Xoshiro256pp,
        dim: usize,
        max_len: usize,
    ) -> Vec<(usize, usize, f64)> {
        let len = 1 + rng.next_index(max_len);
        (0..len)
            .map(|_| {
                (
                    rng.next_index(dim),
                    rng.next_index(dim),
                    rng.next_f64_in(-2.0, 2.0),
                )
            })
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn diagonal_solve() {
        let mut t = Triplets::new(3);
        for i in 0..3 {
            t.add(i, i, (i + 1) as f64);
        }
        let x = t.factor().unwrap().solve(&[1.0, 4.0, 9.0]).unwrap();
        assert_close(&x, &[1.0, 2.0, 3.0], 1e-14);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = Triplets::new(1);
        t.add(0, 0, 1.5);
        t.add(0, 0, 2.5);
        let rows = t.to_rows();
        assert_eq!(rows.get(0, 0), 4.0);
        assert_eq!(rows.nnz(), 1);
    }

    #[test]
    fn zero_adds_are_kept_structurally() {
        let mut t = Triplets::new(2);
        t.add(0, 1, 0.0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        let rows = t.to_rows();
        assert_eq!(rows.nnz(), 1, "exact zeros stay in the pattern");
        assert_eq!(rows.get(0, 1), 0.0);
    }

    /// Regression test for the pattern-instability bug: a conditional
    /// stamp whose conductance crosses zero (cutoff ↔ conducting) must
    /// not change the assembled sparsity pattern between Newton
    /// iterations, or a cached pivot order would silently be applied to
    /// a different structure.
    #[test]
    fn pattern_is_stable_when_a_stamp_crosses_zero() {
        let stamp = |g: f64| {
            let mut t = Triplets::new(3);
            // Fixed background stamps.
            t.add(0, 0, 1.0);
            t.add(1, 1, 2.0);
            t.add(2, 2, 3.0);
            // A device stamp between nodes 1 and 2 whose conductance is
            // re-evaluated every iteration and may be exactly 0.0. The
            // accumulated (1,1)/(2,2) diagonals also stay structurally
            // identical whether or not g cancels.
            t.add(1, 1, g);
            t.add(1, 2, -g);
            t.add(2, 1, -g);
            t.add(2, 2, g);
            t.to_rows()
        };
        let cutoff = stamp(0.0);
        let conducting = stamp(0.5);
        let pattern = conducting.pattern();
        assert!(
            cutoff.same_pattern(&pattern),
            "zero-valued stamp changed the sparsity pattern"
        );
        assert_eq!(cutoff.nnz(), conducting.nnz());
        // The zero-crossing iteration still factors and solves.
        let x = cutoff.factor().unwrap().solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_close(&x, &[1.0, 1.0, 1.0], 1e-14);
    }

    /// The reusable workspace must be *bitwise* identical to the
    /// allocate-per-call `factor()` + `solve()` path, across repeated
    /// uses and dimension changes, and stay usable after a singular
    /// matrix is rejected.
    #[test]
    fn workspace_factor_solve_matches_factor_then_solve() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A03);
        let mut ws = LuWorkspace::new();
        let mut x_ws = Vec::new();
        for _ in 0..64 {
            let n = 2 + rng.next_index(10);
            let seed_entries = random_entries(&mut rng, 12, 59);
            let mut t = Triplets::new(n);
            let mut row_abs = vec![0.0f64; n];
            for &(r, c, v) in &seed_entries {
                let (r, c) = (r % n, c % n);
                if r != c {
                    t.add(r, c, v);
                    row_abs[r] += v.abs();
                }
            }
            for (i, &ra) in row_abs.iter().enumerate().take(n) {
                t.add(i, i, ra + 1.0);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64_in(-10.0, 10.0)).collect();
            let rows = t.to_rows();
            let x_lu = rows.clone().factor().unwrap().solve(&b).unwrap();
            ws.factor_solve(&rows, &b, &mut x_ws).unwrap();
            assert_eq!(x_ws, x_lu, "workspace drifted from factor()+solve()");
        }
        // Singular rejection leaves the workspace reusable.
        let mut sing = Triplets::new(2);
        sing.add(0, 0, 1.0);
        assert!(matches!(
            ws.factor_solve(&sing.to_rows(), &[1.0, 1.0], &mut x_ws),
            Err(NumError::SingularMatrix { step: 1 })
        ));
        let mut ok = Triplets::new(2);
        ok.add(0, 0, 2.0);
        ok.add(1, 1, 2.0);
        ws.factor_solve(&ok.to_rows(), &[2.0, 4.0], &mut x_ws)
            .unwrap();
        assert_eq!(x_ws, vec![1.0, 2.0]);
    }

    #[test]
    fn pivoting_handles_zero_leading_diagonal() {
        // [[0, 1], [1, 0]] — requires a swap.
        let mut t = Triplets::new(2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        let x = t.factor().unwrap().solve(&[3.0, 7.0]).unwrap();
        assert_close(&x, &[7.0, 3.0], 1e-14);
    }

    #[test]
    fn singular_is_detected() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 1, 2.0);
        t.add(1, 0, 2.0);
        t.add(1, 1, 4.0);
        match t.factor() {
            Err(NumError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        // Column/row 1 never stamped.
        assert!(matches!(
            t.factor(),
            Err(NumError::SingularMatrix { step: 1 })
        ));
    }

    #[test]
    fn fill_in_is_handled() {
        // Arrow matrix: dense last row/col, diagonal elsewhere. Eliminating
        // in natural order creates fill in the last row.
        let n = 8;
        let mut t = Triplets::new(n);
        for i in 0..n - 1 {
            t.add(i, i, 2.0);
            t.add(i, n - 1, 1.0);
            t.add(n - 1, i, 1.0);
        }
        t.add(n - 1, n - 1, 10.0);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let b = t.mul_vec(&x_true).unwrap();
        let x = t.factor().unwrap().solve(&b).unwrap();
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn permute_symmetric_roundtrip_values() {
        let mut t = Triplets::new(3);
        t.add(0, 2, 5.0);
        t.add(1, 1, 2.0);
        t.add(2, 0, -1.0);
        let rows = t.to_rows();
        let order = vec![2, 0, 1]; // original 2 -> pos 0, 0 -> pos 1, 1 -> pos 2
        let p = rows.permute_symmetric(&order);
        assert_eq!(p.get(1, 0), 5.0); // was (0, 2)
        assert_eq!(p.get(2, 2), 2.0); // was (1, 1)
        assert_eq!(p.get(0, 1), -1.0); // was (2, 0)
    }

    #[test]
    fn symmetric_adjacency_unions_pattern() {
        let mut t = Triplets::new(3);
        t.add(0, 1, 1.0);
        t.add(2, 0, 1.0);
        let adj = t.to_rows().symmetric_adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![0]);
        assert_eq!(adj[2], vec![0]);
    }

    #[test]
    fn rhs_dimension_checked() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let lu = t.factor().unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(t.mul_vec(&[1.0, 2.0, 3.0]).is_err());
    }

    /// Sparse LU must agree with dense LU on random diagonally
    /// dominant systems (which are always nonsingular).
    #[test]
    fn sparse_matches_dense() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A01);
        for _ in 0..64 {
            let n = 2 + rng.next_index(10);
            let seed_entries = random_entries(&mut rng, 12, 59);
            let mut t = Triplets::new(n);
            let mut dense = DenseMatrix::zeros(n);
            let mut row_abs = vec![0.0f64; n];
            for &(r, c, v) in &seed_entries {
                let (r, c) = (r % n, c % n);
                if r != c {
                    t.add(r, c, v);
                    dense.add(r, c, v);
                    row_abs[r] += v.abs();
                }
            }
            for (i, &ra) in row_abs.iter().enumerate().take(n) {
                let d = ra + 1.0;
                t.add(i, i, d);
                dense.add(i, i, d);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64_in(-10.0, 10.0)).collect();
            let xs = t.factor().unwrap().solve(&b).unwrap();
            let xd = dense.factor().unwrap().solve(&b).unwrap();
            for (a, bb) in xs.iter().zip(&xd) {
                assert!((a - bb).abs() < 1e-8, "{xs:?} vs {xd:?}");
            }
        }
    }

    /// A x should reproduce b for the solved x (residual check).
    #[test]
    fn solve_residual_is_small() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A02);
        for _ in 0..64 {
            let n = 2 + rng.next_index(8);
            let seed_entries = random_entries(&mut rng, 10, 39);
            let mut t = Triplets::new(n);
            let mut row_abs = vec![0.0f64; n];
            for &(r, c, v) in &seed_entries {
                let (r, c) = (r % n, c % n);
                if r != c {
                    t.add(r, c, v);
                    row_abs[r] += v.abs();
                }
            }
            for (i, &ra) in row_abs.iter().enumerate().take(n) {
                t.add(i, i, ra + 1.0);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64_in(-5.0, 5.0)).collect();
            let x = t.factor().unwrap().solve(&b).unwrap();
            let ax = t.mul_vec(&x).unwrap();
            for (a, bb) in ax.iter().zip(&b) {
                assert!((a - bb).abs() < 1e-8);
            }
        }
    }

    /// The elimination kernel before the leading-column buckets: the
    /// pivot search and the elimination sweep probe every row at position
    /// >= k. Kept as the oracle `eliminate` must match bit for bit.
    fn eliminate_dense_scan(
        n: usize,
        rows: &mut [Vec<(usize, f64)>],
        l_rows: &mut [Vec<(usize, f64)>],
        row_of: &mut [usize],
        scratch: &mut Vec<(usize, f64)>,
    ) -> Result<()> {
        for k in 0..n {
            let mut pivot_pos = usize::MAX;
            let mut pivot_mag = 0.0f64;
            for (p, &ri) in row_of.iter().enumerate().skip(k) {
                if let Ok(idx) = rows[ri].binary_search_by_key(&k, |&(c, _)| c) {
                    let mag = rows[ri][idx].1.abs();
                    if mag > pivot_mag {
                        pivot_mag = mag;
                        pivot_pos = p;
                    }
                }
            }
            if pivot_pos == usize::MAX || pivot_mag < f64::MIN_POSITIVE * 1e4 {
                return Err(NumError::SingularMatrix { step: k });
            }
            row_of.swap(k, pivot_pos);
            let pivot_row_idx = row_of[k];
            let pivot_val = {
                let row = &rows[pivot_row_idx];
                let idx = row.binary_search_by_key(&k, |&(c, _)| c).unwrap();
                row[idx].1
            };
            for &ri in row_of.iter().skip(k + 1) {
                let idx = match rows[ri].binary_search_by_key(&k, |&(c, _)| c) {
                    Ok(i) => i,
                    Err(_) => continue,
                };
                let factor = rows[ri][idx].1 / pivot_val;
                l_rows[ri].push((k, factor));
                scratch.clear();
                let (target, pivot_row) = if pivot_row_idx < ri {
                    let (lo, hi) = rows.split_at_mut(ri);
                    (&mut hi[0], &lo[pivot_row_idx])
                } else {
                    let (lo, hi) = rows.split_at_mut(pivot_row_idx);
                    (&mut lo[ri], &hi[0])
                };
                let mut ti = 0usize;
                let mut pi = 0usize;
                while ti < target.len() || pi < pivot_row.len() {
                    let tc = target.get(ti).map(|&(c, _)| c).unwrap_or(usize::MAX);
                    let pc = pivot_row.get(pi).map(|&(c, _)| c).unwrap_or(usize::MAX);
                    if tc < pc {
                        if tc > k {
                            scratch.push(target[ti]);
                        }
                        ti += 1;
                    } else if pc < tc {
                        if pc > k {
                            scratch.push((pc, -factor * pivot_row[pi].1));
                        }
                        pi += 1;
                    } else {
                        if tc > k {
                            let v = target[ti].1 - factor * pivot_row[pi].1;
                            if v != 0.0 {
                                scratch.push((tc, v));
                            }
                        }
                        ti += 1;
                        pi += 1;
                    }
                }
                std::mem::swap(target, scratch);
            }
        }
        Ok(())
    }

    /// `a` factored by the oracle, as a `SparseLu` built the way
    /// `SparseRows::factor` builds one.
    fn oracle_factor(a: &SparseRows) -> Result<SparseLu> {
        let n = a.n;
        let mut rows = a.rows.clone();
        let mut l_rows = vec![Vec::new(); n];
        let mut row_of: Vec<usize> = (0..n).collect();
        eliminate_dense_scan(n, &mut rows, &mut l_rows, &mut row_of, &mut Vec::new())?;
        Ok(SparseLu {
            n,
            u_rows: row_of
                .iter()
                .map(|&r| std::mem::take(&mut rows[r]))
                .collect(),
            l_rows: row_of
                .iter()
                .map(|&r| std::mem::take(&mut l_rows[r]))
                .collect(),
            row_of,
        })
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    type RowBits = Vec<Vec<(usize, u64)>>;

    fn rows_bits(rows: &[Vec<(usize, f64)>]) -> RowBits {
        rows.iter()
            .map(|r| r.iter().map(|&(c, v)| (c, v.to_bits())).collect())
            .collect()
    }

    fn factor_bits(lu: &SparseLu) -> (RowBits, RowBits, &[usize]) {
        (rows_bits(&lu.u_rows), rows_bits(&lu.l_rows), &lu.row_of)
    }

    fn triplets(n: usize, entries: &[(usize, usize, f64)]) -> Triplets {
        let mut t = Triplets::new(n);
        for &(r, c, v) in entries {
            t.add(r, c, v);
        }
        t
    }

    /// Checks both production paths against the oracle on `f64::to_bits`:
    /// the solution, the factors and `u_nnz`, or the `SingularMatrix`
    /// step. Returns whether the matrix factored.
    fn assert_matches_oracle(ws: &mut LuWorkspace, a: &SparseRows, b: &[f64], label: &str) -> bool {
        let mut x_ws = Vec::new();
        let ws_result = ws.factor_solve(a, b, &mut x_ws);
        let lu_result = a.clone().factor();
        match oracle_factor(a) {
            Ok(want) => {
                let x_want = want.solve(b).unwrap();
                let lu = lu_result.unwrap_or_else(|e| panic!("{label}: factor() failed: {e}"));
                assert_eq!(factor_bits(&lu), factor_bits(&want), "{label}: factors");
                assert_eq!(lu.u_nnz(), want.u_nnz(), "{label}: u_nnz");
                assert_eq!(bits(&lu.solve(b).unwrap()), bits(&x_want), "{label}: x");
                ws_result.unwrap_or_else(|e| panic!("{label}: factor_solve failed: {e}"));
                assert_eq!(bits(&x_ws), bits(&x_want), "{label}: workspace x");
                true
            }
            Err(want) => {
                assert_eq!(lu_result.unwrap_err(), want, "{label}: factor() error");
                assert_eq!(ws_result.unwrap_err(), want, "{label}: workspace error");
                false
            }
        }
    }

    /// A random `n × n` pattern with roughly `density` of the off-diagonal
    /// slots filled by `value`, assembled from triplets (so duplicates
    /// are summed exactly as in production).
    fn random_matrix(
        rng: &mut Xoshiro256pp,
        n: usize,
        density: f64,
        mut value: impl FnMut(&mut Xoshiro256pp) -> f64,
        diagonal: impl Fn(f64) -> Option<f64>,
    ) -> SparseRows {
        let mut t = Triplets::new(n);
        let mut row_abs = vec![0.0f64; n];
        for (r, sum) in row_abs.iter_mut().enumerate() {
            for c in 0..n {
                if r != c && rng.next_f64() < density {
                    let v = value(rng);
                    t.add(r, c, v);
                    *sum += v.abs();
                }
            }
        }
        for (i, &ra) in row_abs.iter().enumerate() {
            if let Some(d) = diagonal(ra) {
                t.add(i, i, d);
            }
        }
        t.to_rows()
    }

    fn random_rhs(rng: &mut Xoshiro256pp, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.next_f64_in(-10.0, 10.0)).collect()
    }

    /// Random diagonally dominant systems (always nonsingular) of up to
    /// 48 unknowns and varied density, one workspace reused across every
    /// dimension.
    #[test]
    fn indexed_elimination_matches_oracle_on_dominant_systems() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E01);
        let mut ws = LuWorkspace::new();
        for trial in 0..200 {
            let n = 1 + rng.next_index(48);
            let density = rng.next_f64_in(0.02, 0.5);
            let a = random_matrix(
                &mut rng,
                n,
                density,
                |rng| rng.next_f64_in(-2.0, 2.0),
                |ra| Some(ra + 1.0),
            );
            let b = random_rhs(&mut rng, n);
            assert!(assert_matches_oracle(
                &mut ws,
                &a,
                &b,
                &format!("trial {trial}")
            ));
        }
    }

    /// Entries from {±1, ±2} (plus the odd signed structural zero) force
    /// pivot-magnitude ties, exact cancellations, refills of cancelled
    /// slots, and numerically singular matrices.
    #[test]
    fn indexed_elimination_matches_oracle_under_ties_and_cancellation() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E02);
        let mut ws = LuWorkspace::new();
        let (mut factored, mut singular) = (0, 0);
        for trial in 0..400 {
            let n = 1 + rng.next_index(14);
            let density = rng.next_f64_in(0.1, 0.7);
            let pick = |rng: &mut Xoshiro256pp| match rng.next_index(20) {
                0 => 0.0,
                1 => -0.0,
                i => [1.0, -1.0, 2.0, -2.0][i % 4],
            };
            let with_diag = rng.next_index(4) != 0;
            let a = random_matrix(&mut rng, n, density, pick, |_| with_diag.then_some(1.0));
            let b = random_rhs(&mut rng, n);
            if assert_matches_oracle(&mut ws, &a, &b, &format!("trial {trial}")) {
                factored += 1;
            } else {
                singular += 1;
            }
        }
        assert!(
            factored > 100 && singular > 20,
            "{factored} factored, {singular} singular"
        );
    }

    /// A hand-built cancel-then-refill: step 0 cancels (1, 2) exactly, so
    /// row 1's leading column jumps from 0 to 1; step 1 (pivot row 3)
    /// refills (1, 2), and step 2 must find row 1 in column 2's bucket.
    #[test]
    fn cancelled_slot_refills_and_matches_oracle() {
        let t = triplets(
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 1.0),
                (2, 2, 1.0),
                (2, 3, 2.0),
                (3, 1, 2.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        );
        let mut ws = LuWorkspace::new();
        let b = [1.0, 2.0, 3.0, 4.0];
        assert!(assert_matches_oracle(&mut ws, &t.to_rows(), &b, "refill"));
    }

    /// Structurally singular matrices fail at the same step as the
    /// oracle: empty columns, empty rows, rows sharing a single column,
    /// and random patterns with no diagonal.
    #[test]
    fn indexed_elimination_matches_oracle_on_singular_matrices() {
        let mut ws = LuWorkspace::new();
        let fixed = [
            triplets(3, &[(0, 0, 1.0), (1, 0, 1.0), (2, 2, 1.0)]),
            triplets(3, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 1.0)]),
            triplets(4, &[(0, 3, 1.0), (1, 3, 2.0), (2, 3, -1.0), (3, 0, 1.0)]),
            triplets(2, &[(0, 0, 0.0), (1, 1, 1.0)]),
        ];
        for (i, t) in fixed.iter().enumerate() {
            let b = vec![1.0; t.n()];
            let label = format!("fixed {i}");
            assert!(
                !assert_matches_oracle(&mut ws, &t.to_rows(), &b, &label),
                "{label}"
            );
        }
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E03);
        let mut singular = 0;
        for trial in 0..200 {
            let n = 2 + rng.next_index(12);
            let a = random_matrix(
                &mut rng,
                n,
                0.15,
                |rng| rng.next_f64_in(-2.0, 2.0),
                |_| None,
            );
            let b = random_rhs(&mut rng, n);
            singular += usize::from(!assert_matches_oracle(
                &mut ws,
                &a,
                &b,
                &format!("trial {trial}"),
            ));
        }
        assert!(singular > 50, "only {singular} singular trials");
    }

    /// One workspace across growing and shrinking dimensions, with a
    /// singular matrix in between, stays bit-identical to the oracle.
    #[test]
    fn workspace_reuse_across_dimensions_matches_oracle() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E04);
        let mut ws = LuWorkspace::new();
        for (i, &n) in [30usize, 3, 17, 1, 64, 2, 40, 40, 5].iter().enumerate() {
            let a = random_matrix(
                &mut rng,
                n,
                0.2,
                |rng| rng.next_f64_in(-2.0, 2.0),
                |ra| Some(ra + 0.5),
            );
            let b = random_rhs(&mut rng, n);
            assert!(assert_matches_oracle(
                &mut ws,
                &a,
                &b,
                &format!("size {n} #{i}")
            ));
            let mut sing = Triplets::new(n + 1);
            sing.add(0, 0, 1.0);
            assert!(!assert_matches_oracle(
                &mut ws,
                &sing.to_rows(),
                &vec![1.0; n + 1],
                "singular"
            ));
        }
    }

    /// A fixed random pattern of up to `n × n` distinct slots: each
    /// diagonal slot unless `with_diag` is false, and roughly `density`
    /// of the off-diagonal ones.
    fn random_pattern(
        rng: &mut Xoshiro256pp,
        n: usize,
        density: f64,
        with_diag: bool,
    ) -> Vec<(usize, usize)> {
        let mut keys = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if (r == c && with_diag) || (r != c && rng.next_f64() < density) {
                    keys.push((r, c));
                }
            }
        }
        keys
    }

    /// The value generators of the replay tests, by name.
    const GENERATORS: [&str; 3] = ["dominant", "ties", "zeros"];

    /// `keys` with fresh values from generator `gen` (see [`GENERATORS`]):
    /// diagonally dominant; ties, cancellations and refills from
    /// {±0, ±1, ±2}; or uniform values of which about a third are exact
    /// zeros. Every call assembles to the same pattern.
    fn pattern_values(
        rng: &mut Xoshiro256pp,
        n: usize,
        keys: &[(usize, usize)],
        gen: usize,
    ) -> SparseRows {
        let mut t = Triplets::new(n);
        let mut row_abs = vec![0.0f64; n];
        let mut diag = Vec::new();
        for &(r, c) in keys {
            let v = match gen {
                0 => rng.next_f64_in(-2.0, 2.0),
                1 => match rng.next_index(10) {
                    0 => 0.0,
                    1 => -0.0,
                    i => [1.0, -1.0, 2.0, -2.0][i % 4],
                },
                _ => match rng.next_index(3) {
                    0 => 0.0,
                    _ => rng.next_f64_in(-2.0, 2.0),
                },
            };
            if gen == 0 && r == c {
                diag.push(r);
                continue;
            }
            row_abs[r] += v.abs();
            t.add(r, c, v);
        }
        for r in diag {
            t.add(r, r, row_abs[r] + 1.0);
        }
        t.to_rows()
    }

    /// Recorded eliminations replayed on fresh values of the same pattern
    /// stay bit-identical to the oracle: one workspace across patterns of
    /// 1 to 24 unknowns, each refactored with values from every
    /// generator, so plans replay, diverge, get evicted and re-recorded.
    #[test]
    fn replayed_elimination_matches_oracle_on_repeated_patterns() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E05);
        let mut ws = LuWorkspace::new();
        let mut singular = 0;
        for trial in 0..150 {
            let n = 1 + rng.next_index(24);
            let density = rng.next_f64_in(0.05, 0.5);
            let with_diag = rng.next_index(5) != 0;
            let keys = random_pattern(&mut rng, n, density, with_diag);
            for call in 0..12 {
                let gen = if call < 4 { 0 } else { rng.next_index(3) };
                let a = pattern_values(&mut rng, n, &keys, gen);
                let b = random_rhs(&mut rng, n);
                let label = format!("trial {trial} call {call} ({})", GENERATORS[gen]);
                singular += usize::from(!assert_matches_oracle(&mut ws, &a, &b, &label));
                assert!(ws.plans.len() <= PLAN_CACHE_LEN);
                let bytes: usize = ws.plans.iter().map(Plan::bytes).sum();
                assert!(bytes <= PLAN_BUDGET_BYTES, "{label}: {bytes} plan bytes");
            }
        }
        let stats = ws.stats;
        assert!(
            stats.replayed > 300 && stats.diverged > 300 && stats.general > 300 && singular > 20,
            "{stats:?}, {singular} singular"
        );
    }

    /// A singular matrix on a cached pattern fails at the oracle's step
    /// (the replay diverges, the general kernel reports it), and the
    /// plan still serves the nonsingular matrix after it.
    #[test]
    fn singular_matrix_on_a_cached_pattern_falls_back_and_the_plan_survives() {
        let full: Vec<_> = (0..3).flat_map(|r| (0..3).map(move |c| (r, c))).collect();
        let with = |v: [f64; 9]| {
            let entries: Vec<_> = full.iter().zip(v).map(|(&(r, c), v)| (r, c, v)).collect();
            triplets(3, &entries).to_rows()
        };
        let good = with([4.0, 1.0, 0.5, 1.0, 3.0, 1.0, 0.5, 1.0, 5.0]);
        let rank_two = with([4.0, 1.0, 0.5, 8.0, 2.0, 1.0, 0.5, 1.0, 5.0]);
        let b = [1.0, 2.0, 3.0];
        let mut ws = LuWorkspace::new();
        assert!(assert_matches_oracle(&mut ws, &good, &b, "record"));
        assert!(!assert_matches_oracle(&mut ws, &rank_two, &b, "singular"));
        let scaled = with([5.0, 1.0, 0.5, 1.0, 3.5, 1.0, 0.5, 1.0, 6.0]);
        assert!(assert_matches_oracle(&mut ws, &scaled, &b, "after"));
        assert_eq!(
            ws.stats,
            ReplayStats {
                replayed: 1,
                diverged: 1,
                general: 2,
            }
        );
        assert_eq!(ws.plans.len(), 1);
    }

    /// A pivot tie the recording did not have goes to the lowest
    /// position, as in the general kernel, although the search visits
    /// row 1 first: the replay then disagrees with the recorded winner
    /// (row 1) and falls back. The tie's own plan serves the next tie,
    /// and the first plan the last call.
    #[test]
    fn replayed_pivot_tie_goes_to_the_lowest_position() {
        let with = |a10: f64| triplets(2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, a10), (1, 1, 3.0)]);
        let mut ws = LuWorkspace::new();
        let b = [1.0, 2.0];
        for (a10, label) in [
            (4.0, "row 1 wins"),
            (2.0, "tie"),
            (-2.0, "signed tie"),
            (4.0, "row 1 again"),
        ] {
            assert!(assert_matches_oracle(
                &mut ws,
                &with(a10).to_rows(),
                &b,
                label
            ));
        }
        assert_eq!(
            ws.stats,
            ReplayStats {
                replayed: 2,
                diverged: 2,
                general: 2,
            }
        );
    }

    /// A plan over the budget is dropped while it is being recorded: the
    /// matrix still factors bit-identically, nothing is cached, and the
    /// next call on its pattern runs the general kernel again.
    #[test]
    fn plan_over_the_budget_is_not_cached() {
        let n = 100;
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E06);
        let keys = random_pattern(&mut rng, n, 1.0, true);
        let mut ws = LuWorkspace::new();
        for call in 0..2 {
            let a = pattern_values(&mut rng, n, &keys, 0);
            let b = random_rhs(&mut rng, n);
            assert!(assert_matches_oracle(&mut ws, &a, &b, "dense"));
            assert!(ws.plans.is_empty() && !ws.recorder.live, "call {call}");
            let recorded = ws.recorder.plan.bytes();
            assert!(
                recorded <= PLAN_BUDGET_BYTES + 16 * n,
                "recording ran on to {recorded} bytes"
            );
        }
        assert_eq!(ws.stats.general, 2);
        // The same workspace still records and replays small patterns.
        let small = random_pattern(&mut rng, 6, 0.4, true);
        let a = pattern_values(&mut rng, 6, &small, 0);
        for call in 0..2 {
            let b = random_rhs(&mut rng, 6);
            assert!(assert_matches_oracle(
                &mut ws,
                &a,
                &b,
                &format!("small {call}")
            ));
        }
        assert_eq!((ws.stats.general, ws.stats.replayed), (3, 1));
        // A pattern that alone outgrows the budget is not recorded at
        // all (too large for the quadratic oracle: checked on factor()).
        let n = 150_000;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.add(i, i, 2.0 + i as f64);
        }
        let a = t.to_rows();
        let b = vec![1.0; n];
        let mut x = Vec::new();
        ws.factor_solve(&a, &b, &mut x).unwrap();
        let want = a.clone().factor().unwrap().solve(&b).unwrap();
        assert_eq!(bits(&x), bits(&want));
        assert!(!ws.recorder.live && ws.plans.iter().all(|p| !p.fits(&a)));
    }

    /// `StampMap` reproduces `assemble_into` + `permute_symmetric_into` on
    /// `to_bits` for random stamp sequences with heavy duplication and
    /// signed zeros, both when built and when gathering new values.
    #[test]
    fn stamp_map_matches_assemble_then_permute() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x57A3);
        for trial in 0..100 {
            let n = 1 + rng.next_index(30);
            let mut keys: Vec<(usize, usize)> = (0..rng.next_index(8 * n) + 1)
                .map(|_| (rng.next_index(n), rng.next_index(n)))
                .collect();
            // A rail row that every device stamps: long enough that the
            // unstable sort reorders duplicates, so the summation order
            // must be replayed, not assumed stable.
            let rail = rng.next_index(n);
            for _ in 0..rng.next_index(80) {
                keys.push((rail, rng.next_index(n.min(3))));
            }
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.next_index(i + 1));
            }
            let mut pos = vec![0; n];
            for (k, &o) in order.iter().enumerate() {
                pos[o] = k;
            }
            let stamp = |rng: &mut Xoshiro256pp| {
                let mut t = Triplets::new(n);
                for &(r, c) in &keys {
                    let v = match rng.next_index(6) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.next_f64_in(-1e3, 1e3),
                    };
                    t.add(r, c, v);
                }
                t
            };
            let first = stamp(&mut rng);
            let (map, mut perm) = StampMap::new(&first, &pos);
            let want = first.to_rows().permute_symmetric(&order);
            let build = rows_bits(&perm.rows);
            assert_eq!(build, rows_bits(&want.rows), "trial {trial}: build");
            for _ in 0..3 {
                let next = stamp(&mut rng);
                let values: Vec<f64> = next.entries().iter().map(|e| e.2).collect();
                map.scatter_values(&values, &mut perm);
                let want = next.to_rows().permute_symmetric(&order);
                let scattered = rows_bits(&perm.rows);
                assert_eq!(scattered, rows_bits(&want.rows), "trial {trial}: scatter");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different stamp count")]
    fn scatter_values_rejects_a_different_stamp_count() {
        let mut t = Triplets::new(1);
        t.add(0, 0, 1.0);
        let (map, mut perm) = StampMap::new(&t, &[0]);
        map.scatter_values(&[1.0, 2.0], &mut perm);
    }

    #[test]
    fn lone_negative_zero_survives_the_stamp_map() {
        let mut t = Triplets::new(1);
        t.add(0, 0, -0.0);
        let (_, perm) = StampMap::new(&t, &[0]);
        assert_eq!(perm.get(0, 0).to_bits(), (-0.0f64).to_bits());
    }
}
