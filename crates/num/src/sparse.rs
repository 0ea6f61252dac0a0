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
//! lowest elimination position. Each step marks the pivot row's columns
//! once, and every row update finds them in one pass over the updated
//! row, which it changes in place.
//!
//! [`LuWorkspace`] keeps the pivot order of each elimination it runs as
//! a symbolic plan and replays it on later matrices of the same pattern:
//! fast while every cancellation comes out as a cached outcome plan
//! recorded it, through one live bit per value slot when one flips, and
//! the general kernel runs again only when a pivot changes. Either way
//! the bits are the kernel's.
//!
//! [`StampMap`] serves Newton loops that re-stamp the same triplet
//! sequence with new values: it sorts once, then gathers each new set of
//! values straight into the permuted matrix's entries in flat
//! ([`CsrPattern`]) form, which is the form a plan reads.

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

    /// The column pattern of each row (values discarded).
    pub fn pattern(&self) -> Vec<Vec<usize>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(|&(c, _)| c).collect())
            .collect()
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

    /// The matrix whose pattern is `pattern` and whose entries, in
    /// row-major order, are `values`: the inverse of the flat form
    /// [`StampMap::gather`] writes and [`LuWorkspace::factor_solve_csr`]
    /// reads.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != pattern.nnz()`.
    pub fn from_csr(pattern: &CsrPattern, values: &[f64]) -> SparseRows {
        assert_eq!(values.len(), pattern.nnz(), "one value per pattern entry");
        SparseRows {
            n: pattern.n(),
            rows: pattern
                .starts
                .windows(2)
                .map(|w| {
                    let span = w[0] as usize..w[1] as usize;
                    let cols = pattern.cols[span.clone()].iter();
                    cols.zip(&values[span])
                        .map(|(&c, &v)| (c as usize, v))
                        .collect()
                })
                .collect(),
        }
    }

    /// Writes the matrix in flat form: its pattern into `pattern` and its
    /// entries, row-major, into `values`, reusing both allocations.
    fn to_csr(&self, pattern: &mut CsrPattern, values: &mut Vec<f64>) {
        assert!(
            u32::try_from(self.n.max(self.nnz())).is_ok(),
            "a flat pattern's indices must fit in u32"
        );
        pattern.starts.clear();
        pattern.cols.clear();
        values.clear();
        pattern.starts.push(0);
        for row in &self.rows {
            pattern.cols.extend(row.iter().map(|&(c, _)| c as u32));
            values.extend(row.iter().map(|&(_, v)| v));
            pattern.starts.push(pattern.cols.len() as u32);
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
        let mut rows = kernel_rows(&self.rows);
        // l_rows[i] holds the multipliers applied to row i, as (col, factor).
        let mut l_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        // row_of[k] = which original row currently sits at elimination
        // position k (row swaps are done on this indirection).
        let mut row_of: Vec<usize> = (0..n).collect();
        eliminate(&mut rows, &mut l_rows, &mut row_of, &mut Scratch::default())?;

        // U and L rows in elimination order; both were built against the
        // original row index.
        let u_rows = row_of.iter().map(|&r| std::mem::take(&mut rows[r]));
        let l_in_order = row_of.iter().map(|&r| std::mem::take(&mut l_rows[r]));
        Ok(SparseLu {
            n,
            u_rows: u_rows.collect(),
            l_rows: l_in_order.collect(),
            row_of,
        })
    }
}

/// `rows` as the general kernel's input.
fn kernel_rows(rows: &[Vec<(usize, f64)>]) -> Vec<Vec<Entry>> {
    assert!(
        u32::try_from(rows.len()).is_ok(),
        "column indices must fit in u32"
    );
    let entry = |&(col, val): &(usize, f64)| Entry {
        col: col as u32,
        val,
    };
    rows.iter()
        .map(|row| row.iter().map(entry).collect())
        .collect()
}

/// A square sparsity pattern in compressed sparse row form: row `r`
/// holds the sorted columns `cols[starts[r]..starts[r + 1]]`. Together
/// with one value per entry, in the same row-major order, it is the flat
/// form in which [`StampMap::gather`] hands a Newton iteration's matrix to
/// [`LuWorkspace::factor_solve_csr`]. Two patterns are equal when both
/// arrays are, which takes two slice compares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrPattern {
    starts: Vec<u32>,
    cols: Vec<u32>,
}

impl CsrPattern {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Number of entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Heap bytes in use.
    fn bytes(&self) -> usize {
        (self.starts.len() + self.cols.len()) * std::mem::size_of::<u32>()
    }
}

/// Sparse LU factorization produced by [`SparseRows::factor`] or
/// [`Triplets::factor`].
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Upper-triangular rows in elimination order: the pivot first, then
    /// the columns right of it in order.
    u_rows: Vec<Vec<Entry>>,
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
        let mut y: Vec<f64> = self.row_of.iter().map(|&r| b[r]).collect();
        let mut x = Vec::new();
        substitute(&mut y, &mut x, |i| &self.l_rows[i], |i| &self.u_rows[i]);
        Ok(x)
    }
}

/// Solves through the factors of a general elimination: forward through
/// L, where `y` holds `b` in elimination order on entry, then back
/// through U into `x`. `l(i)` is elimination position `i`'s multipliers
/// in application order, `u(i)` its U row with the pivot first.
///
/// This is the one substitution behind [`SparseLu::solve`] and the
/// general path of [`LuWorkspace::factor_solve_csr`]; a replay
/// substitutes with the same arithmetic in the same order.
fn substitute<'a>(
    y: &mut [f64],
    x: &mut Vec<f64>,
    l: impl Fn(usize) -> &'a [(usize, f64)],
    u: impl Fn(usize) -> &'a [Entry],
) {
    let n = y.len();
    for i in 0..n {
        let mut s = y[i];
        for &(col, factor) in l(i) {
            s -= factor * y[col];
        }
        y[i] = s;
    }
    x.clear();
    x.resize(n, 0.0);
    for i in (0..n).rev() {
        let row = u(i);
        debug_assert_eq!(row[0].col as usize, i, "U row {i} must start at its pivot");
        let mut s = y[i];
        for e in &row[1..] {
            s -= e.val * x[e.col as usize];
        }
        x[i] = s / row[0].val;
    }
}

/// One entry of a row while the general kernel eliminates.
#[derive(Debug, Clone, Copy)]
struct Entry {
    col: u32,
    val: f64,
}

/// In-place LU elimination with partial pivoting: on success `rows`
/// holds the U rows (indexed through `row_of`), `l_rows` the multipliers
/// applied to each original row in application order, and `row_of[k]`
/// the original row at elimination position `k`.
///
/// This is the single general numeric kernel behind both
/// [`SparseRows::factor`] and [`LuWorkspace::factor_solve_csr`], so the
/// two paths are arithmetic-identical by construction. The pivot
/// *search* runs on every call; [`LuWorkspace`] keeps the pivot order it
/// finds as a symbolic [`Plan`] and replays that instead while the order
/// holds.
///
/// `row_of` must be a permutation on entry (both callers pass the
/// identity), and each input row must start with its lowest column.
/// Before step `k` no row at position >= k holds a column below `k`, so
/// the rows holding column `k` are exactly those whose *leading* entry
/// is in column `k`. Every row not yet a pivot keeps that leading entry
/// first and the rest in no particular order; `scratch` keeps the rows
/// bucketed by leading column, and step `k` visits only its bucket. A
/// row is put in column order once, when it becomes the pivot row, and
/// its columns are marked so that each update finds them in one pass
/// over the updated row (see [`update_row`]).
fn eliminate(
    rows: &mut [Vec<Entry>],
    l_rows: &mut [Vec<(usize, f64)>],
    row_of: &mut [usize],
    scratch: &mut Scratch,
) -> Result<()> {
    let n = rows.len();
    scratch.reset(rows.iter().map(|row| row.first().map(|e| e.col)), row_of);
    let Scratch {
        head,
        next,
        pos_of,
        marks,
    } = scratch;
    for k in 0..n {
        // Find the pivot: the largest |a_ik| among rows at position >= k,
        // ties going to the lowest position (see `beats`).
        let mut pivot_pos = usize::MAX;
        let mut pivot_mag = 0.0f64;
        let mut ri = head[k];
        while ri != NONE {
            let lead = rows[ri][0];
            debug_assert_eq!(lead.col as usize, k, "row {ri} is in the wrong bucket");
            let p = pos_of[ri];
            let mag = lead.val.abs();
            if beats(mag, p, pivot_mag, pivot_pos) {
                pivot_mag = mag;
                pivot_pos = p;
            }
            ri = next[ri];
        }
        if is_singular(pivot_mag, pivot_pos) {
            return Err(NumError::SingularMatrix { step: k });
        }
        let pivot_row_idx = swap_positions(row_of, pos_of, k, pivot_pos);

        // The pivot row is final from here on: U row k.
        marks.mark_pivot_row(&mut rows[pivot_row_idx], |e| e.col);
        let pivot_val = rows[pivot_row_idx][0].val;

        // Eliminate column k from every other row in the bucket. A row's
        // update reads only itself and the pivot row, so visiting rows in
        // bucket order rather than position order changes no bits.
        let mut ri = std::mem::replace(&mut head[k], NONE);
        while ri != NONE {
            let following = next[ri];
            if ri != pivot_row_idx {
                let (target, pivot_row) = target_and_pivot(rows, ri, pivot_row_idx);
                let factor = target[0].val / pivot_val;
                l_rows[ri].push((k, factor));
                update_row(target, &pivot_row[1..], factor, marks);
                // Re-bucket under the new leading column. A row left empty
                // holds no column and will surface as a singular step.
                if let Some(lead) = target.first() {
                    file_row(head, next, ri, lead.col);
                }
            }
            ri = following;
        }
    }
    Ok(())
}

/// Moves the row at elimination position `pivot_pos` to position `k`,
/// trading places with the row there, and returns it.
fn swap_positions(row_of: &mut [usize], pos_of: &mut [usize], k: usize, pivot_pos: usize) -> usize {
    row_of.swap(k, pivot_pos);
    pos_of[row_of[k]] = k;
    pos_of[row_of[pivot_pos]] = pivot_pos;
    row_of[k]
}

/// Row `ri`, to be updated, and pivot row `pi`, borrowed together
/// (`ri != pi`).
fn target_and_pivot<T>(rows: &mut [T], ri: usize, pi: usize) -> (&mut T, &T) {
    if pi < ri {
        let (lo, hi) = rows.split_at_mut(ri);
        (&mut hi[0], &lo[pi])
    } else {
        let (lo, hi) = rows.split_at_mut(pi);
        (&mut lo[ri], &hi[0])
    }
}

/// `target −= factor · pivot`, in place, where `target` starts with the
/// entry being eliminated and `pivot` is the pivot row right of its
/// pivot, in column order, whose columns `marks` holds.
///
/// One pass over `target` updates each entry the pivot row also holds,
/// `t − factor·p`, kept unless it is an exact zero, and closes the gaps
/// the dropped ones leave. If the pivot row holds columns the target
/// lacks, a pass over the pivot row then appends each as a fill
/// `(−factor)·p`. These are the operations a sorted merge of the two
/// rows performs, on the same operands. Last, the lowest remaining
/// column takes the eliminated entry's place at the front.
fn update_row(target: &mut Vec<Entry>, pivot: &[Entry], factor: f64, marks: &mut Marks) {
    let update = marks.next_update();
    let Marks { mark, hit, .. } = marks;
    // The lowest column that survives, as (col, index in target).
    let mut lead = (u32::MAX, 0usize);
    // Survivors are compacted behind the entry being eliminated.
    let (mut hits, mut kept_to) = (0, 1);
    for ti in 1..target.len() {
        let mut e = target[ti];
        // A mark left over from an earlier step points at a pivot entry
        // of another column, or past the row.
        let j = mark[e.col as usize] as usize;
        if let Some(p) = pivot.get(j).filter(|p| p.col == e.col) {
            hits += 1;
            hit[j] = update;
            e.val -= factor * p.val;
            if !kept(e.val) {
                continue;
            }
        }
        if e.col < lead.0 {
            lead = (e.col, kept_to);
        }
        target[kept_to] = e;
        kept_to += 1;
    }
    target.truncate(kept_to);
    if hits < pivot.len() {
        for (j, p) in pivot.iter().enumerate() {
            if hit[j] == update {
                continue;
            }
            if p.col < lead.0 {
                lead = (p.col, target.len());
            }
            target.push(Entry {
                col: p.col,
                val: -factor * p.val,
            });
        }
    }
    replace_lead(target, lead);
}

/// Puts a row's entry at index `lead.1`, of its lowest remaining column
/// `lead.0`, in place of the eliminated leading entry, or empties the
/// row when no column remains (`lead.0 == u32::MAX`).
fn replace_lead<T>(row: &mut Vec<T>, lead: (u32, usize)) {
    if lead.0 == u32::MAX {
        row.clear();
    } else {
        row.swap(0, lead.1);
        row.swap_remove(lead.1);
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

/// End of a bucket list in [`Scratch`].
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

/// The bucket index and marks of one elimination, numeric or symbolic,
/// reused across eliminations.
///
/// The rows not yet used as pivots are bucketed by leading column, as
/// intrusive singly linked lists: a step walks one bucket instead of
/// scanning every row. Each row sits in exactly one bucket (none once it
/// is a pivot or empty), so the index is `O(n)` whatever the fill, and
/// keeping it costs one relink per row update.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `head[c]`: first row whose leading entry is in column `c`, or
    /// [`NONE`].
    head: Vec<usize>,
    /// `next[row]`: the following row in the same bucket, or [`NONE`].
    next: Vec<usize>,
    /// `pos_of[row]`: the row's current elimination position, the
    /// inverse of `row_of`.
    pos_of: Vec<usize>,
    marks: Marks,
}

/// Files row `ri` first in the bucket of column `lead`.
fn file_row(head: &mut [usize], next: &mut [usize], ri: usize, lead: u32) {
    next[ri] = head[lead as usize];
    head[lead as usize] = ri;
}

/// Where the current pivot row's columns sit, for a row update.
#[derive(Debug, Clone, Default)]
struct Marks {
    /// `mark[c]`: the index of column `c` in the current pivot row right
    /// of the pivot. Marks are never cleared; an update checks the
    /// column a mark points at.
    mark: Vec<u32>,
    /// `hit[j] == update`: the current row update found the pivot row's
    /// entry `j` in its target.
    hit: Vec<u32>,
    /// The current row update's number.
    update: u32,
}

impl Marks {
    fn reset(&mut self, n: usize) {
        self.mark.clear();
        self.mark.resize(n, 0);
        self.hit.clear();
        self.hit.resize(n, 0);
        self.update = 0;
    }

    /// Puts pivot row `row` in column order right of its pivot, once,
    /// and marks where each of those columns sits.
    fn mark_pivot_row<T>(&mut self, row: &mut [T], col: impl Fn(&T) -> u32) {
        row[1..].sort_unstable_by_key(&col);
        for (j, e) in row[1..].iter().enumerate() {
            self.mark[col(e) as usize] = j as u32;
        }
    }

    /// Numbers the next row update, never 0, so no `hit` entry holds it
    /// yet.
    fn next_update(&mut self) -> u32 {
        self.update = self.update.wrapping_add(1);
        if self.update == 0 {
            self.hit.fill(0);
            self.update = 1;
        }
        self.update
    }
}

impl Scratch {
    /// Buckets the rows whose leading columns `leads` lists (reusing the
    /// allocations), with positions taken from `row_of`.
    fn reset(&mut self, leads: impl Iterator<Item = Option<u32>>, row_of: &[usize]) {
        let n = row_of.len();
        self.head.clear();
        self.head.resize(n, NONE);
        self.next.clear();
        self.next.resize(n, NONE);
        for (ri, lead) in leads.enumerate() {
            if let Some(lead) = lead {
                file_row(&mut self.head, &mut self.next, ri, lead);
            }
        }
        self.pos_of.clear();
        self.pos_of.resize(n, 0);
        for (p, &ri) in row_of.iter().enumerate() {
            self.pos_of[ri] = p;
        }
        self.marks.reset(n);
    }
}

/// Reusable buffers for repeated factor-and-solve calls on matrices of
/// the same (or varying) dimension — the numeric-refactor half of the
/// symbolic/numeric LU split.
///
/// A Newton loop factors a matrix with an unchanged sparsity pattern at
/// every iteration. It hands the matrix over in flat form, a
/// [`CsrPattern`] and one value per entry (see [`StampMap::gather`]), to
/// [`LuWorkspace::factor_solve_csr`], which produces exactly the bits of
/// [`SparseRows::factor`] + [`SparseLu::solve`], inside recycled
/// buffers, and mostly without rerunning the general kernel. It keeps
/// two kinds of `Plan`, both lists of the general kernel's operations
/// over numbered value slots:
///
/// * A *symbolic plan* is the elimination of one pattern under one pivot
///   order with no exact-zero drops: every entry that could exist. A
///   general elimination (`eliminate`) finds a pivot order, and one
///   symbolic pass over the pattern builds its plan (see
///   `symbolic_pass`).
/// * Its *live-bit replay* keeps one live bit per value slot, which
///   reproduces the kernel's drop rule exactly (see `replay_live`).
///   It is the general kernel's run under that pivot order, bit for bit,
///   whatever cancels, and fails only when a pivot search picks another
///   winner or the winner fails the singularity test. It also writes the
///   operations it ran as an *outcome plan*, each marked kept, dropped
///   or filled.
/// * An outcome plan *replays* (see `replay`) the same operations on
///   the same operands in the same order. It reruns each pivot search
///   over the recorded candidates and requires the recorded winner to
///   win again and pass the singularity test, and it requires every
///   kept/dropped outcome to repeat. Those are all the branches the
///   general kernel takes on values, so a replay that passes every check
///   *is* the general kernel's run. It skips the dead entries and the
///   live bits, so it is the fast tier.
///
/// A call tries the cached outcome plans of its pattern, most recently
/// used first, then the live-bit replay of its symbolic plans (the
/// fallback, which caches the outcome plan it wrote), and runs
/// `eliminate` only when no symbolic plan's pivot order holds. The flat
/// values are the plans' input slots as they stand, so a plan fits by
/// two slice compares and loads by one copy.
///
/// [`LuWorkspace::factor_solve`] takes a [`SparseRows`] and runs the
/// same path on its flat copy.
///
/// At most two symbolic and four outcome plans are kept, most recently
/// used first, within one fixed 1 MiB budget. A symbolic pass that
/// outgrows the budget stops, and its pattern is remembered so later
/// general runs on it skip the pass: matrices with heavy fill stay on the
/// general kernel at flat memory.
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
/// // Same pattern, new values: served by the outcome plan.
/// t.add(0, 0, 2.0);
/// ws.factor_solve(&t.to_rows(), &[2.0, 8.0], &mut x).unwrap();
/// assert_eq!(x, vec![0.5, 2.0]);
/// let stats = ws.stats();
/// assert_eq!((stats.general, stats.replayed, stats.diverged), (1, 1, 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    rows: Vec<Vec<Entry>>,
    l_rows: Vec<Vec<(usize, f64)>>,
    row_of: Vec<usize>,
    scratch: Scratch,
    y: Vec<f64>,
    /// Outcome plans, most recently used first.
    outcomes: Vec<Plan>,
    /// Symbolic plans, most recently used first.
    symbolic: Vec<Plan>,
    /// Patterns whose symbolic pass outgrew the budget, most recent
    /// first.
    oversized: Vec<CsrPattern>,
    /// An evicted plan's buffers, for the next outcome plan.
    spare: Plan,
    /// The symbolic pass's rows, `(col, slot)`.
    pattern_rows: Vec<Vec<(u32, u32)>>,
    /// A replay's value slots.
    vals: Vec<f64>,
    /// A live-bit replay's live bits, one per slot.
    live: Vec<bool>,
    /// A live-bit replay's dropped and filled operations of one update.
    runs: [Vec<(u32, u32)>; 2],
    /// The flat copy [`LuWorkspace::factor_solve`] makes of its input.
    input: (CsrPattern, Vec<f64>),
    stats: ReplayStats,
}

/// Most outcome plans one [`LuWorkspace`] keeps. Newton iterations on
/// one pattern move between a few cancellation outcomes as devices cross
/// cutoff, so a handful of plans serves nearly every factorization.
const OUTCOME_CACHE_LEN: usize = 4;

/// Most symbolic plans one [`LuWorkspace`] keeps: one per pivot order.
const SYMBOLIC_CACHE_LEN: usize = 2;

/// Bytes the plans of one [`LuWorkspace`], of both kinds, may hold
/// together. A plan costs about 8 bytes per multiply-subtract of its
/// elimination: on the 167-unknown ALU slice a symbolic plan holds about
/// 3.5 k operations and an outcome plan 1.3 k; the 8×8 multiplier's
/// symbolic plan would hold 69 M, and its pass stops here.
const PLAN_BUDGET_BYTES: usize = 1 << 20;

/// How a [`LuWorkspace`]'s factorizations went, over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Factorizations served by the replay of an outcome plan.
    pub replayed: usize,
    /// Factorizations served by the live-bit replay of a symbolic plan,
    /// after every outcome plan of the pattern diverged.
    pub fallback: usize,
    /// Replays of a pattern-matching plan, of either kind, that hit a
    /// mismatch.
    pub diverged: usize,
    /// Factorizations the general kernel ran.
    pub general: usize,
}

impl std::ops::AddAssign for ReplayStats {
    fn add_assign(&mut self, other: ReplayStats) {
        self.replayed += other.replayed;
        self.fallback += other.fallback;
        self.diverged += other.diverged;
        self.general += other.general;
    }
}

impl LuWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LuWorkspace::default()
    }

    /// How the factorizations so far went: replayed, served by the
    /// fallback, diverged replay attempts, and general eliminations.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// Factors `a` and solves `A x = b` in one pass, writing the solution
    /// into `x` (resized as needed). Bitwise-identical to
    /// `a.clone().factor()?.solve(b)`: this is
    /// [`LuWorkspace::factor_solve_csr`] on `a`'s flat form.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `b.len() != a.n()`,
    /// and [`NumError::SingularMatrix`] when elimination hits an empty
    /// pivot column. The workspace stays reusable after either error.
    pub fn factor_solve(&mut self, a: &SparseRows, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let (mut pattern, mut values) = std::mem::take(&mut self.input);
        a.to_csr(&mut pattern, &mut values);
        let result = self.factor_solve_csr(&pattern, &values, b, x);
        self.input = (pattern, values);
        result
    }

    /// Factors the matrix with pattern `pattern` and row-major entries
    /// `values`, and solves `A x = b` into `x` (resized as needed).
    /// Bitwise-identical to factoring and solving
    /// [`SparseRows::from_csr`]`(pattern, values)`.
    ///
    /// # Errors
    ///
    /// As [`LuWorkspace::factor_solve`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != pattern.nnz()`.
    pub fn factor_solve_csr(
        &mut self,
        pattern: &CsrPattern,
        values: &[f64],
        b: &[f64],
        x: &mut Vec<f64>,
    ) -> Result<()> {
        let n = pattern.n();
        if b.len() != n {
            return Err(NumError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        assert_eq!(values.len(), pattern.nnz(), "one value per pattern entry");
        for i in 0..self.outcomes.len() {
            let plan = &self.outcomes[i];
            if plan.input != *pattern {
                continue;
            }
            load(&mut self.vals, plan.slots, values);
            if replay(plan, &mut self.vals, b, &mut self.y) {
                plan.back_substitute(&self.vals, &self.y, x);
                self.outcomes[..=i].rotate_right(1);
                self.stats.replayed += 1;
                return Ok(());
            }
            self.stats.diverged += 1;
        }
        for i in 0..self.symbolic.len() {
            if self.symbolic[i].input != *pattern {
                continue;
            }
            if self.replay_symbolic(i, values, b, x) {
                self.symbolic[..=i].rotate_right(1);
                self.stats.fallback += 1;
                return Ok(());
            }
            self.stats.diverged += 1;
        }
        self.stats.general += 1;

        // The general kernel's rows.
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
            self.l_rows.resize_with(n, Vec::new);
        }
        let spans = pattern.starts.windows(2);
        for ((row, l), w) in self.rows.iter_mut().zip(&mut self.l_rows).zip(spans) {
            let span = w[0] as usize..w[1] as usize;
            let cols = pattern.cols[span.clone()].iter();
            row.clear();
            row.extend(
                cols.zip(&values[span])
                    .map(|(&col, &val)| Entry { col, val }),
            );
            l.clear();
        }
        self.row_of.clear();
        self.row_of.extend(0..n);
        eliminate(
            &mut self.rows[..n],
            &mut self.l_rows[..n],
            &mut self.row_of,
            &mut self.scratch,
        )?;

        let (rows, l_rows, row_of) = (&self.rows, &self.l_rows, &self.row_of);
        self.y.clear();
        self.y.extend(row_of.iter().map(|&r| b[r]));
        substitute(&mut self.y, x, |i| &l_rows[row_of[i]], |i| &rows[row_of[i]]);
        self.learn(pattern, values, b, x);
        Ok(())
    }

    /// The live-bit replay of symbolic plan `i` on `values`, solving into
    /// `x`. On success the outcome plan it wrote heads the outcome cache.
    fn replay_symbolic(&mut self, i: usize, values: &[f64], b: &[f64], x: &mut Vec<f64>) -> bool {
        let sym = &self.symbolic[i];
        load(&mut self.vals, sym.slots, values);
        self.live.clear();
        self.live.resize(values.len(), true);
        self.live.resize(sym.slots as usize, false);
        let mut out = std::mem::take(&mut self.spare);
        let (vals, live, y, runs) = (&mut self.vals, &mut self.live, &mut self.y, &mut self.runs);
        if !replay_live(sym, vals, live, b, y, &mut out, runs) {
            self.spare = out;
            return false;
        }
        out.back_substitute(&self.vals, &self.y, x);
        self.outcomes.insert(0, out);
        if self.outcomes.len() > OUTCOME_CACHE_LEN {
            self.spare = self.outcomes.pop().expect("the cache is over full");
        }
        self.fit_budget();
        true
    }

    /// After a general run on `pattern`, whose pivot order `row_of` now
    /// holds and whose solution is `x`: builds that order's symbolic plan,
    /// unless the pattern alone outgrows the budget or its pass outgrew it
    /// before, and replays it once on the same `values` for the first
    /// outcome plan.
    fn learn(&mut self, pattern: &CsrPattern, values: &[f64], b: &[f64], x: &[f64]) {
        if pattern.bytes() > PLAN_BUDGET_BYTES || self.oversized.contains(pattern) {
            return;
        }
        let mut sym = Plan::default();
        let (rows, scratch) = (&mut self.pattern_rows, &mut self.scratch);
        if !symbolic_pass(pattern, &self.row_of, scratch, rows, &mut sym) {
            self.oversized.insert(0, pattern.clone());
            self.oversized.truncate(SYMBOLIC_CACHE_LEN);
            return;
        }
        self.symbolic.insert(0, sym);
        self.symbolic.truncate(SYMBOLIC_CACHE_LEN);
        self.fit_budget();
        let mut again = Vec::new();
        let replayed = self.replay_symbolic(0, values, b, &mut again);
        debug_assert!(replayed, "the live-bit replay follows its own pivot order");
        debug_assert!(
            again
                .iter()
                .map(|v| v.to_bits())
                .eq(x.iter().map(|v| v.to_bits())),
            "the live-bit replay reproduces the general kernel"
        );
    }

    /// Evicts least recently used plans, outcome plans first, until the
    /// plans of both kinds fit [`PLAN_BUDGET_BYTES`] together. (A symbolic
    /// plan alone always fits: its pass stops otherwise.)
    fn fit_budget(&mut self) {
        let mut total: usize = self
            .outcomes
            .iter()
            .chain(&self.symbolic)
            .map(Plan::bytes)
            .sum();
        while total > PLAN_BUDGET_BYTES {
            let plan = self.outcomes.pop().or_else(|| self.symbolic.pop());
            total -= plan.expect("plans hold the bytes").bytes();
        }
    }
}

/// Loads a plan's value slots: `values` into the input slots, the rest
/// (the fill slots, `slots` in all) left to the replay.
fn load(vals: &mut Vec<f64>, slots: u32, values: &[f64]) {
    vals.resize(slots as usize, 0.0);
    vals[..values.len()].copy_from_slice(values);
}

/// One elimination of one input pattern under one pivot order, as
/// operations over numbered value slots: a symbolic plan or an outcome
/// plan (see [`LuWorkspace`]).
///
/// Input entry `j` (row-major) is slot `j`; each entry the symbolic pass
/// creates takes the next free slot, and an outcome plan keeps its
/// symbolic plan's slots. Step `k` updates every candidate but the
/// winner, in candidate order, so the candidates also stand for the row
/// updates and for L: the multiplier of a candidate's update is its L
/// entry in column `k`. A row update lists one operation per pivot-row
/// entry right of the pivot that it touches, as a `(target slot, pivot
/// slot)` pair, in three runs: *keep*, an in-place `t − factor·p` that
/// stays (in a symbolic plan: whose target entry exists); *drop*, the
/// same dropped as an exact zero (none in a symbolic plan); and *fill*,
/// `(−factor)·p` into a slot its row does not hold. The pivot row of step
/// `k` is final by then, so its slots are U row `k`'s.
#[derive(Debug, Clone, Default)]
struct Plan {
    /// The input pattern.
    input: CsrPattern,
    /// Value slots used: the input entries plus one per created entry.
    slots: u32,
    /// One per elimination step.
    steps: Vec<Step>,
    /// Every step's pivot candidates, in the order the search visited
    /// them.
    cands: Vec<Cand>,
    /// One per row update, in step and candidate order.
    updates: Vec<Update>,
    /// Every row update's operations, `(target slot, pivot slot)`.
    ops: Vec<(u32, u32)>,
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
    /// Its final elimination position (the original row while the
    /// symbolic pass runs).
    dest: u32,
}

/// Where one row update's runs end in [`Plan::ops`]: keep, then drop,
/// then fill, the first starting where the previous update's fill run
/// ends.
#[derive(Debug, Clone, Copy)]
struct Update {
    keep_end: u32,
    drop_end: u32,
    fill_end: u32,
}

impl Plan {
    /// Empties the plan, keeping its buffers, for an input of pattern
    /// `input`.
    fn begin(&mut self, input: &CsrPattern) {
        self.input.clone_from(input);
        self.slots = input.nnz() as u32;
        self.steps.clear();
        self.cands.clear();
        self.updates.clear();
        self.ops.clear();
        self.row_of.clear();
        self.u_starts.clear();
        self.u.clear();
    }

    /// Heap bytes in use.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.input.bytes()
            + (self.row_of.len() + self.u_starts.len()) * size_of::<u32>()
            + self.steps.len() * size_of::<Step>()
            + self.cands.len() * size_of::<Cand>()
            + self.updates.len() * size_of::<Update>()
            + (self.ops.len() + self.u.len()) * size_of::<(u32, u32)>()
    }

    /// Back-substitutes `y` through the U factor a successful replay of
    /// this plan left in `vals`, with [`substitute`]'s arithmetic in its
    /// order.
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

/// Builds in `plan` the symbolic plan of `pattern` under the pivot order
/// `row_of` of a general elimination on it (`row_of[k]`: the original row
/// at elimination position `k`). Returns false, leaving `plan` partial,
/// once the plan outgrows [`PLAN_BUDGET_BYTES`].
///
/// This is `eliminate` on the structure alone: the same buckets,
/// position swaps and pivot-row marks, with step `k`'s pivot row taken
/// from `row_of` rather than searched for, and no entry ever dropped.
/// The live entries of the general kernel are a subset of these at every
/// step, so its pivot row holds column `k` here too. Step `k` lists
/// every row holding column `k` as a candidate, and each other
/// candidate's update lists one operation per pivot entry right of the
/// pivot: a keep on the target's entry in that column if it has one,
/// else a fill into the next free slot (see [`update_pattern`]).
fn symbolic_pass(
    pattern: &CsrPattern,
    row_of: &[usize],
    scratch: &mut Scratch,
    rows: &mut Vec<Vec<(u32, u32)>>,
    plan: &mut Plan,
) -> bool {
    let n = pattern.n();
    plan.begin(pattern);
    if rows.len() < n {
        rows.resize_with(n, Vec::new);
    }
    let rows = &mut rows[..n];
    for (row, w) in rows.iter_mut().zip(pattern.starts.windows(2)) {
        row.clear();
        row.extend((w[0]..w[1]).map(|j| (pattern.cols[j as usize], j)));
    }
    let mut positions: Vec<usize> = (0..n).collect();
    scratch.reset(rows.iter().map(|row| row.first().map(|e| e.0)), &positions);
    let Scratch {
        head,
        next,
        pos_of,
        marks,
    } = scratch;
    let mut slots = pattern.nnz() as u32;
    for (k, &pivot_row_idx) in row_of.iter().enumerate() {
        let from = plan.cands.len();
        let mut winner = None;
        let mut ri = head[k];
        while ri != NONE {
            if ri == pivot_row_idx {
                winner = Some(plan.cands.len() - from);
            }
            plan.cands.push(Cand {
                slot: rows[ri][0].1,
                pos: pos_of[ri] as u32,
                dest: ri as u32,
            });
            ri = next[ri];
        }
        let winner = winner.expect("the general kernel's pivot row holds column k");
        plan.steps.push(Step {
            cands_end: plan.cands.len() as u32,
            winner: winner as u32,
        });
        let pivot_pos = pos_of[pivot_row_idx];
        swap_positions(&mut positions, pos_of, k, pivot_pos);
        marks.mark_pivot_row(&mut rows[pivot_row_idx], |e| e.0);
        let mut ri = std::mem::replace(&mut head[k], NONE);
        while ri != NONE {
            let following = next[ri];
            if ri != pivot_row_idx {
                let (target, pivot_row) = target_and_pivot(rows, ri, pivot_row_idx);
                let keep_end =
                    update_pattern(target, &pivot_row[1..], marks, &mut slots, &mut plan.ops);
                plan.updates.push(Update {
                    keep_end,
                    drop_end: keep_end,
                    fill_end: plan.ops.len() as u32,
                });
                if plan.bytes() > PLAN_BUDGET_BYTES {
                    return false;
                }
                if let Some(lead) = target.first() {
                    file_row(head, next, ri, lead.0);
                }
            }
            ri = following;
        }
    }
    plan.slots = slots;
    plan.row_of.extend(row_of.iter().map(|&r| r as u32));
    plan.u_starts.push(0);
    for &r in row_of {
        plan.u.extend_from_slice(&rows[r]);
        plan.u_starts.push(plan.u.len() as u32);
    }
    for c in &mut plan.cands {
        c.dest = pos_of[c.dest as usize] as u32;
    }
    plan.bytes() <= PLAN_BUDGET_BYTES
}

/// [`update_row`] on the structure alone, for [`symbolic_pass`]: the
/// target row of `(col, slot)` entries takes every column of `pivot`,
/// and nothing is dropped. Appends the update's operations to `ops`,
/// keeps first, and returns where the keeps end.
fn update_pattern(
    target: &mut Vec<(u32, u32)>,
    pivot: &[(u32, u32)],
    marks: &mut Marks,
    slots: &mut u32,
    ops: &mut Vec<(u32, u32)>,
) -> u32 {
    let update = marks.next_update();
    let Marks { mark, hit, .. } = marks;
    let mut lead = (u32::MAX, 0usize);
    let mut hits = 0;
    for (ti, &(col, slot)) in target.iter().enumerate().skip(1) {
        let j = mark[col as usize] as usize;
        if let Some(p) = pivot.get(j).filter(|p| p.0 == col) {
            hits += 1;
            hit[j] = update;
            ops.push((slot, p.1));
        }
        if col < lead.0 {
            lead = (col, ti);
        }
    }
    let keep_end = ops.len() as u32;
    if hits < pivot.len() {
        for (j, &(col, p)) in pivot.iter().enumerate() {
            if hit[j] == update {
                continue;
            }
            if col < lead.0 {
                lead = (col, target.len());
            }
            target.push((col, *slots));
            ops.push((*slots, p));
            *slots += 1;
        }
    }
    replace_lead(target, lead);
    keep_end
}

/// Replays outcome plan `plan` over `vals`, which holds the input values
/// in their slots, and forward-substitutes `b` into `y` along the way.
/// Returns false at the first pivot search or row update whose outcome
/// differs from the plan's, or at a winner that fails the singularity
/// test; `vals` and `y` are then garbage. An update's kept and dropped
/// outcomes are checked together, after it.
///
/// The forward substitution runs by columns: step `k` subtracts
/// `factor·y[k]` from each updated row's `y` as soon as the factor is
/// known. Each `y[i]` still receives its subtractions in increasing `k`,
/// and `y[k]` is final by step `k`, so this is the row-wise loop's
/// arithmetic in the row-wise order.
fn replay(plan: &Plan, vals: &mut [f64], b: &[f64], y: &mut Vec<f64>) -> bool {
    y.clear();
    y.extend(plan.row_of.iter().map(|&r| b[r as usize]));
    let (mut cands_at, mut updates, mut ops_at) = (0, plan.updates.iter(), 0);
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
        let y_k = y[k];
        for (i, c) in cands.iter().enumerate() {
            if i == winner {
                continue;
            }
            let factor = vals[c.slot as usize] / pivot_val;
            y[c.dest as usize] -= factor * y_k;
            let u = updates
                .next()
                .expect("one update per candidate but the winner");
            let (keep_end, drop_end) = (u.keep_end as usize, u.drop_end as usize);
            let mut same = true;
            for &(t, p) in &plan.ops[ops_at..keep_end] {
                let v = vals[t as usize] - factor * vals[p as usize];
                vals[t as usize] = v;
                same &= kept(v);
            }
            for &(t, p) in &plan.ops[keep_end..drop_end] {
                let v = vals[t as usize] - factor * vals[p as usize];
                vals[t as usize] = v;
                same &= !kept(v);
            }
            ops_at = u.fill_end as usize;
            for &(t, p) in &plan.ops[drop_end..ops_at] {
                vals[t as usize] = -factor * vals[p as usize];
            }
            if !same {
                return false;
            }
        }
    }
    true
}

/// The live-bit replay of symbolic plan `sym` over `vals`, which holds
/// the input values in their slots, with `live[s]` set for exactly the
/// input slots. It forward-substitutes `b` into `y` as [`replay`] does
/// and writes into `out` the outcome plan of the operations it ran.
/// Returns false when a pivot search picks another winner than `sym`
/// recorded, or the winner fails the singularity test; `vals`, `live`,
/// `y` and `out` are then garbage.
///
/// The live bits are the general kernel's drop rule. After an exact-zero
/// drop the kernel treats the entry as absent, and:
///
/// 1. a candidate whose leading slot is dead does not hold column `k`
///    in the kernel: it is neither searched nor updated at that step;
/// 2. a dead pivot-row slot is no pivot-row entry: it updates nothing;
/// 3. a live pivot slot `p` updates its target `t`. A dead `t` takes the
///    fill `(−factor)·p` and becomes live; a live `t` becomes
///    `t − factor·p` and dies exactly when [`kept`] drops the result.
///
/// Input slots start live and fill slots dead, so at every step the live
/// slots are the entries the kernel's rows hold, with their values, and
/// the live candidates are its bucket. Zero magnitudes never win
/// ([`beats`]), so they either pick `sym`'s winner or the replay fails.
/// U rows are its live slots in column order. So live slots get exactly
/// the general kernel's operations, in its order.
fn replay_live(
    sym: &Plan,
    vals: &mut [f64],
    live: &mut [bool],
    b: &[f64],
    y: &mut Vec<f64>,
    out: &mut Plan,
    [drops, fills]: &mut [Vec<(u32, u32)>; 2],
) -> bool {
    out.begin(&sym.input);
    out.slots = sym.slots;
    y.clear();
    y.extend(sym.row_of.iter().map(|&r| b[r as usize]));
    let (mut cands_at, mut updates, mut ops_at) = (0, sym.updates.iter(), 0);
    for (k, step) in sym.steps.iter().enumerate() {
        let cands = &sym.cands[cands_at..step.cands_end as usize];
        cands_at = step.cands_end as usize;
        let (mut pivot_mag, mut pivot_pos, mut winner) = (0.0f64, usize::MAX, usize::MAX);
        let mut live_winner = 0;
        for (i, c) in cands.iter().enumerate() {
            if !live[c.slot as usize] {
                continue;
            }
            let mag = vals[c.slot as usize].abs();
            if beats(mag, c.pos as usize, pivot_mag, pivot_pos) {
                pivot_mag = mag;
                pivot_pos = c.pos as usize;
                winner = i;
                live_winner = out.cands.len();
            }
            out.cands.push(*c);
        }
        if winner != step.winner as usize || is_singular(pivot_mag, pivot_pos) {
            return false;
        }
        let from = out.steps.last().map_or(0, |s| s.cands_end as usize);
        out.steps.push(Step {
            cands_end: out.cands.len() as u32,
            winner: (live_winner - from) as u32,
        });
        let pivot_val = vals[cands[winner].slot as usize];
        let y_k = y[k];
        for (i, c) in cands.iter().enumerate() {
            if i == winner {
                continue;
            }
            let u = updates
                .next()
                .expect("one update per candidate but the winner");
            let ops = &sym.ops[ops_at..u.fill_end as usize];
            ops_at = u.fill_end as usize;
            if !live[c.slot as usize] {
                continue;
            }
            let factor = vals[c.slot as usize] / pivot_val;
            y[c.dest as usize] -= factor * y_k;
            drops.clear();
            fills.clear();
            for &(t, p) in ops {
                if !live[p as usize] {
                    continue;
                }
                let (ti, p_val) = (t as usize, vals[p as usize]);
                if live[ti] {
                    let v = vals[ti] - factor * p_val;
                    vals[ti] = v;
                    if kept(v) {
                        out.ops.push((t, p));
                    } else {
                        live[ti] = false;
                        drops.push((t, p));
                    }
                } else {
                    vals[ti] = -factor * p_val;
                    live[ti] = true;
                    fills.push((t, p));
                }
            }
            let keep_end = out.ops.len() as u32;
            out.ops.extend_from_slice(drops);
            let drop_end = out.ops.len() as u32;
            out.ops.extend_from_slice(fills);
            out.updates.push(Update {
                keep_end,
                drop_end,
                fill_end: out.ops.len() as u32,
            });
        }
    }
    out.row_of.extend_from_slice(&sym.row_of);
    out.u_starts.push(0);
    for w in sym.u_starts.windows(2) {
        let row = &sym.u[w[0] as usize..w[1] as usize];
        out.u
            .extend(row.iter().filter(|&&(_, slot)| live[slot as usize]));
        out.u_starts.push(out.u.len() as u32);
    }
    true
}

/// A cached assembly plan for one triplet `(row, col)` sequence: where
/// each triplet's value lands in the symmetrically permuted, assembled
/// matrix, and in which order duplicates are summed.
///
/// A Newton loop stamps the same `(row, col)` sequence at every
/// iteration; only the values change. [`StampMap::new`] sorts once and
/// keeps the permuted matrix's [`CsrPattern`]; [`StampMap::gather`] then
/// writes each iteration's entries, row-major, from the values alone, in
/// one pass. That flat form is what [`LuWorkspace::factor_solve_csr`]
/// takes. The caller knows when its sequence changes; the map keeps no
/// keys to check. The result is bitwise what [`Triplets::assemble_into`]
/// followed by [`SparseRows::permute_symmetric_into`] produces:
/// duplicates are summed in the order the assembly sort leaves them,
/// starting from the first value rather than from `0.0` (so a lone
/// `-0.0` survives), and exact zeros stay structural. Summing in stamp
/// order instead could differ, because that sort is not stable.
///
/// ```
/// use mtk_num::sparse::{LuWorkspace, SparseRows, StampMap, Triplets};
///
/// let mut t = Triplets::new(2);
/// t.add(0, 1, 1.0);
/// t.add(1, 1, 2.0);
/// t.add(1, 1, 0.5);
/// t.add(1, 0, 4.0);
/// let pos = [1, 0]; // the two unknowns trade places
/// let map = StampMap::new(&t, &pos);
/// let mut values = Vec::new();
/// map.gather(&[1.0, 2.0, 0.5, 4.0], &mut values);
/// let want = t.to_rows().permute_symmetric(&[1, 0]);
/// assert_eq!(SparseRows::from_csr(map.pattern(), &values), want);
///
/// // The flat form goes to the LU as it is.
/// let (mut ws, mut x) = (LuWorkspace::new(), Vec::new());
/// ws.factor_solve_csr(map.pattern(), &values, &[2.5, 1.0], &mut x).unwrap();
/// assert_eq!(x, want.factor().unwrap().solve(&[2.5, 1.0]).unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StampMap {
    /// Triplet indices grouped by slot of the permuted matrix (slots in
    /// row-major order), each group in summation order.
    gather: Vec<u32>,
    /// `ends[s]`: where slot `s`'s group ends in `gather`.
    ends: Vec<u32>,
    /// The permuted matrix's pattern.
    pattern: CsrPattern,
}

impl StampMap {
    /// Builds the map for `t` under the inverse permutation `pos`
    /// (`pos[orig] = new position`, a permutation of `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `pos.len() != t.n()`, or if the dimension or the number
    /// of triplets does not fit in `u32`.
    pub fn new(t: &Triplets, pos: &[usize]) -> StampMap {
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
            pattern: CsrPattern::default(),
        };
        map.pattern.starts.push(0);
        // Per row: (permuted col, start, end) of each run of duplicates.
        let mut runs = Vec::new();
        for p in 0..n {
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
                map.pattern.cols.push(c as u32);
            }
            map.pattern.starts.push(map.pattern.cols.len() as u32);
        }
        map
    }

    /// The permuted, assembled matrix's pattern.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// Writes the entries of the assembled, permuted matrix of one stamp
    /// sequence's values into `out`, row-major in the order of
    /// [`StampMap::pattern`]: `values[k]` is the value of triplet `k` of
    /// a sequence with the `(row, col)` keys the map was built for.
    ///
    /// # Panics
    ///
    /// Panics if `values` has a different length than that sequence.
    pub fn gather(&self, values: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            values.len(),
            self.gather.len(),
            "gather on a different stamp count"
        );
        out.resize(self.ends.len(), 0.0);
        let mut start = 0;
        for (entry, &end) in out.iter_mut().zip(&self.ends) {
            let run = &self.gather[start..end as usize];
            let mut v = values[run[0] as usize];
            for &i in &run[1..] {
                v += values[i as usize];
            }
            *entry = v;
            start = end as usize;
        }
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
        assert_eq!(
            cutoff.pattern(),
            conducting.pattern(),
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
        let u_rows: Vec<_> = row_of
            .iter()
            .map(|&r| std::mem::take(&mut rows[r]))
            .collect();
        Ok(SparseLu {
            n,
            u_rows: kernel_rows(&u_rows),
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

    fn entries_bits(rows: &[Vec<Entry>]) -> RowBits {
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|e| (e.col as usize, e.val.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// `a` in flat form.
    fn flat(a: &SparseRows) -> (CsrPattern, Vec<f64>) {
        let (mut pattern, mut values) = (CsrPattern::default(), Vec::new());
        a.to_csr(&mut pattern, &mut values);
        (pattern, values)
    }

    fn factor_bits(lu: &SparseLu) -> (RowBits, RowBits, &[usize]) {
        (entries_bits(&lu.u_rows), rows_bits(&lu.l_rows), &lu.row_of)
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
    const GENERATORS: [&str; 4] = ["dominant", "ties", "zeros", "non-finite"];

    /// `keys` with fresh values from generator `gen` (see [`GENERATORS`]):
    /// diagonally dominant; ties, cancellations and refills from
    /// {±0, ±1, ±2}; uniform values of which about a third are exact
    /// zeros; or the ties with the odd NaN or infinity among them. Every
    /// call assembles to the same pattern.
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
                2 => match rng.next_index(3) {
                    0 => 0.0,
                    _ => rng.next_f64_in(-2.0, 2.0),
                },
                _ => match rng.next_index(24) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    i => [1.0, -1.0, 2.0, -2.0][i % 4],
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

    /// Plans replayed on fresh values of the same pattern stay
    /// bit-identical to the oracle: one workspace across patterns of 1 to
    /// 24 unknowns, each refactored with values from every generator, so
    /// plans replay, diverge, get evicted and are learned again.
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
                assert!(ws.outcomes.len() <= OUTCOME_CACHE_LEN);
                assert!(ws.symbolic.len() <= SYMBOLIC_CACHE_LEN);
                let bytes: usize = ws
                    .outcomes
                    .iter()
                    .chain(&ws.symbolic)
                    .map(Plan::bytes)
                    .sum();
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
    /// (the outcome plan and the live-bit replay diverge, the general
    /// kernel reports it), and the outcome plan still serves the
    /// nonsingular matrix after it.
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
                fallback: 0,
                diverged: 2,
                general: 2,
            }
        );
        assert_eq!((ws.outcomes.len(), ws.symbolic.len()), (1, 1));
    }

    /// A pivot tie the symbolic plan did not have goes to the lowest
    /// position, as in the general kernel, although the search visits
    /// row 1 first: the outcome plan and the live-bit replay then
    /// disagree with the recorded winner (row 1), and the general kernel
    /// runs. The tie's own outcome plan serves the next tie, and the
    /// first one the last call.
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
                fallback: 0,
                diverged: 3,
                general: 2,
            }
        );
        assert_eq!(ws.symbolic.len(), 2);
    }

    /// Values that flip cancellations under a fixed pivot order. A
    /// diagonal of 1024 keeps every pivot on the diagonal, while
    /// off-diagonal entries from {±0, ±1, ±32} make updates that do or do
    /// not cancel to an exact zero (`1 − (32/1024)·32`, `±0 − (±0)·p`).
    /// The odd diagonal of 1 moves a pivot off the diagonal, and the odd
    /// NaN spreads until no pivot is left.
    /// Every call is pinned to the oracle on `to_bits`; the live-bit
    /// replay serves the flips, and `eliminate` runs exactly when the
    /// oracle's pivot order is none of the cached plans' or the matrix is
    /// singular.
    #[test]
    fn fallback_replays_cancellation_flips_under_a_fixed_pivot_order() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E0A);
        let mut ws = LuWorkspace::new();
        let (mut moved, mut singular) = (0, 0);
        for trial in 0..60 {
            let n = 2 + rng.next_index(20);
            let density = rng.next_f64_in(0.1, 0.5);
            let keys = random_pattern(&mut rng, n, density, true);
            for call in 0..16 {
                let mut t = Triplets::new(n);
                for &(r, c) in &keys {
                    let v = match rng.next_index(256) {
                        i if r == c => [1024.0, 1.0][usize::from(i < 3)],
                        0 => f64::NAN,
                        i => [0.0, -0.0, 1.0, -1.0, 32.0, -32.0, 1.0, 32.0][i % 8],
                    };
                    t.add(r, c, v);
                }
                let a = t.to_rows();
                let b = random_rhs(&mut rng, n);
                let pattern = flat(&a).0;
                // The pivot orders of the pattern's cached symbolic and
                // outcome plans.
                let orders = |plans: &[Plan]| -> Vec<Vec<u32>> {
                    let plans = plans.iter().filter(|p| p.input == pattern);
                    plans.map(|p| p.row_of.clone()).collect()
                };
                let (symbolic, outcomes) = (orders(&ws.symbolic), orders(&ws.outcomes));
                let before = ws.stats;
                let label = format!("trial {trial} call {call}");
                let general = if assert_matches_oracle(&mut ws, &a, &b, &label) {
                    ws.stats.general - before.general
                } else {
                    singular += 1;
                    assert_eq!(ws.stats.general, before.general + 1, "{label}");
                    continue;
                };
                let lu = oracle_factor(&a).expect("factored");
                let order: Vec<u32> = lu.row_of.iter().map(|&r| r as u32).collect();
                moved += usize::from(order.iter().enumerate().any(|(k, &r)| r as usize != k));
                // An outcome plan whose order holds may or may not replay.
                if symbolic.contains(&order) {
                    assert_eq!(general, 0, "{label}: the live-bit replay must hold");
                } else if !outcomes.contains(&order) {
                    assert_eq!(general, 1, "{label}: a new pivot order");
                }
            }
        }
        let stats = ws.stats;
        assert!(
            stats.fallback > 250 && stats.replayed > 300 && moved > 10 && singular > 20,
            "{stats:?}, {moved} moved pivot orders, {singular} singular"
        );
    }

    /// A symbolic pass over the budget stops within one row update of
    /// it, and its pattern is remembered: the matrix still factors
    /// bit-identically, no plan is cached, and the next call on the
    /// pattern runs the general kernel without a second pass.
    #[test]
    fn symbolic_pass_over_the_budget_stops_and_is_remembered() {
        let n = 180;
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E06);
        let keys = random_pattern(&mut rng, n, 1.0, true);
        let mut ws = LuWorkspace::new();
        for call in 0..2 {
            let a = pattern_values(&mut rng, n, &keys, 0);
            let b = random_rhs(&mut rng, n);
            assert!(assert_matches_oracle(&mut ws, &a, &b, "dense"));
            assert!(
                ws.outcomes.is_empty() && ws.symbolic.is_empty(),
                "call {call}"
            );
            assert_eq!(ws.oversized, vec![flat(&a).0], "call {call}");
        }
        assert_eq!(ws.stats.general, 2);
        // The pass itself stops as soon as it is over.
        let a = pattern_values(&mut rng, n, &keys, 0);
        let (pattern, values) = flat(&a);
        let mut row_of = Vec::new();
        ws.factor_solve_csr(&pattern, &values, &random_rhs(&mut rng, n), &mut Vec::new())
            .unwrap();
        row_of.clone_from(&ws.row_of);
        let mut plan = Plan::default();
        let mut rows = Vec::new();
        assert!(!symbolic_pass(
            &pattern,
            &row_of,
            &mut Scratch::default(),
            &mut rows,
            &mut plan
        ));
        let over = plan.bytes() - PLAN_BUDGET_BYTES;
        assert!(over <= 8 * n + 12, "the pass ran {over} bytes over");
        // The same workspace still learns and replays small patterns.
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
        assert_eq!((ws.stats.general, ws.stats.replayed), (4, 1));
        assert_eq!(ws.oversized.len(), 1);
        // A pattern that alone outgrows the budget is not passed at all
        // (too large for the quadratic oracle: checked on factor()).
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
        let (pattern, _) = flat(&a);
        assert!(ws.symbolic.iter().all(|p| p.input != pattern));
        assert!(
            !ws.oversized.contains(&pattern),
            "never passed, so not kept"
        );
    }

    /// The general kernel as it was before the dense scatter: every row
    /// kept in column order, and each update a merge of the target and
    /// pivot rows into a new row. Kept as the oracle the in-place kernel
    /// must match bit for bit. Returns how many updated entries it
    /// dropped as exact zeros.
    fn eliminate_merge(
        rows: &mut [Vec<Entry>],
        l_rows: &mut [Vec<(usize, f64)>],
        row_of: &mut [usize],
    ) -> Result<usize> {
        let n = rows.len();
        let mut scratch = Scratch::default();
        scratch.reset(rows.iter().map(|row| row.first().map(|e| e.col)), row_of);
        let Scratch {
            head, next, pos_of, ..
        } = &mut scratch;
        let mut dropped = 0;
        let mut merged = Vec::new();
        for k in 0..n {
            let mut pivot_pos = usize::MAX;
            let mut pivot_mag = 0.0f64;
            let mut ri = head[k];
            while ri != NONE {
                let (lead, p) = (rows[ri][0], pos_of[ri]);
                if beats(lead.val.abs(), p, pivot_mag, pivot_pos) {
                    pivot_mag = lead.val.abs();
                    pivot_pos = p;
                }
                ri = next[ri];
            }
            if is_singular(pivot_mag, pivot_pos) {
                return Err(NumError::SingularMatrix { step: k });
            }
            row_of.swap(k, pivot_pos);
            pos_of[row_of[k]] = k;
            pos_of[row_of[pivot_pos]] = pivot_pos;
            let pivot_row_idx = row_of[k];
            let pivot_val = rows[pivot_row_idx][0].val;
            let mut ri = std::mem::replace(&mut head[k], NONE);
            while ri != NONE {
                let following = next[ri];
                if ri == pivot_row_idx {
                    ri = following;
                    continue;
                }
                let factor = rows[ri][0].val / pivot_val;
                l_rows[ri].push((k, factor));
                // Both rows start at column k; merge what lies right of it.
                let (target, pivot_row) = (&rows[ri], &rows[pivot_row_idx]);
                merged.clear();
                let (mut ti, mut pi) = (1, 1);
                while ti < target.len() || pi < pivot_row.len() {
                    let tc = target.get(ti).map_or(u32::MAX, |e| e.col);
                    let pc = pivot_row.get(pi).map_or(u32::MAX, |e| e.col);
                    if tc < pc {
                        merged.push(target[ti]);
                        ti += 1;
                        continue;
                    } else if pc < tc {
                        merged.push(Entry {
                            col: pc,
                            val: -factor * pivot_row[pi].val,
                        });
                    } else {
                        let v = target[ti].val - factor * pivot_row[pi].val;
                        ti += 1;
                        if kept(v) {
                            merged.push(Entry { col: tc, val: v });
                        } else {
                            dropped += 1;
                        }
                    }
                    pi += 1;
                }
                std::mem::swap(&mut rows[ri], &mut merged);
                if let Some(lead) = rows[ri].first() {
                    let lead = lead.col as usize;
                    next[ri] = head[lead];
                    head[lead] = ri;
                }
                ri = following;
            }
        }
        Ok(dropped)
    }

    /// Everything one elimination of `a` leaves: the outcome (with the
    /// merge oracle's drop count), U in elimination order as
    /// `(col, bits)`, L's bits and `row_of`.
    type Eliminated = (Result<usize>, RowBits, RowBits, Vec<usize>);

    fn eliminated(a: &SparseRows, merge: bool) -> Eliminated {
        let n = a.n;
        let mut rows = kernel_rows(&a.rows);
        let mut l_rows = vec![Vec::new(); n];
        let mut row_of: Vec<usize> = (0..n).collect();
        let result = if merge {
            eliminate_merge(&mut rows, &mut l_rows, &mut row_of)
        } else {
            eliminate(&mut rows, &mut l_rows, &mut row_of, &mut Scratch::default()).map(|()| 0)
        };
        if result.is_err() {
            return (result, Vec::new(), Vec::new(), Vec::new());
        }
        let u: Vec<_> = row_of.iter().map(|&r| rows[r].clone()).collect();
        let l: Vec<_> = row_of.iter().map(|&r| l_rows[r].clone()).collect();
        (result, entries_bits(&u), rows_bits(&l), row_of)
    }

    /// The in-place dense-scatter kernel against the merge oracle on
    /// `to_bits`: random patterns of 1 to 30 unknowns with every value
    /// generator (pivot ties, exact cancellations that refill, signed
    /// zeros, NaN and infinities, singular matrices), plus the hand-built
    /// cancel-then-refill.
    #[test]
    fn dense_scatter_matches_the_merge_oracle() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E07);
        let mut cases = vec![triplets(
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
        )
        .to_rows()];
        for _ in 0..300 {
            let n = 1 + rng.next_index(30);
            let density = rng.next_f64_in(0.05, 0.6);
            let with_diag = rng.next_index(6) != 0;
            let keys = random_pattern(&mut rng, n, density, with_diag);
            let gen = rng.next_index(GENERATORS.len());
            cases.push(pattern_values(&mut rng, n, &keys, gen));
        }
        let (mut factored, mut singular, mut cancelled) = (0, 0, 0);
        for (i, a) in cases.iter().enumerate() {
            let want = eliminated(a, true);
            let got = eliminated(a, false);
            assert_eq!(got.0.is_ok(), want.0.is_ok(), "case {i}: outcome");
            assert_eq!(
                got.0.as_ref().err(),
                want.0.as_ref().err(),
                "case {i}: error"
            );
            assert_eq!(got.1, want.1, "case {i}: U");
            assert_eq!(got.2, want.2, "case {i}: L");
            assert_eq!(got.3, want.3, "case {i}: row_of");
            match want.0 {
                Ok(dropped) => {
                    factored += 1;
                    cancelled += usize::from(dropped > 0);
                }
                Err(_) => singular += 1,
            }
        }
        assert!(
            factored > 150 && singular > 30 && cancelled > 20,
            "{factored} factored ({cancelled} with a cancellation), {singular} singular"
        );
    }

    /// The flat path, `factor_solve_csr` on a pattern and its values,
    /// against `SparseRows::factor` + `SparseLu::solve` on `to_bits`,
    /// with one workspace over repeated random patterns and every value
    /// generator, so plans record, replay, diverge and get evicted.
    #[test]
    fn flat_path_matches_factor_then_solve() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E08);
        let mut ws = LuWorkspace::new();
        let mut x = Vec::new();
        let mut singular = 0;
        for trial in 0..120 {
            let n = 1 + rng.next_index(24);
            let density = rng.next_f64_in(0.05, 0.5);
            let keys = random_pattern(&mut rng, n, density, true);
            for call in 0..10 {
                let gen = if call < 3 {
                    0
                } else {
                    rng.next_index(GENERATORS.len())
                };
                let a = pattern_values(&mut rng, n, &keys, gen);
                let b = random_rhs(&mut rng, n);
                let (pattern, values) = flat(&a);
                let got = ws.factor_solve_csr(&pattern, &values, &b, &mut x);
                let label = format!("trial {trial} call {call} ({})", GENERATORS[gen]);
                let back = SparseRows::from_csr(&pattern, &values);
                assert_eq!(rows_bits(&back.rows), rows_bits(&a.rows), "{label}");
                match a.clone().factor() {
                    Ok(lu) => {
                        got.unwrap_or_else(|e| panic!("{label}: {e}"));
                        assert_eq!(bits(&x), bits(&lu.solve(&b).unwrap()), "{label}");
                    }
                    Err(want) => {
                        assert_eq!(got.unwrap_err(), want, "{label}");
                        singular += 1;
                    }
                }
            }
        }
        let stats = ws.stats();
        assert!(
            stats.replayed > 300 && stats.diverged > 100 && stats.general > 300 && singular > 10,
            "{stats:?}, {singular} singular"
        );
    }

    /// A plan fits only the pattern it was recorded on: a pattern one
    /// column or one row length away runs the general kernel without
    /// trying the plan, even when its flat column list is the same, and
    /// the recorded pattern still replays afterwards.
    #[test]
    fn a_plan_never_replays_on_a_pattern_one_column_or_row_length_away() {
        // Both `moved_boundary` and `recorded` list columns 0 1 2 0 2;
        // only where row 0 ends differs.
        let recorded = [(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)];
        let moved_boundary = [(0, 0), (1, 1), (1, 2), (2, 0), (2, 2)];
        let moved_column = [(0, 0), (0, 1), (1, 2), (2, 1), (2, 2)];
        let with = |keys: &[(usize, usize)], scale: f64| {
            let entries: Vec<_> = keys
                .iter()
                .enumerate()
                .map(|(i, &(r, c))| (r, c, scale * (i + 2) as f64))
                .collect();
            triplets(3, &entries).to_rows()
        };
        assert_eq!(
            flat(&with(&recorded, 1.0)).0.cols,
            flat(&with(&moved_boundary, 1.0)).0.cols
        );
        let mut ws = LuWorkspace::new();
        let b = [1.0, -2.0, 3.0];
        let mut want = ReplayStats::default();
        for (keys, label, replays) in [
            (&recorded, "record", false),
            (&moved_boundary, "row length", false),
            (&moved_column, "column", false),
            (&recorded, "replay", true),
        ] {
            assert!(assert_matches_oracle(&mut ws, &with(keys, 1.5), &b, label));
            if replays {
                want.replayed += 1;
            } else {
                want.general += 1;
            }
            assert_eq!(ws.stats(), want, "{label}");
        }
        // The same on random patterns: move one entry to a column its row
        // lacks, or to the end of another row.
        let mut rng = Xoshiro256pp::seed_from_u64(0x0EAC_1E09);
        for trial in 0..100 {
            let n = 2 + rng.next_index(14);
            let density = rng.next_f64_in(0.1, 0.5);
            let keys = random_pattern(&mut rng, n, density, true);
            let mut ws = LuWorkspace::new();
            let a = pattern_values(&mut rng, n, &keys, 0);
            let b = random_rhs(&mut rng, n);
            assert!(assert_matches_oracle(&mut ws, &a, &b, "record"));
            let mut moved = keys.clone();
            let i = rng.next_index(moved.len());
            let (r, _) = moved[i];
            let free: Vec<_> = (0..n).filter(|&c| !keys.contains(&(r, c))).collect();
            if trial % 2 == 0 && !free.is_empty() {
                moved[i].1 = free[rng.next_index(free.len())];
            } else {
                let to = (r + 1 + rng.next_index(n - 1)) % n;
                let Some(c) = (0..n).find(|&c| !keys.contains(&(to, c))) else {
                    continue;
                };
                moved[i] = (to, c);
            }
            let label = format!("trial {trial}");
            let before = ws.stats();
            let a = pattern_values(&mut rng, n, &moved, 2);
            assert_matches_oracle(&mut ws, &a, &b, &label);
            let after = ws.stats();
            assert_eq!(
                (after.replayed, after.diverged, after.general),
                (before.replayed, before.diverged, before.general + 1),
                "{label}"
            );
        }
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
            let map = StampMap::new(&first, &pos);
            let mut values = Vec::new();
            for call in 0..4 {
                let next = if call == 0 {
                    first.clone()
                } else {
                    stamp(&mut rng)
                };
                let stamps: Vec<f64> = next.entries().iter().map(|e| e.2).collect();
                map.gather(&stamps, &mut values);
                let want = next.to_rows().permute_symmetric(&order);
                let (want_pattern, want_values) = flat(&want);
                assert_eq!(*map.pattern(), want_pattern, "trial {trial}: pattern");
                assert_eq!(bits(&values), bits(&want_values), "trial {trial}: gather");
                let rows = SparseRows::from_csr(map.pattern(), &values);
                assert_eq!(
                    rows_bits(&rows.rows),
                    rows_bits(&want.rows),
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "different stamp count")]
    fn gather_rejects_a_different_stamp_count() {
        let mut t = Triplets::new(1);
        t.add(0, 0, 1.0);
        StampMap::new(&t, &[0]).gather(&[1.0, 2.0], &mut Vec::new());
    }

    #[test]
    fn lone_negative_zero_survives_the_stamp_map() {
        let mut t = Triplets::new(1);
        t.add(0, 0, -0.0);
        let mut values = Vec::new();
        StampMap::new(&t, &[0]).gather(&[-0.0], &mut values);
        assert_eq!(bits(&values), bits(&[-0.0]));
    }
}
