//! Copy-on-write row tables: a copy costs the rows it changes.
//!
//! A reconvergence after a topology change recomputes the rows near the
//! change and leaves every other row as it was, so the table it hands back
//! should cost the rows that moved, not a copy of all `n²` entries.  A
//! [`Table`] keeps its rows in one [`Lines`] buffer behind an [`Arc`] — the
//! *base*, shared by every clone — and, beside it, an *overlay*: one
//! private row for each row written since the base was shared.
//!
//! * `clone` shares the base and copies the overlay rows.
//! * A row write goes in place while the base is unshared, and to the
//!   row's overlay slot — one aligned [`Lines`] row — while it is shared.
//! * [`Table::replace`] (a full sweep's swap) replaces base and overlay
//!   together.
//! * A write that would take the overlay past half the rows unshares the
//!   table once (so does [`Table::unshare`], before a stepper's round over
//!   half the rows): base and overlay are copied into a fresh base of its
//!   own.  That bounds a table at one and a half copies of its rows.  A
//!   write that finds the base unshared again (every other owner dropped
//!   it) folds the overlay back in, as [`Table::fold`] does before a clone
//!   that should copy no row.
//!
//! A base is row-major or, for the identity matrix a cold solve starts
//! from, a *band*: every row of the identity is a window of one run
//! `∞̄ … ∞̄ 0̄ ∞̄ … ∞̄`, so [`Table::identity`] costs `O(n)` entries, not
//! `n²`.  A band is never written in place: written rows go to the overlay
//! until the table unshares into a row-major base.  (An `n²` start table is
//! allocated before a cold solve's own tables and freed after them.  The
//! hole it leaves below the solve's output, which a clone shares and so
//! keeps alive, is where the allocator then carves small allocations from,
//! until the next solve's tables no longer fit in it and the heap grows by
//! a table.)
//!
//! Every row starts on a cache line when the base's row size is a multiple
//! of the line: the base starts on one, and so does each overlay row; a
//! band is stored once per entry offset within a line, and each row is
//! read from the copy where it starts on one.
//!
//! This module is the only one in the crate that asks an [`Arc`] whether
//! it is shared.

use crate::lines::{Lines, LINE};
use std::mem::size_of;
use std::sync::Arc;

/// `rows` rows of `width` entries: a shared base plus the rows written
/// since it was shared.
pub(crate) struct Table<R> {
    rows: usize,
    width: usize,
    base: Arc<Lines<R>>,
    layout: Layout,
    /// Empty, or one slot per row: `Some` holds the row's current entries
    /// and shadows the base's.
    overlay: Vec<Option<Lines<R>>>,
    /// The `Some` slots of `overlay`.
    copied: usize,
}

/// How a base holds its rows.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Row `k` at `[k · width, (k + 1) · width)`.
    RowMajor,
    /// The identity of `width` rows, `copies` times: copy `c` is `c`
    /// leading fill entries, the band (`width − 1` fills, the diagonal
    /// entry, `width − 1` fills) and trailing fills up to `region` entries.
    /// Row `k` is the band from offset `width − 1 − k`, read from the copy
    /// where that offset lands on a multiple of `copies`.
    Band { copies: usize, region: usize },
}

impl<R> Default for Table<R> {
    fn default() -> Self {
        Table {
            rows: 0,
            width: 0,
            base: Arc::default(),
            layout: Layout::RowMajor,
            overlay: Vec::new(),
            copied: 0,
        }
    }
}

impl<R: Clone> Clone for Table<R> {
    fn clone(&self) -> Self {
        Table {
            rows: self.rows,
            width: self.width,
            base: Arc::clone(&self.base),
            layout: self.layout,
            overlay: self.overlay.clone(),
            copied: self.copied,
        }
    }
}

impl<R> Table<R> {
    /// The number of rows.
    pub(crate) fn row_count(&self) -> usize {
        self.rows
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[R] {
        self.view().row(i)
    }

    /// The rows, borrowed for reading: what the row kernel reads a round's
    /// import rows through.
    pub(crate) fn view(&self) -> Rows<'_, R> {
        Rows {
            flat: &self.base,
            width: self.width,
            overlay: &self.overlay,
            layout: self.layout,
        }
    }
}

/// A [`Table`]'s rows, borrowed once.  Reading a row costs an inline test
/// of its overlay slot and of the layout more than indexing a flat
/// row-major slice: a round reads every import row through here.
pub(crate) struct Rows<'a, R> {
    flat: &'a [R],
    width: usize,
    overlay: &'a [Option<Lines<R>>],
    layout: Layout,
}

impl<R> Clone for Rows<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Rows<'_, R> {}

impl<'a, R> Rows<'a, R> {
    /// Row `k`.
    #[inline]
    pub(crate) fn row(self, k: usize) -> &'a [R] {
        if let Some(Some(row)) = self.overlay.get(k) {
            return row;
        }
        let start = match self.layout {
            Layout::RowMajor => k * self.width,
            Layout::Band { copies, region } => {
                let lead = self.width - 1 - k;
                let c = (copies - lead % copies) % copies;
                c * region + c + lead
            }
        };
        &self.flat[start..start + self.width]
    }
}

impl<R: PartialEq> PartialEq for Table<R> {
    fn eq(&self, other: &Self) -> bool {
        (self.rows, self.width) == (other.rows, other.width)
            && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl<R: Clone> Table<R> {
    /// `rows` rows of `width` entries, row-major in `lines`.
    ///
    /// # Panics
    ///
    /// Panics unless `lines` holds exactly `rows · width` entries.
    pub(crate) fn new(rows: usize, width: usize, lines: Lines<R>) -> Self {
        assert_eq!(
            lines.len(),
            rows * width,
            "a table holds rows · width entries"
        );
        Table {
            rows,
            width,
            base: Arc::new(lines),
            layout: Layout::RowMajor,
            overlay: Vec::new(),
            copied: 0,
        }
    }

    /// The `n × n` identity pattern: `diag` on the diagonal, `fill`
    /// everywhere else, in `O(n)` entries (a band, see [`Layout`]).
    pub(crate) fn identity(n: usize, fill: R, diag: R) -> Self {
        if n == 0 {
            return Self::default();
        }
        let size = size_of::<R>();
        let copies = if size > 0 && LINE.is_multiple_of(size) {
            LINE / size
        } else {
            1
        };
        let region = (2 * n + copies - 2).div_ceil(copies) * copies;
        let band = Lines::from_fn(copies * region, |e| {
            let (c, at) = (e / region, e % region);
            if at == c + n - 1 {
                diag.clone()
            } else {
                fill.clone()
            }
        });
        Table {
            rows: n,
            width: n,
            base: Arc::new(band),
            layout: Layout::Band { copies, region },
            overlay: Vec::new(),
            copied: 0,
        }
    }

    /// Row `i`, to write in place (copied first if the base is shared).
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [R] {
        match self.place(i) {
            Place::Base => self.base_row_mut(i),
            Place::Overlay => self.overlay_row_mut(i),
            Place::Fresh => {
                let copy = Lines::from_slice(self.row(i));
                &mut self.overlay[i].insert(copy)[..]
            }
        }
    }

    /// Overwrite row `i` with `src`, copying nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not one row wide.
    pub(crate) fn set_row(&mut self, i: usize, src: &[R]) {
        assert_eq!(src.len(), self.width, "a row is width entries");
        match self.place(i) {
            Place::Base => self.base_row_mut(i).clone_from_slice(src),
            Place::Overlay => self.overlay_row_mut(i).clone_from_slice(src),
            Place::Fresh => self.overlay[i] = Some(Lines::from_slice(src)),
        }
    }

    /// Overwrite each row `i` of `rows` with its entries: [`Table::set_row`]
    /// per row, but asking whether the base is shared once for the batch.
    pub(crate) fn set_rows<'s>(&mut self, rows: impl IntoIterator<Item = (usize, &'s [R])>)
    where
        R: 's,
    {
        self.fold();
        let (n, w) = (self.rows, self.width);
        match self.own_row_major() {
            Some(base) => {
                for (i, src) in rows {
                    assert!(i < n, "table row out of range");
                    base[i * w..(i + 1) * w].clone_from_slice(src);
                }
            }
            None => rows.into_iter().for_each(|(i, src)| self.set_row(i, src)),
        }
    }

    /// Make `lines` (all `rows · width` entries, row-major) the whole table.
    /// An unshared row-major base is swapped into `lines` for reuse; any
    /// other is left to its other owners and `lines` comes back empty.
    ///
    /// # Panics
    ///
    /// Panics unless `lines` holds exactly `rows · width` entries.
    pub(crate) fn replace(&mut self, lines: &mut Lines<R>) {
        assert_eq!(lines.len(), self.rows * self.width, "a whole table");
        self.drop_overlay();
        match self.own_row_major() {
            Some(base) => std::mem::swap(base, lines),
            None => {
                self.base = Arc::new(std::mem::take(lines));
                self.layout = Layout::RowMajor;
            }
        }
    }

    /// Reshape to `rows × width` with every entry `value`, and return the
    /// entries row-major to adjust.  A shared base is left to its other
    /// owners, not copied.
    pub(crate) fn refill(&mut self, rows: usize, width: usize, value: R) -> &mut [R] {
        self.drop_overlay();
        (self.rows, self.width) = (rows, width);
        if self.own_row_major().is_none() {
            self.base = Arc::default();
            self.layout = Layout::RowMajor;
        }
        let base = self.own_row_major().expect("an unshared row-major base");
        base.clear();
        base.resize(rows * width, value);
        base
    }

    /// Fold the overlay back into a row-major base that is this table's
    /// alone again, so that a clone copies no row.
    pub(crate) fn fold(&mut self) {
        if self.copied > 0 && self.own_row_major().is_some() {
            self.own_base();
        }
    }

    /// Make a row-major base another table still shares this table's own
    /// (a copy, the overlay folded in).  A band stays a band.
    pub(crate) fn unshare(&mut self) {
        if self.layout == Layout::RowMajor && self.own_row_major().is_none() {
            self.own_base();
        }
    }

    /// The base, if it is row-major and this table's alone.
    fn own_row_major(&mut self) -> Option<&mut Lines<R>> {
        match self.layout {
            Layout::RowMajor => Arc::get_mut(&mut self.base),
            Layout::Band { .. } => None,
        }
    }

    /// Where a write to row `i` goes — after folding the overlay back into
    /// a base that is unshared again, or unsharing a base whose overlay
    /// would pass half the rows.
    fn place(&mut self, i: usize) -> Place {
        assert!(i < self.rows, "table row out of range");
        self.fold();
        if self.own_row_major().is_some() {
            return Place::Base;
        }
        if matches!(self.overlay.get(i), Some(Some(_))) {
            return Place::Overlay;
        }
        if self.copied + 1 > self.rows / 2 {
            self.own_base();
            return Place::Base;
        }
        if self.overlay.is_empty() {
            self.overlay.resize_with(self.rows, || None);
        }
        self.copied += 1;
        Place::Fresh
    }

    /// Make the base this table's own and row-major — a copy, if it is
    /// shared or a band — holding every current row, and empty the
    /// overlay.
    fn own_base(&mut self) {
        if let Layout::Band { .. } = self.layout {
            let (view, w) = (self.view(), self.width);
            let (mut i, mut j) = (0, 0);
            let rows = Lines::from_fn(self.rows * w, |_| {
                let r = view.row(i)[j].clone();
                j += 1;
                if j == w {
                    (i, j) = (i + 1, 0);
                }
                r
            });
            *self = Table::new(self.rows, w, rows);
            return;
        }
        let base = Arc::make_mut(&mut self.base);
        let w = self.width;
        for (i, row) in self.overlay.drain(..).enumerate() {
            if let Some(row) = row {
                base[i * w..(i + 1) * w].clone_from_slice(&row);
            }
        }
        self.copied = 0;
    }

    fn drop_overlay(&mut self) {
        self.overlay.clear();
        self.copied = 0;
    }

    fn base_row_mut(&mut self, i: usize) -> &mut [R] {
        let w = self.width;
        let base = self.own_row_major().expect("an unshared row-major base");
        &mut base[i * w..(i + 1) * w]
    }

    fn overlay_row_mut(&mut self, i: usize) -> &mut [R] {
        self.overlay[i].as_deref_mut().expect("an overlay row")
    }
}

/// Where [`Table::place`] sends a row write.
enum Place {
    /// In place, in the unshared row-major base.
    Base,
    /// Into the row's existing overlay slot.
    Overlay,
    /// Into the row's overlay slot, which the write fills first.
    Fresh,
}

#[cfg(test)]
impl<R> Table<R> {
    /// Is row `i` the same memory in `self` and `other`?
    pub(crate) fn shares_row(&self, other: &Self, i: usize) -> bool {
        std::ptr::eq(self.row(i), other.row(i))
    }

    /// The rows held in the overlay.
    pub(crate) fn overlay_rows(&self) -> usize {
        self.copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting(rows: usize, width: usize) -> Table<u64> {
        Table::new(rows, width, Lines::from_fn(rows * width, |e| e as u64))
    }

    fn snapshot(t: &Table<u64>) -> Vec<Vec<u64>> {
        (0..t.row_count()).map(|i| t.row(i).to_vec()).collect()
    }

    #[test]
    fn a_clone_shares_every_row_until_one_is_written() {
        let a = counting(8, 8);
        let mut b = a.clone();
        assert!((0..8).all(|i| a.shares_row(&b, i)));
        b.set_row(3, &[7; 8]);
        b.row_mut(5)[0] = 99;
        assert_eq!(b.overlay_rows(), 2);
        assert_eq!(
            snapshot(&a),
            snapshot(&counting(8, 8)),
            "the original is untouched"
        );
        assert_eq!(b.row(3), &[7; 8]);
        assert_eq!(b.row(5)[..2], [99, 41]);
        for i in 0..8 {
            assert_eq!(a.shares_row(&b, i), i != 3 && i != 5, "row {i}");
        }
    }

    #[test]
    fn the_overlay_unshares_once_past_half_the_rows() {
        let a = counting(8, 4);
        let mut b = a.clone();
        for i in 0..4 {
            b.set_row(i, &[i as u64; 4]);
        }
        assert_eq!(b.overlay_rows(), 4);
        let mut want = snapshot(&b);
        b.set_row(6, &[6; 4]);
        want[6] = vec![6; 4];
        assert_eq!(b.overlay_rows(), 0, "unshared, overlay folded in");
        assert_eq!(snapshot(&b), want);
        assert!((0..8).all(|i| !a.shares_row(&b, i)));
        assert_eq!(snapshot(&a), snapshot(&counting(8, 4)));
    }

    #[test]
    fn a_base_unshared_again_takes_the_overlay_back() {
        let a = counting(6, 2);
        let mut b = a.clone();
        b.set_row(1, &[5, 5]);
        drop(a);
        b.set_row(4, &[8, 8]);
        assert_eq!(b.overlay_rows(), 0);
        assert_eq!(
            snapshot(&b)[1..5],
            [vec![5, 5], vec![4, 5], vec![6, 7], vec![8, 8]]
        );
    }

    #[test]
    fn the_identity_band_reads_every_row_on_a_line_and_writes_through_the_overlay() {
        for n in [1, 2, 3, 8, 9, 16, 63, 64, 65] {
            let mut id = Table::identity(n, 0u64, 1);
            let dense = Table::new(n, n, Lines::from_fn(n * n, |e| u64::from(e % (n + 1) == 0)));
            assert!(id == dense, "n = {n}");
            assert!((0..n).all(|i| (id.row(i).as_ptr() as usize).is_multiple_of(LINE)));
            for i in 0..n / 2 {
                id.set_row(i, &vec![7; n]);
            }
            assert_eq!(id.overlay_rows(), n / 2, "n = {n}: a band is never written");
            id.row_mut(n - 1)[0] = 9;
            assert_eq!(id.overlay_rows(), 0, "n = {n}: past half, row-major");
            let mut want = snapshot(&dense);
            want[..n / 2].iter_mut().for_each(|r| r.fill(7));
            want[n - 1][0] = 9;
            assert_eq!(snapshot(&id), want, "n = {n}");
        }
        let mut small = Table::identity(4, [0u8; 3], [1; 3]);
        assert_eq!(small.row(2), &[[0; 3], [0; 3], [1; 3], [0; 3]]);
        let mut next = Lines::from_fn(16, |e| [e as u8; 3]);
        small.replace(&mut next);
        assert!(next.is_empty(), "a band is not handed out");
        assert_eq!(small.row(3)[1], [13; 3]);
    }

    #[test]
    fn replace_and_refill_leave_a_shared_base_to_its_owners() {
        let a = counting(4, 4);
        let mut b = a.clone();
        b.set_row(0, &[1; 4]);
        let mut next = Lines::filled(16, 3u64);
        b.replace(&mut next);
        assert!(next.is_empty(), "a shared base is not handed out");
        assert_eq!(b.overlay_rows(), 0);
        assert!((0..4).all(|i| b.row(i) == [3; 4]));
        let mut other = Lines::filled(16, 9u64);
        b.replace(&mut other);
        assert_eq!(&other[..], &[3; 16], "an unshared base is swapped out");
        let c = b.clone();
        b.refill(2, 3, 0)[4] = 1;
        assert_eq!(snapshot(&b), [vec![0, 0, 0], vec![0, 1, 0]]);
        assert!((0..4).all(|i| c.row(i) == [9; 4]));
    }
}
