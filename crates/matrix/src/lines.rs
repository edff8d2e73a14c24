//! Route storage that starts on a cache-line boundary.
//!
//! The row kernel ([`crate::sigma`]) streams whole rows with the widest
//! vector loads and stores the CPU has — 64 bytes, one cache line, under
//! AVX-512.  `malloc` only promises 16-byte alignment, and where in a line
//! a buffer lands depends on everything the process allocated before it,
//! so with a plain `Vec` the same run split every wide access across two
//! lines in one process and none in the next, and its σ time moved by
//! several per cent from one run to the next.  A [`Lines`] buffer
//! allocates up to one line more than it holds and starts its entries at
//! the first line boundary inside the allocation, so where every row
//! starts within a line is a function of the row's index and width alone.
//!
//! Entry types whose size does not divide the line (the path algebras'
//! routes) are stored unaligned: nothing vectorizes over them.

use std::mem::size_of;
use std::ops::{Deref, DerefMut};

/// The cache line, and the widest vector access, in bytes.
const LINE: usize = 64;

/// A growable run of entries whose first entry sits on a [`LINE`]
/// boundary (for entry sizes dividing the line).  It dereferences to the
/// entries as a slice; growth beyond the allocation reallocates and
/// re-aligns rather than letting `Vec` move the buffer.
pub(crate) struct Lines<R> {
    /// `off` padding entries, then the entries.
    buf: Vec<R>,
    off: usize,
}

impl<R> Default for Lines<R> {
    fn default() -> Self {
        Lines {
            buf: Vec::new(),
            off: 0,
        }
    }
}

impl<R: Clone> Lines<R> {
    /// `len` copies of `value`.
    pub(crate) fn filled(len: usize, value: R) -> Self {
        let mut lines = Self::default();
        lines.resize(len, value);
        lines
    }

    /// The entries `f(0), f(1), …, f(len − 1)`, written in that order.
    pub(crate) fn from_fn(len: usize, mut f: impl FnMut(usize) -> R) -> Self {
        if len == 0 {
            return Self::default();
        }
        let first = f(0);
        let mut lines = Self::with_room(len, &first);
        lines.buf.push(first);
        lines.buf.extend((1..len).map(f));
        lines
    }

    /// A copy of `entries`, aligned afresh.
    pub(crate) fn from_slice(entries: &[R]) -> Self {
        match entries.first() {
            None => Self::default(),
            Some(first) => {
                let mut lines = Self::with_room(entries.len(), first);
                lines.buf.extend_from_slice(entries);
                lines
            }
        }
    }

    /// An empty buffer with room for `len` entries after its padding,
    /// which is filled with copies of `pad`.
    fn with_room(len: usize, pad: &R) -> Self {
        let size = size_of::<R>();
        let slack = if LINE.is_multiple_of(size) {
            LINE / size - 1
        } else {
            0
        };
        let mut buf: Vec<R> = Vec::with_capacity(len + slack);
        let off = match buf.as_ptr().align_offset(LINE) {
            off if off <= slack => off,
            _ => 0,
        };
        buf.extend(std::iter::repeat_n(pad, off).cloned());
        Lines { buf, off }
    }

    /// Set the length to `len`, filling new entries with `value`.  Growth
    /// past the allocation moves the entries to a new, aligned one.
    pub(crate) fn resize(&mut self, len: usize, value: R) {
        if self.off + len > self.buf.capacity() {
            let mut grown = Self::with_room(len, &value);
            grown.buf.extend(self.buf.drain(self.off..));
            *self = grown;
        }
        self.buf.resize(self.off + len, value);
    }

    /// Drop every entry past the first `len`.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(self.off + len);
    }

    /// Drop every entry, keeping the allocation (and its alignment).
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
    }
}

impl<R: Clone> Clone for Lines<R> {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl<R> Deref for Lines<R> {
    type Target = [R];

    fn deref(&self) -> &[R] {
        &self.buf[self.off..]
    }
}

impl<R> DerefMut for Lines<R> {
    fn deref_mut(&mut self) -> &mut [R] {
        &mut self.buf[self.off..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned<R>(lines: &Lines<R>) -> bool {
        (lines.as_ptr() as usize).is_multiple_of(LINE)
    }

    #[test]
    fn every_constructor_starts_on_a_line() {
        for len in [1, 2, 7, 8, 9, 63, 64, 65, 4096] {
            assert!(aligned(&Lines::filled(len, 7u64)));
            assert!(aligned(&Lines::from_fn(len, |k| k as u64)));
            let copy = Lines::from_slice(&vec![3u32; len]);
            assert!(aligned(&copy));
            assert!(aligned(&copy.clone()));
        }
    }

    #[test]
    fn growth_keeps_entries_and_alignment() {
        let mut lines = Lines::from_fn(5, |k| k as u64);
        lines.resize(3, 9);
        assert_eq!(&lines[..], &[0, 1, 2]);
        lines.resize(1000, 9);
        assert!(aligned(&lines));
        assert_eq!(lines.len(), 1000);
        assert_eq!(&lines[..4], &[0, 1, 2, 9]);
        lines.clear();
        assert!(lines.is_empty());
        lines.resize(2, 4);
        assert!(aligned(&lines));
        assert_eq!(&lines[..], &[4, 4]);
    }

    #[test]
    fn odd_sized_entries_are_stored_as_given() {
        let lines = Lines::from_fn(10, |k| [k as u8; 24]);
        assert_eq!(lines.len(), 10);
        assert_eq!(lines[9], [9u8; 24]);
        assert!(Lines::<u64>::default().is_empty());
    }
}
