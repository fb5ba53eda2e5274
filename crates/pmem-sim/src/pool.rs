//! Copy-on-write pool storage: the one representation of a PM pool's bytes.
//!
//! A [`PoolBytes`] splits a pool into fixed [`PAGE`]-byte pages held behind
//! [`Arc`]. Cloning one clones its page table, not its bytes, and a page is
//! copied on its first write through a table that shares it
//! (`Arc::make_mut`). A page never written reads as the one shared zero
//! page. So a crash image, the medium a recovery boot adopts and that
//! boot's cache view each cost a page-table copy, plus one page copy per
//! page actually written: a 16 MiB pool whose recovery writes a handful of
//! lines copies a handful of pages.

use crate::layout::CACHE_LINE;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Page size of [`PoolBytes`], in bytes.
pub const PAGE: usize = 4096;

// A cache line never straddles a page, so a line is always one slice.
const _: () = assert!((PAGE as u64).is_multiple_of(CACHE_LINE));

type Page = [u8; PAGE];

/// The shared zero page.
static ZERO: Page = [0; PAGE];

/// A pool's bytes as copy-on-write pages. See the [module docs](self).
///
/// Bytes past `len` in the last page are always zero.
#[derive(Clone)]
pub struct PoolBytes {
    len: usize,
    /// One slot per page; `None` is the shared zero page.
    pages: Vec<Option<Arc<Page>>>,
}

impl PoolBytes {
    /// `len` zero bytes, all on the shared zero page.
    pub fn zeroed(len: usize) -> Self {
        PoolBytes {
            len,
            pages: vec![None; len.div_ceil(PAGE)],
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn page(&self, i: usize) -> &Page {
        self.pages[i].as_deref().unwrap_or(&ZERO)
    }

    /// Page `i`, unshared: the zero page or a page another table still
    /// holds is copied first.
    fn page_mut(&mut self, i: usize) -> &mut Page {
        let slot = &mut self.pages[i];
        #[cfg(test)]
        if slot.as_ref().is_none_or(|p| Arc::strong_count(p) > 1) {
            copies::bump();
        }
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new(ZERO)))
    }

    /// The end of `[off, off + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the pool.
    fn end_of(&self, off: usize, len: usize) -> usize {
        off.checked_add(len)
            .filter(|&end| end <= self.len)
            .unwrap_or_else(|| panic!("range {off}+{len} outside a {}-byte pool", self.len))
    }

    /// Copies the bytes at `[off, off + out.len())` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the pool.
    pub fn read(&self, off: usize, out: &mut [u8]) {
        let end = self.end_of(off, out.len());
        let mut pos = off;
        while pos < end {
            let (i, at) = (pos / PAGE, pos % PAGE);
            let n = (PAGE - at).min(end - pos);
            out[pos - off..pos - off + n].copy_from_slice(&self.page(i)[at..at + n]);
            pos += n;
        }
    }

    /// Calls `f` on `[off, off + len)` one page-sized piece at a time, in
    /// address order, with each piece's offset within the range. Only the
    /// pages the range covers are copied, each at most once.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the pool.
    pub fn write_with(&mut self, off: usize, len: usize, mut f: impl FnMut(usize, &mut [u8])) {
        let end = self.end_of(off, len);
        let mut pos = off;
        while pos < end {
            let (i, at) = (pos / PAGE, pos % PAGE);
            let n = (PAGE - at).min(end - pos);
            f(pos - off, &mut self.page_mut(i)[at..at + n]);
            pos += n;
        }
    }

    /// Writes `src` at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside the pool.
    pub fn write(&mut self, off: usize, src: &[u8]) {
        self.write_with(off, src.len(), |at, piece| {
            piece.copy_from_slice(&src[at..at + piece.len()]);
        });
    }

    /// The line-sized run `[off, off + CACHE_LINE)`, cut at the pool's end.
    /// Borrowed when it lies on one page, which a line-aligned `off`
    /// always does; a pool whose base is not line-aligned (only a
    /// deserialized image can have one) may need a copy.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not inside the pool.
    pub fn line(&self, off: usize) -> Cow<'_, [u8]> {
        let end = off.saturating_add(CACHE_LINE as usize).min(self.len);
        assert!(
            off < end,
            "line offset {off} outside a {}-byte pool",
            self.len
        );
        let at = off % PAGE;
        if at + (end - off) <= PAGE {
            Cow::Borrowed(&self.page(off / PAGE)[at..at + (end - off)])
        } else {
            let mut out = vec![0; end - off];
            self.read(off, &mut out);
            Cow::Owned(out)
        }
    }

    /// Copies `src`'s line at `off` over this pool's.
    pub fn copy_line_from(&mut self, src: &PoolBytes, off: usize) {
        self.write(off, &src.line(off));
    }

    /// `(offset, bytes)` of every page that is not the shared zero page,
    /// in address order. Every byte outside these pages is zero.
    pub fn written_pages(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.pages.iter().enumerate().filter_map(|(i, p)| {
            let off = i * PAGE;
            p.as_deref()
                .map(|page| (off, &page[..(self.len - off).min(PAGE)]))
        })
    }

    /// A flat copy of the bytes.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0; self.len];
        self.read(0, &mut out);
        out
    }
}

impl From<Vec<u8>> for PoolBytes {
    /// Pages of `bytes`; all-zero pages stay on the shared zero page.
    fn from(bytes: Vec<u8>) -> Self {
        let mut p = PoolBytes::zeroed(bytes.len());
        for (i, chunk) in bytes.chunks(PAGE).enumerate() {
            if chunk.iter().any(|&b| b != 0) {
                p.page_mut(i)[..chunk.len()].copy_from_slice(chunk);
            }
        }
        p
    }
}

impl PartialEq for PoolBytes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .enumerate()
                .all(|(i, (a, b))| match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) if Arc::ptr_eq(a, b) => true,
                    _ => self.page(i) == other.page(i),
                })
    }
}

impl Eq for PoolBytes {}

impl fmt::Debug for PoolBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolBytes")
            .field("len", &self.len)
            .field(
                "written_pages",
                &self.written_pages().map(|(off, _)| off).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// The wire format is the flat byte sequence a `Vec<u8>` would produce.
impl Serialize for PoolBytes {
    fn to_value(&self) -> Value {
        self.to_vec().to_value()
    }
}

impl Deserialize for PoolBytes {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::<u8>::from_value(v).map(PoolBytes::from)
    }
}

/// Page copies made by this thread (zero-page materializations included),
/// so tests can assert work counts instead of timings.
#[cfg(test)]
pub(crate) mod copies {
    use std::cell::Cell;

    thread_local! {
        static COPIES: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn bump() {
        COPIES.with(|c| c.set(c.get() + 1));
    }

    /// Page copies this thread has made so far.
    pub(crate) fn count() -> u64 {
        COPIES.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_pages_until_written() {
        let mut a = PoolBytes::zeroed(3 * PAGE);
        a.write(PAGE + 8, b"abc");
        let before = copies::count();
        let mut b = a.clone();
        assert_eq!(copies::count(), before, "a clone copies no page");
        b.write(PAGE + 9, b"X");
        assert_eq!(
            copies::count(),
            before + 1,
            "the first write copies its page"
        );
        b.write(PAGE + 10, b"Y");
        assert_eq!(
            copies::count(),
            before + 1,
            "an unshared page is written in place"
        );
        let mut buf = [0; 3];
        a.read(PAGE + 8, &mut buf);
        assert_eq!(&buf, b"abc", "the original is untouched");
        b.read(PAGE + 8, &mut buf);
        assert_eq!(&buf, b"aXY");
        assert_eq!(
            b.written_pages().map(|(o, _)| o).collect::<Vec<_>>(),
            [PAGE]
        );
    }

    #[test]
    fn accesses_split_at_page_boundaries() {
        let len = 2 * PAGE + 100;
        let mut p = PoolBytes::zeroed(len);
        let src: Vec<u8> = (0..PAGE + 40).map(|i| (i % 251) as u8 + 1).collect();
        p.write(PAGE - 20, &src);
        let mut flat = vec![0u8; len];
        flat[PAGE - 20..PAGE - 20 + src.len()].copy_from_slice(&src);
        assert_eq!(p.to_vec(), flat);
        let mut out = vec![0; len - 7];
        p.read(7, &mut out);
        assert_eq!(out, flat[7..]);
        assert_eq!(&*p.line(2 * PAGE + 64), &flat[2 * PAGE + 64..]);
        assert_eq!(&*p.line(PAGE - 20), &flat[PAGE - 20..PAGE + 44]);
    }

    #[test]
    fn equality_is_by_content() {
        let mut a = PoolBytes::zeroed(2 * PAGE);
        let b = PoolBytes::zeroed(2 * PAGE);
        a.write(5, &[1]);
        assert_ne!(a, b);
        a.write(5, &[0]);
        assert_eq!(a, b, "a written page of zeros equals the zero page");
        assert_ne!(a, PoolBytes::zeroed(2 * PAGE + 64), "lengths differ");
        let flat: Vec<u8> = (0..PAGE + 64).map(|i| i as u8).collect();
        assert_eq!(PoolBytes::from(flat.clone()).to_vec(), flat);
    }

    #[test]
    fn wire_format_is_flat_bytes() {
        let flat = vec![0u8, 7, 0, 9];
        let p = PoolBytes::from(flat.clone());
        assert_eq!(p.to_value(), flat.to_value());
        assert_eq!(PoolBytes::from_value(&flat.to_value()).unwrap(), p);
        assert_eq!(PoolBytes::from(vec![0; PAGE]).written_pages().count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_write_panics() {
        PoolBytes::zeroed(64).write(60, &[0; 8]);
    }
}
