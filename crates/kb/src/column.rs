//! Copy-on-write columns over plain-old-data element types.
//!
//! A [`Column<T>`] is the storage primitive of the snapshot subsystem: it
//! reads like a `&[T]` whether the elements live in an owned `Vec<T>` or
//! borrow directly from a shared memory mapping ([`Mmap`]). Loading a
//! snapshot therefore allocates nothing for the large numeric columns —
//! `FactTable` ids, prefix sums, dense extent blocks — and the first
//! mutation ([`Column::make_mut`]) transparently copies the column out of
//! the mapping.

use crate::mmap::Mmap;
use std::ops::Deref;
use std::sync::Arc;

/// Marker for element types that are safe to reinterpret from raw snapshot
/// bytes: `Copy`, no padding, no niches, every bit pattern valid, and a
/// fixed little-endian-compatible layout (`#[repr(transparent)]` over or
/// `#[repr(C)]` composed of `u32`/`u64`).
///
/// # Safety
///
/// Implementors must guarantee all of the above; `Column::mapped` casts
/// `&[u8]` to `&[T]` on the strength of this contract.
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: primitive unsigned integers are padding-free and valid for every
// bit pattern. (Snapshots are little-endian by construction; the workspace
// targets little-endian platforms — asserted at snapshot open.)
unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
// SAFETY: Symbol is #[repr(transparent)] over u32; Fact is #[repr(C)] of
// three Symbols — 12 bytes, align 4, no padding, all bit patterns valid.
unsafe impl Pod for crate::interner::Symbol {}
unsafe impl Pod for crate::fact::Fact {}

enum Repr<T: Pod> {
    Owned(Vec<T>),
    Mapped {
        map: Arc<Mmap>,
        /// Byte offset of the first element within the mapping.
        off: usize,
        /// Element (not byte) count.
        len: usize,
    },
}

/// A read-mostly `[T]` that either owns its buffer or borrows a region of
/// a shared memory mapping, copying on first write.
pub struct Column<T: Pod> {
    repr: Repr<T>,
}

impl<T: Pod> Column<T> {
    /// An empty owned column.
    pub fn new() -> Column<T> {
        Column {
            repr: Repr::Owned(Vec::new()),
        }
    }

    /// Wraps an owned buffer.
    pub fn from_vec(v: Vec<T>) -> Column<T> {
        Column {
            repr: Repr::Owned(v),
        }
    }

    /// Borrows `len` elements starting at byte offset `off` of `map`.
    ///
    /// Returns `None` when the region is out of bounds, misaligned for `T`,
    /// or its byte length would overflow — the caller (the snapshot reader)
    /// turns that into a corruption error.
    pub fn mapped(map: Arc<Mmap>, off: usize, len: usize) -> Option<Column<T>> {
        let bytes = len.checked_mul(std::mem::size_of::<T>())?;
        let end = off.checked_add(bytes)?;
        if end > map.len() {
            return None;
        }
        let ptr = map.as_bytes().as_ptr() as usize + off;
        if !ptr.is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Column {
            repr: Repr::Mapped { map, off, len },
        })
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped { map, off, len } => {
                // SAFETY: bounds and alignment were validated in `mapped`;
                // T: Pod guarantees every bit pattern is a valid T; the Arc
                // keeps the mapping alive for the borrow's duration.
                unsafe {
                    std::slice::from_raw_parts(map.as_bytes().as_ptr().add(*off) as *const T, *len)
                }
            }
        }
    }

    /// Whether the column still borrows from a mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }

    /// Mutable access, copying the column out of the mapping first if
    /// needed (copy-on-write).
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Mapped { .. } = self.repr {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped { .. } => unreachable!("just converted to owned"),
        }
    }

    /// Extracts the owned buffer, cloning if the column was mapped.
    pub fn into_vec(self) -> Vec<T> {
        match self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped { .. } => self.as_slice().to_vec(),
        }
    }
}

impl<T: Pod> Deref for Column<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Default for Column<T> {
    fn default() -> Self {
        Column::new()
    }
}

impl<T: Pod> Clone for Column<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Column::from_vec(v.clone()),
            Repr::Mapped { map, off, len } => Column {
                repr: Repr::Mapped {
                    map: Arc::clone(map),
                    off: *off,
                    len: *len,
                },
            },
        }
    }
}

impl<T: Pod> From<Vec<T>> for Column<T> {
    fn from(v: Vec<T>) -> Self {
        Column::from_vec(v)
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for Column<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Column<T> {}

impl<'a, T: Pod> IntoIterator for &'a Column<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Pod> FromIterator<T> for Column<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Column::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping_of_u32s(values: &[u32]) -> Arc<Mmap> {
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        Arc::new(Mmap::from_vec(bytes))
    }

    #[test]
    fn owned_column_acts_like_a_slice() {
        let col: Column<u32> = vec![1, 2, 3].into();
        assert_eq!(&*col, &[1, 2, 3]);
        assert_eq!(col.len(), 3);
        assert!(!col.is_mapped());
    }

    #[test]
    fn mapped_column_reads_in_place() {
        let map = mapping_of_u32s(&[10, 20, 30, 40]);
        let col = Column::<u32>::mapped(Arc::clone(&map), 4, 2).unwrap();
        assert!(col.is_mapped());
        assert_eq!(&*col, &[20, 30]);
    }

    #[test]
    fn mapped_rejects_out_of_bounds_and_misalignment() {
        let map = mapping_of_u32s(&[1, 2]);
        assert!(Column::<u32>::mapped(Arc::clone(&map), 0, 3).is_none());
        assert!(Column::<u32>::mapped(Arc::clone(&map), 9, 1).is_none());
        assert!(
            Column::<u64>::mapped(Arc::clone(&map), 4, 1).is_none(),
            "align 8 at offset 4"
        );
        assert!(Column::<u32>::mapped(Arc::clone(&map), usize::MAX, 2).is_none());
    }

    #[test]
    fn make_mut_copies_out_of_the_mapping() {
        let map = mapping_of_u32s(&[5, 6]);
        let mut col = Column::<u32>::mapped(map, 0, 2).unwrap();
        col.make_mut().push(7);
        assert!(!col.is_mapped());
        assert_eq!(&*col, &[5, 6, 7]);
    }

    #[test]
    fn clone_of_mapped_column_shares_the_mapping() {
        let map = mapping_of_u32s(&[8, 9]);
        let col = Column::<u32>::mapped(map, 0, 2).unwrap();
        let copy = col.clone();
        assert!(copy.is_mapped());
        assert_eq!(col, copy);
    }

    #[test]
    fn equality_is_by_contents_across_reprs() {
        let map = mapping_of_u32s(&[3, 4]);
        let mapped = Column::<u32>::mapped(map, 0, 2).unwrap();
        let owned: Column<u32> = vec![3, 4].into();
        assert_eq!(mapped, owned);
    }

    #[test]
    fn zero_length_mapped_columns_are_valid_anywhere_in_bounds() {
        let map = mapping_of_u32s(&[1, 2]);
        // Empty view at the start, mid-mapping, and exactly at the end —
        // `off == map.len()` with `len == 0` is in bounds, one past is not.
        for off in [0, 4, 8] {
            let col = Column::<u32>::mapped(Arc::clone(&map), off, 0).unwrap();
            assert!(col.is_empty());
            assert_eq!(&*col, &[] as &[u32]);
        }
        assert!(Column::<u32>::mapped(Arc::clone(&map), 9, 0).is_none());
        // An empty column still copies out like any other.
        let mut col = Column::<u32>::mapped(map, 8, 0).unwrap();
        assert!(col.is_mapped());
        assert_eq!(col.clone().into_vec(), Vec::<u32>::new());
        col.make_mut().push(11);
        assert_eq!(&*col, &[11]);
    }

    #[test]
    fn into_vec_of_a_mapped_clone_copies_without_detaching_siblings() {
        let map = mapping_of_u32s(&[7, 8, 9]);
        let col = Column::<u32>::mapped(map, 0, 3).unwrap();
        let copied = col.clone().into_vec();
        assert_eq!(copied, vec![7, 8, 9]);
        assert!(col.is_mapped(), "into_vec on the clone is a pure copy");
        assert_eq!(&*col, &[7, 8, 9]);
    }

    #[test]
    fn make_mut_on_one_clone_leaves_the_sibling_mapped_and_unchanged() {
        let map = mapping_of_u32s(&[1, 2, 3]);
        let original = Column::<u32>::mapped(map, 0, 3).unwrap();
        let mut edited = original.clone();
        edited.make_mut()[0] = 100;
        edited.make_mut().push(4);
        // Copy-on-write isolation: the edit never touches the shared bytes.
        assert_eq!(&*edited, &[100, 2, 3, 4]);
        assert!(!edited.is_mapped());
        assert!(original.is_mapped());
        assert_eq!(&*original, &[1, 2, 3]);
    }
}
