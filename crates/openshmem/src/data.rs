//! Typed views over symmetric memory.
//!
//! OpenSHMEM is a C API with one entry point per type (`shmem_int_put`,
//! `shmem_double_put`, ...). In Rust we express the same surface once,
//! generically, over the [`Scalar`] trait: fixed-size plain-old-data types
//! whose bytes can be moved through the symmetric heap.

use std::marker::PhantomData;

/// A fixed-size plain-old-data element that can live in symmetric memory.
///
/// Implementations convert through native-endian byte representations; no
/// `unsafe` is involved anywhere in the data path.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + Send + 'static {
    /// Size of one element in bytes.
    const BYTES: usize;
    /// Serialize into `out` (exactly `Self::BYTES` bytes).
    fn store(self, out: &mut [u8]);
    /// Deserialize from `b` (exactly `Self::BYTES` bytes).
    fn load(b: &[u8]) -> Self;
    /// `src` itself as native-endian bytes, where no conversion is needed:
    /// `Some` only for `u8`. Every other type is converted with
    /// [`Self::store`] and [`Self::load`].
    #[inline]
    fn as_ne_bytes(_src: &[Self]) -> Option<&[u8]> {
        None
    }
    /// The mutable counterpart of [`Self::as_ne_bytes`], for reads that
    /// land straight in the caller's slice.
    #[inline]
    fn as_ne_bytes_mut(_dst: &mut [Self]) -> Option<&mut [u8]> {
        None
    }
}

macro_rules! impl_scalar {
    ($($t:ty $({ $($bulk:item)* })?),*) => {$(
        impl Scalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn store(self, out: &mut [u8]) {
                out[..Self::BYTES].copy_from_slice(&self.to_ne_bytes());
            }
            #[inline]
            fn load(b: &[u8]) -> Self {
                let mut tmp = [0u8; std::mem::size_of::<$t>()];
                tmp.copy_from_slice(&b[..Self::BYTES]);
                <$t>::from_ne_bytes(tmp)
            }
            $($($bulk)*)?
        }
    )*};
}

impl_scalar!(
    u8 {
        #[inline]
        fn as_ne_bytes(src: &[u8]) -> Option<&[u8]> {
            Some(src)
        }
        #[inline]
        fn as_ne_bytes_mut(dst: &mut [u8]) -> Option<&mut [u8]> {
            Some(dst)
        }
    },
    i8, u16, i16, u32, i32, u64, i64, f32, f64
);

/// The zero value of `T` (all bytes zero), built without a heap buffer.
/// Every `Scalar` in this crate is at most 8 bytes wide.
#[inline]
pub fn zero<T: Scalar>() -> T {
    T::load(&[0u8; 8][..T::BYTES])
}

/// Serialize every `sst`-th element of `src` into `out`, which holds exactly
/// the selected elements. The unit-stride loop walks fixed-size chunks, so
/// it vectorizes; only `sst > 1` keeps the strided walk.
pub(crate) fn encode<T: Scalar>(src: &[T], sst: usize, out: &mut [u8]) {
    if sst == 1 {
        for (slot, v) in out.chunks_exact_mut(T::BYTES).zip(src) {
            v.store(slot);
        }
    } else {
        for (slot, v) in out.chunks_exact_mut(T::BYTES).zip(src.iter().step_by(sst)) {
            v.store(slot);
        }
    }
}

/// Deserialize the elements packed in `bytes` into every `tst`-th element of
/// `out`; elements in between keep their values. The mirror of [`encode`].
pub(crate) fn decode<T: Scalar>(bytes: &[u8], out: &mut [T], tst: usize) {
    if tst == 1 {
        for (v, slot) in out.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
            *v = T::load(slot);
        }
    } else {
        for (v, slot) in out.iter_mut().step_by(tst).zip(bytes.chunks_exact(T::BYTES)) {
            *v = T::load(slot);
        }
    }
}

/// Serialize a slice of scalars into a fresh byte buffer.
pub fn to_bytes<T: Scalar>(src: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; src.len() * T::BYTES];
    encode(src, 1, &mut out);
    out
}

/// Deserialize bytes into `out` (lengths must correspond).
pub fn from_bytes<T: Scalar>(bytes: &[u8], out: &mut [T]) {
    assert_eq!(bytes.len(), out.len() * T::BYTES, "byte/element length mismatch");
    decode(bytes, out, 1);
}

/// A typed handle to a symmetric allocation: the same offset is valid in
/// every PE's heap (that is what "symmetric" means). `SymPtr` is plain data —
/// it can be stored, copied, and even shipped to other PEs.
pub struct SymPtr<T: Scalar> {
    off: usize,
    count: usize,
    _t: PhantomData<T>,
}

impl<T: Scalar> Clone for SymPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for SymPtr<T> {}

impl<T: Scalar> std::fmt::Debug for SymPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymPtr<{}>({}+{})", std::any::type_name::<T>(), self.off, self.count)
    }
}

impl<T: Scalar> PartialEq for SymPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.off == other.off && self.count == other.count
    }
}
impl<T: Scalar> Eq for SymPtr<T> {}

impl<T: Scalar> SymPtr<T> {
    pub(crate) fn new(off: usize, count: usize) -> Self {
        SymPtr { off, count, _t: PhantomData }
    }

    /// Construct a typed handle from a raw symmetric-heap byte offset.
    ///
    /// Advanced: the offset must lie within memory obtained from symmetric
    /// allocation (e.g. a sub-range of a `SymPtr<u8>` buffer). Used by
    /// runtimes that manage non-symmetric data inside a symmetric buffer,
    /// like the CAF lock queue nodes.
    pub fn from_raw_parts(off: usize, count: usize) -> SymPtr<T> {
        SymPtr::new(off, count)
    }

    /// Byte offset within the symmetric heap.
    #[inline]
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Number of `T` elements in the allocation this handle covers.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Length in bytes.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.count * T::BYTES
    }

    /// Sub-handle starting at element `i` (bounds-checked), covering the
    /// remaining elements.
    pub fn at(&self, i: usize) -> SymPtr<T> {
        assert!(i <= self.count, "index {i} out of bounds for {} elements", self.count);
        SymPtr::new(self.off + i * T::BYTES, self.count - i)
    }

    /// Sub-handle of `len` elements starting at element `i`.
    pub fn slice(&self, i: usize, len: usize) -> SymPtr<T> {
        assert!(i + len <= self.count, "slice {i}+{len} out of bounds for {}", self.count);
        SymPtr::new(self.off + i * T::BYTES, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_all_types() {
        fn rt<T: Scalar>(v: T) {
            let mut b = vec![0u8; T::BYTES];
            v.store(&mut b);
            assert_eq!(T::load(&b), v);
        }
        rt(0xABu8);
        rt(-7i8);
        rt(0xBEEFu16);
        rt(-1234i16);
        rt(0xDEAD_BEEFu32);
        rt(-123_456_789i32);
        rt(u64::MAX);
        rt(i64::MIN);
        rt(3.5f32);
        rt(-2.25e300f64);
    }

    #[test]
    fn slice_conversion_roundtrip() {
        let src = [1.5f64, -2.5, 3.25, 0.0];
        let bytes = to_bytes(&src);
        assert_eq!(bytes.len(), 32);
        let mut out = [0.0f64; 4];
        from_bytes(&bytes, &mut out);
        assert_eq!(out, src);
    }

    #[test]
    fn symptr_arithmetic() {
        let p: SymPtr<i32> = SymPtr::new(64, 10);
        assert_eq!(p.byte_len(), 40);
        let q = p.at(3);
        assert_eq!(q.offset(), 76);
        assert_eq!(q.count(), 7);
        let s = p.slice(2, 4);
        assert_eq!(s.offset(), 72);
        assert_eq!(s.count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn symptr_at_bounds_checked() {
        SymPtr::<u64>::new(0, 4).at(5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn symptr_slice_bounds_checked() {
        SymPtr::<u64>::new(0, 4).slice(2, 3);
    }
}
