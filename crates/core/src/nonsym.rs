//! Non-symmetric, remotely accessible coarray data (paper §IV-A).
//!
//! CAF programs can make *non-symmetric* data remotely accessible through
//! coarrays of derived type: an `allocatable` component may have a different
//! size — or not exist — on each image, yet other images can reach it
//! through the coarray. OpenSHMEM only exposes symmetric objects, so the
//! translation "shmallocs a buffer of equal size on all PEs at the
//! beginning of the program, and explicitly manages non-symmetric, but
//! remotely accessible, data allocations out of this buffer".
//!
//! [`NonSymArray<T>`] is that pattern, packaged: a symmetric *descriptor*
//! (packed [`RemotePtr`] + length, one per image) plus per-image payload
//! carved from the non-symmetric buffer space. Remote access first reads the
//! target's descriptor, then moves the data — exactly what a compiler emits
//! for `x[i]%comp(j)`.

use crate::image::{Image, ImageId, NonSymHandle};
use crate::remote_ptr::{RemotePtr, NIL};
use openshmem::alloc::AllocError;
use openshmem::data::{zero, Scalar, SymPtr};

/// A coarray of derived type with one allocatable array component:
/// conceptually `type t; real, allocatable :: comp(:); end type t` with
/// `type(t) :: x[*]`.
///
/// Every image participates in creation (the descriptor is symmetric), but
/// each image chooses its own component length — including zero for "not
/// allocated".
pub struct NonSymArray<T: Scalar> {
    /// Symmetric descriptor: [packed remote pointer, element count].
    descriptor: SymPtr<u64>,
    /// This image's payload, if allocated.
    local: Option<(NonSymHandle, usize)>,
    _t: std::marker::PhantomData<T>,
}

impl<T: Scalar> NonSymArray<T> {
    /// Number of elements allocated on this image.
    pub fn local_len(&self) -> usize {
        self.local.as_ref().map(|&(_, n)| n).unwrap_or(0)
    }

    /// Is this image's component allocated?
    pub fn is_local_allocated(&self) -> bool {
        self.local.is_some()
    }
}

impl<'m> Image<'m> {
    /// Collectively create the derived-type coarray, allocating `local_len`
    /// elements of component data on this image (may differ per image;
    /// zero means "component not allocated here"). Implies `sync all`, like
    /// any coarray allocation.
    pub fn nonsym_array<T: Scalar>(&self, local_len: usize) -> Result<NonSymArray<T>, AllocError> {
        let descriptor = self.shmem().shmalloc::<u64>(2)?;
        let local = if local_len > 0 {
            let h = self.alloc_nonsym(local_len * T::BYTES)?;
            let ptr = RemotePtr::new(self.this_image() - 1, h.offset).pack();
            self.shmem().write_local(descriptor, &[ptr, local_len as u64]);
            Some((h, local_len))
        } else {
            self.shmem().write_local(descriptor, &[NIL, 0]);
            None
        };
        self.sync_all();
        Ok(NonSymArray { descriptor, local, _t: std::marker::PhantomData })
    }

    /// Read the remote descriptor of `image`'s component: `(data location,
    /// element count)`, or `None` when not allocated there.
    pub fn nonsym_descriptor<T: Scalar>(
        &self,
        arr: &NonSymArray<T>,
        image: ImageId,
    ) -> Option<(RemotePtr, usize)> {
        let pe = self.pe_of(image);
        let mut desc = [0u64; 2];
        self.statement_quiet();
        self.shmem().get(arr.descriptor, &mut desc, pe);
        RemotePtr::unpack(desc[0]).map(|p| (p, desc[1] as usize))
    }

    /// `data = x[image]%comp(:)` — fetch the whole remote component.
    /// Panics if the component is not allocated on `image` (a CAF error
    /// condition).
    pub fn nonsym_get<T: Scalar>(&self, arr: &NonSymArray<T>, image: ImageId) -> Vec<T> {
        let (ptr, len) = self
            .nonsym_descriptor(arr, image)
            .unwrap_or_else(|| panic!("component not allocated on image {image}"));
        let mut out = vec![zero::<T>(); len];
        let data = SymPtr::<T>::from_raw_parts(self.nonsym_abs(ptr.offset), len);
        // The data lives on the image recorded in the pointer (== `image`).
        self.shmem().get(data, &mut out, ptr.image);
        out
    }

    /// `x[image]%comp(start..) = data` — overwrite part of the remote
    /// component.
    pub fn nonsym_put<T: Scalar>(
        &self,
        arr: &NonSymArray<T>,
        image: ImageId,
        start: usize,
        data: &[T],
    ) {
        let (ptr, len) = self
            .nonsym_descriptor(arr, image)
            .unwrap_or_else(|| panic!("component not allocated on image {image}"));
        assert!(
            start + data.len() <= len,
            "write of {} elements at {start} overruns component of {len}",
            data.len()
        );
        let data_ptr =
            SymPtr::<T>::from_raw_parts(self.nonsym_abs(ptr.offset) + start * T::BYTES, data.len());
        self.shmem().put(data_ptr, data, ptr.image);
        self.statement_quiet();
    }

    /// Read this image's own component.
    pub fn nonsym_read_local<T: Scalar>(&self, arr: &NonSymArray<T>) -> Vec<T> {
        match arr.local {
            None => Vec::new(),
            Some((h, n)) => {
                let ptr = SymPtr::<T>::from_raw_parts(self.nonsym_abs(h.offset), n);
                let mut out = vec![zero::<T>(); n];
                self.shmem().read_local(ptr, &mut out);
                out
            }
        }
    }

    /// Overwrite this image's own component.
    pub fn nonsym_write_local<T: Scalar>(&self, arr: &NonSymArray<T>, data: &[T]) {
        let (h, n) = arr.local.expect("component not allocated on this image");
        assert!(data.len() <= n);
        let ptr = SymPtr::<T>::from_raw_parts(self.nonsym_abs(h.offset), n);
        self.shmem().write_local(ptr, data);
    }

    /// Collectively deallocate (frees the local payload and the symmetric
    /// descriptor). Implies `sync all`.
    pub fn free_nonsym_array<T: Scalar>(&self, arr: NonSymArray<T>) -> Result<(), AllocError> {
        self.sync_all();
        if let Some((h, _)) = arr.local {
            self.free_nonsym(h)?;
        }
        self.shmem().shfree(arr.descriptor)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Backend, CafConfig};
    use crate::runtime::{run_caf, run_caf_result};
    use pgas_machine::{generic_smp, Platform};

    fn cfg() -> CafConfig {
        CafConfig::new(Backend::Shmem, Platform::GenericSmp)
    }

    fn mcfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 18)
    }

    #[test]
    fn different_lengths_per_image() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            // Image i allocates i*3 elements (image 4: none).
            let len = if img.this_image() == 4 { 0 } else { img.this_image() * 3 };
            let arr = img.nonsym_array::<i64>(len).unwrap();
            let mine: Vec<i64> =
                (0..len as i64).map(|k| img.this_image() as i64 * 100 + k).collect();
            if len > 0 {
                img.nonsym_write_local(&arr, &mine);
            }
            img.sync_all();
            // Everyone reads image 2's component (6 elements).
            let remote = img.nonsym_get(&arr, 2);
            let not_alloc = img.nonsym_descriptor(&arr, 4).is_none();
            img.sync_all();
            (remote, not_alloc)
        });
        for (remote, not_alloc) in out.results {
            assert_eq!(remote, vec![200, 201, 202, 203, 204, 205]);
            assert!(not_alloc, "image 4's component reads as unallocated");
        }
    }

    #[test]
    fn remote_writes_into_component() {
        let out = run_caf(mcfg(3), cfg(), |img| {
            let arr = img.nonsym_array::<f64>(8).unwrap();
            img.nonsym_write_local(&arr, &[0.0; 8]);
            img.sync_all();
            if img.this_image() == 1 {
                // Write into the middle of image 3's component.
                img.nonsym_put(&arr, 3, 2, &[1.5, 2.5, 3.5]);
            }
            img.sync_all();
            img.nonsym_read_local(&arr)
        });
        assert_eq!(out.results[2], vec![0.0, 0.0, 1.5, 2.5, 3.5, 0.0, 0.0, 0.0]);
        assert_eq!(out.results[0], vec![0.0; 8], "other images untouched");
    }

    #[test]
    fn descriptor_roundtrip_and_free() {
        run_caf(mcfg(2), cfg(), |img| {
            let used_before = img.nonsym_in_use();
            let arr = img.nonsym_array::<i32>(10).unwrap();
            assert_eq!(arr.local_len(), 10);
            assert!(arr.is_local_allocated());
            let (ptr, len) = img.nonsym_descriptor(&arr, img.this_image()).unwrap();
            assert_eq!(ptr.image, img.this_image() - 1);
            assert_eq!(len, 10);
            img.free_nonsym_array(arr).unwrap();
            assert_eq!(img.nonsym_in_use(), used_before, "payload reclaimed");
        });
    }

    #[test]
    fn get_from_unallocated_component_is_an_error() {
        let err = run_caf_result(mcfg(2), cfg(), |img| {
            let len = if img.this_image() == 1 { 4 } else { 0 };
            let arr = img.nonsym_array::<i64>(len).unwrap();
            img.sync_all();
            let _ = img.nonsym_get(&arr, 2); // image 2 never allocated
            img.sync_all();
        })
        .unwrap_err();
        assert!(err.message.contains("not allocated"), "got: {}", err.message);
    }

    #[test]
    fn out_of_bounds_component_write_is_an_error() {
        let err = run_caf_result(mcfg(2), cfg(), |img| {
            let arr = img.nonsym_array::<i64>(4).unwrap();
            img.sync_all();
            if img.this_image() == 1 {
                img.nonsym_put(&arr, 2, 3, &[1, 2]); // 3 + 2 > 4
            }
            img.sync_all();
        })
        .unwrap_err();
        assert!(err.message.contains("overruns"), "got: {}", err.message);
    }
}
