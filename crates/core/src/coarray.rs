//! Coarrays: symmetric, remotely accessible arrays with co-indexed access.

use crate::failure::CafStat;
use crate::image::{Image, ImageId};
use crate::section::Section;
use openshmem::alloc::AllocError;
use openshmem::data::{zero, Scalar, SymPtr};

/// A coarray of element type `T` with a local array of `shape`
/// (column-major, Fortran-style). Both `save` coarrays and `allocatable`
/// coarrays map to the same symmetric allocation (paper §IV-A); the
/// difference in CAF is purely syntactic.
///
/// Co-indexed remote access (`a(i,j)[k]`) maps to the `*_to`/`*_from`
/// methods, which take 1-based image indices like Fortran.
pub struct Coarray<T: Scalar> {
    ptr: SymPtr<T>,
    shape: Box<[usize]>,
}

impl<T: Scalar> Coarray<T> {
    /// Element count of the local array.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// True when the local array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local array shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The symmetric allocation behind the coarray.
    pub fn ptr(&self) -> SymPtr<T> {
        self.ptr
    }

    /// Column-major linear index of `idx`.
    pub fn linear(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut lin = 0;
        let mut stride = 1;
        for (d, (&i, &n)) in idx.iter().zip(self.shape.iter()).enumerate() {
            assert!(i < n, "index {i} out of bounds for dimension {d} of extent {n}");
            lin += i * stride;
            stride *= n;
        }
        lin
    }

    // ---- local access -------------------------------------------------------

    /// Read this image's entire local array.
    pub fn read_local(&self, img: &Image<'_>) -> Vec<T> {
        let mut out = vec![zero::<T>(); self.len()];
        img.shmem().read_local(self.ptr, &mut out);
        out
    }

    /// Overwrite this image's local array.
    pub fn write_local(&self, img: &Image<'_>, data: &[T]) {
        assert!(data.len() <= self.len());
        img.shmem().write_local(self.ptr, data);
    }

    /// Read one local element.
    pub fn local_elem(&self, img: &Image<'_>, idx: &[usize]) -> T {
        img.shmem().read_local_one(self.ptr.at(self.linear(idx)))
    }

    /// Write one local element.
    pub fn set_local_elem(&self, img: &Image<'_>, idx: &[usize], v: T) {
        img.shmem().write_local(self.ptr.at(self.linear(idx)), &[v]);
    }

    // ---- co-indexed contiguous access ----------------------------------------

    /// `a(:)[image] = data`: contiguous put of the whole array.
    pub fn put_to(&self, img: &Image<'_>, image: ImageId, data: &[T]) {
        assert!(data.len() <= self.len());
        img.shmem().put(self.ptr, data, img.pe_of(image));
        img.statement_quiet();
    }

    /// `data = a(:)[image]`: contiguous get of the whole array.
    pub fn get_from(&self, img: &Image<'_>, image: ImageId) -> Vec<T> {
        let mut out = vec![zero::<T>(); self.len()];
        img.statement_quiet();
        img.shmem().get(self.ptr, &mut out, img.pe_of(image));
        out
    }

    /// `a(idx)[image] = v`.
    pub fn put_elem(&self, img: &Image<'_>, image: ImageId, idx: &[usize], v: T) {
        img.shmem().p(self.ptr.at(self.linear(idx)), v, img.pe_of(image));
        img.statement_quiet();
    }

    /// `v = a(idx)[image]`.
    pub fn get_elem(&self, img: &Image<'_>, image: ImageId, idx: &[usize]) -> T {
        img.statement_quiet();
        img.shmem().g(self.ptr.at(self.linear(idx)), img.pe_of(image))
    }

    // ---- stat-bearing co-indexed access (Fortran 2018 stat= on the
    // ---- assignment's image selector) ----------------------------------------

    /// `a(:)[image] = data (stat=s)`: fallible contiguous put. Reports
    /// STAT_FAILED_IMAGE for a dead target and a communication failure when
    /// the conduit's retry budget runs out.
    pub fn put_to_stat(&self, img: &Image<'_>, image: ImageId, data: &[T]) -> Result<(), CafStat> {
        assert!(data.len() <= self.len());
        img.shmem().try_put(self.ptr, data, img.pe_of(image))?;
        img.try_statement_quiet()?;
        Ok(())
    }

    /// `data = a(:)[image] (stat=s)`: fallible contiguous get.
    pub fn get_from_stat(&self, img: &Image<'_>, image: ImageId) -> Result<Vec<T>, CafStat> {
        let mut out = vec![zero::<T>(); self.len()];
        img.try_statement_quiet()?;
        img.shmem().try_get(self.ptr, &mut out, img.pe_of(image))?;
        Ok(out)
    }

    /// `a(idx)[image] = v (stat=s)`.
    pub fn put_elem_stat(
        &self,
        img: &Image<'_>,
        image: ImageId,
        idx: &[usize],
        v: T,
    ) -> Result<(), CafStat> {
        img.shmem().try_put(self.ptr.at(self.linear(idx)), &[v], img.pe_of(image))?;
        img.try_statement_quiet()?;
        Ok(())
    }

    /// `v = a(idx)[image] (stat=s)`.
    pub fn get_elem_stat(
        &self,
        img: &Image<'_>,
        image: ImageId,
        idx: &[usize],
    ) -> Result<T, CafStat> {
        let mut out = [zero::<T>()];
        img.try_statement_quiet()?;
        img.shmem().try_get(self.ptr.at(self.linear(idx)), &mut out, img.pe_of(image))?;
        Ok(out[0])
    }

    // ---- co-indexed section access (strided RMA, §IV-C) -----------------------

    /// `a(section)[image] = data`: strided put using the runtime's configured
    /// algorithm. `data` holds the section's elements packed column-major.
    pub fn put_section(&self, img: &Image<'_>, image: ImageId, sec: &Section, data: &[T]) {
        crate::strided::put_section(
            img.shmem(),
            img.config().strided_algorithm(),
            img.pe_of(image),
            self.ptr,
            &self.shape,
            sec,
            data,
        );
        img.statement_quiet();
    }

    /// `data = a(section)[image]`: strided get; returns packed elements.
    pub fn get_section(&self, img: &Image<'_>, image: ImageId, sec: &Section) -> Vec<T> {
        img.statement_quiet();
        crate::strided::get_section(
            img.shmem(),
            img.config().strided_algorithm(),
            img.pe_of(image),
            self.ptr,
            &self.shape,
            sec,
        )
    }
}

impl<'m> Image<'m> {
    /// Allocate a coarray (`allocate(a(shape)[*])`) — collective, symmetric.
    /// Like Fortran's `allocate` of a coarray, this implies `sync all`: no
    /// image returns until every image's instance exists (and here, is
    /// zero-initialized), so remote access is immediately safe.
    pub fn coarray<T: Scalar>(&self, shape: &[usize]) -> Result<Coarray<T>, AllocError> {
        self.coarray_filled(shape, zero::<T>())
    }

    /// Allocate and fill with `value`. Collective; implies `sync all`.
    pub fn coarray_filled<T: Scalar>(
        &self,
        shape: &[usize],
        value: T,
    ) -> Result<Coarray<T>, AllocError> {
        assert!(!shape.is_empty(), "coarrays must have at least one dimension");
        let len: usize = shape.iter().product();
        let ptr = self.shmem().shmalloc::<T>(len)?;
        let c = Coarray { ptr, shape: shape.into() };
        self.shmem().write_local(ptr, &vec![value; len]);
        self.sync_all();
        Ok(c)
    }

    /// Deallocate a coarray (`deallocate`) — collective. Implies `sync all`
    /// (per Fortran semantics) so no image frees storage a peer may still
    /// be accessing.
    pub fn free_coarray<T: Scalar>(&self, c: Coarray<T>) -> Result<(), AllocError> {
        self.sync_all();
        self.shmem().shfree(c.ptr)
    }
}

/// Codimension mapping: CAF's `[d1, d2, ..., *]` cosubscript-to-image rule
/// (Fortran 2008 §2.4.7 semantics, 1-based cosubscripts).
#[derive(Debug, Clone)]
pub struct CoDims {
    /// Extents of all but the last codimension (the last is `*`).
    fixed: Vec<usize>,
}

impl CoDims {
    /// `[*]` — the common single-codimension case.
    pub fn star() -> CoDims {
        CoDims { fixed: Vec::new() }
    }

    /// `[d1, d2, ..., *]`.
    pub fn new(fixed: &[usize]) -> CoDims {
        assert!(fixed.iter().all(|&d| d > 0), "codimension extents must be positive");
        CoDims { fixed: fixed.to_vec() }
    }

    /// Number of cosubscripts (including the final `*`).
    pub fn corank(&self) -> usize {
        self.fixed.len() + 1
    }

    /// Map 1-based cosubscripts to a 1-based image index.
    pub fn image_of(&self, cosubs: &[usize]) -> ImageId {
        assert_eq!(cosubs.len(), self.corank(), "cosubscript rank mismatch");
        let mut image = 0;
        let mut stride = 1;
        for (i, (&c, &d)) in cosubs.iter().zip(self.fixed.iter()).enumerate() {
            assert!(c >= 1 && c <= d, "cosubscript {i} = {c} outside 1..={d}");
            image += (c - 1) * stride;
            stride *= d;
        }
        image += (cosubs[self.corank() - 1] - 1) * stride;
        image + 1
    }

    /// `lcobound`: lower cosubscript bound of codimension `d` (always 1 in
    /// this model, as with default Fortran cobounds).
    pub fn lcobound(&self, d: usize) -> usize {
        assert!(d < self.corank(), "codimension {d} out of range");
        1
    }

    /// `ucobound`: upper cosubscript bound of codimension `d` for a job of
    /// `num_images` images. The final codimension's bound follows from the
    /// image count (Fortran 2008 rules for `[*]`).
    pub fn ucobound(&self, d: usize, num_images: usize) -> usize {
        assert!(d < self.corank(), "codimension {d} out of range");
        if d < self.fixed.len() {
            self.fixed[d]
        } else {
            let inner: usize = self.fixed.iter().product();
            num_images.div_ceil(inner)
        }
    }

    /// Inverse mapping: the cosubscripts of a 1-based image
    /// (`this_image(coarray)` in Fortran).
    pub fn cosubscripts_of(&self, image: ImageId) -> Vec<usize> {
        assert!(image >= 1);
        let mut rem = image - 1;
        let mut out = Vec::with_capacity(self.corank());
        for &d in &self.fixed {
            out.push(rem % d + 1);
            rem /= d;
        }
        out.push(rem + 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, CafConfig};
    use crate::runtime::run_caf;
    use crate::section::{DimRange, Section};
    use pgas_machine::{generic_smp, Platform};

    fn cfg() -> CafConfig {
        CafConfig::new(Backend::Shmem, Platform::GenericSmp)
    }

    fn mcfg(n: usize) -> pgas_machine::MachineConfig {
        generic_smp(n).with_heap_bytes(1 << 18)
    }

    #[test]
    fn figure1_program() {
        // The CAF side of the paper's Figure 1, faithfully:
        //   integer :: coarray_x(4)[*]
        //   integer, allocatable :: coarray_y(:)[:]
        //   coarray_x = my_image; coarray_y = 0
        //   coarray_y(2) = coarray_x(3)[4]
        //   coarray_x(1)[4] = coarray_y(2)
        //   sync all
        let out = run_caf(mcfg(4), cfg(), |img| {
            let x = img.coarray::<i32>(&[4]).unwrap();
            let y = img.coarray::<i32>(&[4]).unwrap(); // "allocatable"
            let me = img.this_image() as i32;
            x.write_local(img, &[me; 4]);
            y.write_local(img, &[0; 4]);
            img.sync_all();
            let v = x.get_elem(img, 4, &[2]);
            y.set_local_elem(img, &[1], v);
            x.put_elem(img, 4, &[0], y.local_elem(img, &[1]));
            img.sync_all();
            (y.local_elem(img, &[1]), x.read_local(img))
        });
        for (i, (y2, xs)) in out.results.iter().enumerate() {
            assert_eq!(*y2, 4);
            if i == 3 {
                assert_eq!(xs[0], 4, "image 4's x(1) was overwritten with 4");
            } else {
                assert_eq!(xs[0], (i + 1) as i32);
            }
        }
    }

    #[test]
    fn multidim_linear_index() {
        let out = run_caf(mcfg(1), cfg(), |img| {
            let a = img.coarray::<f64>(&[3, 4, 5]).unwrap();
            (a.linear(&[0, 0, 0]), a.linear(&[2, 0, 0]), a.linear(&[0, 1, 0]), a.linear(&[1, 2, 3]))
        });
        assert_eq!(out.results[0], (0, 2, 3, 1 + 2 * 3 + 3 * 12));
    }

    #[test]
    fn ring_exchange() {
        let out = run_caf(mcfg(4), cfg(), |img| {
            let a = img.coarray::<i64>(&[8]).unwrap();
            let me = img.this_image();
            let next = me % img.num_images() + 1;
            let data: Vec<i64> = (0..8).map(|k| (me * 100 + k) as i64).collect();
            img.sync_all();
            a.put_to(img, next, &data);
            img.sync_all();
            a.read_local(img)
        });
        for (i, r) in out.results.iter().enumerate() {
            let from = if i == 0 { 4 } else { i }; // image that wrote to me
            let expect: Vec<i64> = (0..8).map(|k| (from * 100 + k) as i64).collect();
            assert_eq!(r, &expect);
        }
    }

    #[test]
    fn section_roundtrip_via_runtime_algorithms() {
        use crate::config::StridedAlgorithm::*;
        for algo in [Naive, OneDim, TwoDim, BestOfAll, AmPacked] {
            let out = run_caf(mcfg(2), cfg().with_strided(algo), |img| {
                let a = img.coarray::<i32>(&[10, 8]).unwrap();
                img.sync_all();
                let sec =
                    Section::new(vec![DimRange::triplet(1, 9, 2), DimRange::triplet(0, 7, 3)]);
                if img.this_image() == 1 {
                    let data: Vec<i32> = (0..sec.total() as i32).collect();
                    a.put_section(img, 2, &sec, &data);
                }
                img.sync_all();
                if img.this_image() == 2 {
                    let local = a.read_local(img);
                    let fetched = a.get_section(img, 2, &sec);
                    Some((local, fetched))
                } else {
                    None
                }
            });
            let (local, fetched) = out.results[1].clone().unwrap();
            // The section selects rows {1,3,5,7,9} x cols {0,3,6}.
            let mut expect_packed = Vec::new();
            let mut k = 0;
            for col in [0usize, 3, 6] {
                for row in [1usize, 3, 5, 7, 9] {
                    assert_eq!(local[row + 10 * col], k, "{algo:?} elem ({row},{col})");
                    expect_packed.push(k);
                    k += 1;
                }
            }
            assert_eq!(fetched, expect_packed, "{algo:?} get_section");
            // Unselected elements stay zero.
            assert_eq!(local.iter().filter(|&&v| v != 0).count() + 1, 15, "{algo:?}");
        }
    }

    #[test]
    fn allocatable_coarray_free_and_reuse() {
        run_caf(mcfg(2), cfg(), |img| {
            let a = img.coarray::<f64>(&[1000]).unwrap();
            let before = img.shmem().symmetric_in_use();
            img.free_coarray(a).unwrap();
            assert!(img.shmem().symmetric_in_use() < before);
            let b = img.coarray_filled::<f64>(&[1000], 1.5).unwrap();
            assert_eq!(b.read_local(img)[999], 1.5);
        });
    }

    #[test]
    fn codims_star_is_identity() {
        let cd = CoDims::star();
        assert_eq!(cd.corank(), 1);
        for img in 1..=10 {
            assert_eq!(cd.image_of(&[img]), img);
            assert_eq!(cd.cosubscripts_of(img), vec![img]);
        }
    }

    #[test]
    fn codims_grid_mapping() {
        // [3, *] over 12 images: image = c1 + 3*(c2-1).
        let cd = CoDims::new(&[3]);
        assert_eq!(cd.corank(), 2);
        assert_eq!(cd.image_of(&[1, 1]), 1);
        assert_eq!(cd.image_of(&[3, 1]), 3);
        assert_eq!(cd.image_of(&[1, 2]), 4);
        assert_eq!(cd.image_of(&[2, 4]), 11);
        for img in 1..=12 {
            assert_eq!(cd.image_of(&cd.cosubscripts_of(img)), img);
        }
    }

    #[test]
    fn cobound_queries() {
        let cd = CoDims::new(&[3, 2]);
        assert_eq!(cd.lcobound(0), 1);
        assert_eq!(cd.lcobound(2), 1);
        assert_eq!(cd.ucobound(0, 24), 3);
        assert_eq!(cd.ucobound(1, 24), 2);
        assert_eq!(cd.ucobound(2, 24), 4, "24 images / (3*2) = 4");
        assert_eq!(cd.ucobound(2, 23), 4, "partial final coplane rounds up");
        assert_eq!(CoDims::star().ucobound(0, 7), 7);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn codims_bounds_checked() {
        CoDims::new(&[3]).image_of(&[4, 1]);
    }
}
