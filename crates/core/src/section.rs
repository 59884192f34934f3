//! Multi-dimensional array sections (the co-indexed `A(1:100:2, 1:80:2)`
//! syntax of CAF), in Fortran column-major layout.

/// One dimension of a section: elements `start, start+step, ...`
/// (`count` of them), all within the array's extent for that dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimRange {
    pub start: usize,
    pub count: usize,
    pub step: usize,
}

impl DimRange {
    /// The whole extent of a dimension of size `n`.
    pub fn full(n: usize) -> DimRange {
        DimRange { start: 0, count: n, step: 1 }
    }

    /// Fortran triplet `start:end:step` with **0-based, inclusive** bounds.
    pub fn triplet(start: usize, end: usize, step: usize) -> DimRange {
        assert!(step > 0, "section step must be positive");
        assert!(end >= start, "section end before start");
        DimRange { start, count: (end - start) / step + 1, step }
    }

    /// Index of the last element selected.
    pub fn last(&self) -> usize {
        self.start + (self.count - 1) * self.step
    }
}

/// A rectangular strided section of a multi-dimensional array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    dims: Vec<DimRange>,
}

/// Column-major (Fortran) linear strides of an array `shape`.
pub fn fortran_strides(shape: &[usize]) -> Vec<usize> {
    let mut s = Vec::with_capacity(shape.len());
    let mut acc = 1;
    for &d in shape {
        s.push(acc);
        acc *= d;
    }
    s
}

impl Section {
    /// Build from per-dimension ranges.
    pub fn new(dims: Vec<DimRange>) -> Section {
        assert!(!dims.is_empty(), "sections must have at least one dimension");
        for d in &dims {
            assert!(d.count > 0, "empty dimension range");
            assert!(d.step > 0, "section step must be positive");
        }
        Section { dims }
    }

    /// The full array of the given shape.
    pub fn full(shape: &[usize]) -> Section {
        Section::new(shape.iter().map(|&n| DimRange::full(n)).collect())
    }

    /// Per-dimension ranges.
    pub fn dims(&self) -> &[DimRange] {
        &self.dims
    }

    /// Rank.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Elements selected along each dimension.
    pub fn counts(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.count).collect()
    }

    /// Total elements selected.
    pub fn total(&self) -> usize {
        self.dims.iter().map(|d| d.count).product()
    }

    /// Check the section fits an array of `shape`.
    pub fn validate(&self, shape: &[usize]) -> Result<(), String> {
        if self.rank() != shape.len() {
            return Err(format!("section rank {} vs array rank {}", self.rank(), shape.len()));
        }
        for (i, (d, &n)) in self.dims.iter().zip(shape).enumerate() {
            if d.last() >= n {
                return Err(format!(
                    "dimension {i}: section reaches index {} but extent is {n}",
                    d.last()
                ));
            }
        }
        Ok(())
    }

    /// Does this section select the whole array contiguously?
    pub fn is_full_contiguous(&self, shape: &[usize]) -> bool {
        self.rank() == shape.len()
            && self
                .dims
                .iter()
                .zip(shape)
                .all(|(d, &n)| d.start == 0 && d.step == 1 && d.count == n)
    }

    /// The `2dim_strided` base-dimension rule: among the first
    /// `consider` dimensions, pick the one with the most selected elements
    /// (ties go to the lower dimension for locality).
    pub fn best_dim(&self, consider: usize) -> usize {
        let limit = consider.clamp(1, self.rank());
        let mut best = 0;
        for d in 1..limit {
            if self.dims[d].count > self.dims[best].count {
                best = d;
            }
        }
        best
    }

    /// Linear element offset of the section's first element.
    pub fn base_linear(&self, shape: &[usize]) -> usize {
        self.dims.iter().zip(fortran_strides(shape)).map(|(d, s)| d.start * s).sum()
    }

    /// For each "pencil" along `base_dim` (i.e. each combination of the other
    /// dimensions' coordinates), the pair of
    /// `(array element offset, packed element offset)` of the pencil's first
    /// element. Packed offsets address the section's elements laid out
    /// column-major in a dense buffer. Pencils come in packed order (first
    /// outer dimension fastest), one at a time: nothing is materialised.
    pub fn pencils(
        &self,
        shape: &[usize],
        base_dim: usize,
    ) -> impl ExactSizeIterator<Item = (usize, usize)> {
        assert!(base_dim < self.rank());
        // Per outer dimension: (count, array step, packed step).
        let mut outer = Vec::with_capacity(self.rank() - 1);
        let (mut stride, mut packed_stride) = (1, 1);
        for (d, (r, &extent)) in self.dims.iter().zip(shape).enumerate() {
            if d != base_dim {
                outer.push((r.count, r.step * stride, packed_stride));
            }
            stride *= extent;
            packed_stride *= r.count;
        }
        let n_pencils: usize = outer.iter().map(|o| o.0).product();
        let base = self.base_linear(shape);
        (0..n_pencils).map(move |mut p| {
            let (mut arr, mut packed) = (base, 0);
            for &(count, step, packed_step) in &outer {
                let coord = p % count;
                arr += coord * step;
                packed += coord * packed_step;
                p /= count;
            }
            (arr, packed)
        })
    }

    /// Enumerate every selected element as
    /// `(array element offset, packed element offset)`, in packed
    /// (column-major) order. The reference oracle for transfer algorithms.
    pub fn elements(&self, shape: &[usize]) -> Vec<(usize, usize)> {
        let strides = fortran_strides(shape);
        let total = self.total();
        let mut out = Vec::with_capacity(total);
        let mut coord = vec![0usize; self.rank()];
        for packed in 0..total {
            let arr: usize = self
                .dims
                .iter()
                .zip(&strides)
                .zip(&coord)
                .map(|((d, s), &c)| (d.start + c * d.step) * s)
                .sum();
            out.push((arr, packed));
            for (c, d) in coord.iter_mut().zip(&self.dims) {
                *c += 1;
                if *c < d.count {
                    break;
                }
                *c = 0;
            }
        }
        out
    }

    /// Element stride (in array elements) along `dim`, accounting for the
    /// section step.
    pub fn array_stride(&self, shape: &[usize], dim: usize) -> usize {
        self.dims[dim].step * fortran_strides(shape)[dim]
    }

    /// Packed-buffer stride (in elements) along `dim`.
    pub fn packed_stride(&self, dim: usize) -> usize {
        fortran_strides(&self.counts())[dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_counts() {
        // The paper's example: X(1:100:2) on a 100-extent dim -> 50 elements.
        let d = DimRange::triplet(0, 99, 2);
        assert_eq!(d.count, 50);
        assert_eq!(d.last(), 98);
        assert_eq!(DimRange::triplet(0, 79, 2).count, 40);
        assert_eq!(DimRange::triplet(0, 99, 4).count, 25);
        assert_eq!(DimRange::triplet(5, 5, 3).count, 1);
    }

    #[test]
    fn paper_example_call_counts() {
        // coarray_X(100,100,100), section (1:100:2, 1:80:2, 1:100:4):
        // 50 * 40 * 25 elements; best of first two dims is dim 0 (50 > 40),
        // leaving 40*25 = 1000 pencils.
        let sec = Section::new(vec![
            DimRange::triplet(0, 99, 2),
            DimRange::triplet(0, 79, 2),
            DimRange::triplet(0, 99, 4),
        ]);
        let shape = [100, 100, 100];
        sec.validate(&shape).unwrap();
        assert_eq!(sec.total(), 50 * 40 * 25);
        assert_eq!(sec.best_dim(2), 0);
        assert_eq!(sec.pencils(&shape, 0).len(), 40 * 25);
        assert_eq!(sec.pencils(&shape, 1).len(), 50 * 25);
        assert_eq!(sec.pencils(&shape, 2).len(), 50 * 40);
    }

    #[test]
    fn best_dim_considers_only_first_k() {
        let sec = Section::new(vec![
            DimRange { start: 0, count: 10, step: 2 },
            DimRange { start: 0, count: 40, step: 2 },
            DimRange { start: 0, count: 90, step: 1 },
        ]);
        assert_eq!(sec.best_dim(2), 1, "locality-limited choice");
        assert_eq!(sec.best_dim(usize::MAX), 2, "unrestricted choice (ablation)");
        assert_eq!(sec.best_dim(1), 0);
    }

    #[test]
    fn full_section_is_contiguous() {
        let shape = [4, 5];
        let sec = Section::full(&shape);
        assert!(sec.is_full_contiguous(&shape));
        assert_eq!(sec.total(), 20);
        assert_eq!(sec.base_linear(&shape), 0);
        let strided = Section::new(vec![DimRange::triplet(0, 3, 2), DimRange::full(5)]);
        assert!(!strided.is_full_contiguous(&shape));
    }

    #[test]
    fn column_major_strides() {
        assert_eq!(fortran_strides(&[10, 20, 30]), vec![1, 10, 200]);
        assert_eq!(fortran_strides(&[7]), vec![1]);
    }

    #[test]
    fn elements_enumeration_matches_manual_2d() {
        // 4x3 array, section (1:3:2, 0:2:1) -> rows {1,3}, cols {0,1,2}.
        let shape = [4, 3];
        let sec = Section::new(vec![DimRange::triplet(1, 3, 2), DimRange::full(3)]);
        let elems = sec.elements(&shape);
        // Column-major: (1,0)=1, (3,0)=3, (1,1)=5, (3,1)=7, (1,2)=9, (3,2)=11.
        assert_eq!(elems, vec![(1, 0), (3, 1), (5, 2), (7, 3), (9, 4), (11, 5)]);
    }

    #[test]
    fn pencils_match_elements() {
        let shape = [6, 5, 4];
        let sec = Section::new(vec![
            DimRange::triplet(1, 5, 2),
            DimRange::triplet(0, 4, 2),
            DimRange::triplet(1, 3, 1),
        ]);
        let elems = sec.elements(&shape);
        for base in 0..3 {
            let pencils: Vec<_> = sec.pencils(&shape, base).collect();
            let astride = sec.array_stride(&shape, base);
            let pstride = sec.packed_stride(base);
            let mut reconstructed: Vec<(usize, usize)> = Vec::new();
            for (a0, p0) in pencils {
                for k in 0..sec.dims()[base].count {
                    reconstructed.push((a0 + k * astride, p0 + k * pstride));
                }
            }
            reconstructed.sort_by_key(|&(_, p)| p);
            assert_eq!(reconstructed, elems, "base dim {base}");
        }
    }

    #[test]
    fn validate_rejects_overruns_and_rank_mismatch() {
        let sec = Section::new(vec![DimRange::triplet(0, 10, 1)]);
        assert!(sec.validate(&[10]).is_err());
        assert!(sec.validate(&[11]).is_ok());
        assert!(sec.validate(&[11, 2]).is_err());
    }

    #[test]
    fn base_linear_of_offset_section() {
        let shape = [10, 10];
        let sec = Section::new(vec![DimRange::triplet(3, 9, 2), DimRange::triplet(4, 8, 4)]);
        assert_eq!(sec.base_linear(&shape), 3 + 4 * 10);
    }
}
