//! 2-D five-point Laplace stencil with a Cartesian image grid: the
//! decomposition exchanges **contiguous** halos along dimension 1 (a column
//! of the local block is contiguous in column-major layout) and **strided**
//! halos along dimension 2 (a row is one element every `local_rows`) —
//! exercising both co-indexed transfer classes of §IV in one application.

use caf::{run_caf, Backend, CafConfig, DimRange, ImageGrid, Section, StridedAlgorithm};
use pgas_machine::Platform;

/// Problem parameters: an `n x n` interior with fixed boundary values.
#[derive(Debug, Clone, Copy)]
pub struct StencilConfig {
    pub n: usize,
    pub steps: usize,
}

/// Sequential oracle: Jacobi sweeps of the 5-point average. The boundary is
/// initialized to x+2y (a harmonic function, so the iteration converges to
/// it exactly in the limit; we only compare finite iterates).
pub fn serial_stencil(cfg: &StencilConfig) -> Vec<f64> {
    let n = cfg.n;
    let w = n + 2;
    let idx = |i: usize, j: usize| i + w * j;
    let mut u = vec![0.0f64; w * w];
    for j in 0..w {
        for i in 0..w {
            if i == 0 || j == 0 || i == w - 1 || j == w - 1 {
                u[idx(i, j)] = i as f64 + 2.0 * j as f64;
            }
        }
    }
    let mut next = u.clone();
    for _ in 0..cfg.steps {
        for j in 1..=n {
            for i in 1..=n {
                next[idx(i, j)] = 0.25
                    * (u[idx(i - 1, j)] + u[idx(i + 1, j)] + u[idx(i, j - 1)] + u[idx(i, j + 1)]);
            }
        }
        std::mem::swap(&mut u, &mut next);
    }
    // Interior only.
    let mut out = Vec::with_capacity(n * n);
    for j in 1..=n {
        for i in 1..=n {
            out.push(u[idx(i, j)]);
        }
    }
    out
}

/// Run the distributed version on a balanced 2-D image grid; returns the
/// assembled interior, identical (bitwise) to [`serial_stencil`].
pub fn parallel_stencil(
    platform: Platform,
    backend: Backend,
    strided: Option<StridedAlgorithm>,
    images: usize,
    cfg: StencilConfig,
) -> Vec<f64> {
    parallel_stencil_with_stats(platform, backend, strided, images, cfg).0
}

/// [`parallel_stencil`], also returning the job's machine counters so
/// callers can audit fault/retry totals and lock hygiene.
pub fn parallel_stencil_with_stats(
    platform: Platform,
    backend: Backend,
    strided: Option<StridedAlgorithm>,
    images: usize,
    cfg: StencilConfig,
) -> (Vec<f64>, pgas_machine::stats::StatsSnapshot) {
    let n = cfg.n;
    let grid = ImageGrid::balanced_2d(images);
    // Halo puts index the *neighbour's* block with this image's local shape,
    // so all blocks must be congruent.
    assert!(
        n.is_multiple_of(grid.dims()[0]) && n.is_multiple_of(grid.dims()[1]),
        "n = {n} must be divisible by the {:?} image grid",
        grid.dims()
    );
    let mcfg = crate::job_machine(platform, images, n * n * 8 * 2 + (1 << 17));
    let mut caf_cfg = CafConfig::new(backend, platform).with_nonsym_bytes(4096);
    if let Some(a) = strided {
        caf_cfg = caf_cfg.with_strided(a);
    }
    let out = run_caf(mcfg, caf_cfg, move |img| {
        let me = img.this_image();
        let (i0, li) = grid.block_range(me, 0, n);
        let (j0, lj) = grid.block_range(me, 1, n);
        let (wi, wj) = (li + 2, lj + 2); // with ghost ring
        let idx = |i: usize, j: usize| i + wi * j;
        // Local block coarray (ghosts included) for halo exchange.
        let block = img.coarray::<f64>(&[wi, wj]).unwrap();
        let mut u = vec![0.0f64; wi * wj];
        // Global coordinates of local (i,j): (i0 + i - 1, j0 + j - 1) in the
        // n x n interior; the physical boundary uses the +1 offset frame.
        let boundary = |gi: isize, gj: isize| (gi + 1) as f64 + 2.0 * (gj + 1) as f64;
        for j in 0..wj {
            for i in 0..wi {
                let gi = i0 as isize + i as isize - 1;
                let gj = j0 as isize + j as isize - 1;
                if gi < 0 || gj < 0 || gi >= n as isize || gj >= n as isize {
                    u[idx(i, j)] = boundary(gi, gj);
                }
            }
        }
        let mut next = u.clone();
        let left = grid.neighbor(me, 0, -1, false);
        let right = grid.neighbor(me, 0, 1, false);
        let down = grid.neighbor(me, 1, -1, false);
        let up = grid.neighbor(me, 1, 1, false);
        for _ in 0..cfg.steps {
            // Publish my border cells into the neighbours' ghost cells.
            block.write_local(img, &u);
            img.sync_all();
            // Dim-1 neighbours (left/right): my border column j=1..=lj at
            // i=1 (or li) goes to their ghost column at i=wi-1 (or 0).
            // A column slice {i fixed, j range} is strided (stride wi).
            let col = |i: usize| {
                Section::new(vec![
                    DimRange { start: i, count: 1, step: 1 },
                    DimRange { start: 1, count: lj, step: 1 },
                ])
            };
            let pack_col =
                |u: &[f64], i: usize| -> Vec<f64> { (1..=lj).map(|j| u[idx(i, j)]).collect() };
            if let Some(l) = left {
                // Neighbour has the same block shape only if the grid splits
                // evenly; we require that below.
                block.put_section(img, l, &col(wi - 1), &pack_col(&u, 1));
            }
            if let Some(r) = right {
                block.put_section(img, r, &col(0), &pack_col(&u, li));
            }
            // Dim-2 neighbours (down/up): my border row is contiguous.
            let row = |j: usize| {
                Section::new(vec![
                    DimRange { start: 1, count: li, step: 1 },
                    DimRange { start: j, count: 1, step: 1 },
                ])
            };
            let pack_row =
                |u: &[f64], j: usize| -> Vec<f64> { (1..=li).map(|i| u[idx(i, j)]).collect() };
            if let Some(d) = down {
                block.put_section(img, d, &row(wj - 1), &pack_row(&u, 1));
            }
            if let Some(t) = up {
                block.put_section(img, t, &row(0), &pack_row(&u, lj));
            }
            img.sync_all();
            // Pull received ghosts into the working array.
            let fresh = block.read_local(img);
            for j in 1..=lj {
                if left.is_some() {
                    u[idx(0, j)] = fresh[idx(0, j)];
                }
                if right.is_some() {
                    u[idx(wi - 1, j)] = fresh[idx(wi - 1, j)];
                }
            }
            for i in 1..=li {
                if down.is_some() {
                    u[idx(i, 0)] = fresh[idx(i, 0)];
                }
                if up.is_some() {
                    u[idx(i, wj - 1)] = fresh[idx(i, wj - 1)];
                }
            }
            // Jacobi sweep.
            for j in 1..=lj {
                for i in 1..=li {
                    next[idx(i, j)] = 0.25
                        * (u[idx(i - 1, j)]
                            + u[idx(i + 1, j)]
                            + u[idx(i, j - 1)]
                            + u[idx(i, j + 1)]);
                }
            }
            std::mem::swap(&mut u, &mut next);
            img.shmem().ctx().pe().compute_flops((li * lj) as f64 * 4.0);
        }
        // Assemble on image 1 (global interior, column-major n x n).
        let global = img.coarray::<f64>(&[n, n]).unwrap();
        let sec = Section::new(vec![
            DimRange { start: i0, count: li, step: 1 },
            DimRange { start: j0, count: lj, step: 1 },
        ]);
        let mut mine = Vec::with_capacity(li * lj);
        for j in 1..=lj {
            for i in 1..=li {
                mine.push(u[idx(i, j)]);
            }
        }
        global.put_section(img, 1, &sec, &mine);
        img.sync_all();
        let mut result = global.get_from(img, 1);
        img.co_broadcast(&mut result, 1);
        result
    });
    let stats = out.stats;
    (out.results.into_iter().next().unwrap(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Halo exchange requires uniform block shapes across images; keep n a
    // multiple of both grid extents in the tests.
    #[test]
    fn parallel_matches_serial_bitwise() {
        let cfg = StencilConfig { n: 12, steps: 12 };
        let serial = serial_stencil(&cfg);
        for images in [1usize, 2, 4, 9] {
            let got = parallel_stencil(Platform::GenericSmp, Backend::Shmem, None, images, cfg);
            assert_eq!(got, serial, "images={images}");
        }
    }

    #[test]
    fn converges_towards_the_harmonic_boundary() {
        // With boundary x+2y (harmonic), long iteration approaches it.
        let coarse = serial_stencil(&StencilConfig { n: 8, steps: 2 });
        let fine = serial_stencil(&StencilConfig { n: 8, steps: 400 });
        let exact = |i: usize, j: usize| (i + 1) as f64 + 2.0 * (j + 1) as f64;
        let err = |u: &[f64]| -> f64 {
            let mut e = 0.0f64;
            for j in 0..8 {
                for i in 0..8 {
                    e = e.max((u[i + 8 * j] - exact(i, j)).abs());
                }
            }
            e
        };
        assert!(err(&fine) < 1e-3, "fine error {}", err(&fine));
        assert!(err(&fine) < err(&coarse) / 100.0);
    }

    #[test]
    fn strided_algorithms_agree_on_the_stencil() {
        let cfg = StencilConfig { n: 8, steps: 6 };
        let serial = serial_stencil(&cfg);
        for algo in [StridedAlgorithm::Naive, StridedAlgorithm::TwoDim, StridedAlgorithm::Tuned] {
            let got = parallel_stencil(Platform::CrayXc30, Backend::Shmem, Some(algo), 4, cfg);
            assert_eq!(got, serial, "{algo:?}");
        }
    }
}
