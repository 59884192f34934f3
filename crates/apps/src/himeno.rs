//! The Himeno benchmark in CAF (paper §V-D, Figure 10).
//!
//! Himeno measures an incompressible-fluid pressure solver: Jacobi
//! iterations of a 19-point stencil for Poisson's equation. The CAF version
//! decomposes the grid along the second dimension, which makes the halo a
//! *matrix-oriented* strided section: contiguous pencils along dimension 1,
//! strided across dimension 3 — exactly the communication pattern whose
//! interaction with `shmem_iput` §V-D analyzes.
//!
//! Performance is reported in MFLOPS with the canonical 34 flops/cell/iter.

use caf::{run_caf, Backend, CafConfig, DimRange, Section, StridedAlgorithm};
use pgas_machine::stats::StatsSnapshot;
use pgas_machine::Platform;

/// Grid and iteration parameters.
#[derive(Debug, Clone, Copy)]
pub struct HimenoConfig {
    pub imax: usize,
    pub jmax: usize,
    pub kmax: usize,
    pub iters: usize,
}

impl HimenoConfig {
    /// Himeno size S (65×65×129), the paper's generation of grid sizes.
    pub fn size_s() -> HimenoConfig {
        HimenoConfig { imax: 65, jmax: 65, kmax: 129, iters: 8 }
    }

    /// Himeno size M (129×129×257). The j-decomposition caps images at
    /// `jmax - 2 = 127`, so this is the smallest canonical grid that
    /// reaches Figure 10's full 128-image x axis.
    pub fn size_m() -> HimenoConfig {
        HimenoConfig { imax: 129, jmax: 129, kmax: 257, iters: 4 }
    }

    /// Himeno size XS (33×33×65) for quick runs and tests.
    pub fn size_xs() -> HimenoConfig {
        HimenoConfig { imax: 33, jmax: 33, kmax: 65, iters: 6 }
    }

    /// A tiny grid for unit tests.
    pub fn tiny() -> HimenoConfig {
        HimenoConfig { imax: 9, jmax: 12, kmax: 7, iters: 4 }
    }

    fn interior_cells(&self) -> f64 {
        ((self.imax - 2) * (self.jmax - 2) * (self.kmax - 2)) as f64
    }
}

/// Benchmark outcome.
#[derive(Debug, Clone, Copy)]
pub struct HimenoResult {
    pub mflops: f64,
    pub gosa: f64,
    pub time_ms: f64,
    /// Machine counters for the whole job (fault/retry totals, lock leaks).
    pub stats: StatsSnapshot,
}

const OMEGA: f32 = 0.8;
const A3: f32 = 1.0 / 6.0;

/// Sequential oracle: runs the same stencil on one address space and
/// returns the `gosa` residual of each iteration.
pub fn serial_gosa(cfg: &HimenoConfig) -> Vec<f64> {
    let (im, jm, km) = (cfg.imax, cfg.jmax, cfg.kmax);
    let idx = |i: usize, j: usize, k: usize| i + im * (j + jm * k);
    let mut p = vec![0.0f32; im * jm * km];
    for k in 0..km {
        let v = (k * k) as f32 / ((km - 1) * (km - 1)) as f32;
        for j in 0..jm {
            for i in 0..im {
                p[idx(i, j, k)] = v;
            }
        }
    }
    let mut out = Vec::with_capacity(cfg.iters);
    let mut wrk = p.clone();
    for _ in 0..cfg.iters {
        let mut gosa = 0.0f64;
        for k in 1..km - 1 {
            for j in 1..jm - 1 {
                let row = idx(0, j, k);
                sweep_row(&p, &mut wrk[row..row + im], row, im, im * jm, &mut gosa);
            }
        }
        // `wrk` now holds every interior cell's new value and the same
        // fixed boundary as `p`; the next sweep overwrites all of the
        // interior it receives.
        std::mem::swap(&mut p, &mut wrk);
        out.push(gosa);
    }
    out
}

/// Cells per chunk of [`sweep_row`]'s stencil pass.
const SWEEP_CHUNK: usize = 64;

/// One row of the Jacobi sweep: the 19-point Himeno stencil residual
/// (a=[1,1,1,1/6], b=[0,0,0], c=[1,1,1], bnd=1, wrk1=0) at the interior
/// cells `1..im-1` of the row starting at linear index `row` of `p`, with
/// `sj`/`sk` the strides of the other two dimensions. Writes the relaxed
/// pressures into `wrk_row` and adds the squared residuals to `gosa`, cell
/// by cell in `i` order.
///
/// The row goes in chunks of at most [`SWEEP_CHUNK`] cells, each in two
/// passes. The stencil pass computes every cell's residual `ss` into a
/// stack buffer and its relaxed pressure into `wrk_row`; its cells are
/// independent, so it vectorizes, and every cell keeps the same f32
/// expression order, so every lane rounds as the scalar loop would. The
/// fold pass then adds `ss²` to `gosa` in f64, in `i` order. Kept in one
/// loop, that serial f64 sum held the whole stencil scalar; split off, it
/// sums in the same order and `gosa` stays bit-identical.
#[inline]
fn sweep_row(p: &[f32], wrk_row: &mut [f32], row: usize, sj: usize, sk: usize, gosa: &mut f64) {
    let im = wrk_row.len();
    let mut ss = [0.0f32; SWEEP_CHUNK];
    let mut lo = 1;
    while lo < im - 1 {
        let n = SWEEP_CHUNK.min(im - 1 - lo);
        // Cells lo-1 ..= lo+n of each neighbour row: cell `lo + i` is at
        // `i + 1`, its `i - 1` neighbour at `i` and its `i + 1` at `i + 2`.
        let at = |o: usize| &p[o + lo - 1..][..n + 2];
        let (c, jp, jm, kp, km) = (at(row), at(row + sj), at(row - sj), at(row + sk), at(row - sk));
        let (jpkp, jmkp) = (at(row + sj + sk), at(row - sj + sk));
        let (jpkm, jmkm) = (at(row + sj - sk), at(row - sj - sk));
        let wrk = &mut wrk_row[lo..][..n];
        for (i, (s, w)) in ss[..n].iter_mut().zip(wrk.iter_mut()).enumerate() {
            let s0 = c[i + 2]
                + jp[i + 1]
                + kp[i + 1]
                + 0.0 * (jp[i + 2] - jm[i + 2] - jp[i] + jm[i])
                + 0.0 * (jpkp[i + 1] - jmkp[i + 1] - jpkm[i + 1] + jmkm[i + 1])
                + 0.0 * (kp[i + 2] - kp[i] - km[i + 2] + km[i])
                + c[i]
                + jm[i + 1]
                + km[i + 1];
            *s = (s0 * A3 - c[i + 1]) * 1.0;
            *w = c[i + 1] + OMEGA * *s;
        }
        for &s in &ss[..n] {
            *gosa += (s as f64) * (s as f64);
        }
        lo += n;
    }
}

/// Run the CAF Himeno benchmark on `images` images (requires
/// `images <= jmax - 2` so every image owns at least one interior plane).
pub fn run_himeno(
    platform: Platform,
    backend: Backend,
    strided: Option<StridedAlgorithm>,
    images: usize,
    cfg: HimenoConfig,
) -> HimenoResult {
    run_himeno_outcome(platform, backend, strided, images, cfg).0
}

/// Like [`run_himeno`], also returning the full simulation outcome (trace,
/// metrics, per-PE clocks) for observability tooling such as the
/// `pgas_top` critical-path profiler example.
pub fn run_himeno_outcome(
    platform: Platform,
    backend: Backend,
    strided: Option<StridedAlgorithm>,
    images: usize,
    cfg: HimenoConfig,
) -> (HimenoResult, pgas_machine::SimOutcome<(u64, f64)>) {
    assert!(images <= cfg.jmax - 2, "too many images ({images}) for jmax {}", cfg.jmax);
    let cores = 16.min(images);
    let nodes = images.div_ceil(cores);
    let ghost_bytes = cfg.imax * 2 * cfg.kmax * 4;
    let mcfg = platform
        .config(nodes, cores)
        .with_heap_bytes((4 * ghost_bytes + (1 << 16)).next_power_of_two());
    let mut caf_cfg = CafConfig::new(backend, platform).with_nonsym_bytes(4096);
    if let Some(a) = strided {
        caf_cfg = caf_cfg.with_strided(a);
    }
    let out = run_caf(mcfg, caf_cfg, move |img| {
        let (im, jm, km) = (cfg.imax, cfg.jmax, cfg.kmax);
        let n = img.num_images();
        let me = img.this_image();
        // Block distribution of global j columns.
        let base = jm / n;
        let extra = jm % n;
        let j0 = (me - 1) * base + (me - 1).min(extra);
        let jloc = base + usize::from(me - 1 < extra);
        let jtot = jloc + 2; // plus ghost planes
        let idx = |i: usize, j: usize, k: usize| i + im * (j + jtot * k);

        // Ghost-plane coarray: plane 0 = from the left, plane 1 = from the
        // right neighbour.
        let ghosts = img.coarray::<f32>(&[im, 2, km]).unwrap();
        let plane_sec = |t: usize| {
            Section::new(vec![
                DimRange::full(im),
                DimRange { start: t, count: 1, step: 1 },
                DimRange::full(km),
            ])
        };

        // Local pressure grid with ghosts (local j: 0 ghost, 1..=jloc owned,
        // jloc+1 ghost).
        let mut p = vec![0.0f32; im * jtot * km];
        for k in 0..km {
            let v = (k * k) as f32 / ((km - 1) * (km - 1)) as f32;
            for jl in 0..jtot {
                for i in 0..im {
                    p[idx(i, jl, k)] = v;
                }
            }
        }
        let mut wrk = p.clone();

        let left = (me > 1).then(|| me - 1);
        let right = (me < n).then(|| me + 1);
        // One pack buffer and the two ghost-plane sections serve every
        // iteration.
        let (from_left, from_right) = (plane_sec(0), plane_sec(1));
        let mut plane = vec![0.0f32; im * km];
        let pack_plane = |p: &[f32], jl: usize, plane: &mut [f32]| {
            for (k, row) in plane.chunks_exact_mut(im).enumerate() {
                row.copy_from_slice(&p[idx(0, jl, k)..][..im]);
            }
        };
        // Owned local planes minus the fixed global boundary planes (global
        // j = 0 and j = jm - 1).
        let interior = 1 + usize::from(j0 == 0)..jloc + 1 - usize::from(j0 + jloc == jm);

        let t0 = img.shmem().ctx().pe().now();
        let mut gosa_global = 0.0f64;
        for _ in 0..cfg.iters {
            // Halo exchange: my first owned plane -> left neighbour's
            // "from right" ghost; my last owned plane -> right neighbour's
            // "from left" ghost.
            if let Some(l) = left {
                pack_plane(&p, 1, &mut plane);
                ghosts.put_section(img, l, &from_right, &plane);
            }
            if let Some(r) = right {
                pack_plane(&p, jloc, &mut plane);
                ghosts.put_section(img, r, &from_left, &plane);
            }
            img.sync_all();
            let gdata = ghosts.read_local(img);
            for (k, pair) in gdata.chunks_exact(2 * im).enumerate() {
                if left.is_some() {
                    p[idx(0, 0, k)..][..im].copy_from_slice(&pair[..im]);
                }
                if right.is_some() {
                    p[idx(0, jloc + 1, k)..][..im].copy_from_slice(&pair[im..]);
                }
            }
            // Jacobi sweep over owned interior planes.
            let mut gosa = 0.0f64;
            for k in 1..km - 1 {
                for jl in interior.clone() {
                    let row = idx(0, jl, k);
                    sweep_row(&p, &mut wrk[row..row + im], row, im, im * jtot, &mut gosa);
                }
            }
            // As in `serial_gosa`: the fixed boundary agrees in both grids,
            // and the ghost planes `p` gets from `wrk` are stale only where
            // the next halo exchange overwrites them.
            std::mem::swap(&mut p, &mut wrk);
            let cells = (km - 2) * interior.len() * (im - 2);
            img.shmem().ctx().pe().compute_flops(cells as f64 * 34.0);
            let mut g = [gosa];
            img.co_sum(&mut g, None);
            gosa_global = g[0];
        }
        img.sync_all();
        (img.shmem().ctx().pe().now() - t0, gosa_global)
    });
    let makespan_ns = out.results.iter().map(|r| r.0).max().unwrap_or(1) as f64;
    let flops = cfg.interior_cells() * 34.0 * cfg.iters as f64;
    let result = HimenoResult {
        mflops: flops / (makespan_ns * 1e-9) / 1e6,
        gosa: out.results[0].1,
        time_ms: makespan_ns / 1e6,
        stats: out.stats,
    };
    (result, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-pass scalar row sweep [`sweep_row`] replaced: the residual
    /// summed into `gosa` inside the stencil loop. The reference for the
    /// bitwise test below.
    fn sweep_row_reference(
        p: &[f32],
        wrk_row: &mut [f32],
        row: usize,
        sj: usize,
        sk: usize,
        gosa: &mut f64,
    ) {
        let im = wrk_row.len();
        let at = |o: usize| &p[o..o + im];
        let (c, jp, jm, kp, km) = (at(row), at(row + sj), at(row - sj), at(row + sk), at(row - sk));
        let (jpkp, jmkp) = (at(row + sj + sk), at(row - sj + sk));
        let (jpkm, jmkm) = (at(row + sj - sk), at(row - sj - sk));
        for i in 1..im - 1 {
            let s0 = c[i + 1]
                + jp[i]
                + kp[i]
                + 0.0 * (jp[i + 1] - jm[i + 1] - jp[i - 1] + jm[i - 1])
                + 0.0 * (jpkp[i] - jmkp[i] - jpkm[i] + jmkm[i])
                + 0.0 * (kp[i + 1] - kp[i - 1] - km[i + 1] + km[i - 1])
                + c[i - 1]
                + jm[i]
                + km[i];
            let ss = (s0 * A3 - c[i]) * 1.0;
            *gosa += (ss as f64) * (ss as f64);
            wrk_row[i] = c[i] + OMEGA * ss;
        }
    }

    /// A 3×3 block of rows of length `im` (the centre row and its eight
    /// neighbours) filled from `seed`, with values spread over many
    /// magnitudes and both signs.
    fn random_block(im: usize, seed: u64) -> Vec<f32> {
        let mut x = seed;
        (0..im * 9)
            .map(|_| {
                // splitmix64
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let unit = (z >> 40) as f32 / (1u64 << 24) as f32;
                let scale = [1e-6f32, 1e-2, 1.0, 3.0, 1e4][(z & 7) as usize % 5];
                (unit - 0.5) * scale
            })
            .collect()
    }

    proptest! {
        // The larger count is CI's `--release` run, where the stencil pass
        // vectorizes.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

        #[test]
        fn sweep_row_is_bit_identical_to_the_scalar_reference(
            im in 3usize..301,
            seed in any::<u64>(),
            start in 0.0f64..10.0,
        ) {
            let p = random_block(im, seed);
            let (sj, sk) = (im, 3 * im);
            let row = sj + sk;
            let mut fast = p[row..row + im].to_vec();
            let mut slow = fast.clone();
            let (mut g_fast, mut g_slow) = (start, start);
            sweep_row(&p, &mut fast, row, sj, sk, &mut g_fast);
            sweep_row_reference(&p, &mut slow, row, sj, sk, &mut g_slow);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast), bits(&slow));
            prop_assert_eq!(g_fast.to_bits(), g_slow.to_bits());
        }
    }

    #[test]
    fn serial_residual_decreases() {
        let g = serial_gosa(&HimenoConfig::tiny());
        assert!(g.windows(2).all(|w| w[1] < w[0]), "gosa must decrease: {g:?}");
        assert!(g[0] > 0.0);
    }

    #[test]
    fn parallel_matches_serial_residual() {
        let cfg = HimenoConfig::tiny();
        let serial = *serial_gosa(&cfg).last().unwrap();
        for images in [1, 2, 3, 5] {
            let r = run_himeno(Platform::Stampede, Backend::Shmem, None, images, cfg);
            let rel = (r.gosa - serial).abs() / serial;
            assert!(rel < 1e-5, "images={images}: {} vs serial {serial} (rel {rel:e})", r.gosa);
        }
    }

    #[test]
    fn parallel_matches_serial_on_all_backends_and_algorithms() {
        let cfg = HimenoConfig::tiny();
        let serial = *serial_gosa(&cfg).last().unwrap();
        for (platform, backend, strided) in [
            (Platform::Stampede, Backend::Gasnet, None),
            (Platform::Stampede, Backend::Gasnet, Some(StridedAlgorithm::AmPacked)),
            (Platform::Titan, Backend::CrayCaf, None),
            (Platform::Stampede, Backend::Shmem, Some(StridedAlgorithm::TwoDim)),
            (Platform::Stampede, Backend::Shmem, Some(StridedAlgorithm::Naive)),
            // Select-by-name, the way an app CLI flag or env var would.
            (Platform::Stampede, Backend::Shmem, StridedAlgorithm::from_name("tuned")),
        ] {
            let r = run_himeno(platform, backend, strided, 4, cfg);
            let rel = (r.gosa - serial).abs() / serial;
            assert!(rel < 1e-5, "{backend:?}/{strided:?}: rel {rel:e}");
        }
    }

    #[test]
    fn tiny_gosa_is_pinned_to_the_bit() {
        // The tiny grid's final residual, serial and on 1, 2, 3 and 5
        // images, as the one-pass scalar sweep with a copy-back computed it.
        // Covers the two-pass sweep inside both bodies and the grid swap.
        const GOSA_BITS: u64 = 0x3f90_a517_5783_ea2c;
        let cfg = HimenoConfig::tiny();
        assert_eq!(serial_gosa(&cfg).last().unwrap().to_bits(), GOSA_BITS);
        for images in [1, 2, 3, 5] {
            let r = run_himeno(Platform::CrayXc30, Backend::Shmem, None, images, cfg);
            assert_eq!(r.gosa.to_bits(), GOSA_BITS, "images={images}: {}", r.gosa);
        }
    }

    #[test]
    fn mflops_scale_with_images() {
        // The paper's best Himeno configuration on Stampede: SHMEM with the
        // naive (pencil-putmem) algorithm.
        let cfg = HimenoConfig::size_xs();
        let naive = Some(StridedAlgorithm::Naive);
        let one = run_himeno(Platform::Stampede, Backend::Shmem, naive, 1, cfg).mflops;
        let eight = run_himeno(Platform::Stampede, Backend::Shmem, naive, 8, cfg).mflops;
        assert!(eight > 3.0 * one, "8 images {eight:.0} vs 1 image {one:.0} MFLOPS");
    }

    #[test]
    fn shmem_outperforms_gasnet_at_scale() {
        // §V-D: UHCAF over MVAPICH2-X SHMEM (naive halo) beats UHCAF over
        // GASNet for >= 16 images (inter-node halo traffic dominates).
        let cfg = HimenoConfig::size_xs();
        let naive = Some(StridedAlgorithm::Naive);
        let shmem = run_himeno(Platform::Stampede, Backend::Shmem, naive, 16, cfg).mflops;
        let gasnet = run_himeno(Platform::Stampede, Backend::Gasnet, naive, 16, cfg).mflops;
        assert!(shmem > gasnet, "SHMEM {shmem:.0} vs GASNet {gasnet:.0} MFLOPS");
    }

    #[test]
    fn naive_is_not_worse_than_twodim_on_mvapich() {
        // §V-D: the naive algorithm is the best choice for the
        // matrix-oriented halo on MVAPICH2-X (iput loops putmem per element,
        // naive sends one putmem per contiguous pencil).
        let cfg = HimenoConfig::size_xs();
        let naive =
            run_himeno(Platform::Stampede, Backend::Shmem, Some(StridedAlgorithm::Naive), 8, cfg)
                .mflops;
        let twodim =
            run_himeno(Platform::Stampede, Backend::Shmem, Some(StridedAlgorithm::TwoDim), 8, cfg)
                .mflops;
        assert!(naive >= twodim * 0.99, "naive {naive:.0} vs 2dim {twodim:.0}");
    }

    #[test]
    #[should_panic(expected = "too many images")]
    fn over_decomposition_rejected() {
        run_himeno(Platform::Stampede, Backend::Shmem, None, 11, HimenoConfig::tiny());
    }
}
