//! Where a transfer's bytes sit in the target heap: a contiguous `putmem`, a
//! NIC-native `shmem_iput` descriptor or a GASNet "with-AM" packed message
//! (§IV-C, §V-B2). The layout picks the price, the landing, the pending
//! range and the op label of the conduit's one put body and one get body.

use pgas_machine::heap::Heap;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Layout<'a> {
    /// `len` contiguous bytes at `off`.
    Run { off: usize, len: usize },
    /// `n` elements of `elem` bytes: element `i` sits at `off + i * step`
    /// of the target heap and at `i * local_step` of the caller's buffer.
    /// Both steps are in bytes.
    Strided { off: usize, step: usize, elem: usize, n: usize, local_step: usize },
    /// Arbitrary `(off, len)` regions, back to back in the caller's buffer.
    Regions(&'a [(usize, usize)]),
}

impl<'a> Layout<'a> {
    /// The `shmem_iput` geometry: `n` elements of `elem` bytes, `stride`
    /// elements apart at the target and `local_stride` in the caller's buffer.
    pub fn strided(off: usize, stride: usize, elem: usize, n: usize, local_stride: usize) -> Self {
        Layout::Strided { off, step: stride * elem, elem, n, local_step: local_stride * elem }
    }

    /// Payload bytes the transfer moves.
    pub fn bytes(&self) -> usize {
        match *self {
            Layout::Run { len, .. } => len,
            Layout::Strided { elem, n, .. } => n * elem,
            Layout::Regions(r) => r.iter().map(|r| r.1).sum(),
        }
    }

    /// The pieces the target touches, in order, as `(target offset, len,
    /// offset in the caller's buffer)`: one run, `n` elements or the
    /// regions. A piece is the sanitizer's unit, so a report names the
    /// element or region that raced.
    pub fn pieces(self) -> impl ExactSizeIterator<Item = (usize, usize, usize)> + 'a {
        let n = match self {
            Layout::Run { .. } => 1,
            Layout::Strided { n, .. } => n,
            Layout::Regions(r) => r.len(),
        };
        let mut at = 0;
        (0..n).map(move |i| match self {
            Layout::Run { off, len } => (off, len, 0),
            Layout::Strided { off, step, elem, local_step, .. } => {
                (off + i * step, elem, i * local_step)
            }
            Layout::Regions(r) => {
                at += r[i].1;
                (r[i].0, r[i].1, at - r[i].1)
            }
        })
    }

    /// The target range `(off, len)` the completion obligation covers, gaps
    /// included. Conservative: the CAF runtime quiets after every
    /// statement, so false positives from the gaps cannot accumulate.
    pub fn span(&self) -> (usize, usize) {
        match *self {
            Layout::Run { off, len } => (off, len),
            Layout::Strided { off, step, elem, n, .. } => (off, (n - 1) * step + elem),
            Layout::Regions(r) => {
                let lo = r.iter().map(|r| r.0).min().unwrap_or(0);
                (lo, r.iter().map(|r| r.0 + r.1).max().unwrap_or(0) - lo)
            }
        }
    }

    /// Label for fault events, errors and sanitizer reports.
    pub fn label(&self, put: bool) -> &'static str {
        match (self, put) {
            (Layout::Run { .. }, true) => "put",
            (Layout::Run { .. }, false) => "get",
            (Layout::Strided { .. }, true) => "iput",
            (Layout::Strided { .. }, false) => "iget",
            (Layout::Regions(_), true) => "am put",
            (Layout::Regions(_), false) => "am get",
        }
    }

    /// Write `src` into `heap` and stamp the words the pieces touch `t`;
    /// gaps keep their bytes and stamps. A strided layout contiguous on
    /// both sides is one run, one with gaps one [`Heap::scatter`].
    pub fn write(&self, heap: &Heap, src: &[u8], t: u64) {
        match *self {
            Layout::Strided { off, step, elem, n, local_step } => {
                if step == elem && local_step == elem {
                    heap.write_bytes(off, &src[..n * elem]);
                    heap.stamp_range(off, n * elem, t);
                } else {
                    heap.scatter(off, step, src, local_step, elem, n, t);
                }
            }
            _ => self.pieces().for_each(|(off, len, at)| {
                heap.write_bytes(off, &src[at..at + len]);
                heap.stamp_range(off, len, t);
            }),
        }
    }

    /// Read the pieces from `heap` into `out`; returns the newest stamp of
    /// the words they touch (not the gaps).
    pub fn read(&self, heap: &Heap, out: &mut [u8]) -> u64 {
        match *self {
            Layout::Strided { off, step, elem, n, local_step } => {
                if step == elem && local_step == elem {
                    heap.read_bytes(off, &mut out[..n * elem]);
                    heap.max_stamp(off, n * elem)
                } else {
                    heap.gather(off, step, out, local_step, elem, n)
                }
            }
            _ => self.pieces().fold(0, |stamp, (off, len, at)| {
                heap.read_bytes(off, &mut out[at..at + len]);
                stamp.max(heap.max_stamp(off, len))
            }),
        }
    }
}
