//! The unified conduit operation descriptor.
//!
//! Every one-sided operation a context can perform is described by an
//! [`OpDesc`] and executed by `Ctx::submit` — the single fallible,
//! detail-carrying choke point where the sanitizer, metrics, flow
//! tracing, fault-retry, coalescing, and active-message paths all hook.
//! The named public methods (`put`, `try_put`, `put_nbi`, `iput`, `amo`,
//! `am_put_regions`, `am_call`, ...) are thin shims that build a
//! descriptor and interpret the receipt; new cross-cutting behaviour lands
//! in `submit`'s dispatch once instead of per method. Every put-shaped kind
//! runs the conduit's one put body and every get-shaped kind its one get
//! body; the kind only picks where the bytes sit in the target heap.

use crate::am::AmHandlerId;
use crate::ctx::AmoOp;
use pgas_machine::machine::PeId;

/// When an operation's entry point returns relative to its effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completion {
    /// Return after local completion (source buffer reusable; for fetching
    /// ops, the result is in hand). Remote completion still waits for
    /// `quiet`.
    #[default]
    Blocking,
    /// Return after issue only (`shmem_*_nbi`): even local completion is
    /// deferred to `quiet`.
    Nbi,
}

/// What the operation does. Borrows the caller's buffers — a descriptor
/// describes exactly one submission.
pub enum OpKind<'a> {
    /// Contiguous write of `src` into the peer's heap at `dst_off`.
    Put { dst_off: usize, src: &'a [u8] },
    /// Contiguous read of the peer's heap at `src_off` into `out`.
    Get { src_off: usize, out: &'a mut [u8] },
    /// Remote atomic on the 8-byte word at `off` of the peer's heap. The
    /// receipt's `value` is the word's previous value.
    Amo { off: usize, op: AmoOp },
    /// 1-D strided write (`shmem_iput`): element `i` of `src` (elements of
    /// `elem` bytes, read at `src_stride` *elements*) lands at
    /// `dst_off + i * dst_stride * elem`.
    StridedPut {
        dst_off: usize,
        dst_stride: usize,
        src: &'a [u8],
        elem: usize,
        src_stride: usize,
        nelems: usize,
    },
    /// 1-D strided read (`shmem_iget`), the mirror of `StridedPut`.
    StridedGet {
        src_off: usize,
        src_stride: usize,
        out: &'a mut [u8],
        elem: usize,
        out_stride: usize,
        nelems: usize,
    },
    /// AM-packed scatter-put of arbitrary `(offset, len)` regions;
    /// `payload` covers them front to back.
    AmPutRegions { regions: &'a [(usize, usize)], payload: &'a [u8] },
    /// AM-packed gather-get of arbitrary regions into `out`.
    AmGetRegions { regions: &'a [(usize, usize)], out: &'a mut [u8] },
    /// One-way active message: the registered handler runs at the peer
    /// with `arg`; any reply is discarded. Completes remotely at `quiet`.
    AmSend { handler: AmHandlerId, arg: &'a [u8] },
    /// Round-trip active message: like `AmSend`, but blocks for the
    /// handler's reply, delivered into `reply`.
    AmCall { handler: AmHandlerId, arg: &'a [u8], reply: &'a mut Vec<u8> },
}

/// One operation: what, to whom, and with which completion semantics.
pub struct OpDesc<'a> {
    pub peer: PeId,
    pub completion: Completion,
    pub kind: OpKind<'a>,
}

impl<'a> OpDesc<'a> {
    /// Blocking-completion descriptor (the common case).
    pub fn new(peer: PeId, kind: OpKind<'a>) -> Self {
        OpDesc { peer, completion: Completion::Blocking, kind }
    }

    /// Issue-only completion (`shmem_*_nbi`).
    pub fn nbi(mut self) -> Self {
        self.completion = Completion::Nbi;
        self
    }
}

/// What `Ctx::submit` reports back on success.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpReceipt {
    /// For fetching AMOs, the word's previous value; 0 otherwise.
    pub value: u64,
    /// Payload bytes the operation moved (or staged).
    pub bytes: usize,
    /// The op was coalesced into a staging buffer and has not touched the
    /// wire yet; it flushes at the next `quiet`/`fence`/barrier, when a
    /// non-stageable op targets the same node, or when its buffer fills
    /// or ages out.
    pub staged: bool,
}
