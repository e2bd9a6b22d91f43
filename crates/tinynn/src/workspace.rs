//! Per-call scratch state for `&self` forward/backward passes.
//!
//! Layers used to own their backward caches (and the im2col scratch lived in
//! a thread-local), which forced `forward` to take `&mut self` and made a
//! trained network impossible to share across threads without cloning its
//! weights. A [`Workspace`] moves every piece of per-call state out of the
//! layers:
//!
//! * a **cache stack**: during a training forward every layer pushes exactly
//!   one [`LayerCache`] entry; `backward` pops them in reverse. Because
//!   backward traverses the network in exactly the reverse order of forward,
//!   a LIFO stack needs no layer identity bookkeeping at all. Inference
//!   (`training == false`) pushes nothing.
//! * **scratch buffers** — the layer chain's f32 im2col buffer (`col`)
//!   and the convolution backward's transposed output gradient (`dy_t`)
//!   and per-item gradient outputs (`grad_items`), which serve training
//!   only; the packed weight-panel buffer (`pack`, rebuilt per layer call
//!   and reused by the register-tiled GEMM kernels); the fused `f32`
//!   inference chain's per-call weight packing (`plan`) and per-window
//!   staging and channels-last activations (`item`, see [`crate::fused`]);
//!   and the fixed-point chain's `i64` pooling accumulators (`qacc`) —
//!   reused across layers and calls, so steady-state inference performs no
//!   allocation;
//! * an **output-activation arena**: a small free list of recycled tensor
//!   storage. Layers draw their outputs from [`Workspace::uninit_tensor`]
//!   and sequential containers hand dead intermediates back through
//!   [`Workspace::recycle`], so after warm-up a full inference forward pass
//!   performs **zero heap allocations** — [`Workspace::arena_misses`]
//!   counts the allocations the arena could not serve and must stop growing
//!   once the pool is warm.
//!
//! A workspace is cheap to create (empty vectors) and grows to the high-water
//! mark of the network it serves. One workspace serves one thread; parallel
//! scoring shares a single immutable network and gives every thread its own
//! workspace.

use crate::fused::{ItemScratch, Plan};
use crate::tensor::Tensor;

/// Upper bound on the number of buffers the arena retains; beyond it the
/// smallest buffer is evicted, so a workspace never hoards more storage
/// than the widest pass it served needs.
const ARENA_SLOTS: usize = 16;

/// Per-call (and per-thread) scratch for forward/backward passes: the
/// backward cache stack, reusable lowering/packing buffers and the
/// output-activation arena.
///
/// See the [module documentation](self) for the design rationale.
#[derive(Debug, Default)]
pub struct Workspace {
    stack: Vec<LayerCache>,
    /// im2col lowering buffer, reused across layers of one pass (the
    /// convolution backward also reuses it for the column gradient).
    pub(crate) col: Vec<f32>,
    /// Positions-major copy of one item's convolution output gradient: the
    /// lanes of [`crate::matmul::matmul_weight_grad`].
    pub(crate) dy_t: Vec<f32>,
    /// Per-item outputs of the convolution backward pass: each batch
    /// item's weight- and bias-gradient partials and its input gradient.
    pub(crate) grad_items: Vec<f32>,
    /// Packed weight panels of the register-tiled GEMM kernels
    /// ([`crate::matmul::pack_lhs`] / [`crate::matmul::pack_rhs_t`]),
    /// rebuilt per layer call (weights may change between calls during
    /// training) into this one reused buffer.
    pub(crate) pack: Vec<f32>,
    /// `i64` per-channel accumulators of the integer global-average-pooling
    /// reduction of the fixed-point chain.
    pub(crate) qacc: Vec<i64>,
    /// The fused `f32` inference chain's per-call weight packing
    /// ([`crate::fused::pooled_features`]).
    pub(crate) plan: Plan,
    /// The fused chain's per-window staging and activation buffers.
    pub(crate) item: ItemScratch,
    /// Free list of `i16` code buffers — the activation arena of the
    /// fixed-point chain, where whole inter-layer activations are `i16`
    /// codes instead of `f32` tensors ([`Self::take_i16`] /
    /// [`Self::recycle_i16`]).
    qpool: Vec<Vec<i16>>,
    /// Output-activation free list: recycled `(data, shape)` tensor storage.
    arena: Vec<(Vec<f32>, Vec<usize>)>,
    /// Number of [`Self::uninit_tensor`] calls the arena could not serve
    /// from a recycled buffer of sufficient capacity.
    arena_misses: usize,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a tensor of the given shape whose element values are
    /// **unspecified** (stale data from a recycled buffer, or zeros for a
    /// fresh one) — the caller must overwrite every element. Served from
    /// the output-activation arena when a recycled buffer of sufficient
    /// capacity exists (best fit), so a warm workspace allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn uninit_tensor(&mut self, shape: &[usize]) -> Tensor {
        assert!(!shape.is_empty(), "tensor shape must not be empty");
        let len = shape.iter().product::<usize>();
        let mut best: Option<(usize, usize)> = None;
        for (idx, (data, _)) in self.arena.iter().enumerate() {
            let cap = data.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((idx, cap));
            }
        }
        let (mut data, mut shape_buf) = match best {
            Some((idx, _)) => self.arena.swap_remove(idx),
            None => {
                self.arena_misses += 1;
                (Vec::with_capacity(len), Vec::with_capacity(shape.len()))
            }
        };
        data.resize(len, 0.0);
        shape_buf.clear();
        shape_buf.extend_from_slice(shape);
        Tensor::from_parts(data, shape_buf)
    }

    /// Returns a dead tensor's storage to the output-activation arena so a
    /// later [`Self::uninit_tensor`] can reuse it. When the arena is full,
    /// the smallest retained buffer is evicted (or the incoming one dropped
    /// if it is smaller still).
    pub fn recycle(&mut self, tensor: Tensor) {
        let (data, shape) = tensor.into_parts();
        if data.capacity() == 0 {
            return;
        }
        if self.arena.len() >= ARENA_SLOTS {
            let (smallest, cap) = self
                .arena
                .iter()
                .enumerate()
                .map(|(i, (d, _))| (i, d.capacity()))
                .min_by_key(|&(_, c)| c)
                .expect("arena is non-empty");
            if cap >= data.capacity() {
                return;
            }
            self.arena.swap_remove(smallest);
        }
        self.arena.push((data, shape));
    }

    /// Zeroed `i64` scratch of `len` accumulators — the per-channel sums of
    /// the integer global-average-pooling reduction. The backing buffer
    /// grows to the high-water mark and is reused across calls.
    pub fn i64_scratch(&mut self, len: usize) -> &mut [i64] {
        if self.qacc.len() < len {
            self.qacc.resize(len, 0);
        }
        let scratch = &mut self.qacc[..len];
        scratch.fill(0);
        scratch
    }

    /// Hands out an `i16` code buffer of at least `len` elements (resized to
    /// `len`, element values **unspecified** — the caller must overwrite or
    /// zero every element it reads). Served best-fit from the `i16` free
    /// list; a miss allocates and advances [`Self::arena_misses`], so the
    /// zero-allocation pins cover the fixed-point chain too.
    pub fn take_i16(&mut self, len: usize) -> Vec<i16> {
        let mut best: Option<(usize, usize)> = None;
        for (idx, buf) in self.qpool.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((idx, cap));
            }
        }
        let mut buf = match best {
            Some((idx, _)) => self.qpool.swap_remove(idx),
            None => {
                self.arena_misses += 1;
                Vec::with_capacity(len)
            }
        };
        buf.resize(len, 0);
        buf
    }

    /// Returns a dead `i16` code buffer to the free list (mirror of
    /// [`Self::recycle`]: beyond [`ARENA_SLOTS`] buffers the smallest is
    /// evicted, or the incoming one dropped if smaller still).
    pub fn recycle_i16(&mut self, buf: Vec<i16>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.qpool.len() >= ARENA_SLOTS {
            let (smallest, cap) = self
                .qpool
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.capacity()))
                .min_by_key(|&(_, c)| c)
                .expect("i16 pool is non-empty");
            if cap >= buf.capacity() {
                return;
            }
            self.qpool.swap_remove(smallest);
        }
        self.qpool.push(buf);
    }

    /// Number of [`Self::uninit_tensor`] calls that had to allocate because
    /// the arena held no buffer of sufficient capacity. A warm steady-state
    /// inference loop must not advance this counter — the property the
    /// zero-allocation tests pin.
    pub fn arena_misses(&self) -> usize {
        self.arena_misses
    }

    /// Total bytes of scratch storage the workspace currently retains
    /// (lowering/packing buffers plus the arena). Stable across steady-state
    /// passes once warm.
    pub fn retained_bytes(&self) -> usize {
        let f32s = self.col.capacity()
            + self.dy_t.capacity()
            + self.grad_items.capacity()
            + self.pack.capacity()
            + self.item.capacity();
        let i16s = self.qpool.iter().map(|b| b.capacity()).sum::<usize>();
        let arena: usize = self
            .arena
            .iter()
            .map(|(d, s)| d.capacity() * 4 + s.capacity() * std::mem::size_of::<usize>())
            .sum();
        f32s * 4 + self.plan.retained_bytes() + i16s * 2 + self.qacc.capacity() * 8 + arena
    }

    /// Number of layer caches currently recorded (0 outside a training
    /// forward/backward pair; inference never records any).
    pub fn cache_depth(&self) -> usize {
        self.stack.len()
    }

    /// Drops every recorded layer cache (scratch buffers keep their
    /// capacity). Useful when a training forward was not followed by a
    /// matching backward.
    pub fn clear(&mut self) {
        self.stack.clear();
    }

    /// Records a layer cache during a training forward.
    pub(crate) fn push(&mut self, cache: LayerCache) {
        self.stack.push(cache);
    }

    /// Pops the most recent layer cache during backward.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty, i.e. `backward` was called without a
    /// preceding `forward` with `training == true`.
    pub(crate) fn pop(&mut self, layer: &str) -> LayerCache {
        self.stack
            .pop()
            .unwrap_or_else(|| panic!("{layer}: backward called before forward with training=true"))
    }
}

/// One layer's backward cache, pushed during a training forward.
#[derive(Debug, Clone)]
pub(crate) enum LayerCache {
    /// The layer input (Linear, Conv1d).
    Input(Tensor),
    /// The positive-input mask of a ReLU.
    Mask(Vec<bool>),
    /// Batch-normalisation statistics of one training batch.
    Bn {
        /// Normalised activations.
        x_hat: Tensor,
        /// Per-channel `1 / sqrt(var + eps)`.
        std_inv: Vec<f32>,
        /// Per-channel batch mean (committed to the running mean in
        /// backward).
        mean: Vec<f32>,
        /// Per-channel batch variance (committed to the running variance in
        /// backward).
        var: Vec<f32>,
    },
    /// The input shape (global average pooling).
    Shape(Vec<usize>),
}

impl LayerCache {
    /// Debug name of the variant, used in cache-mismatch panics.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            LayerCache::Input(_) => "Input",
            LayerCache::Mask(_) => "Mask",
            LayerCache::Bn { .. } => "Bn",
            LayerCache::Shape(_) => "Shape",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_is_lifo() {
        let mut ws = Workspace::new();
        ws.push(LayerCache::Shape(vec![1]));
        ws.push(LayerCache::Mask(vec![true]));
        assert_eq!(ws.cache_depth(), 2);
        assert_eq!(ws.pop("test").kind(), "Mask");
        assert_eq!(ws.pop("test").kind(), "Shape");
        assert_eq!(ws.cache_depth(), 0);
    }

    #[test]
    fn clear_drops_caches() {
        let mut ws = Workspace::new();
        ws.push(LayerCache::Shape(vec![2, 3]));
        ws.clear();
        assert_eq!(ws.cache_depth(), 0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn pop_on_empty_stack_panics() {
        Workspace::new().pop("EmptyLayer");
    }

    #[test]
    fn i16_pool_reuses_buffers_without_allocating() {
        let mut ws = Workspace::new();
        let a = ws.take_i16(100);
        assert_eq!(a.len(), 100);
        assert_eq!(ws.arena_misses(), 1);
        ws.recycle_i16(a);
        let retained = ws.retained_bytes();
        assert!(retained >= 200, "recycled i16 storage must be counted");
        // A smaller request is served from the recycled buffer: no new miss,
        // no retained-bytes growth.
        let b = ws.take_i16(40);
        assert_eq!(b.len(), 40);
        assert_eq!(ws.arena_misses(), 1);
        ws.recycle_i16(b);
        assert_eq!(ws.retained_bytes(), retained);
    }

    #[test]
    fn i16_pool_is_bounded() {
        let mut ws = Workspace::new();
        // Fill past the slot cap; the pool must keep the largest buffers.
        for len in 1..=ARENA_SLOTS + 4 {
            ws.recycle_i16(Vec::with_capacity(len * 16));
        }
        let retained = ws.retained_bytes();
        // All retained buffers are among the largest; total bounded by the
        // slot cap times the largest buffer.
        assert!(retained <= ARENA_SLOTS * (ARENA_SLOTS + 4) * 16 * 2);
        // Recycling a tiny buffer into a full pool drops it.
        ws.recycle_i16(Vec::with_capacity(1));
        assert_eq!(ws.retained_bytes(), retained);
    }
}
