//! Per-call scratch state for `&self` forward/backward passes.
//!
//! Layers used to own their backward caches (and the im2col scratch lived in
//! a thread-local), which forced `forward` to take `&mut self` and made a
//! trained network impossible to share across threads without cloning its
//! weights. A [`Workspace`] moves every piece of per-call state out of the
//! layers:
//!
//! * a **cache stack**: during a training forward every layer pushes exactly
//!   one `LayerCache` entry; `backward` pops them in reverse. Because
//!   backward traverses the network in exactly the reverse order of forward,
//!   a LIFO stack needs no layer identity bookkeeping at all. Inference
//!   (`training == false`) pushes nothing.
//! * **scratch buffers** — the layer chain's convolution scratch (`conv`:
//!   the f32 im2col buffer and the backward's transposed output gradient)
//!   and the convolution backward's per-item gradient outputs
//!   (`grad_items`), which serve training only; the packed weight-panel buffer (`pack`, rebuilt per layer call
//!   and reused by the register-tiled GEMM kernels); the fused `f32`
//!   inference chain's per-call weight packing (`plan`) and per-window
//!   staging and channels-last activations (`item`, see [`crate::fused`]);
//!   and the fixed-point chain's `i16` codes and `i64` pooling sums of one
//!   window (`qitem`, see [`crate::qlayers::pooled_features`]) — reused
//!   across layers, windows and calls, so steady-state inference performs
//!   no allocation and the chains' scratch does not grow with the batch;
//! * an **output-activation arena**: a small free list of recycled tensor
//!   storage. Layers draw their outputs from [`Workspace::uninit_tensor`]
//!   and sequential containers hand dead intermediates back through
//!   [`Workspace::recycle`], so after warm-up a full inference forward pass
//!   performs **zero heap allocations** — [`Workspace::arena_misses`]
//!   counts the allocations the arena could not serve and must stop growing
//!   once the pool is warm.
//!
//! A workspace is cheap to create (empty vectors) and grows to the high-water
//! mark of the network it serves. One workspace serves one thread, and no
//! pass hides threads behind it: the inference chains run their windows on
//! the calling thread, and a convolution that splits its batch
//! ([`crate::parallel::for_each_run`]) runs its first run on this
//! workspace's scratch and gives every other worker scratch of its own.
//! Parallel scoring shares a single immutable network and gives every
//! thread its own workspace.

use crate::fused::{ItemScratch, Plan};
use crate::layers::ConvScratch;
use crate::qlayers::ItemCodes;
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
    /// The layer chain's convolution scratch: the im2col lowering buffer,
    /// reused across layers of one pass, and the backward's transposed
    /// output gradient.
    pub(crate) conv: ConvScratch,
    /// Per-item outputs of the convolution backward pass: each batch
    /// item's weight- and bias-gradient partials and its input gradient.
    pub(crate) grad_items: Vec<f32>,
    /// Packed weight panels of the register-tiled GEMM kernels
    /// ([`crate::matmul::pack_lhs`] / [`crate::matmul::pack_rhs_t`]),
    /// rebuilt per layer call (weights may change between calls during
    /// training) into this one reused buffer.
    pub(crate) pack: Vec<f32>,
    /// The fused `f32` inference chain's per-call weight packing
    /// ([`crate::fused::pooled_features`]).
    pub(crate) plan: Plan,
    /// The fused chain's per-window staging and activation buffers.
    pub(crate) item: ItemScratch,
    /// The fixed-point chain's per-window code buffers.
    pub(crate) qitem: ItemCodes,
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

    /// Number of [`Self::uninit_tensor`] calls that had to allocate because
    /// the arena held no buffer of sufficient capacity. A warm steady-state
    /// inference loop must not advance this counter — the property the
    /// zero-allocation tests pin.
    pub fn arena_misses(&self) -> usize {
        self.arena_misses
    }

    /// Total bytes of scratch storage the workspace currently retains
    /// (lowering/packing buffers, the inference chains' per-window buffers
    /// and the arena). Stable across steady-state passes once warm.
    pub fn retained_bytes(&self) -> usize {
        let f32s = self.conv.capacity()
            + self.grad_items.capacity()
            + self.pack.capacity()
            + self.item.capacity();
        let arena: usize = self
            .arena
            .iter()
            .map(|(d, s)| d.capacity() * 4 + s.capacity() * std::mem::size_of::<usize>())
            .sum();
        f32s * 4 + self.plan.retained_bytes() + self.qitem.retained_bytes() + arena
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
}
