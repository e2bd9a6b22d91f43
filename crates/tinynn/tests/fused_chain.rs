//! The fused channels-last inference chain against the layer chain.
//!
//! `tinynn::fused::pooled_features` must return exactly the bits of the
//! layer chain — `Layer::forward(.., false)` on the same sub-layers: stem
//! convolution, batch norm, ReLU, two residual blocks (the second with a
//! projection shortcut) and the global average pool. The layer chain is
//! the oracle here; the sweep covers channel counts below, at and above one
//! register strip, kernels from 1×1 to the paper's 64 (depths of several
//! `KC` blocks), window lengths from a single sample through below, equal
//! to and above the kernel, and batches of 1, 7 and 64. The chain runs its
//! windows on the calling thread, so one run per case covers it.

use tinynn::{
    BatchNorm1d, Conv1d, GlobalAvgPool1d, Layer, Relu, ResidualBlock1d, Tensor, Workspace,
};

fn xorshift(state: &mut u64) -> f32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
}

/// A Figure 2 backbone with every parameter and batch-norm statistic
/// moved off its initial value, so bias, scale, shift and the residual add
/// all show in the bits.
struct Backbone {
    stem: Conv1d,
    bn: BatchNorm1d,
    res1: ResidualBlock1d,
    res2: ResidualBlock1d,
}

impl Backbone {
    fn new(f: usize, k: usize, seed: u64) -> Self {
        let mut net = Self {
            stem: Conv1d::new(1, f, k, seed),
            bn: BatchNorm1d::new(f),
            res1: ResidualBlock1d::new(f, f, k, seed + 10),
            res2: ResidualBlock1d::new(f, 2 * f, k, seed + 20),
        };
        let mut state = 0x9E37_79B9_7F4A_7C15 ^ seed;
        let layers: [&mut dyn Layer; 4] =
            [&mut net.stem, &mut net.bn, &mut net.res1, &mut net.res2];
        for layer in layers {
            for p in layer.params_mut() {
                for v in p.value.data_mut() {
                    *v += 0.1 * xorshift(&mut state);
                }
            }
            for (i, buf) in layer.buffers_mut().into_iter().enumerate() {
                for v in buf.iter_mut() {
                    let r = xorshift(&mut state);
                    *v = if i % 2 == 0 { 0.2 * r } else { 0.75 + 0.5 * r.abs() };
                }
            }
        }
        net
    }

    /// The oracle: every sub-layer's own inference forward, in order.
    fn layer_chain(&self, input: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        let x = self.stem.forward(input, &mut ws, false);
        let x = self.bn.forward(&x, &mut ws, false);
        let x = Relu::new().forward(&x, &mut ws, false);
        let x = self.res1.forward(&x, &mut ws, false);
        let x = self.res2.forward(&x, &mut ws, false);
        GlobalAvgPool1d::new().forward(&x, &mut ws, false)
    }

    fn fused(&self, input: &Tensor, ws: &mut Workspace) -> Tensor {
        tinynn::fused::pooled_features(&self.stem, &self.bn, &[&self.res1, &self.res2], input, ws)
    }
}

fn windows(batch: usize, len: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    Tensor::from_vec((0..batch * len).map(|_| xorshift(&mut state)).collect(), &[batch, 1, len])
}

fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: feature {i} is {g}, layer chain {w}");
    }
}

/// Window lengths for kernel `k`: one sample, just below, at and just
/// above the kernel, and the served 230.
fn lengths(k: usize) -> Vec<usize> {
    let mut lens = vec![1, k.saturating_sub(1), k, k + 1, 230];
    lens.retain(|&l| l > 0);
    lens.sort_unstable();
    lens.dedup();
    lens
}

#[test]
fn fused_chain_matches_layer_chain_bit_for_bit() {
    // Multiply-adds per window position of the whole backbone, to keep the
    // sweep's cost bounded: large shapes run with smaller batches.
    let budget = 30_000_000usize;
    let mut ws = Workspace::new();
    let mut cases = 0;
    for (fi, &f) in [1usize, 2, 8, 16].iter().enumerate() {
        for (ki, &k) in [1usize, 3, 9, 64].iter().enumerate() {
            let backbone = Backbone::new(f, k, 1 + (fi * 4 + ki) as u64);
            let macs = (f + 2 * f * f + 2 * f * f + 4 * f * f) * k + 2 * f * f;
            for (li, len) in lengths(k).into_iter().enumerate() {
                let batches = [1usize, 7, 64];
                let affordable: Vec<usize> =
                    batches.into_iter().filter(|&b| b * len * macs <= budget).collect();
                let batch = if affordable.is_empty() {
                    1
                } else {
                    affordable[(li + fi + ki) % affordable.len()]
                };
                let x = windows(batch, len, (f * 1000 + k * 10 + len) as u64);
                let want = backbone.layer_chain(&x);
                let what = format!("f={f} k={k} len={len} batch={batch}");
                assert_bits(&backbone.fused(&x, &mut ws), &want, &what);
                cases += 1;
            }
        }
    }
    assert!(cases >= 60, "sweep shrank to {cases} cases");
}

#[test]
fn every_batch_size_runs_on_the_served_shape() {
    // Batches of 1, 7 and 64 at f = 8, k = 9, window 230: a window's
    // features never depend on its batch neighbours, and every window runs
    // on the caller's workspace. After one call on a fresh workspace, it
    // holds exactly the scratch a one-window call leaves, whatever the
    // batch, and no more than `scratch_bytes`, the bound an engine's
    // memory footprint budgets.
    let backbone = Backbone::new(8, 9, 99);
    let all = windows(64, 230, 7);
    let want = backbone.layer_chain(&all);
    let bound =
        tinynn::fused::scratch_bytes(&backbone.stem, &[&backbone.res1, &backbone.res2], 230);
    let mut one_window = None;
    for batch in [1usize, 7, 64] {
        let x = Tensor::from_vec(all.data()[..batch * 230].to_vec(), &[batch, 1, 230]);
        let mut ws = Workspace::new();
        let got = backbone.fused(&x, &mut ws);
        let rows = &want.data()[..batch * 16];
        for (i, (g, w)) in got.data().iter().zip(rows).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "batch {batch}: feature {i}");
        }
        let held = ws.retained_bytes();
        let one = *one_window.get_or_insert(held);
        assert_eq!(held, one, "batch {batch}: scratch held against one window's");
        assert!(held <= bound, "batch {batch}: {held} B held above the {bound} B bound");
    }
}

#[test]
fn non_finite_inputs_propagate_like_the_layer_chain() {
    let backbone = Backbone::new(8, 9, 5);
    let mut x = windows(3, 40, 11);
    x.data_mut()[7] = f32::NAN;
    x.data_mut()[45] = f32::INFINITY;
    x.data_mut()[90] = f32::NEG_INFINITY;
    let mut ws = Workspace::new();
    assert_bits(&backbone.fused(&x, &mut ws), &backbone.layer_chain(&x), "non-finite");
}
