//! Parity tests pinning the optimised layer implementations (the direct
//! convolution tile, the staged backward, the fully connected layer's fused
//! multiply-adds) to the naive scalar references within 1e-5, across odd and even
//! kernel sizes, multi-channel inputs and edge-padding cases. They are the
//! independent oracle of the `f32` forward convolution: the references sum
//! in another order, without fused multiply-adds.

use tinynn::layers::{Conv1d, Layer, Linear};
use tinynn::workspace::Workspace;
use tinynn::{init, Tensor};

const TOL: f32 = 1e-5;

fn assert_close(fast: &Tensor, slow: &Tensor, what: &str) {
    assert_eq!(fast.shape(), slow.shape(), "{what}: shape mismatch");
    for (i, (a, b)) in fast.data().iter().zip(slow.data().iter()).enumerate() {
        assert!(
            (a - b).abs() <= TOL * (1.0 + b.abs()),
            "{what}: mismatch at {i}: optimised {a} vs reference {b}"
        );
    }
}

/// The shape matrix exercised by every conv parity test: odd and even
/// kernels (even kernels have asymmetric same-padding), kernels longer than
/// the signal (padding covers both edges at once), single- and multi-channel
/// inputs, and batch sizes around the parallel-split boundaries.
const CONV_CASES: &[(usize, usize, usize, usize, usize)] = &[
    // (in_c, out_c, kernel, len, batch)
    (1, 1, 1, 8, 1),
    (1, 4, 3, 32, 2),
    (1, 4, 4, 32, 2),
    (2, 3, 7, 16, 3),
    (2, 3, 8, 16, 3),
    (4, 2, 5, 9, 2),
    (3, 5, 9, 64, 4),
    (1, 2, 9, 5, 2),   // kernel longer than the signal: all windows clipped
    (2, 2, 64, 24, 1), // the paper's kernel on a short window
    (1, 8, 3, 128, 7),
];

#[test]
fn conv1d_forward_matches_naive_reference() {
    let mut ws = Workspace::new();
    for &(in_c, out_c, k, len, batch) in CONV_CASES {
        let conv = Conv1d::new(in_c, out_c, k, 0xC0FFEE ^ (k as u64));
        let x = init::uniform(&[batch, in_c, len], -2.0, 2.0, 31 + k as u64);
        let slow = conv.forward_reference(&x);
        let fast = conv.forward(&x, &mut ws, false);
        assert_close(&fast, &slow, &format!("conv fwd in{in_c} out{out_c} k{k} n{len} b{batch}"));
    }
}

#[test]
fn conv1d_backward_matches_naive_reference() {
    for &(in_c, out_c, k, len, batch) in CONV_CASES {
        let mut conv = Conv1d::new(in_c, out_c, k, 7 + k as u64);
        let x = init::uniform(&[batch, in_c, len], -1.0, 1.0, 100 + k as u64);
        let g = init::uniform(&[batch, out_c, len], -1.0, 1.0, 200 + k as u64);
        let mut ws = Workspace::new();
        let (ref_gi, ref_gw, ref_gb) = conv.backward_reference(&x, &g);
        let _ = conv.forward(&x, &mut ws, true);
        conv.zero_grad();
        let gi = conv.backward(&g, &mut ws);
        let what = format!("conv bwd in{in_c} out{out_c} k{k} n{len} b{batch}");
        assert_close(&gi, &ref_gi, &format!("{what}: grad_input"));
        let params = conv.params_mut();
        assert_close(&params[0].grad, &ref_gw, &format!("{what}: grad_weight"));
        assert_close(&params[1].grad, &ref_gb, &format!("{what}: grad_bias"));
    }
}

#[test]
fn conv1d_backward_accumulates_across_calls() {
    // The GEMM backward must *accumulate* into the gradients exactly like
    // the reference, not overwrite them.
    let (in_c, out_c, k, len, batch) = (2usize, 2usize, 3usize, 12usize, 2usize);
    let mut conv = Conv1d::new(in_c, out_c, k, 5);
    let x = init::uniform(&[batch, in_c, len], -1.0, 1.0, 1);
    let g = init::uniform(&[batch, out_c, len], -1.0, 1.0, 2);
    let mut ws = Workspace::new();
    let (_, ref_gw, _) = conv.backward_reference(&x, &g);
    for _ in 0..2 {
        let _ = conv.forward(&x, &mut ws, true);
        let _ = conv.backward(&g, &mut ws);
    }
    let doubled = ref_gw.scale(2.0);
    let params = conv.params_mut();
    assert_close(&params[0].grad, &doubled, "accumulated grad_weight");
}

#[test]
fn linear_forward_matches_naive_reference() {
    for &(in_f, out_f, batch) in
        &[(1usize, 1usize, 1usize), (5, 3, 4), (16, 16, 2), (64, 2, 33), (7, 11, 1)]
    {
        let mut ws = Workspace::new();
        let lin = Linear::new(in_f, out_f, 3 + in_f as u64);
        let x = init::uniform(&[batch, in_f], -2.0, 2.0, 50 + batch as u64);
        let slow = lin.forward_reference(&x);
        let fast = lin.forward(&x, &mut ws, false);
        assert_close(&fast, &slow, &format!("linear fwd in{in_f} out{out_f} b{batch}"));
    }
}

#[test]
fn linear_backward_matches_naive_reference() {
    for &(in_f, out_f, batch) in &[(5usize, 3usize, 4usize), (16, 16, 2), (64, 2, 33)] {
        let mut lin = Linear::new(in_f, out_f, 9 + out_f as u64);
        let x = init::uniform(&[batch, in_f], -1.0, 1.0, 60 + batch as u64);
        let g = init::uniform(&[batch, out_f], -1.0, 1.0, 70 + batch as u64);
        let mut ws = Workspace::new();
        let (ref_gi, ref_gw, ref_gb) = lin.backward_reference(&x, &g);
        let _ = lin.forward(&x, &mut ws, true);
        lin.zero_grad();
        let gi = lin.backward(&g, &mut ws);
        let what = format!("linear bwd in{in_f} out{out_f} b{batch}");
        assert_close(&gi, &ref_gi, &format!("{what}: grad_input"));
        let params = lin.params_mut();
        assert_close(&params[0].grad, &ref_gw, &format!("{what}: grad_weight"));
        assert_close(&params[1].grad, &ref_gb, &format!("{what}: grad_bias"));
    }
}
