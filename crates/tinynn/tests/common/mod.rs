//! Oracles shared by the integration tests.

/// Reference (naive, exact `i64`) integer product `A[m,k] · B[n,k]ᵀ` of the
/// quantised operands, the parity oracle of the quantised kernels.
pub fn matmul_q8_reference(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
    let mut c = vec![0i64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for kk in 0..k {
                acc += a[i * k + kk] as i64 * b[j * k + kk] as i64;
            }
            c[i * n + j] = acc;
        }
    }
    c
}
