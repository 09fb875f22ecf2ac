//! Bit-identity of the widened kernels: each rewritten function decodes its
//! operands once per call and accumulates as row updates, and must return
//! exactly the raw bits of the per-element loops it replaced.
//!
//! Those loops live on below as test-local oracles, copied verbatim (run
//! serially: rows are independent, so the order rows run in cannot matter).
//! IR (`m`, `d` and `r'`), the decomposed backward and the block-sparse
//! kernels are pinned the same way, each against a copy of its own loops.
//! Cases cover `F16`, `f32` and `f64`; head widths and row lengths that
//! leave vector tails; no mask, a causal mask and random masks with a fully
//! masked row and a fully masked sub-vector; and inputs with signed zeros,
//! subnormals of every precision, and values whose scores overflow binary16.

use proptest::prelude::*;
use resoftmax_fp16::F16;
use resoftmax_kernels::{
    apply_mask, bs_decomposed_softmax_backward, bs_local_softmax, bs_online_attention,
    bs_recomposed_attention, causal_mask, decomposed_softmax_backward, fused_gs_pv, fused_qk_ls,
    global_scale, inter_reduce, linear, local_softmax, local_softmax_narrow_accum,
    online_attention, reference_attention, softmax_backward, softmax_rows, InterReductionOutput,
};
use resoftmax_sparse::{BlockLayout, BlockSparseMatrix};
use resoftmax_tensor::{matmul_transpose_b, Matrix, Scalar};

/// Raw bit patterns, so `-0.0` vs `+0.0` or a NaN-payload difference fails.
trait Bits: Scalar {
    fn bits(self) -> u64;
}

impl Bits for F16 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

fn bits<T: Bits>(ms: &[&Matrix<T>]) -> Vec<u64> {
    ms.iter()
        .flat_map(|m| m.as_slice().iter().map(|x| x.bits()))
        .collect()
}

fn bs_bits<T: Bits>(m: &BlockSparseMatrix<T>) -> Vec<u64> {
    bits(&m.blocks().iter().collect::<Vec<_>>())
}

/// Bits of stored maxima (`m'`, IR's `m`) with `-0` read as `+0`: `max`
/// may return either zero when `+0` and `-0` tie (IEEE maxNum), so the sign
/// of a zero maximum depends on code generation, in the per-element loops
/// too.
fn max_bits<T: Bits>(m: &[T]) -> Vec<u64> {
    m.iter()
        .map(|&x| if x == T::zero() { T::zero() } else { x }.bits())
        .collect()
}

/// `inter_reduce` against its oracle: `m` (zero maxima read unsigned), `d`
/// and `r'`.
fn check_inter_reduce<T: Bits>(
    what: &str,
    m_prime: &Matrix<T>,
    d_prime: &Matrix<T>,
) -> Result<InterReductionOutput<T>, String> {
    let ir = inter_reduce(m_prime, d_prime);
    let (m, d, r_prime) = oracle::inter_reduce(m_prime, d_prime);
    same(&format!("{what} m"), &max_bits(&ir.m), &max_bits(&m))?;
    let d_bits = |d: &[T]| d.iter().map(|x| x.bits()).collect::<Vec<_>>();
    same(&format!("{what} d"), &d_bits(&ir.d), &d_bits(&d))?;
    same(
        &format!("{what} r'"),
        &bits(&[&ir.r_prime]),
        &bits(&[&r_prime]),
    )?;
    Ok(ir)
}

/// Fails with the first differing element instead of two long vectors.
fn same(what: &str, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} elements vs {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(i) => Err(format!(
            "{what}: element {i} is {:#x}, the per-element loop gives {:#x}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// The per-element loops the widened kernels replaced, verbatim, and the
/// loops of the kernels that share their row walks with them.
mod oracle {
    use resoftmax_kernels::apply_mask;
    use resoftmax_sparse::{BlockLayout, BlockSparseMatrix};
    use resoftmax_tensor::{scale as scale_op, Matrix, Scalar};

    pub fn matmul_transpose_b<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut out = Matrix::zeros(m, n);
        out.as_mut_slice()
            .chunks_mut(n.max(1))
            .enumerate()
            .for_each(|(i, row)| {
                for (j, o) in row.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for p in 0..k {
                        acc += a.get(i, p).to_f64() * b.get(j, p).to_f64();
                    }
                    *o = T::from_f64(acc);
                }
            });
        out
    }

    pub fn softmax_rows<T: Scalar>(x: &Matrix<T>) -> Matrix<T> {
        let cols = x.cols();
        let mut y = Matrix::zeros(x.rows(), cols);
        y.as_mut_slice()
            .chunks_mut(cols.max(1))
            .enumerate()
            .for_each(|(r, out)| {
                let row = x.row(r);
                let m = row.iter().fold(f64::NEG_INFINITY, |a, v| a.max(v.to_f64()));
                if m == f64::NEG_INFINITY {
                    return;
                }
                let mut d = 0.0f64;
                for v in row {
                    let e = T::from_f64((v.to_f64() - m).exp());
                    d += e.to_f64();
                }
                for (o, v) in out.iter_mut().zip(row) {
                    let e = T::from_f64((v.to_f64() - m).exp());
                    *o = T::from_f64(e.to_f64() / d);
                }
            });
        y
    }

    pub fn softmax_backward<T: Scalar>(y: &Matrix<T>, dy: &Matrix<T>) -> Matrix<T> {
        let cols = y.cols();
        let mut dx = Matrix::zeros(y.rows(), cols);
        dx.as_mut_slice()
            .chunks_mut(cols.max(1))
            .enumerate()
            .for_each(|(r, out)| {
                let (yr, dyr) = (y.row(r), dy.row(r));
                let mut dot = 0.0f64;
                for (a, b) in yr.iter().zip(dyr) {
                    dot += a.to_f64() * b.to_f64();
                }
                for ((o, a), b) in out.iter_mut().zip(yr).zip(dyr) {
                    *o = T::from_f64(a.to_f64() * (b.to_f64() - dot));
                }
            });
        dx
    }

    pub fn reference_attention<T: Scalar>(
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        scale: f64,
        mask: Option<&[bool]>,
    ) -> Matrix<T> {
        let scores = matmul_transpose_b(q, k);
        let scaled = scale_op(&scores, scale);
        let masked = match mask {
            Some(m) => apply_mask(&scaled, m).expect("mask covers the scores"),
            None => scaled,
        };
        let p = softmax_rows(&masked);
        let l = p.rows();
        let d_head = v.cols();
        let mut out = Matrix::zeros(l, d_head);
        out.as_mut_slice()
            .chunks_mut(d_head.max(1))
            .enumerate()
            .for_each(|(r, o_row)| {
                let mut acc = vec![0.0f32; d_head];
                for c in 0..p.cols() {
                    let pv = p.get(r, c).to_f32();
                    if pv == 0.0 {
                        continue;
                    }
                    for (j, a) in acc.iter_mut().enumerate() {
                        *a += pv * v.get(c, j).to_f32();
                    }
                }
                for (o, a) in o_row.iter_mut().zip(&acc) {
                    *o = T::from_f64(f64::from(*a));
                }
            });
        out
    }

    /// `[x', m', d']`.
    pub fn fused_qk_ls<T: Scalar>(
        q: &Matrix<T>,
        k: &Matrix<T>,
        t: usize,
        scale: f64,
        mask: Option<&[bool]>,
    ) -> [Matrix<T>; 3] {
        let l = q.rows();
        let n_sv = l / t;
        let d_head = q.cols();
        let mut x_prime = Matrix::zeros(l, l);
        let mut m_prime = Matrix::zeros(l, n_sv);
        let mut d_prime = Matrix::zeros(l, n_sv);
        let body = |r: usize, x_row: &mut [T], m_row: &mut [T], d_row: &mut [T]| {
            for sv in 0..n_sv {
                let mut acc = vec![0.0f32; t];
                for (j, a) in acc.iter_mut().enumerate() {
                    let c = sv * t + j;
                    let mut s = 0.0f32;
                    for p in 0..d_head {
                        s += q.get(r, p).to_f32() * k.get(c, p).to_f32();
                    }
                    *a = s;
                }
                let mut m = f32::NEG_INFINITY;
                for (j, a) in acc.iter_mut().enumerate() {
                    *a *= scale as f32;
                    if let Some(mk) = mask {
                        if !mk[r * l + sv * t + j] {
                            *a = f32::NEG_INFINITY;
                        }
                    }
                    m = m.max(*a);
                }
                if m == f32::NEG_INFINITY {
                    m_row[sv] = T::neg_infinity();
                    continue;
                }
                let mut d = 0.0f32;
                for a in &acc {
                    d += (a - m).exp();
                }
                for (j, a) in acc.iter().enumerate() {
                    x_row[sv * t + j] = T::from_f64(((a - m).exp() / d) as f64);
                }
                m_row[sv] = T::from_f64(m as f64);
                d_row[sv] = T::from_f64(d as f64);
            }
        };
        for r in 0..l {
            body(
                r,
                x_prime.row_mut(r),
                m_prime.row_mut(r),
                d_prime.row_mut(r),
            );
        }
        [x_prime, m_prime, d_prime]
    }

    pub fn fused_gs_pv<T: Scalar>(
        x_prime: &Matrix<T>,
        r_prime: &Matrix<T>,
        v: &Matrix<T>,
        t: usize,
    ) -> Matrix<T> {
        let l = x_prime.rows();
        let d_head = v.cols();
        let mut out = Matrix::zeros(l, d_head);
        out.as_mut_slice()
            .chunks_mut(d_head.max(1))
            .enumerate()
            .for_each(|(r, o_row)| {
                let mut acc = vec![0.0f32; d_head];
                for k in 0..x_prime.cols() {
                    let rk = r_prime.get(r, k / t).to_f32();
                    let p = T::from_f32(x_prime.get(r, k).to_f32() * rk);
                    let pf = p.to_f32();
                    if pf == 0.0 {
                        continue;
                    }
                    for (j, a) in acc.iter_mut().enumerate() {
                        *a += pf * v.get(k, j).to_f32();
                    }
                }
                for (o, a) in o_row.iter_mut().zip(&acc) {
                    *o = T::from_f64(f64::from(*a));
                }
            });
        out
    }

    pub fn online_attention<T: Scalar>(
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        t: usize,
        scale: f64,
        mask: Option<&[bool]>,
    ) -> Matrix<T> {
        let l = q.rows();
        let d_head = q.cols();
        let d_out = v.cols();
        let n_tiles = l / t;
        let mut out = Matrix::zeros(l, d_out);
        out.as_mut_slice()
            .chunks_mut(d_out.max(1))
            .enumerate()
            .for_each(|(r, out_row)| {
                let mut m_run = f32::NEG_INFINITY;
                let mut d_run = 0.0f32;
                let mut acc = vec![0.0f32; d_out];

                for tile in 0..n_tiles {
                    let mut s = vec![0.0f32; t];
                    let mut m_tile = f32::NEG_INFINITY;
                    for (j, sj) in s.iter_mut().enumerate() {
                        let c = tile * t + j;
                        let mut dot = 0.0f32;
                        for p in 0..d_head {
                            dot += q.get(r, p).to_f32() * k.get(c, p).to_f32();
                        }
                        dot *= scale as f32;
                        if let Some(mk) = mask {
                            if !mk[r * l + tile * t + j] {
                                dot = f32::NEG_INFINITY;
                            }
                        }
                        *sj = dot;
                        m_tile = m_tile.max(dot);
                    }
                    if m_tile == f32::NEG_INFINITY {
                        continue;
                    }
                    let m_new = m_run.max(m_tile);
                    let alpha = if m_run == f32::NEG_INFINITY {
                        0.0
                    } else {
                        (m_run - m_new).exp()
                    };
                    let mut d_tile = 0.0f32;
                    let mut pv = vec![0.0f32; d_out];
                    for (j, &sj) in s.iter().enumerate() {
                        if sj == f32::NEG_INFINITY {
                            continue;
                        }
                        let e = (sj - m_new).exp();
                        d_tile += e;
                        let c = tile * t + j;
                        for (o, p) in pv.iter_mut().enumerate() {
                            *p += e * v.get(c, o).to_f32();
                        }
                    }
                    d_run = d_run * alpha + d_tile;
                    for (a, p) in acc.iter_mut().zip(&pv) {
                        *a = *a * alpha + p;
                    }
                    m_run = m_new;
                }
                if d_run > 0.0 {
                    for (o, a) in out_row.iter_mut().zip(&acc) {
                        *o = T::from_f64((a / d_run) as f64);
                    }
                }
            });
        out
    }

    pub fn bs_online_attention<T: Scalar>(
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        layout: &resoftmax_sparse::BlockLayout,
        scale: f64,
    ) -> Matrix<T> {
        let l = layout.seq_len();
        let b = layout.block();
        let d_head = q.cols();
        let d_out = v.cols();
        let row_ptr = layout.row_ptr();
        let blocks: Vec<(usize, usize)> = layout.iter_blocks().collect();

        let mut out = Matrix::zeros(l, d_out);
        out.as_mut_slice()
            .chunks_mut(d_out.max(1))
            .enumerate()
            .for_each(|(r, out_row)| {
                let br = r / b;
                let mut m_run = f32::NEG_INFINITY;
                let mut d_run = 0.0f32;
                let mut acc = vec![0.0f32; d_out];
                for &(_, bc) in &blocks[row_ptr[br]..row_ptr[br + 1]] {
                    let mut s = vec![0.0f32; b];
                    let mut m_tile = f32::NEG_INFINITY;
                    for (j, sj) in s.iter_mut().enumerate() {
                        let c = bc * b + j;
                        let mut dot = 0.0f32;
                        for p in 0..d_head {
                            dot += q.get(r, p).to_f32() * k.get(c, p).to_f32();
                        }
                        *sj = dot * scale as f32;
                        m_tile = m_tile.max(*sj);
                    }
                    let m_new = m_run.max(m_tile);
                    let alpha = if m_run == f32::NEG_INFINITY {
                        0.0
                    } else {
                        (m_run - m_new).exp()
                    };
                    let mut d_tile = 0.0f32;
                    let mut pv = vec![0.0f32; d_out];
                    for (j, &sj) in s.iter().enumerate() {
                        let e = (sj - m_new).exp();
                        d_tile += e;
                        let c = bc * b + j;
                        for (o, p) in pv.iter_mut().enumerate() {
                            *p += e * v.get(c, o).to_f32();
                        }
                    }
                    d_run = d_run * alpha + d_tile;
                    for (a, p) in acc.iter_mut().zip(&pv) {
                        *a = *a * alpha + p;
                    }
                    m_run = m_new;
                }
                if d_run > 0.0 {
                    for (o, a) in out_row.iter_mut().zip(&acc) {
                        *o = T::from_f64((a / d_run) as f64);
                    }
                }
            });
        out
    }

    pub fn linear<T: Scalar>(x: &Matrix<T>, w: &Matrix<T>, b: &[T]) -> Matrix<T> {
        let (d_in, d_out) = (w.rows(), w.cols());
        let mut y = Matrix::zeros(x.rows(), d_out);
        y.as_mut_slice()
            .chunks_mut(d_out.max(1))
            .enumerate()
            .for_each(|(r, out)| {
                let xr = x.row(r);
                for (j, o) in out.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (p, x) in xr.iter().enumerate().take(d_in) {
                        acc += x.to_f32() * w.get(p, j).to_f32();
                    }
                    *o = T::from_f64(acc as f64 + b[j].to_f64());
                }
            });
        y
    }

    /// `[x', m', d']`.
    pub fn local_softmax<T: Scalar>(x: &Matrix<T>, t: usize) -> [Matrix<T>; 3] {
        let n_sv = x.cols() / t;
        let mut x_prime = Matrix::zeros(x.rows(), x.cols());
        let mut m_prime = Matrix::zeros(x.rows(), n_sv);
        let mut d_prime = Matrix::zeros(x.rows(), n_sv);
        for r in 0..x.rows() {
            for k in 0..n_sv {
                let base = k * t;
                let mut m = f64::NEG_INFINITY;
                for j in 0..t {
                    m = m.max(x.get(r, base + j).to_f64());
                }
                if m == f64::NEG_INFINITY {
                    m_prime.set(r, k, T::neg_infinity());
                    continue;
                }
                let mut d = 0.0f64;
                for j in 0..t {
                    let e = T::from_f64((x.get(r, base + j).to_f64() - m).exp());
                    d += e.to_f64();
                }
                for j in 0..t {
                    let e = T::from_f64((x.get(r, base + j).to_f64() - m).exp());
                    x_prime.set(r, base + j, T::from_f64(e.to_f64() / d));
                }
                m_prime.set(r, k, T::from_f64(m));
                d_prime.set(r, k, T::from_f64(d));
            }
        }
        [x_prime, m_prime, d_prime]
    }

    /// `[x', m', d']`.
    pub fn local_softmax_narrow_accum<T: Scalar>(x: &Matrix<T>, t: usize) -> [Matrix<T>; 3] {
        let n_sv = x.cols() / t;
        let mut x_prime = Matrix::zeros(x.rows(), x.cols());
        let mut m_prime = Matrix::zeros(x.rows(), n_sv);
        let mut d_prime = Matrix::zeros(x.rows(), n_sv);
        for r in 0..x.rows() {
            for k in 0..n_sv {
                let base = k * t;
                let mut m = f64::NEG_INFINITY;
                for j in 0..t {
                    m = m.max(x.get(r, base + j).to_f64());
                }
                if m == f64::NEG_INFINITY {
                    m_prime.set(r, k, T::neg_infinity());
                    continue;
                }
                let mut d = T::zero();
                for j in 0..t {
                    let e = T::from_f64((x.get(r, base + j).to_f64() - m).exp());
                    d = T::from_f64(d.to_f64() + e.to_f64());
                }
                for j in 0..t {
                    let e = T::from_f64((x.get(r, base + j).to_f64() - m).exp());
                    x_prime.set(r, base + j, T::from_f64(e.to_f64() / d.to_f64()));
                }
                m_prime.set(r, k, T::from_f64(m));
                d_prime.set(r, k, d);
            }
        }
        [x_prime, m_prime, d_prime]
    }

    pub fn global_scale<T: Scalar>(
        x_prime: &Matrix<T>,
        r_prime: &Matrix<T>,
        t: usize,
    ) -> Matrix<T> {
        let n_sv = x_prime.cols() / t;
        let mut y = Matrix::zeros(x_prime.rows(), x_prime.cols());
        for r in 0..x_prime.rows() {
            for k in 0..n_sv {
                let rk = r_prime.get(r, k);
                for j in 0..t {
                    let c = k * t + j;
                    y.set(r, c, T::from_f64(x_prime.get(r, c).to_f64() * rk.to_f64()));
                }
            }
        }
        y
    }

    /// `(m, d, r')`.
    pub fn inter_reduce<T: Scalar>(
        m_prime: &Matrix<T>,
        d_prime: &Matrix<T>,
    ) -> (Vec<T>, Vec<T>, Matrix<T>) {
        let (rows, n_sv) = m_prime.shape();
        let mut m_out = Vec::with_capacity(rows);
        let mut d_out = Vec::with_capacity(rows);
        let mut r_prime = Matrix::zeros(rows, n_sv);
        for r in 0..rows {
            let m = m_prime
                .row(r)
                .iter()
                .fold(f64::NEG_INFINITY, |a, v| a.max(v.to_f64()));
            if m == f64::NEG_INFINITY {
                m_out.push(T::neg_infinity());
                d_out.push(T::zero());
                continue;
            }
            let mut d = 0.0f64;
            for k in 0..n_sv {
                let mk = m_prime.get(r, k).to_f64();
                if mk == f64::NEG_INFINITY {
                    continue;
                }
                d += (mk - m).exp() * d_prime.get(r, k).to_f64();
            }
            for k in 0..n_sv {
                let mk = m_prime.get(r, k).to_f64();
                if mk == f64::NEG_INFINITY {
                    continue;
                }
                let rk = (mk - m).exp() * d_prime.get(r, k).to_f64() / d;
                r_prime.set(r, k, T::from_f64(rk));
            }
            m_out.push(T::from_f64(m));
            d_out.push(T::from_f64(d));
        }
        (m_out, d_out, r_prime)
    }

    pub fn decomposed_softmax_backward<T: Scalar>(
        x_prime: &Matrix<T>,
        r_prime: &Matrix<T>,
        dy: &Matrix<T>,
        t: usize,
    ) -> Matrix<T> {
        let n_sv = x_prime.cols() / t;
        let (rows, cols) = x_prime.shape();
        let mut dx = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut dot = 0.0f64;
            for k in 0..n_sv {
                let mut partial = 0.0f64;
                for j in 0..t {
                    let c = k * t + j;
                    partial += dy.get(r, c).to_f64() * x_prime.get(r, c).to_f64();
                }
                dot += partial * r_prime.get(r, k).to_f64();
            }
            for k in 0..n_sv {
                let rk = r_prime.get(r, k).to_f64();
                for j in 0..t {
                    let c = k * t + j;
                    let y = x_prime.get(r, c).to_f64() * rk;
                    dx.set(r, c, T::from_f64(y * (dy.get(r, c).to_f64() - dot)));
                }
            }
        }
        dx
    }

    /// `[x', m', d']`, `x'` as the blocks of a block-sparse matrix.
    ///
    /// One deliberate change from the loop it copies: a fully masked block
    /// row (all `−∞`) writes zeros to `x'`, the dense masked rule, where the
    /// loop left its `−∞` scores for GS to turn into NaN.
    pub fn bs_local_softmax<T: Scalar>(
        scores: &BlockSparseMatrix<T>,
    ) -> (BlockSparseMatrix<T>, Matrix<T>, Matrix<T>) {
        let layout = scores.layout().clone();
        let b = layout.block();
        let l = layout.seq_len();
        let n = layout.n_blocks();
        let mut x_prime = scores.clone();
        let mut m_prime = Matrix::filled(l, n, T::neg_infinity());
        let mut d_prime = Matrix::zeros(l, n);
        for (idx, (br, bc)) in layout.iter_blocks().enumerate() {
            let src = &scores.blocks()[idx];
            let dst = &mut x_prime.blocks_mut()[idx];
            for within in 0..b {
                let row = br * b + within;
                let mut m = f64::NEG_INFINITY;
                for c in 0..b {
                    m = m.max(src.get(within, c).to_f64());
                }
                if m == f64::NEG_INFINITY {
                    for c in 0..b {
                        dst.set(within, c, T::zero());
                    }
                    continue;
                }
                let mut d = 0.0f64;
                for c in 0..b {
                    let e = T::from_f64((src.get(within, c).to_f64() - m).exp());
                    d += e.to_f64();
                }
                for c in 0..b {
                    let e = T::from_f64((src.get(within, c).to_f64() - m).exp());
                    dst.set(within, c, T::from_f64(e.to_f64() / d));
                }
                m_prime.set(row, bc, T::from_f64(m));
                d_prime.set(row, bc, T::from_f64(d));
            }
        }
        (x_prime, m_prime, d_prime)
    }

    pub fn bs_recomposed_attention<T: Scalar>(
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        layout: &BlockLayout,
        scale: f64,
    ) -> Matrix<T> {
        let scores = resoftmax_sparse::sddmm(q, k, layout).unwrap();
        let mut scaled = scores.clone();
        for block in scaled.blocks_mut() {
            *block = scale_op(block, scale);
        }
        let (x_prime, m_prime, d_prime) = bs_local_softmax(&scaled);
        let (_, _, r_prime) = inter_reduce(&m_prime, &d_prime);
        let b = layout.block();
        let l = layout.seq_len();
        let d_out = v.cols();
        let mut acc = vec![0.0f32; l * d_out];
        for ((br, bc), block) in layout.iter_blocks().zip(x_prime.blocks()) {
            for r in 0..b {
                let global_r = br * b + r;
                let rk = r_prime.get(global_r, bc).to_f32();
                for c in 0..b {
                    let p = T::from_f32(block.get(r, c).to_f32() * rk).to_f32();
                    if p == 0.0 {
                        continue;
                    }
                    let k_row = bc * b + c;
                    for j in 0..d_out {
                        acc[global_r * d_out + j] += p * v.get(k_row, j).to_f32();
                    }
                }
            }
        }
        let mut out = Matrix::zeros(l, d_out);
        for r in 0..l {
            for j in 0..d_out {
                out.set(r, j, T::from_f64(acc[r * d_out + j] as f64));
            }
        }
        out
    }

    pub fn bs_decomposed_softmax_backward<T: Scalar>(
        x_prime: &BlockSparseMatrix<T>,
        r_prime: &Matrix<T>,
        dy: &BlockSparseMatrix<T>,
    ) -> BlockSparseMatrix<T> {
        let layout = x_prime.layout().clone();
        let b = layout.block();
        let l = layout.seq_len();
        let mut dots = vec![0.0f64; l];
        for ((br, bc), (xb, dyb)) in layout
            .iter_blocks()
            .zip(x_prime.blocks().iter().zip(dy.blocks()))
        {
            for r in 0..b {
                let row = br * b + r;
                let rk = r_prime.get(row, bc).to_f64();
                let mut partial = 0.0f64;
                for c in 0..b {
                    partial += xb.get(r, c).to_f64() * dyb.get(r, c).to_f64();
                }
                dots[row] += partial * rk;
            }
        }
        let mut dx = x_prime.clone();
        let order: Vec<(usize, usize)> = layout.iter_blocks().collect();
        for (idx, (br, bc)) in order.into_iter().enumerate() {
            for r in 0..b {
                let row = br * b + r;
                let rk = r_prime.get(row, bc).to_f64();
                for c in 0..b {
                    let y = x_prime.blocks()[idx].get(r, c).to_f64() * rk;
                    let g = y * (dy.blocks()[idx].get(r, c).to_f64() - dots[row]);
                    dx.blocks_mut()[idx].set(r, c, T::from_f64(g));
                }
            }
        }
        dx
    }
}

/// SplitMix64: a seeded stream independent of the crates under test.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn signed_unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Mostly values in ±4, with about one in four a special: `+0`, `-0`, a
    /// subnormal of binary16, binary32 or binary64, or a magnitude of
    /// 150–300, whose products overflow binary16 (65504) once summed.
    fn value(&mut self) -> f64 {
        let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
        match self.next() % 25 {
            0 => 0.0,
            1 => -0.0,
            2 => sign * 3.0 * 2f64.powi(-20),
            3 => sign * 1e-40,
            4 => sign * 1e-310,
            5..=9 if self.next().is_multiple_of(4) => {
                sign * (150.0 + 150.0 * self.signed_unit().abs())
            }
            _ => 4.0 * self.signed_unit(),
        }
    }

    fn matrix<T: Scalar>(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_fn(rows, cols, |_, _| T::from_f64(self.value()))
    }
}

/// No mask, causal, or random with row 0 fully masked and the first
/// sub-vector of row 1 fully masked.
fn mask(kind: usize, l: usize, t: usize, s: &mut Stream) -> Option<Vec<bool>> {
    match kind {
        0 => None,
        1 => Some(causal_mask(l)),
        _ => {
            let mut m: Vec<bool> = (0..l * l).map(|_| !s.next().is_multiple_of(4)).collect();
            m[..l].fill(false);
            if l > 1 {
                m[l..l + t].fill(false);
            }
            Some(m)
        }
    }
}

const WIDTHS: [usize; 5] = [1, 3, 7, 33, 64];

/// The generator reaches every special input the suite claims to cover.
#[test]
fn inputs_cover_signed_zeros_subnormals_and_fp16_overflow() {
    let mut s = Stream(1);
    let x: Vec<f64> = (0..4096).map(|_| s.value()).collect();
    assert!(x.iter().any(|v| v.to_bits() == 0.0f64.to_bits()));
    assert!(x.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
    assert!(x
        .iter()
        .any(|v| F16::from_f64(*v).to_f64().abs() == 3.0 * 2f64.powi(-20)));
    assert!(x.iter().any(|&v| (v as f32).is_subnormal()));
    assert!(x.iter().any(|v| v.is_subnormal()));
    let (q, k) = (s.matrix::<F16>(32, 64), s.matrix::<F16>(32, 64));
    let scores = matmul_transpose_b(&q, &k).unwrap();
    assert!(scores.as_slice().iter().any(|v| !v.is_finite()));
}

/// The calls of the benchmark's attention unit, each against its oracle:
/// the score product and a softmax over it, then the Baseline, SDF and
/// online-softmax layers.
fn check_attention<T: Bits>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    t: usize,
    mask: Option<&[bool]>,
) -> Result<(), String> {
    let scale = 1.0 / (q.cols() as f64).sqrt();
    let scores = matmul_transpose_b(q, k).unwrap();
    same(
        "matmul_transpose_b",
        &bits(&[&scores]),
        &bits(&[&oracle::matmul_transpose_b(q, k)]),
    )?;
    same(
        "softmax_rows",
        &bits(&[&softmax_rows(&scores)]),
        &bits(&[&oracle::softmax_rows(&scores)]),
    )?;
    same(
        "reference_attention",
        &bits(&[&reference_attention(q, k, v, scale, mask).unwrap()]),
        &bits(&[&oracle::reference_attention(q, k, v, scale, mask)]),
    )?;
    let ls = fused_qk_ls(q, k, t, scale, mask).unwrap();
    let [x_prime, m_prime, d_prime] = oracle::fused_qk_ls(q, k, t, scale, mask);
    same(
        "fused_qk_ls",
        &bits(&[&ls.x_prime, &ls.d_prime]),
        &bits(&[&x_prime, &d_prime]),
    )?;
    same(
        "fused_qk_ls m'",
        &max_bits(ls.m_prime.as_slice()),
        &max_bits(m_prime.as_slice()),
    )?;
    let ir = check_inter_reduce("inter_reduce", &ls.m_prime, &ls.d_prime)?;
    same(
        "fused_gs_pv",
        &bits(&[&fused_gs_pv(&ls.x_prime, &ir.r_prime, v, t).unwrap()]),
        &bits(&[&oracle::fused_gs_pv(&ls.x_prime, &ir.r_prime, v, t)]),
    )?;
    same(
        "online_attention",
        &bits(&[&online_attention(q, k, v, t, scale, mask).unwrap()]),
        &bits(&[&oracle::online_attention(q, k, v, t, scale, mask)]),
    )
}

/// Every rewritten function against its oracle, at precision `T`.
fn check<T: Bits>(l: usize, d: usize, t: usize, mask_kind: usize, seed: u64) -> Result<(), String> {
    check_case::<T>(l, d, t, mask_kind, seed).map_err(|e| {
        format!(
            "{} L={l} d={d} T={t} mask={mask_kind} seed={seed}: {e}",
            T::NAME
        )
    })
}

fn check_case<T: Bits>(
    l: usize,
    d: usize,
    t: usize,
    mask_kind: usize,
    seed: u64,
) -> Result<(), String> {
    let mut s = Stream(seed);
    let (q, k, v) = (
        s.matrix::<T>(l, d),
        s.matrix::<T>(l, d),
        s.matrix::<T>(l, d),
    );
    let mask = mask(mask_kind, l, t, &mut s);
    let mask = mask.as_deref();
    check_attention(&q, &k, &v, t, mask)?;

    let scale = 1.0 / (d as f64).sqrt();
    let mut layout = BlockLayout::empty(l, t);
    for br in 0..l / t {
        for bc in 0..l / t {
            layout.set(br, bc, s.next().is_multiple_of(2));
        }
    }
    same(
        "bs_online_attention",
        &bits(&[&bs_online_attention(&q, &k, &v, &layout, scale).unwrap()]),
        &bits(&[&oracle::bs_online_attention(&q, &k, &v, &layout, scale)]),
    )?;
    same(
        "bs_recomposed_attention",
        &bits(&[&bs_recomposed_attention(&q, &k, &v, &layout, scale).unwrap()]),
        &bits(&[&oracle::bs_recomposed_attention(&q, &k, &v, &layout, scale)]),
    )?;

    let d_out = WIDTHS[(s.next() % 5) as usize];
    let w = s.matrix::<T>(d, d_out);
    let b = s.matrix::<T>(1, d_out);
    same(
        "linear",
        &bits(&[&linear(&q, &w, b.row(0)).unwrap()]),
        &bits(&[&oracle::linear(&q, &w, b.row(0))]),
    )?;

    // Softmax inputs: masked entries are -inf.
    let x = s.matrix::<T>(l, l);
    let x = match mask {
        Some(m) => apply_mask(&x, m).expect("mask covers the scores"),
        None => x,
    };
    same(
        "softmax_rows",
        &bits(&[&softmax_rows(&x)]),
        &bits(&[&oracle::softmax_rows(&x)]),
    )?;
    let wide = local_softmax(&x, t).unwrap();
    let [x_prime, m_prime, d_prime] = oracle::local_softmax(&x, t);
    same(
        "local_softmax",
        &bits(&[&wide.x_prime, &wide.d_prime]),
        &bits(&[&x_prime, &d_prime]),
    )?;
    same(
        "local_softmax m'",
        &max_bits(wide.m_prime.as_slice()),
        &max_bits(m_prime.as_slice()),
    )?;
    let narrow = local_softmax_narrow_accum(&x, t).unwrap();
    let [x_prime, m_prime, d_prime] = oracle::local_softmax_narrow_accum(&x, t);
    same(
        "local_softmax_narrow_accum",
        &bits(&[&narrow.x_prime, &narrow.d_prime]),
        &bits(&[&x_prime, &d_prime]),
    )?;
    same(
        "local_softmax_narrow_accum m'",
        &max_bits(narrow.m_prime.as_slice()),
        &max_bits(m_prime.as_slice()),
    )?;
    let ir = check_inter_reduce("inter_reduce", &wide.m_prime, &wide.d_prime)?;
    same(
        "global_scale",
        &bits(&[&global_scale(&wide.x_prime, &ir.r_prime, t).unwrap()]),
        &bits(&[&oracle::global_scale(&wide.x_prime, &ir.r_prime, t)]),
    )?;
    let dy = s.matrix::<T>(l, l);
    let y = softmax_rows(&x);
    same(
        "softmax_backward",
        &bits(&[&softmax_backward(&y, &dy).unwrap()]),
        &bits(&[&oracle::softmax_backward(&y, &dy)]),
    )?;
    same(
        "decomposed_softmax_backward",
        &bits(&[&decomposed_softmax_backward(&wide.x_prime, &ir.r_prime, &dy, t).unwrap()]),
        &bits(&[&oracle::decomposed_softmax_backward(
            &wide.x_prime,
            &ir.r_prime,
            &dy,
            t,
        )]),
    )?;

    // The block-sparse twins on the same inputs, restricted to the layout.
    let scores = BlockSparseMatrix::from_dense(&x, layout.clone()).unwrap();
    let bs = bs_local_softmax(&scores);
    let (x_prime, m_prime, d_prime) = oracle::bs_local_softmax(&scores);
    same(
        "bs_local_softmax",
        &[bs_bits(&bs.x_prime), bits(&[&bs.d_prime])].concat(),
        &[bs_bits(&x_prime), bits(&[&d_prime])].concat(),
    )?;
    same(
        "bs_local_softmax m'",
        &max_bits(bs.m_prime.as_slice()),
        &max_bits(m_prime.as_slice()),
    )?;
    let ir = check_inter_reduce("bs inter_reduce", &bs.m_prime, &bs.d_prime)?;
    let dy = BlockSparseMatrix::from_dense(&dy, layout).unwrap();
    same(
        "bs_decomposed_softmax_backward",
        &bs_bits(&bs_decomposed_softmax_backward(&bs.x_prime, &ir.r_prime, &dy).unwrap()),
        &bs_bits(&oracle::bs_decomposed_softmax_backward(
            &bs.x_prime,
            &ir.r_prime,
            &dy,
        )),
    )
}

/// `(L, d, T)` with `T ∈ {1, 8, L}` dividing `L`: `L` runs over several
/// multiples of 8 for `T = 8`, and over any length from 8 to 39 (vector
/// tails included) for `T = 1` and `T = L`.
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..5, 0usize..3, 0usize..8, 0usize..5).prop_map(|(n, tk, odd, dk)| {
        let d = WIDTHS[dk];
        match tk {
            0 => (8 * n + odd, d, 1),
            1 => (8 * n, d, 8),
            _ => (8 * n + odd, d, 8 * n + odd),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn widened_kernels_match_the_per_element_loops(
        (l, d, t) in shape(),
        mask_kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        check::<F16>(l, d, t, mask_kind, seed)?;
        check::<f32>(l, d, t, mask_kind, seed)?;
        check::<f64>(l, d, t, mask_kind, seed)?;
    }
}

/// The benchmark's head: binary16, `L = 1024`, `d = 64`, `T = 64`, no mask,
/// inputs on the 2⁻⁸ grid within ±4 (exact in binary16).
#[test]
fn widened_kernels_match_at_the_benchmark_shape() {
    let (l, d, t) = (1024, 64, 64);
    let mut s = Stream(0x5eed);
    let mut head = || {
        Matrix::<F16>::from_fn(l, d, |_, _| {
            F16::from_f64((s.signed_unit() * 1024.0).round() / 256.0)
        })
    };
    let (q, k, v) = (head(), head(), head());
    check_attention(&q, &k, &v, t, None).unwrap();
}
