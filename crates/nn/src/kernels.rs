//! Explicitly-vectorised f32 kernels with a bit-exact lane-order
//! accumulation contract (DESIGN.md §14).
//!
//! Every kernel exists twice: an AVX2 path (8-lane, via
//! `core::arch::x86_64`) selected at runtime with
//! `is_x86_feature_detected!`, and a scalar fallback that executes the
//! *same* IEEE-754 operations in the *same* order. The contract:
//!
//! * **Dot products** ([`dot`], [`dot4`]) accumulate 8-way strided
//!   partial sums — lane `j` sums the terms with index `≡ j (mod 8)` in
//!   increasing order — the sub-[`LANES`] tail folds into lanes
//!   `0..tail`, and a single fixed-shape tree reduction
//!   (`tree_reduce`) collapses the lanes. The scalar path keeps the
//!   eight partial sums in an array and runs the identical reduction,
//!   so AVX2 and scalar results are bit-identical by construction.
//! * **Element-wise sweeps** ([`axpy`], [`add2_bias`], [`relu`],
//!   [`bn_affine`], the LSTM gate sweeps) touch each output element
//!   with one fixed expression; vector lanes and scalar iterations are
//!   the same dataflow, so they are trivially bit-identical.
//! * **No FMA anywhere**: multiplies and adds stay separate
//!   (`_mm256_mul_ps` + `_mm256_add_ps`), matching Rust's
//!   non-contracting scalar codegen, so hosts with and without FMA
//!   units agree.
//!
//! `#[target_feature]` functions cannot inline into callers compiled
//! for the base target, so a call into this module has real overhead —
//! a few nanoseconds of call + dispatch that dominate a 32-element
//! sweep. The hot loops therefore enter through **block-level**
//! kernels ([`axpy_panel2`], [`dot_rows`], [`add2_bias_rows`], the
//! `*_batch` gate sweeps): one dispatch covers a whole `k`-panel /
//! column block / batch, and the per-row bodies inline *inside* the
//! AVX2 region. Each block kernel runs the identical per-element
//! sequence as the loop of small calls it replaces — same order, same
//! zero-skip — so blocking is invisible to the bit pattern.
//!
//! Dispatch can be forced to the scalar path for A/B measurement and
//! cross-checking: `ADRIAS_FORCE_SCALAR=1` in the environment (read
//! once), or [`set_force_scalar`] in-process (the bench harness uses it
//! to derive the `simd_*_speedup_x` keys). Because both paths are
//! bit-identical, flipping the switch never changes a result — CI
//! byte-compares a forced-scalar run against the native run to prove
//! it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::vmath;

/// SIMD width of the accumulation contract: 8 f32 lanes (one AVX2
/// `__m256`). Fixed even on non-AVX2 hosts — the scalar fallback
/// carries 8 partial sums so the reduction shape never varies.
pub const LANES: usize = 8;

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);
static ENV_FORCE_SCALAR: OnceLock<bool> = OnceLock::new();

fn env_force_scalar() -> bool {
    *ENV_FORCE_SCALAR.get_or_init(|| std::env::var("ADRIAS_FORCE_SCALAR").is_ok_and(|v| v == "1"))
}

/// Forces (or releases) the scalar fallback for this process,
/// overriding feature detection. The bench harness flips this to
/// measure `simd_*_speedup_x` in one process; results are bit-identical
/// either way, so toggling is always safe.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    static HAS_AVX2: OnceLock<bool> = OnceLock::new();
    *HAS_AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Whether the AVX2 paths are live: the CPU has AVX2 and neither
/// `ADRIAS_FORCE_SCALAR=1` nor [`set_force_scalar`] is in effect.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        has_avx2() && !env_force_scalar() && !FORCE_SCALAR.load(Ordering::Relaxed)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The canonical fixed-shape lane reduction: pairwise over a stride of
/// 4, then 2, then 1 — exactly the element flow of the AVX2 horizontal
/// reduction (low/high 128-bit halves added, then two shuffle/add
/// steps), executed in scalar by **both** paths.
#[inline]
pub(crate) fn tree_reduce(s: [f32; LANES]) -> f32 {
    let s04 = s[0] + s[4];
    let s15 = s[1] + s[5];
    let s26 = s[2] + s[6];
    let s37 = s[3] + s[7];
    (s04 + s26) + (s15 + s37)
}

/// Folds the sub-[`LANES`] tail of a dot product into the lane
/// accumulators (lane `j` takes tail element `j`), then reduces. Shared
/// verbatim by the scalar and AVX2 paths.
#[inline]
fn tail_reduce(mut lanes: [f32; LANES], a_tail: &[f32], b_tail: &[f32]) -> f32 {
    for ((l, &x), &y) in lanes.iter_mut().zip(a_tail).zip(b_tail) {
        *l += x * y;
    }
    tree_reduce(lanes)
}

fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let head = a.len() - a.len() % LANES;
    let mut lanes = [0.0f32; LANES];
    for (ca, cb) in a[..head]
        .chunks_exact(LANES)
        .zip(b[..head].chunks_exact(LANES))
    {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += x * y;
        }
    }
    tail_reduce(lanes, &a[head..], &b[head..])
}

fn dot4_scalar(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    [
        dot_scalar(a, b0),
        dot_scalar(a, b1),
        dot_scalar(a, b2),
        dot_scalar(a, b3),
    ]
}

/// Canonical lane-ordered dot product `Σ a[i]·b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Four canonical dot products of one left row against four right rows
/// — the register-blocked shape of the `matmul_transb` micro-kernel.
/// Each output element follows the single-accumulator lane order of
/// [`dot`]; the grouping only buys instruction-level parallelism.
///
/// # Panics
///
/// Panics if any right row differs from `a` in length.
pub fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    assert!(
        a.len() == b0.len() && a.len() == b1.len() && a.len() == b2.len() && a.len() == b3.len(),
        "dot4 length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        return unsafe { avx2::dot4(a, b0, b1, b2, b3) };
    }
    dot4_scalar(a, b0, b1, b2, b3)
}

fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

fn axpy_panel_scalar(a_col: &[f32], b_panel: &[f32], y: &mut [f32]) {
    let n = y.len();
    for (k, &a) in a_col.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        axpy_scalar(a, &b_panel[k * n..(k + 1) * n], y);
    }
}

fn axpy_panel2_scalar(a0: &[f32], a1: &[f32], b_panel: &[f32], y0: &mut [f32], y1: &mut [f32]) {
    let n = y0.len();
    for (k, (&v0, &v1)) in a0.iter().zip(a1).enumerate() {
        if v0 == 0.0 && v1 == 0.0 {
            continue;
        }
        let b_row = &b_panel[k * n..(k + 1) * n];
        if v0 != 0.0 {
            axpy_scalar(v0, b_row, y0);
        }
        if v1 != 0.0 {
            axpy_scalar(v1, b_row, y1);
        }
    }
}

fn axpy_panel4_scalar(
    a: [&[f32]; 4],
    b_panel: &[f32],
    y0: &mut [f32],
    y1: &mut [f32],
    y2: &mut [f32],
    y3: &mut [f32],
) {
    let n = y0.len();
    for k in 0..a[0].len() {
        let v = [a[0][k], a[1][k], a[2][k], a[3][k]];
        if v == [0.0; 4] {
            continue;
        }
        let b_row = &b_panel[k * n..(k + 1) * n];
        if v[0] != 0.0 {
            axpy_scalar(v[0], b_row, y0);
        }
        if v[1] != 0.0 {
            axpy_scalar(v[1], b_row, y1);
        }
        if v[2] != 0.0 {
            axpy_scalar(v[2], b_row, y2);
        }
        if v[3] != 0.0 {
            axpy_scalar(v[3], b_row, y3);
        }
    }
}

/// `y += alpha · x`, element-wise. One multiply-add per output element
/// in both paths, so the accumulation order of any *sequence* of axpy
/// calls (e.g. the increasing-`k` order of `matmul_into`) is untouched
/// by vectorisation.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::axpy(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

/// One-row axpy panel: `y += Σ_k a_col[k] · b_panel[k·n .. (k+1)·n]`,
/// accumulated in increasing `k` with the exact zero-skip of a loop of
/// [`axpy`] calls — but with a **single** dispatch for the whole
/// `k`-panel, so the AVX2 body inlines its per-`k` sweeps instead of
/// paying a non-inlinable `#[target_feature]` call per `k`. This is the
/// inner loop of `matmul_into`'s single-row tail.
///
/// # Panics
///
/// Panics if `b_panel` is not `a_col.len() × y.len()`.
pub fn axpy_panel(a_col: &[f32], b_panel: &[f32], y: &mut [f32]) {
    assert_eq!(
        b_panel.len(),
        a_col.len() * y.len(),
        "axpy_panel shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::axpy_panel(a_col, b_panel, y) };
        return;
    }
    axpy_panel_scalar(a_col, b_panel, y);
}

/// Two-row axpy panel — the `matmul_into` micro-kernel: for each `k`
/// (increasing), `y0 += a0[k]·b_k` and `y1 += a1[k]·b_k` where `b_k` is
/// row `k` of the panel. Per-element dataflow is exactly two
/// independent [`axpy_panel`] sweeps (disjoint accumulators, same
/// zero-skip), so fusing them — one `b_k` load feeding both rows, one
/// dispatch per panel — cannot change a bit.
///
/// # Panics
///
/// Panics if the column or output lengths differ, or `b_panel` is not
/// `a0.len() × y0.len()`.
pub fn axpy_panel2(a0: &[f32], a1: &[f32], b_panel: &[f32], y0: &mut [f32], y1: &mut [f32]) {
    assert_eq!(a0.len(), a1.len(), "axpy_panel2 column length mismatch");
    assert_eq!(y0.len(), y1.len(), "axpy_panel2 output length mismatch");
    assert_eq!(
        b_panel.len(),
        a0.len() * y0.len(),
        "axpy_panel2 shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::axpy_panel2(a0, a1, b_panel, y0, y1) };
        return;
    }
    axpy_panel2_scalar(a0, a1, b_panel, y0, y1);
}

/// Four-row axpy panel: [`axpy_panel2`] widened to four disjoint
/// output rows, so one `b_k` load feeds four accumulator rows — B
/// traffic per output element is quartered. Per-row dataflow is still
/// exactly the increasing-`k` zero-skipped [`axpy`] sequence, so the
/// grouping is invisible to the bit pattern.
///
/// # Panics
///
/// Panics if the column or output lengths differ, or `b_panel` is not
/// `a[0].len() × y0.len()`.
pub fn axpy_panel4(
    a: [&[f32]; 4],
    b_panel: &[f32],
    y0: &mut [f32],
    y1: &mut [f32],
    y2: &mut [f32],
    y3: &mut [f32],
) {
    let kt = a[0].len();
    let n = y0.len();
    assert!(
        a.iter().all(|col| col.len() == kt),
        "axpy_panel4 column length mismatch"
    );
    assert!(
        y1.len() == n && y2.len() == n && y3.len() == n,
        "axpy_panel4 output length mismatch"
    );
    assert_eq!(b_panel.len(), kt * n, "axpy_panel4 shape mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::axpy_panel4(a, b_panel, y0, y1, y2, y3) };
        return;
    }
    axpy_panel4_scalar(a, b_panel, y0, y1, y2, y3);
}

fn dot_rows_scalar(a: &[f32], b_rows: &[f32], out: &mut [f32]) {
    let k = a.len();
    let mut c = 0;
    while c + 4 <= out.len() {
        let b = &b_rows[c * k..(c + 4) * k];
        let (b0, rest) = b.split_at(k);
        let (b1, rest) = rest.split_at(k);
        let (b2, b3) = rest.split_at(k);
        let s = dot4_scalar(a, b0, b1, b2, b3);
        out[c..c + 4].copy_from_slice(&s);
        c += 4;
    }
    while c < out.len() {
        out[c] = dot_scalar(a, &b_rows[c * k..(c + 1) * k]);
        c += 1;
    }
}

/// Row sweep of canonical dot products: `out[c] = dot(a, b_rows[c])`
/// for every row `c` of the packed `out.len() × a.len()` right block —
/// columns grouped four at a time in the [`dot4`] shape, remainder one
/// at a time, exactly the call sequence `matmul_transb` used to make,
/// but with one dispatch per block so the AVX2 dot bodies inline.
///
/// # Panics
///
/// Panics if `b_rows` is not `out.len() × a.len()`.
pub fn dot_rows(a: &[f32], b_rows: &[f32], out: &mut [f32]) {
    assert_eq!(b_rows.len(), out.len() * a.len(), "dot_rows shape mismatch");
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::dot_rows(a, b_rows, out) };
        return;
    }
    dot_rows_scalar(a, b_rows, out);
}

fn add2_bias_scalar(z: &mut [f32], w: &[f32], b: &[f32]) {
    for ((v, &wv), &bv) in z.iter_mut().zip(w).zip(b) {
        *v = (*v + wv) + bv;
    }
}

/// The LSTM pre-activation fuse `z = (z + w) + b`, element-wise with
/// explicit left association.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add2_bias(z: &mut [f32], w: &[f32], b: &[f32]) {
    assert!(
        z.len() == w.len() && z.len() == b.len(),
        "add2_bias length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::add2_bias(z, w, b) };
        return;
    }
    add2_bias_scalar(z, w, b);
}

fn add2_bias_rows_scalar(z: &mut [f32], w: &[f32], b: &[f32]) {
    let n = b.len();
    for (zr, wr) in z.chunks_exact_mut(n).zip(w.chunks_exact(n)) {
        add2_bias_scalar(zr, wr, b);
    }
}

/// Row-broadcast [`add2_bias`] over a whole batch: every `b.len()`-wide
/// row of `z` gets `(z + w) + b` with the bias row reused — one
/// dispatch for the batch instead of one per row.
///
/// # Panics
///
/// Panics if `z` and `w` differ in length or are not a whole number of
/// `b.len()`-wide rows.
pub fn add2_bias_rows(z: &mut [f32], w: &[f32], b: &[f32]) {
    assert_eq!(z.len(), w.len(), "add2_bias_rows length mismatch");
    assert!(
        !b.is_empty() && z.len().is_multiple_of(b.len()),
        "add2_bias_rows rows must be bias-width"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::add2_bias_rows(z, w, b) };
        return;
    }
    add2_bias_rows_scalar(z, w, b);
}

fn relu_scalar(xs: &mut [f32]) {
    for v in xs {
        *v = vmath::max(*v, 0.0);
    }
}

/// Canonical ReLU sweep `x = max(x, 0)` with `_mm256_max_ps` semantics
/// (`-0.0` maps to `+0.0`).
pub fn relu(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::relu(xs) };
        return;
    }
    relu_scalar(xs);
}

fn bn_affine_scalar(row: &mut [f32], mean: &[f32], inv_std: &[f32], gamma: &[f32], beta: &[f32]) {
    for ((((v, &m), &is), &g), &b) in row.iter_mut().zip(mean).zip(inv_std).zip(gamma).zip(beta) {
        *v = g * (*v - m) * is + b;
    }
}

/// The batch-norm eval affine `x = γ·(x − μ)·inv_std + β`, element-wise
/// with the exact association of the reference layer (`((γ·(x − μ))·s)
/// + β`).
///
/// # Panics
///
/// Panics if the parameter rows differ from `row` in length.
pub fn bn_affine(row: &mut [f32], mean: &[f32], inv_std: &[f32], gamma: &[f32], beta: &[f32]) {
    let n = row.len();
    assert!(
        mean.len() == n && inv_std.len() == n && gamma.len() == n && beta.len() == n,
        "bn_affine length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::bn_affine(row, mean, inv_std, gamma, beta) };
        return;
    }
    bn_affine_scalar(row, mean, inv_std, gamma, beta);
}

/// Mutable destinations of one training-mode LSTM gate sweep row: the
/// BPTT caches plus the new cell and hidden states.
pub struct GateCaches<'a> {
    /// Input gate `i = σ(z_i)`.
    pub i: &'a mut [f32],
    /// Forget gate `f = σ(z_f)`.
    pub f: &'a mut [f32],
    /// Candidate `g = tanh(z_g)`.
    pub g: &'a mut [f32],
    /// Output gate `o = σ(z_o)`.
    pub o: &'a mut [f32],
    /// New cell state `c = f·c_prev + i·g`.
    pub c: &'a mut [f32],
    /// `tanh(c)`.
    pub tanh_c: &'a mut [f32],
    /// Hidden output `h = o·tanh(c)`.
    pub h: &'a mut [f32],
}

/// Splits a `4·hidden` pre-activation row into its `(i, f, g, o)` gate
/// quarters.
#[inline]
fn split_gates(z_row: &[f32], h: usize) -> (&[f32], &[f32], &[f32], &[f32]) {
    let (zi, rest) = z_row.split_at(h);
    let (zf, rest) = rest.split_at(h);
    let (zg, zo) = rest.split_at(h);
    (zi, zf, zg, zo)
}

#[allow(clippy::too_many_arguments)]
fn gates_train_scalar(
    zi: &[f32],
    zf: &[f32],
    zg: &[f32],
    zo: &[f32],
    c_prev: &[f32],
    out: &mut GateCaches<'_>,
) {
    for k in 0..c_prev.len() {
        let iv = vmath::sigmoid(zi[k]);
        let fv = vmath::sigmoid(zf[k]);
        let gv = vmath::tanh(zg[k]);
        let ov = vmath::sigmoid(zo[k]);
        let cv = fv * c_prev[k] + iv * gv;
        let tc = vmath::tanh(cv);
        out.i[k] = iv;
        out.f[k] = fv;
        out.g[k] = gv;
        out.o[k] = ov;
        out.c[k] = cv;
        out.tanh_c[k] = tc;
        out.h[k] = ov * tc;
    }
}

/// Fused training-mode LSTM gate sweep over one batch row: computes all
/// four gates, the new cell state, `tanh(c)` and the hidden output in a
/// single pass, writing every BPTT cache.
///
/// # Panics
///
/// Panics if `z_row` is not `4 × c_prev.len()` or any output slice
/// differs from `c_prev` in length.
pub fn lstm_gates_train(z_row: &[f32], c_prev: &[f32], out: &mut GateCaches<'_>) {
    let h = c_prev.len();
    assert_eq!(z_row.len(), 4 * h, "gate row must be 4x hidden");
    assert!(
        out.i.len() == h
            && out.f.len() == h
            && out.g.len() == h
            && out.o.len() == h
            && out.c.len() == h
            && out.tanh_c.len() == h
            && out.h.len() == h,
        "gate cache length mismatch"
    );
    let (zi, zf, zg, zo) = split_gates(z_row, h);
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::gates_train(zi, zf, zg, zo, c_prev, out) };
        return;
    }
    gates_train_scalar(zi, zf, zg, zo, c_prev, out);
}

fn gates_train_batch_scalar(z: &[f32], c_prev: &[f32], hidden: usize, out: &mut GateCaches<'_>) {
    let hw = 4 * hidden;
    for r in 0..c_prev.len() / hidden {
        let (zi, zf, zg, zo) = split_gates(&z[r * hw..(r + 1) * hw], hidden);
        let span = r * hidden..(r + 1) * hidden;
        let mut row = GateCaches {
            i: &mut out.i[span.clone()],
            f: &mut out.f[span.clone()],
            g: &mut out.g[span.clone()],
            o: &mut out.o[span.clone()],
            c: &mut out.c[span.clone()],
            tanh_c: &mut out.tanh_c[span.clone()],
            h: &mut out.h[span.clone()],
        };
        gates_train_scalar(zi, zf, zg, zo, &c_prev[span], &mut row);
    }
}

/// Whole-batch [`lstm_gates_train`]: `z` holds `batch` rows of
/// `4·hidden` pre-activations, `c_prev` and every cache slice hold
/// `batch` rows of `hidden`. Row for row the per-row sweep, with a
/// single dispatch per step instead of one per batch row.
///
/// # Panics
///
/// Panics if `hidden` is zero or any slice is not a whole number of
/// rows of its expected width.
pub fn lstm_gates_train_batch(z: &[f32], c_prev: &[f32], hidden: usize, out: &mut GateCaches<'_>) {
    assert!(hidden > 0, "hidden width must be non-zero");
    let bh = c_prev.len();
    assert!(
        bh.is_multiple_of(hidden),
        "c_prev must be whole hidden rows"
    );
    assert_eq!(z.len(), 4 * bh, "gate batch must be 4x hidden per row");
    assert!(
        out.i.len() == bh
            && out.f.len() == bh
            && out.g.len() == bh
            && out.o.len() == bh
            && out.c.len() == bh
            && out.tanh_c.len() == bh
            && out.h.len() == bh,
        "gate cache length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::gates_train_batch(z, c_prev, hidden, out) };
        return;
    }
    gates_train_batch_scalar(z, c_prev, hidden, out);
}

fn gates_eval_scalar(
    zi: &[f32],
    zf: &[f32],
    zg: &[f32],
    zo: &[f32],
    c_prev: &[f32],
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    for k in 0..c_prev.len() {
        let iv = vmath::sigmoid(zi[k]);
        let fv = vmath::sigmoid(zf[k]);
        let gv = vmath::tanh(zg[k]);
        let ov = vmath::sigmoid(zo[k]);
        let cv = fv * c_prev[k] + iv * gv;
        let tc = vmath::tanh(cv);
        c_out[k] = cv;
        h_out[k] = ov * tc;
    }
}

/// Fused eval-mode LSTM gate sweep over one batch row: the exact
/// per-element expressions of [`lstm_gates_train`], writing only the
/// new cell state and hidden output (no BPTT caches).
///
/// # Panics
///
/// Panics if `z_row` is not `4 × c_prev.len()` or an output slice
/// differs from `c_prev` in length.
pub fn lstm_gates_eval(z_row: &[f32], c_prev: &[f32], c_out: &mut [f32], h_out: &mut [f32]) {
    let h = c_prev.len();
    assert_eq!(z_row.len(), 4 * h, "gate row must be 4x hidden");
    assert!(
        c_out.len() == h && h_out.len() == h,
        "gate output length mismatch"
    );
    let (zi, zf, zg, zo) = split_gates(z_row, h);
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::gates_eval(zi, zf, zg, zo, c_prev, c_out, h_out) };
        return;
    }
    gates_eval_scalar(zi, zf, zg, zo, c_prev, c_out, h_out);
}

fn gates_eval_batch_scalar(
    z: &[f32],
    c_prev: &[f32],
    hidden: usize,
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    let hw = 4 * hidden;
    for r in 0..c_prev.len() / hidden {
        let (zi, zf, zg, zo) = split_gates(&z[r * hw..(r + 1) * hw], hidden);
        let span = r * hidden..(r + 1) * hidden;
        gates_eval_scalar(
            zi,
            zf,
            zg,
            zo,
            &c_prev[span.clone()],
            &mut c_out[span.clone()],
            &mut h_out[span],
        );
    }
}

/// Whole-batch [`lstm_gates_eval`]: the batch shape of
/// [`lstm_gates_train_batch`], writing only the new cell and hidden
/// rows. One dispatch per step.
///
/// # Panics
///
/// Panics if `hidden` is zero or any slice is not a whole number of
/// rows of its expected width.
pub fn lstm_gates_eval_batch(
    z: &[f32],
    c_prev: &[f32],
    hidden: usize,
    c_out: &mut [f32],
    h_out: &mut [f32],
) {
    assert!(hidden > 0, "hidden width must be non-zero");
    let bh = c_prev.len();
    assert!(
        bh.is_multiple_of(hidden),
        "c_prev must be whole hidden rows"
    );
    assert_eq!(z.len(), 4 * bh, "gate batch must be 4x hidden per row");
    assert!(
        c_out.len() == bh && h_out.len() == bh,
        "gate output length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)] // SAFETY justified inline; guarded by `simd_active`.
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2 was detected at runtime.
        unsafe { avx2::gates_eval_batch(z, c_prev, hidden, c_out, h_out) };
        return;
    }
    gates_eval_batch_scalar(z, c_prev, hidden, c_out, h_out);
}

/// The AVX2 lane implementations. Every function mirrors its scalar
/// sibling operation for operation; tails below one vector width run
/// the scalar code itself. This is the only module in the crate allowed
/// to use `unsafe` (intrinsics + `#[target_feature]`); callers uphold
/// the single safety contract that AVX2 was detected at runtime.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::{
        __m256, _mm256_add_epi32, _mm256_add_ps, _mm256_castsi256_ps, _mm256_cvtps_epi32,
        _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
        _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps, _mm256_slli_epi32, _mm256_storeu_ps,
        _mm256_sub_ps, _mm256_xor_ps,
    };

    use super::{split_gates, tail_reduce, GateCaches, LANES};
    use crate::vmath;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(xs: &[f32], i: usize) -> __m256 {
        debug_assert!(i + LANES <= xs.len());
        _mm256_loadu_ps(xs.as_ptr().add(i))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(xs: &mut [f32], i: usize, v: __m256) {
        debug_assert!(i + LANES <= xs.len());
        _mm256_storeu_ps(xs.as_mut_ptr().add(i), v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn spill(v: __m256) -> [f32; LANES] {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        lanes
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let head = a.len() - a.len() % LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < head {
            acc = _mm256_add_ps(acc, _mm256_mul_ps(load(a, i), load(b, i)));
            i += LANES;
        }
        tail_reduce(spill(acc), &a[head..], &b[head..])
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot4(
        a: &[f32],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) -> [f32; 4] {
        let head = a.len() - a.len() % LANES;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        // Four independent single-accumulator chains: each output
        // element keeps the canonical 8-lane order while the four
        // chains overlap in the FP pipeline.
        while i < head {
            let va = load(a, i);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, load(b0, i)));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, load(b1, i)));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, load(b2, i)));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, load(b3, i)));
            i += LANES;
        }
        let at = &a[head..];
        [
            tail_reduce(spill(acc0), at, &b0[head..]),
            tail_reduce(spill(acc1), at, &b1[head..]),
            tail_reduce(spill(acc2), at, &b2[head..]),
            tail_reduce(spill(acc3), at, &b3[head..]),
        ]
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let head = x.len() - x.len() % LANES;
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i < head {
            let prod = _mm256_mul_ps(va, load(x, i));
            store(y, i, _mm256_add_ps(load(y, i), prod));
            i += LANES;
        }
        for (o, &v) in y[head..].iter_mut().zip(&x[head..]) {
            *o += alpha * v;
        }
    }

    /// One dispatch per `k`-panel; per-`k` sweeps inline here because
    /// caller and callee share the target feature.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_panel(a_col: &[f32], b_panel: &[f32], y: &mut [f32]) {
        let n = y.len();
        for (k, &a) in a_col.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            axpy(a, &b_panel[k * n..(k + 1) * n], y);
        }
    }

    /// Fused two-row panel: one `b_k` load feeds both output rows.
    /// Element-for-element two independent [`axpy_panel`] sweeps —
    /// disjoint accumulators, identical zero-skip — so the fusion is
    /// pure bandwidth, never a bit.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_panel2(
        a0: &[f32],
        a1: &[f32],
        b_panel: &[f32],
        y0: &mut [f32],
        y1: &mut [f32],
    ) {
        let n = y0.len();
        let head = n - n % LANES;
        for (k, (&v0, &v1)) in a0.iter().zip(a1).enumerate() {
            if v0 == 0.0 && v1 == 0.0 {
                continue;
            }
            let b_row = &b_panel[k * n..(k + 1) * n];
            if v1 == 0.0 {
                axpy(v0, b_row, y0);
            } else if v0 == 0.0 {
                axpy(v1, b_row, y1);
            } else {
                let s0 = _mm256_set1_ps(v0);
                let s1 = _mm256_set1_ps(v1);
                let mut i = 0;
                while i < head {
                    let bv = load(b_row, i);
                    store(y0, i, _mm256_add_ps(load(y0, i), _mm256_mul_ps(s0, bv)));
                    store(y1, i, _mm256_add_ps(load(y1, i), _mm256_mul_ps(s1, bv)));
                    i += LANES;
                }
                for j in head..n {
                    y0[j] += v0 * b_row[j];
                    y1[j] += v1 * b_row[j];
                }
            }
        }
    }

    /// Four-row panel: the all-nonzero fast path fuses one `b_k` load
    /// into four row updates; any zero coefficient falls back to the
    /// per-row sweeps (same per-element flow either way).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy_panel4(
        a: [&[f32]; 4],
        b_panel: &[f32],
        y0: &mut [f32],
        y1: &mut [f32],
        y2: &mut [f32],
        y3: &mut [f32],
    ) {
        let n = y0.len();
        let head = n - n % LANES;
        for k in 0..a[0].len() {
            let v = [a[0][k], a[1][k], a[2][k], a[3][k]];
            if v == [0.0; 4] {
                continue;
            }
            let b_row = &b_panel[k * n..(k + 1) * n];
            if v.contains(&0.0) {
                if v[0] != 0.0 {
                    axpy(v[0], b_row, y0);
                }
                if v[1] != 0.0 {
                    axpy(v[1], b_row, y1);
                }
                if v[2] != 0.0 {
                    axpy(v[2], b_row, y2);
                }
                if v[3] != 0.0 {
                    axpy(v[3], b_row, y3);
                }
                continue;
            }
            let s0 = _mm256_set1_ps(v[0]);
            let s1 = _mm256_set1_ps(v[1]);
            let s2 = _mm256_set1_ps(v[2]);
            let s3 = _mm256_set1_ps(v[3]);
            let mut i = 0;
            while i < head {
                let bv = load(b_row, i);
                store(y0, i, _mm256_add_ps(load(y0, i), _mm256_mul_ps(s0, bv)));
                store(y1, i, _mm256_add_ps(load(y1, i), _mm256_mul_ps(s1, bv)));
                store(y2, i, _mm256_add_ps(load(y2, i), _mm256_mul_ps(s2, bv)));
                store(y3, i, _mm256_add_ps(load(y3, i), _mm256_mul_ps(s3, bv)));
                i += LANES;
            }
            for j in head..n {
                y0[j] += v[0] * b_row[j];
                y1[j] += v[1] * b_row[j];
                y2[j] += v[2] * b_row[j];
                y3[j] += v[3] * b_row[j];
            }
        }
    }

    /// One dispatch per column block; the dot bodies inline here.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_rows(a: &[f32], b_rows: &[f32], out: &mut [f32]) {
        let k = a.len();
        let mut c = 0;
        while c + 4 <= out.len() {
            let b = &b_rows[c * k..(c + 4) * k];
            let (b0, rest) = b.split_at(k);
            let (b1, rest) = rest.split_at(k);
            let (b2, b3) = rest.split_at(k);
            let s = dot4(a, b0, b1, b2, b3);
            out[c..c + 4].copy_from_slice(&s);
            c += 4;
        }
        while c < out.len() {
            out[c] = dot(a, &b_rows[c * k..(c + 1) * k]);
            c += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add2_bias(z: &mut [f32], w: &[f32], b: &[f32]) {
        let head = z.len() - z.len() % LANES;
        let mut i = 0;
        while i < head {
            let zw = _mm256_add_ps(load(z, i), load(w, i));
            store(z, i, _mm256_add_ps(zw, load(b, i)));
            i += LANES;
        }
        for ((v, &wv), &bv) in z[head..].iter_mut().zip(&w[head..]).zip(&b[head..]) {
            *v = (*v + wv) + bv;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add2_bias_rows(z: &mut [f32], w: &[f32], b: &[f32]) {
        let n = b.len();
        for (zr, wr) in z.chunks_exact_mut(n).zip(w.chunks_exact(n)) {
            add2_bias(zr, wr, b);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn relu(xs: &mut [f32]) {
        let head = xs.len() - xs.len() % LANES;
        let zero = _mm256_setzero_ps();
        let mut i = 0;
        while i < head {
            store(xs, i, _mm256_max_ps(load(xs, i), zero));
            i += LANES;
        }
        for v in &mut xs[head..] {
            *v = vmath::max(*v, 0.0);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bn_affine(
        row: &mut [f32],
        mean: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
        beta: &[f32],
    ) {
        let head = row.len() - row.len() % LANES;
        let mut i = 0;
        while i < head {
            let centered = _mm256_sub_ps(load(row, i), load(mean, i));
            let scaled = _mm256_mul_ps(_mm256_mul_ps(load(gamma, i), centered), load(inv_std, i));
            store(row, i, _mm256_add_ps(scaled, load(beta, i)));
            i += LANES;
        }
        let tail = head..row.len();
        super::bn_affine_scalar(
            &mut row[tail.clone()],
            &mean[tail.clone()],
            &inv_std[tail.clone()],
            &gamma[tail.clone()],
            &beta[tail],
        );
    }

    /// 8-lane [`vmath::exp`]: the identical clamp, shifter rounding,
    /// Cody–Waite reduction, Horner polynomial and exponent-field
    /// scale, one operation per scalar step.
    ///
    /// `target_feature` matters here even though every caller already
    /// has it: without the attribute this helper compiles for the base
    /// target and each `__m256` crosses the call boundary through
    /// memory, which costs more than the vectorisation saves.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_lanes(x: __m256) -> __m256 {
        let x = _mm256_max_ps(x, _mm256_set1_ps(-vmath::EXP_CLAMP));
        let x = _mm256_min_ps(x, _mm256_set1_ps(vmath::EXP_CLAMP));
        let y = _mm256_mul_ps(x, _mm256_set1_ps(vmath::LOG2E));
        let shifter = _mm256_set1_ps(vmath::SHIFTER);
        let k = _mm256_sub_ps(_mm256_add_ps(y, shifter), shifter);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(k, _mm256_set1_ps(vmath::LN2_HI))),
            _mm256_mul_ps(k, _mm256_set1_ps(vmath::LN2_LO)),
        );
        let mut p = _mm256_set1_ps(vmath::EXP_POLY[7]);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(vmath::EXP_POLY[6]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(vmath::EXP_POLY[5]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(vmath::EXP_POLY[4]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(vmath::EXP_POLY[3]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(vmath::EXP_POLY[2]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(vmath::EXP_POLY[1]));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(vmath::EXP_POLY[0]));
        // `k` is integer-valued, so the round-to-nearest conversion is
        // exact and matches the scalar truncating cast.
        let ki = _mm256_cvtps_epi32(k);
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(ki, _mm256_set1_epi32(127)),
            23,
        ));
        _mm256_mul_ps(p, scale)
    }

    /// 8-lane [`vmath::tanh`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh_lanes(x: __m256) -> __m256 {
        let t = _mm256_max_ps(x, _mm256_set1_ps(-vmath::TANH_CLAMP));
        let t = _mm256_min_ps(t, _mm256_set1_ps(vmath::TANH_CLAMP));
        let e = exp_lanes(_mm256_add_ps(t, t));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one))
    }

    /// 8-lane [`vmath::sigmoid`]; negation is the sign-bit flip, the
    /// exact bit operation of scalar `-x`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sigmoid_lanes(x: __m256) -> __m256 {
        let sign = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        let e = exp_lanes(_mm256_xor_ps(x, sign));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gates_train(
        zi: &[f32],
        zf: &[f32],
        zg: &[f32],
        zo: &[f32],
        c_prev: &[f32],
        out: &mut GateCaches<'_>,
    ) {
        let h = c_prev.len();
        let head = h - h % LANES;
        let mut k = 0;
        // Two vector blocks per iteration: the per-block dataflow is
        // untouched (blocks write disjoint elements), but interleaving
        // two independent sigmoid/tanh Horner chains hides their
        // mul→add latency — the sweep is latency-bound, not
        // throughput-bound, without FMA.
        while k + 2 * LANES <= head {
            let iv0 = sigmoid_lanes(load(zi, k));
            let iv1 = sigmoid_lanes(load(zi, k + LANES));
            let fv0 = sigmoid_lanes(load(zf, k));
            let fv1 = sigmoid_lanes(load(zf, k + LANES));
            let gv0 = tanh_lanes(load(zg, k));
            let gv1 = tanh_lanes(load(zg, k + LANES));
            let ov0 = sigmoid_lanes(load(zo, k));
            let ov1 = sigmoid_lanes(load(zo, k + LANES));
            let cv0 = _mm256_add_ps(_mm256_mul_ps(fv0, load(c_prev, k)), _mm256_mul_ps(iv0, gv0));
            let cv1 = _mm256_add_ps(
                _mm256_mul_ps(fv1, load(c_prev, k + LANES)),
                _mm256_mul_ps(iv1, gv1),
            );
            let tc0 = tanh_lanes(cv0);
            let tc1 = tanh_lanes(cv1);
            store(out.i, k, iv0);
            store(out.i, k + LANES, iv1);
            store(out.f, k, fv0);
            store(out.f, k + LANES, fv1);
            store(out.g, k, gv0);
            store(out.g, k + LANES, gv1);
            store(out.o, k, ov0);
            store(out.o, k + LANES, ov1);
            store(out.c, k, cv0);
            store(out.c, k + LANES, cv1);
            store(out.tanh_c, k, tc0);
            store(out.tanh_c, k + LANES, tc1);
            store(out.h, k, _mm256_mul_ps(ov0, tc0));
            store(out.h, k + LANES, _mm256_mul_ps(ov1, tc1));
            k += 2 * LANES;
        }
        while k < head {
            let iv = sigmoid_lanes(load(zi, k));
            let fv = sigmoid_lanes(load(zf, k));
            let gv = tanh_lanes(load(zg, k));
            let ov = sigmoid_lanes(load(zo, k));
            let cv = _mm256_add_ps(_mm256_mul_ps(fv, load(c_prev, k)), _mm256_mul_ps(iv, gv));
            let tc = tanh_lanes(cv);
            store(out.i, k, iv);
            store(out.f, k, fv);
            store(out.g, k, gv);
            store(out.o, k, ov);
            store(out.c, k, cv);
            store(out.tanh_c, k, tc);
            store(out.h, k, _mm256_mul_ps(ov, tc));
            k += LANES;
        }
        while k < h {
            let iv = vmath::sigmoid(zi[k]);
            let fv = vmath::sigmoid(zf[k]);
            let gv = vmath::tanh(zg[k]);
            let ov = vmath::sigmoid(zo[k]);
            let cv = fv * c_prev[k] + iv * gv;
            let tc = vmath::tanh(cv);
            out.i[k] = iv;
            out.f[k] = fv;
            out.g[k] = gv;
            out.o[k] = ov;
            out.c[k] = cv;
            out.tanh_c[k] = tc;
            out.h[k] = ov * tc;
            k += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gates_eval(
        zi: &[f32],
        zf: &[f32],
        zg: &[f32],
        zo: &[f32],
        c_prev: &[f32],
        c_out: &mut [f32],
        h_out: &mut [f32],
    ) {
        let h = c_prev.len();
        let head = h - h % LANES;
        let mut k = 0;
        // Same two-block interleave as the training sweep: disjoint
        // elements, independent latency chains.
        while k + 2 * LANES <= head {
            let iv0 = sigmoid_lanes(load(zi, k));
            let iv1 = sigmoid_lanes(load(zi, k + LANES));
            let fv0 = sigmoid_lanes(load(zf, k));
            let fv1 = sigmoid_lanes(load(zf, k + LANES));
            let gv0 = tanh_lanes(load(zg, k));
            let gv1 = tanh_lanes(load(zg, k + LANES));
            let ov0 = sigmoid_lanes(load(zo, k));
            let ov1 = sigmoid_lanes(load(zo, k + LANES));
            let cv0 = _mm256_add_ps(_mm256_mul_ps(fv0, load(c_prev, k)), _mm256_mul_ps(iv0, gv0));
            let cv1 = _mm256_add_ps(
                _mm256_mul_ps(fv1, load(c_prev, k + LANES)),
                _mm256_mul_ps(iv1, gv1),
            );
            let tc0 = tanh_lanes(cv0);
            let tc1 = tanh_lanes(cv1);
            store(c_out, k, cv0);
            store(c_out, k + LANES, cv1);
            store(h_out, k, _mm256_mul_ps(ov0, tc0));
            store(h_out, k + LANES, _mm256_mul_ps(ov1, tc1));
            k += 2 * LANES;
        }
        while k < head {
            let iv = sigmoid_lanes(load(zi, k));
            let fv = sigmoid_lanes(load(zf, k));
            let gv = tanh_lanes(load(zg, k));
            let ov = sigmoid_lanes(load(zo, k));
            let cv = _mm256_add_ps(_mm256_mul_ps(fv, load(c_prev, k)), _mm256_mul_ps(iv, gv));
            let tc = tanh_lanes(cv);
            store(c_out, k, cv);
            store(h_out, k, _mm256_mul_ps(ov, tc));
            k += LANES;
        }
        while k < h {
            let iv = vmath::sigmoid(zi[k]);
            let fv = vmath::sigmoid(zf[k]);
            let gv = vmath::tanh(zg[k]);
            let ov = vmath::sigmoid(zo[k]);
            let cv = fv * c_prev[k] + iv * gv;
            let tc = vmath::tanh(cv);
            c_out[k] = cv;
            h_out[k] = ov * tc;
            k += 1;
        }
    }

    /// One dispatch per step: the per-row sweep inlines into the batch
    /// loop because caller and callee share the target feature.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gates_train_batch(
        z: &[f32],
        c_prev: &[f32],
        hidden: usize,
        out: &mut GateCaches<'_>,
    ) {
        let hw = 4 * hidden;
        for r in 0..c_prev.len() / hidden {
            let (zi, zf, zg, zo) = split_gates(&z[r * hw..(r + 1) * hw], hidden);
            let span = r * hidden..(r + 1) * hidden;
            let mut row = GateCaches {
                i: &mut out.i[span.clone()],
                f: &mut out.f[span.clone()],
                g: &mut out.g[span.clone()],
                o: &mut out.o[span.clone()],
                c: &mut out.c[span.clone()],
                tanh_c: &mut out.tanh_c[span.clone()],
                h: &mut out.h[span.clone()],
            };
            gates_train(zi, zf, zg, zo, &c_prev[span], &mut row);
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gates_eval_batch(
        z: &[f32],
        c_prev: &[f32],
        hidden: usize,
        c_out: &mut [f32],
        h_out: &mut [f32],
    ) {
        let hw = 4 * hidden;
        for r in 0..c_prev.len() / hidden {
            let (zi, zf, zg, zo) = split_gates(&z[r * hw..(r + 1) * hw], hidden);
            let span = r * hidden..(r + 1) * hidden;
            gates_eval(
                zi,
                zf,
                zg,
                zo,
                &c_prev[span.clone()],
                &mut c_out[span.clone()],
                &mut h_out[span],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(n: usize, salt: u64) -> Vec<f32> {
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if (i + (s as usize & 7)).is_multiple_of(11) {
                    0.0
                } else {
                    (s >> 40) as f32 / 2e6 - 4.0
                }
            })
            .collect()
    }

    /// Serializes tests that flip the global force-scalar toggle.
    fn toggle_lock() -> &'static std::sync::Mutex<()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        &LOCK
    }

    /// Runs `f` once with the SIMD path live and once forced scalar,
    /// returning both results. The toggle is global, but results are
    /// bit-identical on both paths, so other (non-toggling) tests can
    /// race this without observing a difference.
    fn both_paths<T>(mut f: impl FnMut() -> T) -> (T, T) {
        let _guard = toggle_lock().lock().unwrap();
        set_force_scalar(false);
        let native = f();
        set_force_scalar(true);
        let scalar = f();
        set_force_scalar(false);
        (native, scalar)
    }

    /// The tentpole contract, at the kernel level: every SIMD kernel is
    /// bit-identical to its scalar fallback on ragged lengths (not
    /// multiples of 8, below one vector, empty).
    #[test]
    fn simd_and_scalar_kernels_agree_bit_for_bit_on_ragged_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100] {
            let a = noisy(n, 1 + n as u64);
            let b = noisy(n, 1000 + n as u64);
            let (x, y) = both_paths(|| dot(&a, &b).to_bits());
            assert_eq!(x, y, "dot diverged at n={n}");

            let y0 = noisy(n, 7 + n as u64);
            let (x, y) = both_paths(|| {
                let mut out = y0.clone();
                axpy(0.37, &a, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_eq!(x, y, "axpy diverged at n={n}");

            let (x, y) = both_paths(|| {
                let mut out = y0.clone();
                relu(&mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_eq!(x, y, "relu diverged at n={n}");

            let (x, y) = both_paths(|| {
                let mut out = y0.clone();
                add2_bias(&mut out, &a, &b);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_eq!(x, y, "add2_bias diverged at n={n}");

            let (mean, inv_std) = (noisy(n, 21), noisy(n, 22));
            let (gamma, beta) = (noisy(n, 23), noisy(n, 24));
            let (x, y) = both_paths(|| {
                let mut out = y0.clone();
                bn_affine(&mut out, &mean, &inv_std, &gamma, &beta);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_eq!(x, y, "bn_affine diverged at n={n}");
        }
    }

    /// The block-level kernels are defined as the exact call sequences
    /// they replace: a panel is a `k`-loop of axpy calls, a row sweep
    /// is a column loop of dot/dot4 calls, a batch gate pass is a row
    /// loop of per-row passes. Pin that equivalence bit for bit, on
    /// both dispatch paths, over ragged shapes.
    #[test]
    fn block_kernels_match_their_small_call_sequences() {
        for (kt, n) in [
            (1usize, 1usize),
            (3, 7),
            (8, 8),
            (13, 31),
            (32, 33),
            (20, 64),
        ] {
            let a0 = noisy(kt, 61 + n as u64);
            let a1 = noisy(kt, 62 + n as u64);
            let b = noisy(kt * n, 63 + n as u64);
            let y_init = noisy(n, 64 + n as u64);

            // axpy_panel2 vs the per-k axpy loop (zero-skip included).
            let reference = || {
                let (mut y0, mut y1) = (y_init.clone(), y_init.clone());
                for k in 0..kt {
                    let b_row = &b[k * n..(k + 1) * n];
                    if a0[k] != 0.0 {
                        axpy(a0[k], b_row, &mut y0);
                    }
                    if a1[k] != 0.0 {
                        axpy(a1[k], b_row, &mut y1);
                    }
                }
                (y0, y1)
            };
            let panel = || {
                let (mut y0, mut y1) = (y_init.clone(), y_init.clone());
                axpy_panel2(&a0, &a1, &b, &mut y0, &mut y1);
                (y0, y1)
            };
            let (r_native, r_scalar) = both_paths(reference);
            let (p_native, p_scalar) = both_paths(panel);
            assert_eq!(r_native, r_scalar, "axpy reference diverged at {kt}x{n}");
            assert_eq!(p_native, p_scalar, "axpy_panel2 diverged at {kt}x{n}");
            assert_eq!(r_native, p_native, "axpy_panel2 != axpy loop at {kt}x{n}");

            // axpy_panel (single row) vs the same loop on y0 only.
            let (s_native, s_scalar) = both_paths(|| {
                let mut y = y_init.clone();
                axpy_panel(&a0, &b, &mut y);
                y
            });
            assert_eq!(s_native, s_scalar, "axpy_panel diverged at {kt}x{n}");
            assert_eq!(s_native, r_native.0, "axpy_panel != axpy loop at {kt}x{n}");

            // axpy_panel4 vs the same loop over four rows.
            let a2 = noisy(kt, 66 + n as u64);
            let a3 = noisy(kt, 67 + n as u64);
            let quad_ref = || {
                let mut ys = [
                    y_init.clone(),
                    y_init.clone(),
                    y_init.clone(),
                    y_init.clone(),
                ];
                for (col, y) in [&a0, &a1, &a2, &a3].into_iter().zip(ys.iter_mut()) {
                    axpy_panel(col, &b, y);
                }
                ys
            };
            let quad = || {
                let mut ys = [
                    y_init.clone(),
                    y_init.clone(),
                    y_init.clone(),
                    y_init.clone(),
                ];
                let [y0, y1, y2, y3] = &mut ys;
                axpy_panel4([&a0, &a1, &a2, &a3], &b, y0, y1, y2, y3);
                ys
            };
            let (q_native, q_scalar) = both_paths(quad);
            assert_eq!(q_native, q_scalar, "axpy_panel4 diverged at {kt}x{n}");
            let (qr_native, _) = both_paths(quad_ref);
            assert_eq!(q_native, qr_native, "axpy_panel4 != panel loop at {kt}x{n}");

            // dot_rows vs per-column dot calls. Reuse b as an n×kt
            // packed right block.
            let a = noisy(kt, 65 + n as u64);
            let (d_native, d_scalar) = both_paths(|| {
                let mut out = vec![0.0f32; n];
                dot_rows(&a, &b, &mut out);
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_eq!(d_native, d_scalar, "dot_rows diverged at {kt}x{n}");
            let singles: Vec<u32> = (0..n)
                .map(|c| dot(&a, &b[c * kt..(c + 1) * kt]).to_bits())
                .collect();
            assert_eq!(d_native, singles, "dot_rows != dot loop at {kt}x{n}");
        }

        // add2_bias_rows and the batch gate sweeps vs their row loops.
        for (batch, h) in [(1usize, 1usize), (2, 11), (4, 16), (5, 32), (3, 37)] {
            let hw = 4 * h;
            let z0 = noisy(batch * hw, 71 + h as u64);
            let w = noisy(batch * hw, 72 + h as u64);
            let bias = noisy(hw, 73 + h as u64);
            let (b_native, b_scalar) = both_paths(|| {
                let mut z = z0.clone();
                add2_bias_rows(&mut z, &w, &bias);
                z.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            assert_eq!(
                b_native, b_scalar,
                "add2_bias_rows diverged at {batch}x{hw}"
            );
            let mut rows = z0.clone();
            for r in 0..batch {
                add2_bias(
                    &mut rows[r * hw..(r + 1) * hw],
                    &w[r * hw..(r + 1) * hw],
                    &bias,
                );
            }
            let rows: Vec<u32> = rows.iter().map(|v| v.to_bits()).collect();
            assert_eq!(b_native, rows, "add2_bias_rows != row loop at {batch}x{hw}");

            let c_prev = noisy(batch * h, 74 + h as u64);
            let run_batch = || {
                let mut i = vec![0.0; batch * h];
                let mut f = vec![0.0; batch * h];
                let mut g = vec![0.0; batch * h];
                let mut o = vec![0.0; batch * h];
                let mut c = vec![0.0; batch * h];
                let mut tc = vec![0.0; batch * h];
                let mut hh = vec![0.0; batch * h];
                lstm_gates_train_batch(
                    &z0,
                    &c_prev,
                    h,
                    &mut GateCaches {
                        i: &mut i,
                        f: &mut f,
                        g: &mut g,
                        o: &mut o,
                        c: &mut c,
                        tanh_c: &mut tc,
                        h: &mut hh,
                    },
                );
                (c, hh)
            };
            let (t_native, t_scalar) = both_paths(run_batch);
            assert_eq!(t_native, t_scalar, "train batch diverged at {batch}x{h}");
            let mut c_rows = vec![0.0f32; batch * h];
            let mut h_rows = vec![0.0f32; batch * h];
            for r in 0..batch {
                let span = r * h..(r + 1) * h;
                let mut c_row = vec![0.0f32; h];
                let mut h_row = vec![0.0f32; h];
                lstm_gates_eval(
                    &z0[r * hw..(r + 1) * hw],
                    &c_prev[span.clone()],
                    &mut c_row,
                    &mut h_row,
                );
                c_rows[span.clone()].copy_from_slice(&c_row);
                h_rows[span].copy_from_slice(&h_row);
            }
            assert_eq!(
                t_native.0, c_rows,
                "train batch c != row loop at {batch}x{h}"
            );
            assert_eq!(
                t_native.1, h_rows,
                "train batch h != row loop at {batch}x{h}"
            );

            let (e_native, e_scalar) = both_paths(|| {
                let mut c = vec![0.0; batch * h];
                let mut hh = vec![0.0; batch * h];
                lstm_gates_eval_batch(&z0, &c_prev, h, &mut c, &mut hh);
                (c, hh)
            });
            assert_eq!(e_native, e_scalar, "eval batch diverged at {batch}x{h}");
            assert_eq!(
                t_native, e_native,
                "train and eval batches disagree at {batch}x{h}"
            );
        }
    }

    #[test]
    fn dot4_matches_four_independent_dots() {
        for n in [0usize, 5, 8, 13, 32, 47] {
            let a = noisy(n, 31);
            let bs: Vec<Vec<f32>> = (0..4).map(|j| noisy(n, 40 + j)).collect();
            let grouped = dot4(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            for (j, b) in bs.iter().enumerate() {
                assert_eq!(
                    grouped[j].to_bits(),
                    dot(&a, b).to_bits(),
                    "dot4 lane {j} diverged at n={n}"
                );
            }
        }
    }

    #[test]
    fn gate_sweeps_agree_across_paths_and_with_each_other() {
        for h in [1usize, 4, 8, 11, 16, 32, 37] {
            let z = noisy(4 * h, 51 + h as u64);
            let c_prev = noisy(h, 52);
            let run_train = || {
                let mut i = vec![0.0; h];
                let mut f = vec![0.0; h];
                let mut g = vec![0.0; h];
                let mut o = vec![0.0; h];
                let mut c = vec![0.0; h];
                let mut tc = vec![0.0; h];
                let mut hh = vec![0.0; h];
                lstm_gates_train(
                    &z,
                    &c_prev,
                    &mut GateCaches {
                        i: &mut i,
                        f: &mut f,
                        g: &mut g,
                        o: &mut o,
                        c: &mut c,
                        tanh_c: &mut tc,
                        h: &mut hh,
                    },
                );
                (c, hh)
            };
            let (native, scalar) = both_paths(run_train);
            assert_eq!(native, scalar, "train gate sweep diverged at h={h}");

            let run_eval = || {
                let mut c = vec![0.0; h];
                let mut hh = vec![0.0; h];
                lstm_gates_eval(&z, &c_prev, &mut c, &mut hh);
                (c, hh)
            };
            let (e_native, e_scalar) = both_paths(run_eval);
            assert_eq!(e_native, e_scalar, "eval gate sweep diverged at h={h}");
            // Eval is the train sweep minus the caches.
            assert_eq!(native, e_native, "train and eval sweeps disagree at h={h}");
        }
    }

    #[test]
    fn tree_reduce_is_the_fixed_avx_shape() {
        let s = [1.0f32, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let want = ((1.0f32 + 16.0) + (4.0 + 64.0)) + ((2.0 + 32.0) + (8.0 + 128.0));
        assert_eq!(tree_reduce(s).to_bits(), want.to_bits());
    }

    #[test]
    fn force_scalar_toggle_is_observable() {
        let _guard = toggle_lock().lock().unwrap();
        set_force_scalar(true);
        assert!(!simd_active(), "forced scalar must disable SIMD");
        set_force_scalar(false);
    }
}
