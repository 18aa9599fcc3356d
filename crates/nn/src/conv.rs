//! im2col-based 2-D convolution kernels.
//!
//! The paper's Atari policy (Table II) uses three strided convolutions with
//! no padding, so this module implements valid (unpadded) strided
//! convolution only. The im2col transform turns each image into a
//! `[C*kh*kw, OH*OW]` column matrix so the convolution becomes a matmul,
//! which reuses the packed GEMM behind [`crate::tensor`].

use crate::tensor::Tensor;

/// Resolved convolution geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dSpec {
    /// Infers the full geometry from input/weight shapes, panicking on any
    /// incompatibility (treated as a programming error, like shape errors in
    /// the tensor layer).
    pub fn infer(input: &[usize], weight: &[usize], stride: usize) -> Self {
        assert_eq!(input.len(), 4, "conv2d input must be [b,c,h,w]");
        assert_eq!(weight.len(), 4, "conv2d weight must be [o,c,kh,kw]");
        assert!(stride >= 1, "conv2d stride must be >= 1");
        let (batch, in_c, in_h, in_w) = (input[0], input[1], input[2], input[3]);
        let (out_c, wc, kh, kw) = (weight[0], weight[1], weight[2], weight[3]);
        assert_eq!(
            in_c, wc,
            "conv2d channel mismatch: input {in_c}, weight {wc}"
        );
        assert!(kh <= in_h && kw <= in_w, "kernel larger than input");
        let out_h = (in_h - kh) / stride + 1;
        let out_w = (in_w - kw) / stride + 1;
        Self {
            batch,
            in_c,
            in_h,
            in_w,
            out_c,
            kh,
            kw,
            stride,
            out_h,
            out_w,
        }
    }

    /// Column height: `C * kh * kw`.
    #[inline]
    pub fn ckk(&self) -> usize {
        self.in_c * self.kh * self.kw
    }

    /// Output spatial size `OH * OW`.
    #[inline]
    pub fn out_hw(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Expands each batch image into a `[ckk, oh*ow]` column matrix.
pub fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Vec<Tensor> {
    let mut cols = Vec::with_capacity(spec.batch);
    let chw = spec.in_c * spec.in_h * spec.in_w;
    for b in 0..spec.batch {
        let img = &input.data()[b * chw..(b + 1) * chw];
        let mut col = vec![0.0f32; spec.ckk() * spec.out_hw()];
        let mut row = 0usize;
        for c in 0..spec.in_c {
            for ky in 0..spec.kh {
                for kx in 0..spec.kw {
                    let dst = &mut col[row * spec.out_hw()..(row + 1) * spec.out_hw()];
                    let mut di = 0usize;
                    for oy in 0..spec.out_h {
                        let iy = oy * spec.stride + ky;
                        let base = c * spec.in_h * spec.in_w + iy * spec.in_w + kx;
                        for ox in 0..spec.out_w {
                            dst[di] = img[base + ox * spec.stride];
                            di += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
        cols.push(Tensor::from_vec(col, &[spec.ckk(), spec.out_hw()]));
    }
    cols
}

/// Scatters a `[ckk, oh*ow]` column-gradient (as a flat slice, so callers
/// can reuse a scratch buffer) back onto image `b` of `dx` (accumulating,
/// since output windows overlap when `stride < k`).
pub fn col2im(dcol: &[f32], spec: &Conv2dSpec, b: usize, dx: &mut Tensor) {
    let chw = spec.in_c * spec.in_h * spec.in_w;
    let img = &mut dx.data_mut()[b * chw..(b + 1) * chw];
    let mut row = 0usize;
    for c in 0..spec.in_c {
        for ky in 0..spec.kh {
            for kx in 0..spec.kw {
                let src = &dcol[row * spec.out_hw()..(row + 1) * spec.out_hw()];
                let mut si = 0usize;
                for oy in 0..spec.out_h {
                    let iy = oy * spec.stride + ky;
                    let base = c * spec.in_h * spec.in_w + iy * spec.in_w + kx;
                    for ox in 0..spec.out_w {
                        img[base + ox * spec.stride] += src[si];
                        si += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_infer_matches_paper_atari_geometry() {
        // Table II first layer: 16 filters of 8x8 (stride 4) over 84x84.
        let spec = Conv2dSpec::infer(&[1, 3, 84, 84], &[16, 3, 8, 8], 4);
        assert_eq!((spec.out_h, spec.out_w), (20, 20));
        // Second layer: 32 of 4x4 (stride 2).
        let spec2 = Conv2dSpec::infer(&[1, 16, 20, 20], &[32, 16, 4, 4], 2);
        assert_eq!((spec2.out_h, spec2.out_w), (9, 9));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: columns are just the flattened image.
        let img = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[1, 1, 3, 3]);
        let spec = Conv2dSpec::infer(&[1, 1, 3, 3], &[1, 1, 1, 1], 1);
        let cols = im2col(&img, &spec);
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].shape(), &[1, 9]);
        assert_eq!(cols[0].data(), img.data());
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        let img = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, -1.0], &[1, 1, 2, 2]);
        let spec = Conv2dSpec::infer(&[1, 1, 4, 4], &[1, 1, 2, 2], 1);
        let cols = im2col(&img, &spec);
        let w2 = w.reshape(&[1, 4]);
        let out = w2.matmul(&cols[0]);
        // Direct convolution: out[y][x] = img[y][x] - img[y+1][x+1] = -5 everywhere.
        for &v in out.data() {
            assert!((v + 5.0).abs() < 1e-6, "{v}");
        }
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        let spec = Conv2dSpec::infer(&[1, 1, 3, 3], &[1, 1, 2, 2], 1);
        let dcol = vec![1.0f32; spec.ckk() * spec.out_hw()];
        let mut dx = Tensor::zeros(&[1, 1, 3, 3]);
        col2im(&dcol, &spec, 0, &mut dx);
        // Centre pixel is covered by all four 2x2 windows.
        assert_eq!(dx.data()[4], 4.0);
        // Corners are covered by exactly one window.
        assert_eq!(dx.data()[0], 1.0);
        assert_eq!(dx.data()[8], 1.0);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn spec_rejects_channel_mismatch() {
        Conv2dSpec::infer(&[1, 3, 8, 8], &[4, 2, 3, 3], 1);
    }
}
