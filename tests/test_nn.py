"""Layer semantics against hand values and the naive convolution oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import naive_conv2d, textbook_attention
from ctanet import nn
from ctanet import tensor as T
from ctanet.errors import ConfigError, DataError, ShapeError
from ctanet.tensor import Tensor


def make_conv(w, b=None, stride=1, padding=0, groups=1):
    return nn.Conv2dParams(Tensor(np.asarray(w, dtype=np.float64)),
                           None if b is None else Tensor(np.asarray(b, dtype=np.float64)),
                           stride=stride, padding=padding, groups=groups)


class TestConv2d:
    def test_single_pixel(self):
        x = Tensor(np.full((1, 1, 1, 1), 2.0))
        p = make_conv(np.full((1, 1, 1, 1), 3.0), b=[1.0])
        assert nn.conv2d(x, p).data.reshape(()) == 7.0

    def test_all_ones_summation(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        p = make_conv(np.ones((1, 1, 3, 3)))
        assert nn.conv2d(x, p).data.reshape(()) == 9.0

    def test_random_against_naive(self):
        x = T.uniform([1, 2, 5, 5], -1, 1, seed=3, dtype="f64")
        p = nn.conv2d_init(2, 3, 3, padding=1, seed=4, dtype="f64")
        want = naive_conv2d(x.data, p.weight.data, p.bias.data, stride=1, pad=1)
        assert np.abs(nn.conv2d(x, p).data - want).max() <= 1e-12

    def test_output_extent_formula(self):
        x = T.uniform([1, 1, 9, 9], seed=1, dtype="f64")
        p = nn.conv2d_init(1, 1, 3, stride=2, padding=1, seed=2, dtype="f64")
        out = nn.conv2d(x, p)
        assert out.shape == (1, 1, (9 + 2 - 3) // 2 + 1, 5)

    def test_channel_mismatch(self):
        p = nn.conv2d_init(2, 2, 3, seed=1)
        with pytest.raises(ShapeError):
            nn.conv2d(T.ones([1, 3, 5, 5]), p)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            nn.conv2d_init(2, 2, 4, seed=1)
        with pytest.raises(ShapeError):
            nn.conv2d(T.ones([1, 1, 5, 5]), make_conv(np.ones((1, 1, 2, 2))))

    def test_kernel_larger_than_padded_input(self):
        p = nn.conv2d_init(1, 1, 5, seed=1, dtype="f64")
        with pytest.raises(ShapeError):
            nn.conv2d(T.ones([1, 1, 3, 3], "f64"), p)


class TestConvStrideAndPadding:
    """A stride below 1 or a negative padding is refused before any strided
    view of the input exists."""

    @pytest.mark.parametrize("stride,padding", [(0, 0), (-1, 0), (1, -1)])
    def test_init_rejects(self, stride, padding):
        with pytest.raises(ConfigError, match="stride >= 1 and padding >= 0"):
            nn.conv2d_init(2, 2, 3, stride=stride, padding=padding, seed=1)

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("stride,padding", [(0, 0), (-1, 0), (1, -1)])
    def test_call_rejects(self, stride, padding, groups):
        p = make_conv(np.ones((2, 2 // groups, 3, 3)), stride=stride, padding=padding, groups=groups)
        with pytest.raises(ShapeError, match="stride >= 1 and padding >= 0"):
            nn.conv2d_nhwc(Tensor(np.ones((1, 5, 5, 2))), p)


class TestBandedConv:
    """Dense and grouped convs are one banded GEMM over width tiles of
    ``_tile_width(OW)`` output pixels; every case here, the tiles included,
    matches the naive oracle."""

    # (H, W, C, OC, k, stride, padding, groups); OW and its tiling in the comment
    CASES = [
        (6, 11, 2, 3, 3, 1, 1, 1),      # OW 11, prime: 11 tiles of 1
        (5, 13, 3, 2, 3, 1, 0, 1),      # OW 11, prime, no padding
        (5, 12, 2, 3, 3, 1, 1, 1),      # OW 12: 2 tiles of 6
        (4, 20, 2, 2, 3, 1, 1, 1),      # OW 20: 4 tiles of 5
        (7, 21, 4, 4, 3, 2, 1, 2),      # stride 2, groups 2, OW 11
        (6, 24, 4, 2, 3, 2, 1, 2),      # stride 2, groups 2, OW 12: 2 tiles of 6
        (9, 31, 3, 4, 3, 3, 2, 1),      # stride 3, OW 11
        (8, 29, 2, 2, 3, 3, 1, 1),      # stride 3, OW 10: 2 tiles of 5
        (4, 18, 3, 5, 1, 1, 0, 1),      # k 1, OW 18: 3 tiles of 6
        (5, 17, 4, 4, 1, 2, 1, 2),      # k 1, stride 2, groups 2, OW 10
        (8, 22, 2, 3, 5, 1, 2, 1),      # k 5, OW 22: 11 tiles of 2
        (9, 26, 2, 2, 5, 2, 2, 1),      # k 5, stride 2, OW 13, prime
        (6, 14, 4, 6, 5, 1, 0, 2),      # k 5, groups 2, no padding, OW 10
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_against_naive(self, case):
        H, W, C, OC, k, s, pad, G = case
        x = T.uniform([2, C, H, W], -1, 1, seed=21, dtype="f64")
        p = nn.conv2d_init(C, OC, k, stride=s, padding=pad, groups=G, seed=22, dtype="f64")
        want = naive_conv2d(x.data, p.weight.data, p.bias.data, stride=s, pad=pad, groups=G)
        got = nn.conv2d(x, p).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    def test_cases_span_tiles(self):
        for _, W, _, _, k, s, pad, _ in self.CASES:
            ow = (W + 2 * pad - k) // s + 1
            assert ow % 8 and ow // nn._tile_width(ow) >= 2
        assert [nn._tile_width(n) for n in (11, 12, 224, 32, 7)] == [1, 6, 8, 8, 7]

    @pytest.mark.parametrize("stride,groups", [(1, 1), (2, 2)])
    def test_grad_check_across_tiles(self, stride, groups):
        # OW 12 at stride 1 (2 tiles of 6) and 10 at stride 2 (2 tiles of 5):
        # dW folds each tile's band, and dx runs on the dilated gradient
        W = 12 if stride == 1 else 19
        x = T.uniform([2, 5, W, 4], -1, 1, seed=23, dtype="f64")
        p = nn.conv2d_init(4, 4, 3, stride=stride, padding=1, groups=groups, seed=24, dtype="f64")
        y = nn.conv2d_nhwc(x, p)
        assert y.shape[2] // nn._tile_width(y.shape[2]) == 2
        w = T.uniform(y.shape, -1, 1, seed=25, dtype="f64")

        def loss_of(t):
            return T.reduce_sum(T.mul(nn.conv2d_nhwc(t, p, gelu=True), w))

        assert T.grad_check(loss_of, x) <= 1e-6
        errs = T.grad_check_params(lambda: loss_of(x), [("weight", p.weight), ("bias", p.bias)])
        assert max(errs.values()) <= 1e-6

    @pytest.mark.parametrize("block_bytes", [1, 2 ** 12, 2 ** 14])
    def test_blocks_split_rows_and_images(self, monkeypatch, block_bytes):
        # One output row of A is 2 tiles * 3*8*4 f64 = 1,536 B, so the blocks
        # hold 1 row, runs of 2 rows (7 = 2+2+2+1) and 1 whole image; the
        # default size holds all 3 images in one block.
        x = T.uniform([3, 7, 12, 4], -1, 1, seed=28, dtype="f64", requires_grad=True)
        p = nn.conv2d_init(4, 4, 3, padding=1, seed=29, dtype="f64")
        w = T.uniform([3, 7, 12, 4], -1, 1, seed=30, dtype="f64")

        def run():
            for t in (x, p.weight, p.bias):
                t.grad = None
            y = nn.conv2d_nhwc(x, p, gelu=True)
            T.backward(T.reduce_sum(T.mul(y, w)))
            return [y.data] + [t.grad for t in (x, p.weight, p.bias)]

        want = run()
        monkeypatch.setattr(nn, "_BLOCK_BYTES", block_bytes)
        for a, b in zip(run(), want):
            assert np.abs(a - b).max() <= 1e-12

    def test_temporaries_stay_blocked(self):
        # One no-grad f32 3x3 conv of [2, 224, 224, 4], padding 1, allocates
        # the output 2*224*224*4*4 B (1.61 MB), the padded input 2*226*226*4*4 B
        # (1.63 MB) and one block of A of at most 256 KB (one output row of A
        # is 28 tiles * 3*10*4 columns * 4 B = 13.4 KB); M (3*10*4 x 8*4 f32,
        # 15 KB) and the bias row (3.5 KB) fit in the 64 KB allowed beyond.
        # A built whole would be 2*224 rows * 28 * 120 * 4 B = 6.02 MB.
        x = T.uniform([2, 224, 224, 4], -1, 1, seed=26, dtype="f32")
        p = nn.conv2d_init(4, 4, 3, padding=1, seed=27, dtype="f32")
        bound = 2 * 224 * 224 * 4 * 4 + 2 * 226 * 226 * 4 * 4 + 2 ** 18 + 2 ** 16
        with T.no_grad():
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                y = nn.conv2d_nhwc(x, p)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert y.shape == (2, 224, 224, 4)
        assert peak <= bound, (peak, bound)


class TestDepthwisePointwise:
    def test_depthwise_constant_channels(self):
        x = np.stack([np.full((3, 3), 1.0), np.full((3, 3), 2.0)])[None]
        p = make_conv(np.ones((2, 1, 3, 3)), groups=2)
        out = nn.depthwise_conv2d(Tensor(x), p)
        assert out.shape == (1, 2, 1, 1)
        assert out.data.reshape(2).tolist() == [9.0, 18.0]

    def test_pointwise_identity(self):
        x = T.uniform([2, 3, 4, 4], seed=5, dtype="f64")
        p = make_conv(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(nn.pointwise_conv2d(x, p).data, x.data)

    def test_separable_pair_parameter_count(self):
        # depthwise M x D x D plus pointwise M x N weights
        M, N, Dk = 3, 8, 3
        dw = nn.conv2d_init(M, M, Dk, groups=M, bias=False, seed=1)
        pw = nn.conv2d_init(M, N, 1, bias=False, seed=2)
        total = dw.weight.size + pw.weight.size
        assert total == M * Dk * Dk + M * N == 51
        dense = nn.conv2d_init(M, N, Dk, bias=False, seed=3)
        assert dense.weight.size == M * N * Dk * Dk == 216

    def test_separable_composition_equals_rank1_full_conv(self):
        # full kernel W[o,c,:,:] = P[o,c] * K[c,:,:] factorizes exactly
        rng = np.random.default_rng(0)
        C, OC, k = 3, 4, 3
        K = rng.standard_normal((C, k, k))
        P = rng.standard_normal((OC, C))
        x = rng.standard_normal((2, C, 6, 6))
        dw = make_conv(K[:, None], groups=C, padding=1)
        pw = make_conv(P[:, :, None, None])
        got = nn.pointwise_conv2d(nn.depthwise_conv2d(Tensor(x), dw), pw).data
        full = make_conv(P[:, :, None, None] * K[None, :, :, :], padding=1)
        want = nn.conv2d(Tensor(x), full).data
        assert np.abs(got - want).max() <= 1e-12


class TestDepthwiseStrided:
    """Depthwise forward, dx and dW are windowed einsums; stride 2 keeps
    every second window."""

    @pytest.mark.parametrize("size,k", [(6, 3), (7, 3), (7, 5)])
    def test_against_naive(self, size, k):
        x = T.uniform([2, 3, size, size], -1, 1, seed=16, dtype="f64")
        p = nn.conv2d_init(3, 3, k, stride=2, padding=k // 2, groups=3, seed=17, dtype="f64")
        want = naive_conv2d(x.data, p.weight.data, p.bias.data, stride=2, pad=k // 2, groups=3)
        got = nn.depthwise_conv2d(x, p).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("size,k", [(6, 3), (7, 3), (7, 5)])
    def test_f64_grad_check(self, size, k):
        x = T.uniform([2, size, size, 3], -1, 1, seed=18, dtype="f64")
        p = nn.conv2d_init(3, 3, k, stride=2, padding=k // 2, groups=3, seed=19, dtype="f64")
        oh = (size + 2 * (k // 2) - k) // 2 + 1
        w = T.uniform([2, oh, oh, 3], -1, 1, seed=20, dtype="f64")

        def loss_of(t):
            return T.reduce_sum(T.mul(nn.conv2d_nhwc(t, p), w))

        assert T.grad_check(loss_of, x) <= 1e-6
        errs = T.grad_check_params(lambda: loss_of(x), [("weight", p.weight), ("bias", p.bias)])
        assert max(errs.values()) <= 1e-6


class TestConvOracleProperty:
    def test_matches_naive_property(self, monkeypatch):
        # Dense, grouped and depthwise convs over drawn extents, each block
        # of A holding one output row, three rows or the default size. The
        # explicit example is the depthwise 1x1 that the fusion stage runs.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        default = nn._BLOCK_BYTES

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.example(B=2, H=3, W=5, kind="depthwise", G=3, cg=1, og=1, k=1, s=1, pad=0,
                            rows=None, seed=0)
        @hypothesis.given(B=st.integers(1, 2), H=st.integers(1, 9), W=st.integers(1, 19),
                          kind=st.sampled_from(["dense", "grouped", "depthwise"]),
                          G=st.integers(2, 3), cg=st.integers(1, 2), og=st.integers(1, 2),
                          k=st.sampled_from([1, 3, 5]), s=st.integers(1, 3), pad=st.integers(0, 2),
                          rows=st.sampled_from([1, 3, None]), seed=st.integers(0, 99))
        def check(B, H, W, kind, G, cg, og, k, s, pad, rows, seed):
            hypothesis.assume(H + 2 * pad >= k and W + 2 * pad >= k)
            hypothesis.assume(kind != "grouped" or cg * og > 1)     # else it is depthwise
            G, cg, og = {"dense": (1, cg + 1, og + 1), "grouped": (G, cg, og),
                         "depthwise": (G, 1, 1)}[kind]
            C, OC = G * cg, G * og
            ow = (W + 2 * pad - k) // s + 1
            tw = nn._tile_width(ow)
            row_bytes = (ow // tw) * k * (s * (tw - 1) + k) * C * 8   # A bytes per output row
            monkeypatch.setattr(nn, "_BLOCK_BYTES", default if rows is None else rows * row_bytes)
            x = T.uniform([B, H, W, C], -1, 1, seed=100 * seed + 1, dtype="f64")
            p = nn.conv2d_init(C, OC, k, stride=s, padding=pad, groups=G, dtype="f64",
                               seed=100 * seed + 2)
            p.bias.data = T.uniform([OC], -1, 1, seed=100 * seed + 3, dtype="f64").data
            got = nn.conv2d_nhwc(x, p).data
            want = naive_conv2d(x.data.transpose(0, 3, 1, 2), p.weight.data, p.bias.data,
                                stride=s, pad=pad, groups=G).transpose(0, 2, 3, 1)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

        check()


class TestLinear:
    def test_identity(self):
        x = T.uniform([3, 4], seed=6, dtype="f64")
        p = nn.LinearParams(Tensor(np.eye(4)), Tensor(np.zeros(4)))
        assert np.array_equal(nn.linear(x, p).data, x.data)

    def test_hand_case(self):
        p = nn.LinearParams(Tensor(np.array([[1.0, 1.0]])), Tensor(np.array([0.5])))
        assert nn.linear(Tensor([1.0, 2.0]), p).data.tolist() == [3.5]

    def test_against_matmul_oracle(self):
        x = T.uniform([2, 5, 4], -1, 1, seed=7, dtype="f64")
        p = nn.linear_init(4, 6, seed=8, dtype="f64")
        want = x.data @ p.weight.data.T + p.bias.data
        assert np.abs(nn.linear(x, p).data - want).max() <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError, match=r"^linear expects last axis 4, got \[2, 3\]$"):
            nn.linear(T.ones([2, 3]), nn.linear_init(4, 2, seed=1))

    def test_records_one_node(self):
        x = T.uniform([2, 3, 4], seed=11, dtype="f64", requires_grad=True)
        p = nn.linear_init(4, 6, seed=12, dtype="f64")
        y = nn.linear(x, p)
        assert y.node.op == "linear"
        assert len(y.node.parents) == 3
        assert all(a is b for a, b in zip(y.node.parents, (x, p.weight, p.bias)))

    def test_permuted_input_without_bias(self):
        base = T.uniform([4, 2, 3], -1, 1, seed=13, dtype="f64")
        p = nn.linear_init(4, 5, bias=False, seed=14, dtype="f64")
        x = T.permute(base, (1, 2, 0))              # [2, 3, 4], a transposed view
        assert not x.data.flags.c_contiguous
        y = nn.linear(x, p)
        assert y.shape == (2, 3, 5) and y.node.parents[1] is p.weight and len(y.node.parents) == 2
        assert np.abs(y.data - x.data @ p.weight.data.T).max() <= 1e-12
        w = T.uniform([2, 3, 5], -1, 1, seed=15, dtype="f64")

        def loss_of(t):
            return T.reduce_sum(T.mul(nn.linear(T.permute(t, (1, 2, 0)), p), w))

        assert T.grad_check(loss_of, base) <= 1e-6
        errs = T.grad_check_params(lambda: loss_of(base), [("weight", p.weight)])
        assert errs["weight"] <= 1e-6


class TestLinearBlocks:
    """`linear` over consecutive channel blocks reads them in place of their
    concatenation, and takes a 1x1 conv weight [out, in, 1, 1] as stored."""

    def test_blocks_match_concatenation(self):
        p = nn.conv2d_init(9, 5, 1, seed=21, dtype="f64")
        r = T.uniform([2, 3, 3, 5], -1, 1, seed=22, dtype="f64")
        xs = [T.uniform([2, 3, 3, c], -1, 1, seed=23 + c, dtype="f64", requires_grad=True)
              for c in (2, 3, 4)]
        xcat = T.concat(xs, axis=3)
        got = []
        for inputs in (xs, xcat):
            y = nn.linear(inputs, p)
            assert y.node.op == "linear"
            T.backward(T.reduce_sum(T.mul(y, r)))
            got.append([y.data, p.weight.grad, p.bias.grad] + [x.grad for x in xs])
            T.zero_grads([p.weight, p.bias, *xs])
        # Each block is its own GEMM, so the output adds the blocks' partial
        # sums, in another order than one GEMM over the concatenation. Every
        # gradient is the same reduction on both paths: bias and weight sum
        # over rows, each block's dx over the outputs.
        assert np.abs(got[0][0] - got[1][0]).max() <= 1e-12
        for a, b in zip(got[0][1:], got[1][1:]):
            assert np.array_equal(a, b)

    def test_unit_weight_matches_conv2d(self):
        x = T.uniform([2, 4, 5, 5], -1, 1, seed=24, dtype="f64", requires_grad=True)
        p = nn.conv2d_init(4, 6, 1, seed=25, dtype="f64")
        r = T.uniform([2, 6, 5, 5], -1, 1, seed=26, dtype="f64")
        got = []
        for layer in (lambda t: T.permute(nn.linear(T.permute(t, (0, 2, 3, 1)), p), (0, 3, 1, 2)),
                      lambda t: nn.conv2d(t, p)):                # the tap sum at k=1
            y = layer(x)
            T.backward(T.reduce_sum(T.mul(y, r)))
            got.append([y.data, x.grad, p.weight.grad, p.bias.grad])
            T.zero_grads([x, p.weight, p.bias])
        for a, b in zip(*got):
            assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("leads,widths", [
        ([(2, 3, 3), (2, 3, 3), (2, 3, 4)], [2, 3, 4]),        # differ off the last axis
        ([(2, 3, 3), (3, 2, 3), (2, 3, 3)], [2, 3, 4]),        # same rows, other layout
        ([(2, 3, 3)] * 2, [4, 4]),                              # widths sum to 8, not 9
    ])
    def test_mismatched_blocks_named(self, leads, widths):
        xs = [T.ones([*lead, c], dtype="f64") for lead, c in zip(leads, widths)]
        with pytest.raises(ShapeError) as err:
            nn.linear(xs, nn.conv2d_init(9, 5, 1, seed=27, dtype="f64"))
        assert all(str(list(x.shape)) in str(err.value) for x in xs)
        assert "[5, 9, 1, 1]" in str(err.value)

    def test_non_unit_weight_rejected(self):
        with pytest.raises(ShapeError, match="as \\[out, in\\]"):
            nn.linear(T.ones([2, 4]), nn.conv2d_init(4, 2, 3, seed=1))

    def test_blocks_match_concatenation_property(self):
        # One block is the plain single-tensor call. Without GELU, numpy is
        # a third reference: y = X W^T + b, dX = R W, dW = R^T X, db = sum R.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
                          rows=st.integers(1, 3), cols=st.integers(1, 5), out=st.integers(1, 6),
                          bias=st.booleans(), gelu=st.booleans(), seed=st.integers(0, 99))
        def check(widths, rows, cols, out, bias, gelu, seed):
            rnd = lambda shape, k: T.uniform(shape, -1, 1, seed=100 * seed + k, dtype="f64",
                                             requires_grad=True)
            xs = [rnd([rows, cols, c], 10 + i) for i, c in enumerate(widths)]
            p = nn.LinearParams(rnd([out, sum(widths)], 1), rnd([out], 2) if bias else None)
            r = T.uniform([rows, cols, out], -1, 1, seed=100 * seed + 3, dtype="f64")
            leaves = [*xs, p.weight] + ([p.bias] if bias else [])
            runs = []
            for inputs in (lambda: xs[0] if len(xs) == 1 else xs, lambda: T.concat(xs, axis=2)):
                T.zero_grads(leaves)
                y = nn.linear(inputs(), p, gelu=gelu)
                T.backward(T.reduce_sum(T.mul(y, r)))
                runs.append([y.data] + [t.grad for t in leaves])
            if not gelu:
                X, W, R = T.concat(xs, axis=2).data, p.weight.data, r.data
                runs.append([X @ W.T + (p.bias.data if bias else 0),
                             *np.split(R @ W, np.cumsum(widths)[:-1], axis=2),
                             np.einsum("rco,rci->oi", R, X)] + ([R.sum(axis=(0, 1))] if bias else []))
            for run in runs[1:]:
                for got, ref in zip(runs[0], run):
                    assert got.shape == ref.shape
                    assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

        check()


class TestFusedGelu:
    """``gelu=True`` on a layer gives the bits of ``nn.gelu`` after it, and
    its tape node keeps no pre-activation."""

    @staticmethod
    def _run(layer, x, p, fused, seed):
        xt = Tensor(x.data.copy(), requires_grad=True)
        y = layer(xt, p, gelu=True) if fused else nn.gelu(layer(xt, p))
        T.backward(T.reduce_sum(T.mul(y, T.uniform(y.shape, -1, 1, seed=seed, dtype=x.dtype))))
        return y, [t.grad.tobytes() for t in (xt, p.weight, p.bias)]

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("layer", ["linear", "conv2d_nhwc"])
    def test_bits_match_gelu_of_plain_layer(self, dtype, layer):
        if layer == "linear":
            p = nn.linear_init(6, 10, seed=1, dtype=dtype)
            x = T.uniform([2, 5, 6], -2, 2, seed=2, dtype=dtype)
        else:
            p = nn.conv2d_init(3, 4, 3, padding=1, seed=1, dtype=dtype)
            x = T.uniform([2, 6, 6, 3], -2, 2, seed=2, dtype=dtype)
        fn = getattr(nn, layer)
        grads = []
        for fused in (False, True):
            for q in (p.weight, p.bias):
                q.grad = None
            y, g = self._run(fn, x, p, fused, seed=3)
            grads.append((y.data.tobytes(), g))
        assert grads[0] == grads[1]
        with T.no_grad():
            assert fn(x, p, gelu=True).data.tobytes() == grads[0][0]

    def test_one_node_without_pre_activation(self):
        p = nn.conv2d_init(2, 2, 3, padding=1, seed=4, dtype="f64")
        x = T.uniform([1, 4, 4, 2], seed=5, dtype="f64", requires_grad=True)
        y = nn.conv2d_nhwc(x, p, gelu=True)
        assert y.node.op == "conv2d" and y.node.parents == (x, p.weight, p.bias)


class TestAttend:
    """One tape op for the head split, scores, scale, softmax and weighted sum."""

    B, S, D, H = 2, 6, 8, 2

    def _inputs(self, reduce):
        """q [B, S, D], k and v [B, S', D] as attend takes them, and the
        oracle's output with an identity output projection: the context."""
        B, S, D, H = self.B, self.S, self.D, self.H
        rnd = lambda shape, seed: T.uniform(shape, -1, 1, seed=seed, dtype="f64").data
        x = rnd([B, S, D], 1)
        wq, wk, wv = (rnd([D, D], 2 + i) for i in range(3))
        bq, bk, bv = (rnd([D], 5 + i) for i in range(3))
        kv_reduce = [rnd([3, S], 8), rnd([3], 9), rnd([3, S], 10), rnd([3], 11)] if reduce else None

        def project(w, b, r):                 # [B, S', D], shortened along tokens by r
            y = x @ w.T + b
            return y if r is None else r[0] @ y + r[1][:, None]

        kr, vr = (None, None) if kv_reduce is None else (kv_reduce[:2], kv_reduce[2:])
        q, k, v = x @ wq.T + bq, project(wk, bk, kr), project(wv, bv, vr)
        oracle = (x, wq, bq, wk, bk, wv, bv, np.eye(D), np.zeros(D))
        return q, k, v, textbook_attention(*oracle, heads=H, kv_reduce=kv_reduce)

    @pytest.mark.parametrize("query_rows", [None, 1])
    @pytest.mark.parametrize("reduce", [False, True])
    def test_matches_textbook_attention(self, reduce, query_rows):
        q, k, v, want = self._inputs(reduce)
        Sq = query_rows or self.S
        ctx, weights = nn.attend(Tensor(q[:, :Sq]), Tensor(k), Tensor(v), self.H)
        assert ctx.shape == (self.B, Sq, self.D)
        assert np.abs(ctx.data - want[:, :Sq]).max() <= 1e-12
        assert weights.shape == (self.B, self.H, Sq, k.shape[1]) and not weights.requires_grad
        assert np.abs(weights.data.sum(-1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_grad_check(self, which):
        qkv = [Tensor(a) for a in self._inputs(reduce=True)[:3]]
        w = T.uniform([self.B, self.S, self.D], -1, 1, seed=12, dtype="f64")

        def f(t):
            args = list(qkv)
            args[which] = t
            return T.reduce_sum(T.mul(nn.attend(*args, self.H)[0], w))

        assert T.grad_check(f, qkv[which]) <= 1e-6

    def test_mismatched_layouts_named(self):
        q, k, v, _ = self._inputs(reduce=False)
        named = r"attend: q \[B, Sq, D\] .* needs k and v \[2, S, 8\]"
        for k_in, heads in ((k.transpose(0, 2, 1), self.H), (k, 3)):   # tokens last; 3 heads for D = 8
            with pytest.raises(ShapeError, match=named):
                nn.attend(Tensor(q), Tensor(k_in), Tensor(v), heads)


class TestReduceProject:
    """K/V shortened along the tokens before their projection equal the
    projection of every token shortened after it."""

    def test_matches_project_then_reduce(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(B=st.integers(1, 3), S=st.integers(1, 9), Sr=st.integers(1, 9),
                          Din=st.integers(1, 7), Dout=st.integers(1, 7), seed=st.integers(0, 99))
        def check(B, S, Sr, Din, Dout, seed):
            rnd = lambda shape, k: T.uniform(shape, -1, 1, seed=100 * seed + k, dtype="f64",
                                             requires_grad=True)
            x = rnd([B, S, Din], 1)
            proj = nn.LinearParams(rnd([Dout, Din], 2), rnd([Dout], 3))
            reduce = nn.LinearParams(rnd([Sr, S], 4), rnd([Sr], 5))
            w = T.uniform([B, Sr, Dout], -1, 1, seed=100 * seed + 6, dtype="f64")
            leaves = (x, proj.weight, proj.bias, reduce.weight, reduce.bias)
            runs = []
            for fn in (lambda: nn.reduce_project(x, proj, reduce),
                       lambda: T.permute(nn.linear(T.permute(nn.linear(x, proj), (0, 2, 1)), reduce),
                                         (0, 2, 1))):
                T.zero_grads(leaves)
                y = fn()
                T.backward(T.reduce_sum(T.mul(y, w)))
                runs.append([y.data] + [t.grad for t in leaves])
            for got, ref in zip(*runs):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

        check()

    def test_mismatched_shapes_named(self):
        x = T.ones([2, 5, 4], "f64")
        proj, reduce = nn.linear_init(4, 6, dtype="f64"), nn.linear_init(6, 3, dtype="f64")
        with pytest.raises(ShapeError, match=r"reduce_project: .* reduce \[S_r, S\]"):
            nn.reduce_project(x, proj, reduce)


class TestFoldPointwise:
    def test_matches_unfolded_composition_property(self):
        # the unfolded composition: the 1x1 conv as a linear on the channel
        # axis of x viewed as [N, C, Q], then outer on the channel-major columns
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
        @hypothesis.given(N=st.integers(1, 3), O=st.integers(1, 6), C=st.integers(1, 5),
                          Q=st.integers(1, 5), seed=st.integers(0, 99))
        def check(N, O, C, Q, seed):
            rnd = lambda shape, k: T.uniform(shape, -1, 1, seed=100 * seed + k, dtype="f64",
                                             requires_grad=True)
            x = rnd([N, C * Q], 1)
            outer = nn.LinearParams(rnd([O, C * Q], 2), rnd([O], 3))
            inner = nn.Conv2dParams(rnd([C, C, 1, 1], 4), rnd([C], 5))
            r = T.uniform([N, O], -1, 1, seed=100 * seed + 6, dtype="f64")
            leaves = (x, outer.weight, outer.bias, inner.weight, inner.bias)

            def unfolded():
                h = nn.linear(T.permute(T.reshape(x, [N, C, Q]), (0, 2, 1)), inner)
                return nn.linear(T.reshape(T.permute(h, (0, 2, 1)), [N, C * Q]), outer)

            runs = []
            for fn in (lambda: nn.linear(x, nn.fold_pointwise(outer, inner)), unfolded):
                T.zero_grads(leaves)
                y = fn()
                T.backward(T.reduce_sum(T.mul(y, r)))
                runs.append([y.data] + [t.grad for t in leaves])
            for got, ref in zip(*runs):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

        check()

    @pytest.mark.parametrize("inner,width", [
        (dict(in_ch=9, out_ch=9, k=3, groups=9), 36),    # 3x3 taps: 81 = 9 x 9 weights
        (dict(in_ch=4, out_ch=4, k=1, groups=2), 36),    # grouped, not dense
        (dict(in_ch=4, out_ch=4, k=1, groups=4), 36),    # depthwise 1x1, not dense
        (dict(in_ch=4, out_ch=4, k=1, padding=1), 36),   # padding changes the map's extent
        (dict(in_ch=4, out_ch=4, k=1), 38),              # 38 columns are not 4 channels
    ])
    def test_rejects_what_is_not_a_1x1_channel_map(self, inner, width):
        outer = nn.linear_init(width, 5, dtype="f64")
        with pytest.raises(ShapeError, match="fold_pointwise"):
            nn.fold_pointwise(outer, nn.conv2d_init(**inner, dtype="f64"))


class TestLayerNorm:
    def test_constant_slice_zeros(self):
        p = nn.layer_norm_init(4, dtype="f64")
        out = nn.layer_norm(Tensor(np.full((2, 4), 3.0)), p)
        assert np.abs(out.data).max() == 0.0  # eps keeps this finite

    def test_hand_evaluation(self):
        p = nn.layer_norm_init(3, dtype="f64")
        out = nn.layer_norm(Tensor([[1.0, 2.0, 3.0]]), p)
        sigma = math.sqrt(2.0 / 3.0 + 1e-5)
        want = np.array([-1.0, 0.0, 1.0]) / sigma
        assert np.abs(out.data[0] - want).max() < 1e-9
        assert np.abs(out.data[0] - np.array([-1.2247, 0.0, 1.2247])).max() < 1e-4

    def test_gamma_zero_gives_beta(self):
        p = nn.LayerNormParams(Tensor(np.zeros(3)), Tensor(np.full(3, 2.5)), 1e-5)
        out = nn.layer_norm(T.uniform([4, 3], seed=9, dtype="f64"), p)
        assert np.abs(out.data - 2.5).max() == 0.0

    def test_recording_does_not_change_values(self):
        p = nn.layer_norm_init(8)
        x = T.uniform([2, 3, 8], -4, 4, seed=22, dtype="f32")
        with T.no_grad():
            plain = nn.layer_norm(x, p).data
        recorded = nn.layer_norm(Tensor(x.data, requires_grad=True), p)
        assert recorded.requires_grad
        assert recorded.data.tobytes() == plain.tobytes()

    def test_normalization_statistics(self):
        p = nn.layer_norm_init(32, dtype="f64")
        x = T.uniform([6, 32], -4, 4, seed=10, dtype="f64")
        out = nn.layer_norm(x, p).data
        assert np.abs(out.mean(-1)).max() <= 1e-6
        assert np.abs(out.var(-1) - 1).max() <= 1e-4


class TestActivationAndLoss:
    def test_gelu_zero(self):
        assert nn.gelu(Tensor([0.0])).data.tolist() == [0.0]

    def test_gelu_reference_values(self):
        # 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
        for v in (-1.0, 0.5, 2.0):
            want = 0.5 * v * (1 + math.tanh(math.sqrt(2 / math.pi) * (v + 0.044715 * v ** 3)))
            assert abs(nn.gelu(Tensor([v])).item() - want) < 1e-12

    def test_gelu_gradient_closed_form(self):
        xs = np.linspace(-10.0, 10.0, 4001)
        x = Tensor(xs, requires_grad=True)
        T.backward(T.reduce_sum(nn.gelu(x)))
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        u = c * (xs + a * xs ** 3)
        want = 0.5 * (1.0 + np.tanh(u)) + 0.5 * xs * c * (1.0 + 3.0 * a * xs ** 2) / np.cosh(u) ** 2
        assert np.abs(x.grad - want).max() <= 1e-12

    def test_gelu_recording_does_not_change_values(self):
        xs = T.uniform([3, 7], -4, 4, seed=21, dtype="f32")
        with T.no_grad():
            plain = nn.gelu(xs).data
        recorded = nn.gelu(Tensor(xs.data, requires_grad=True))
        assert recorded.requires_grad
        assert recorded.data.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_gelu_chunks_match_one_pass_bitwise(self, monkeypatch, dtype, record, in_place):
        # three chunks of 33,180 elements, the last 2 short of that
        n = 3 * nn._GELU_CHUNK + 1234
        x = T.uniform([2, n // 2], -6, 6, seed=22, dtype=dtype).data
        runs = []
        for chunk in (nn._GELU_CHUNK, x.size):
            monkeypatch.setattr(nn, "_GELU_CHUNK", chunk)
            xd = x.copy()
            y, d = nn._gelu(xd, record, out=xd if in_place else None)
            runs.append((y.tobytes(), None if d is None else d.tobytes()))
        assert runs[0] == runs[1] and (runs[0][1] is not None) == record

    def test_uniform_logits_loss(self):
        loss = nn.cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_saturated_logits(self):
        loss = nn.cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert loss.item() < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            nn.cross_entropy(Tensor([[0.0, 0.0]]), [2])
        with pytest.raises(DataError):
            nn.cross_entropy(Tensor([[0.0, 0.0]]), [-1])

    def test_batch_mean(self):
        loss = nn.cross_entropy(Tensor([[0.0, 0.0], [1000.0, 0.0]]), [0, 0])
        assert abs(loss.item() - math.log(2.0) / 2) < 1e-9
