"""Architecture contracts: embeddings, reconstruction, the conv detour,
multi-scale fusion, both attention kinds, blocks, and the full model."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import naive_conv2d, random_valid_config, reconstruct_oracle, textbook_attention
from ctanet import model as M
from ctanet import nn
from ctanet import tensor as T
from ctanet.errors import ConfigError, ShapeError
from ctanet.model import (ModelConfig, attention, baseline_twin, ct_block,
                          fuse_tokens, lmf_mhsa, mhsa, model_forward, model_init,
                          multi_scale_fuse, patch_embed, patchify_map, reconstruct,
                          reverse_embed, rrcv_forward, tiny_config)
from ctanet.tensor import Tensor


def identity_linear(dim, dtype="f64"):
    return nn.LinearParams(Tensor(np.eye(dim)), Tensor(np.zeros(dim)))


class TestConfig:
    def test_tiny_preset_shape(self):
        cfg = tiny_config()
        assert (cfg.num_patches, cfg.tokens, cfg.head_dim, cfg.rrcv_width) == (64, 65, 16, 4)

    def test_baseline_reproduces_plain_vit(self):
        cfg = tiny_config(attention_kind="mhsa", rrcv_variant="none", kernel_scales=(), kv_reduction=1)
        assert cfg.validate() is cfg

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_size=30, patch_size=4).validate()
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=65, heads=4).validate()
        with pytest.raises(ConfigError):
            ModelConfig(attention_kind="flash").validate()
        with pytest.raises(ConfigError):
            ModelConfig(rrcv_variant="vgg").validate()
        with pytest.raises(ConfigError):
            ModelConfig(kernel_scales=(2,)).validate()
        with pytest.raises(ConfigError):
            ModelConfig(kv_reduction=100).validate()  # exceeds patch tokens

    def test_rrcv_width_rule(self):
        assert tiny_config().rrcv_width == 4                       # 64 / 16 integral
        assert ModelConfig(image_size=224, patch_size=16, embed_dim=384,
                           heads=8).rrcv_width == 4                # 1.5 -> pow2 floor, min 4
        assert ModelConfig(embed_dim=128, patch_size=4).rrcv_width == 8


class TestPatchEmbed:
    def test_degenerate_single_patch(self):
        cfg = ModelConfig(image_size=8, patch_size=8, embed_dim=4, heads=1, kv_reduction=1)
        proj = nn.linear_init(3 * 64, 4, seed=1, dtype="f64")
        img = T.uniform([2, 3, 8, 8], seed=2, dtype="f64")
        cls = T.zeros([4], "f64")
        toks = patch_embed(img, proj, None, cls, 8)
        assert toks.shape == (2, 2, 4)  # one patch plus the class token

    def test_identity_configuration_tokens_are_pixels(self):
        img = T.uniform([1, 3, 4, 4], seed=3, dtype="f64")
        proj = identity_linear(3)
        toks = patch_embed(img, proj, None, None, 1)
        for t in range(16):
            y, x = divmod(t, 4)
            assert np.array_equal(toks.data[0, t], img.data[0, :, y, x])

    def test_token_count_arithmetic(self):
        cfg = tiny_config()
        net = model_init(cfg, seed=0, dtype="f64")
        img = T.uniform([2, 3, 32, 32], seed=4, dtype="f64")
        toks = patch_embed(img, net.patch_proj, net.pos_embed, net.cls_token, 4)
        assert toks.shape == (2, 65, 64)

    def test_size_mismatch(self):
        net = model_init(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            model_forward(T.ones([1, 3, 16, 16]), net)


class TestReconstruct:
    def test_row_major_contract(self):
        patches = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4, 1, 1))
        out = reconstruct(patches, 2, 2)
        assert out.data.reshape(2, 2).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_against_index_oracle(self):
        x = T.uniform([2, 3, 4, 2, 2], seed=5, dtype="f64")
        got = reconstruct(x, 4, 4).data
        assert np.array_equal(got, reconstruct_oracle(x.data, 4, 4))

    def test_inverse_of_extraction_bitwise(self):
        x = T.uniform([2, 3, 8, 8], seed=6, dtype="f64")
        patches = patchify_map(x, 2, 2)
        assert reconstruct(patches, 8, 8).data.tobytes() == x.data.tobytes()

    def test_area_mismatch(self):
        with pytest.raises(ShapeError):
            reconstruct(T.ones([1, 1, 4, 1, 1]), 2, 3)


class TestReverseEmbed:
    def test_identity_map_pixels_are_tokens(self):
        cfg = ModelConfig(image_size=3, patch_size=1, embed_dim=4, heads=1,
                          kv_reduction=1, use_class_token=False, rrcv_channels=4)
        x = T.uniform([2, 9, 4], seed=7, dtype="f64")
        fmap = reverse_embed(x, identity_linear(4), cfg)
        assert fmap.shape == (2, 3, 3, 4)          # channels-last
        for t in range(9):
            i, j = divmod(t, 3)
            assert np.array_equal(fmap.data[:, i, j, :], x.data[:, t, :])

    def test_channel_major_patch_layout(self):
        # token n of a 2x2 grid holds its patch as [C, p, p], flattened
        cfg = ModelConfig(image_size=4, patch_size=2, embed_dim=8, heads=1,
                          kv_reduction=1, use_class_token=False, rrcv_channels=2)
        x = T.uniform([1, 4, 8], seed=17, dtype="f64")
        fmap = reverse_embed(x, identity_linear(8), cfg).data
        for n in range(4):
            gy, gx = divmod(n, 2)
            for c in range(2):
                for i in range(2):
                    for j in range(2):
                        assert fmap[0, 2 * gy + i, 2 * gx + j, c] == x.data[0, n, 4 * c + 2 * i + j]

    def test_shape_contract(self):
        cfg = tiny_config()
        net = model_init(cfg, seed=1, dtype="f64")
        x = T.uniform([2, 65, 64], seed=8, dtype="f64")
        assert reverse_embed(x, net.blocks[0].rrcv.re, cfg).shape == (2, 32, 32, 4)


class TestRrcv:
    @pytest.mark.parametrize("variant", ["cnn", "dwconv", "resnet"])
    def test_shape_preserved(self, variant):
        cfg = tiny_config(rrcv_variant=variant, depth=1)
        net = model_init(cfg, seed=2, dtype="f64")
        x = T.uniform([1, 65, 64], seed=9, dtype="f64")
        assert rrcv_forward(x, net.blocks[0].rrcv, cfg).shape == x.shape

    def _passthrough_params(self, cfg, variant):
        """identity reverse-embed/embed, zero body convs, identity 1x1."""
        C, p, D = cfg.rrcv_width, cfg.patch_size, cfg.embed_dim
        assert C * p * p == D
        rp = model_init(replace(cfg, rrcv_variant=variant), seed=3, dtype="f64").blocks[0].rrcv
        eye = np.eye(D)
        rp.re.weight.data = eye.copy()
        rp.re.bias.data[:] = 0
        rp.embed.weight.data = eye.copy()
        rp.embed.bias.data[:] = 0
        for cp in rp.body:
            cp.weight.data[:] = 0
            cp.bias.data[:] = 0
        rp.pconv.weight.data = np.eye(C).reshape(C, C, 1, 1)
        rp.pconv.bias.data[:] = 0
        return rp

    def test_resnet_passthrough_is_identity(self):
        cfg = tiny_config(depth=1)
        rp = self._passthrough_params(cfg, "resnet")
        x = T.uniform([2, 65, 64], seed=10, dtype="f64")
        out = rrcv_forward(x, rp, cfg)
        assert np.abs(out.data - x.data).max() <= 1e-12

    def test_zero_cnn_with_pconv_bias_gives_constant_tokens(self):
        cfg = tiny_config(depth=1)
        rp = self._passthrough_params(cfg, "cnn")
        bias = np.arange(1.0, cfg.rrcv_width + 1)
        rp.pconv.bias.data = bias.copy()
        x = T.uniform([2, 65, 64], seed=11, dtype="f64")
        out = rrcv_forward(x, rp, cfg)
        patch_tokens = out.data[:, 1:, :]
        # every patch token equals the embedded constant bias map
        want = np.repeat(bias, cfg.patch_size ** 2)  # identity embed of [C, p, p] fill
        assert np.abs(patch_tokens - want).max() <= 1e-12
        assert np.abs(patch_tokens - patch_tokens[:, :1, :]).max() == 0.0

    def test_class_token_bypass_both_directions(self):
        cfg = tiny_config(depth=1)
        net = model_init(cfg, seed=4, dtype="f64")
        x = T.uniform([2, 65, 64], seed=12, dtype="f64")
        out = rrcv_forward(x, net.blocks[0].rrcv, cfg)
        assert np.array_equal(out.data[:, 0], x.data[:, 0])  # cls passes unchanged
        mutated = Tensor(x.data.copy())
        mutated.data[:, 0] += 13.0  # touch only the class token
        out2 = rrcv_forward(mutated, net.blocks[0].rrcv, cfg)
        assert np.array_equal(out.data[:, 1:], out2.data[:, 1:])

    def test_unknown_variant(self):
        cfg = tiny_config(depth=1)
        rp = model_init(cfg, seed=5, dtype="f64").blocks[0].rrcv
        rp.variant = "alexnet"
        with pytest.raises(ConfigError):
            rrcv_forward(T.ones([1, 65, 64], "f64"), rp, cfg)


class TestMultiScaleFuse:
    def test_single_identity_scale(self):
        C = 3
        branch = nn.Conv2dParams(Tensor(np.ones((C, 1, 1, 1))), Tensor(np.zeros(C)), groups=C)
        reduce = nn.Conv2dParams(Tensor(np.eye(C).reshape(C, C, 1, 1)), Tensor(np.zeros(C)))
        from ctanet.model import FusionParams
        x = T.uniform([2, 5, 5, C], seed=13, dtype="f64")
        out = multi_scale_fuse(x, FusionParams((1,), [branch], reduce))
        assert np.abs(out.data - x.data).max() <= 1e-12

    def test_delta_kernels_with_averaging_reduction(self):
        from ctanet.model import FusionParams
        C, scales = 2, (1, 3, 5)
        branches = []
        for s in scales:
            w = np.zeros((C, 1, s, s))
            w[:, 0, s // 2, s // 2] = 1.0  # center tap
            branches.append(nn.Conv2dParams(Tensor(w), Tensor(np.zeros(C)),
                                            padding=nn.same_padding(s), groups=C))
        rw = np.zeros((C, 3 * C, 1, 1))
        for rep in range(3):
            for c in range(C):
                rw[c, rep * C + c, 0, 0] = 1.0 / 3.0
        reduce = nn.Conv2dParams(Tensor(rw), Tensor(np.zeros(C)))
        x = T.uniform([1, 4, 4, C], seed=14, dtype="f64")
        out = multi_scale_fuse(x, FusionParams(scales, branches, reduce))
        assert np.abs(out.data - x.data).max() <= 1e-12

    def test_against_composed_naive_oracle(self):
        cfg = tiny_config(depth=1)
        net = model_init(cfg, seed=6, dtype="f64")
        fp = net.blocks[0].attn.fusion
        x = T.uniform([2, 8, 8, 64], seed=15, dtype="f64")
        got = multi_scale_fuse(x, fp).data
        xc = x.data.transpose(0, 3, 1, 2)
        parts = [naive_conv2d(xc, bp.weight.data, bp.bias.data,
                              pad=bp.padding, groups=bp.groups) for bp in fp.branches]
        cat = np.concatenate(parts, axis=1)
        want = naive_conv2d(cat, fp.reduce.weight.data, fp.reduce.bias.data).transpose(0, 2, 3, 1)
        assert np.abs(got - want).max() <= 1e-12

    def test_empty_scales_rejected(self):
        from ctanet.model import FusionParams
        with pytest.raises(ConfigError):
            multi_scale_fuse(T.ones([1, 2, 4, 4]), FusionParams((), [], None))


class TestAttention:
    def test_single_token_is_projected_value(self):
        cfg = ModelConfig(image_size=1, patch_size=1, embed_dim=4, heads=2,
                          kv_reduction=1, use_class_token=False, kernel_scales=())
        net = model_init(replace(cfg, attention_kind="lmf_mhsa"), seed=7, dtype="f64")
        ap = net.blocks[0].attn
        x = T.uniform([2, 1, 4], seed=16, dtype="f64")
        out, w = lmf_mhsa(x, ap, cfg, return_weights=True)
        assert np.abs(w.data - 1.0).max() == 0.0
        want = nn.linear(nn.linear(x, ap.v), ap.out)
        assert np.abs(out.data - want.data).max() <= 1e-12

    def test_equal_k_rows_give_uniform_weights(self):
        cfg = tiny_config(kernel_scales=(), kv_reduction=4, depth=1, use_class_token=False)
        net = model_init(cfg, seed=8, dtype="f64")
        ap = net.blocks[0].attn
        Tr, Ttok = cfg.reduced_tokens, cfg.tokens
        ap.k_reduce.weight.data = np.full((Tr, Ttok), 1.0 / Ttok)  # every K' row = mean K
        ap.k_reduce.bias.data[:] = 0
        x = T.uniform([2, Ttok, 64], seed=17, dtype="f64")
        out, w = lmf_mhsa(x, ap, cfg, return_weights=True)
        assert np.abs(w.data - 1.0 / Tr).max() <= 1e-12

    def test_lmf_reduces_to_textbook_attention(self):
        cfg = ModelConfig(image_size=2, patch_size=1, embed_dim=8, heads=2,
                          kv_reduction=1, kernel_scales=(), use_class_token=False)
        net = model_init(cfg, seed=9, dtype="f64")
        ap = net.blocks[0].attn
        x = T.uniform([3, 4, 8], -1, 1, seed=18, dtype="f64")
        got = lmf_mhsa(x, ap, cfg).data
        want = textbook_attention(x.data, ap.q.weight.data, ap.q.bias.data,
                                  ap.k.weight.data, ap.k.bias.data,
                                  ap.v.weight.data, ap.v.bias.data,
                                  ap.out.weight.data, ap.out.bias.data, heads=2)
        assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("query_rows", [None, 1])
    @pytest.mark.parametrize("r", [2, 4, 7])
    def test_shortened_kv_matches_oracle(self, r, query_rows):
        cfg = tiny_config(kernel_scales=(), kv_reduction=r, depth=1)
        net = model_init(cfg, seed=12, dtype="f64")
        ap = net.blocks[0].attn
        x = T.uniform([2, cfg.tokens, 64], -1, 1, seed=21, dtype="f64")
        got = lmf_mhsa(x, ap, cfg, query_rows=query_rows).data
        weights = [t.data for p in (ap.q, ap.k, ap.v, ap.out, ap.k_reduce, ap.v_reduce)
                   for t in (p.weight, p.bias)]
        want = textbook_attention(x.data, *weights[:8], heads=cfg.heads, kv_reduce=weights[8:])
        assert got.shape == (2, query_rows or cfg.tokens, 64)
        assert np.abs(got - want[:, :got.shape[1]]).max() <= 1e-12

    def test_mhsa_equals_lmf_with_shared_weights(self):
        cfg = tiny_config(kernel_scales=(), kv_reduction=1)
        net = model_init(cfg, seed=10, dtype="f64")
        x = T.uniform([2, 65, 64], seed=19, dtype="f64")
        a = lmf_mhsa(x, net.blocks[0].attn, cfg).data
        b = mhsa(x, net.blocks[0].attn, cfg.heads).data
        assert np.abs(a - b).max() <= 1e-10

    @pytest.mark.parametrize("kind", ["mhsa", "lmf_mhsa"])
    def test_rows_stochastic(self, kind):
        cfg = tiny_config(attention_kind=kind, depth=1)
        net = model_init(cfg, seed=11, dtype="f64")
        x = T.uniform([2, 65, 64], -2, 2, seed=20, dtype="f64")
        if kind == "mhsa":
            _, w = mhsa(x, net.blocks[0].attn, cfg.heads, return_weights=True)
        else:
            _, w = lmf_mhsa(x, net.blocks[0].attn, cfg, return_weights=True)
        assert np.abs(w.data.sum(-1) - 1.0).max() <= 1e-6
        assert (w.data >= 0).all()

    def test_fusion_stage_class_token_bypass(self):
        cfg = tiny_config(depth=1)
        net = model_init(cfg, seed=12, dtype="f64")
        fp = net.blocks[0].attn.fusion
        x = T.uniform([2, 65, 64], seed=21, dtype="f64")
        fused = fuse_tokens(x, fp, cfg)
        assert np.array_equal(fused.data[:, 0], x.data[:, 0])
        mutated = Tensor(x.data.copy())
        mutated.data[:, 0] -= 4.0
        fused2 = fuse_tokens(mutated, fp, cfg)
        assert np.array_equal(fused.data[:, 1:], fused2.data[:, 1:])

    def test_permutation_equivariance_without_positions(self):
        cfg = tiny_config(attention_kind="mhsa", rrcv_variant="none",
                          kernel_scales=(), kv_reduction=1, use_class_token=False, depth=1)
        net = model_init(cfg, seed=13, dtype="f64")
        x = T.uniform([1, 64, 64], seed=22, dtype="f64")
        perm = np.random.default_rng(1).permutation(64)
        out = mhsa(x, net.blocks[0].attn, cfg.heads).data
        out_p = mhsa(Tensor(x.data[:, perm]), net.blocks[0].attn, cfg.heads).data
        assert np.abs(out[:, perm] - out_p).max() <= 1e-10

    def test_reduction_exceeding_sequence_rejected(self):
        cfg = tiny_config(depth=1)
        net = model_init(cfg, seed=14, dtype="f64")
        bad = replace(cfg, kv_reduction=64)  # still <= patch tokens, but > a short test sequence
        with pytest.raises(ConfigError):
            lmf_mhsa(T.ones([1, 5, 64], "f64"), net.blocks[0].attn, bad)


class TestBlockAndModel:
    def test_residual_identity_with_zeroed_outputs(self):
        cfg = tiny_config(depth=1)
        net = model_init(cfg, seed=15, dtype="f64")
        bp = net.blocks[0]
        bp.attn.out.weight.data[:] = 0
        bp.attn.out.bias.data[:] = 0
        bp.mlp.fc2.weight.data[:] = 0
        bp.mlp.fc2.bias.data[:] = 0
        bp.rrcv.embed.weight.data[:] = 0
        bp.rrcv.embed.bias.data[:] = 0
        x = T.uniform([2, 65, 64], seed=23, dtype="f64")
        out = ct_block(x, bp, cfg)
        assert np.abs(out.data - x.data).max() <= 1e-12

    def test_block_shape_contract(self):
        cfg = tiny_config()
        net = model_init(cfg, seed=16, dtype="f64")
        x = T.uniform([2, 65, 64], seed=24, dtype="f64")
        assert ct_block(x, net.blocks[0], cfg).shape == (2, 65, 64)

    def test_shape_preservation_on_random_configs(self):
        for seed in range(20):
            cfg = random_valid_config(seed)
            net = model_init(cfg, seed=seed, dtype="f64")
            x = T.uniform([2, cfg.tokens, cfg.embed_dim], seed=seed + 100, dtype="f64")
            bp = net.blocks[0]
            if bp.rrcv is not None:
                assert rrcv_forward(x, bp.rrcv, cfg).shape == x.shape
            if cfg.attention_kind == "lmf_mhsa":
                assert lmf_mhsa(x, bp.attn, cfg).shape == x.shape
            else:
                assert mhsa(x, bp.attn, cfg.heads).shape == x.shape
            assert ct_block(x, bp, cfg).shape == x.shape

    def test_model_forward_shape_and_finiteness(self):
        cfg = tiny_config()
        net = model_init(cfg, seed=17)
        logits = model_forward(T.uniform([2, 3, 32, 32], seed=25), net)
        assert logits.shape == (2, 10)
        assert np.isfinite(logits.data).all()

    def test_same_seed_init_bit_identical(self):
        a = model_init(tiny_config(), seed=5)
        b = model_init(tiny_config(), seed=5)
        assert all(x.data.tobytes() == y.data.tobytes()
                   for x, y in zip(a.parameters(), b.parameters()))
        c = model_init(tiny_config(), seed=6)
        assert any(x.data.tobytes() != y.data.tobytes()
                   for x, y in zip(a.parameters(), c.parameters()))

    def test_mean_pool_head_without_class_token(self):
        cfg = tiny_config(use_class_token=False)
        net = model_init(cfg, seed=18)
        assert model_forward(T.uniform([2, 3, 32, 32], seed=26), net).shape == (2, 10)

    def test_no_dead_parameters(self):
        # documented exception: with a class-token head the final block's
        # conv detour writes only patch slots, so its parameters cannot
        # reach the logits; every other parameter must see gradient
        cfg = tiny_config(depth=2)
        net = model_init(cfg, seed=19, dtype="f64")
        img = T.uniform([4, 3, 32, 32], 0, 1, seed=27, dtype="f64")
        loss = nn.cross_entropy(model_forward(img, net), np.array([0, 3, 5, 9]))
        T.backward(loss)
        last_detour = f"blocks.{cfg.depth - 1}.rrcv."
        for name, p in net.named_parameters():
            if name.startswith(last_detour):
                assert p.grad is None or np.abs(p.grad).max() == 0.0, name
            else:
                assert p.grad is not None and np.abs(p.grad).max() > 0, name

    def test_no_dead_parameters_mean_pooling(self):
        # under mean pooling every parameter, detour included, is live
        cfg = tiny_config(depth=2, use_class_token=False)
        net = model_init(cfg, seed=20, dtype="f64")
        img = T.uniform([4, 3, 32, 32], 0, 1, seed=28, dtype="f64")
        loss = nn.cross_entropy(model_forward(img, net), np.array([1, 2, 4, 8]))
        T.backward(loss)
        for name, p in net.named_parameters():
            assert p.grad is not None and np.abs(p.grad).max() > 0, name

    def test_baseline_twin(self):
        twin = baseline_twin(tiny_config())
        assert (twin.embed_dim, twin.attention_kind, twin.rrcv_variant,
                twin.kernel_scales, twin.kv_reduction) == (128, "mhsa", "none", (), 1)


def full_composition(img, net):
    """Every block in full, final norm on every token, then the class row."""
    cfg = net.config
    t = patch_embed(img, net.patch_proj, net.pos_embed, net.cls_token, cfg.patch_size)
    for bp in net.blocks:
        t = ct_block(t, bp, cfg)
    t = nn.layer_norm(t, net.final_norm)
    return nn.linear(T.reshape(T.slice_(t, (slice(None), 0)), [img.shape[0], cfg.embed_dim]),
                     net.head)


class TestClassReadout:
    @pytest.mark.parametrize("kind", ["mhsa", "lmf_mhsa"])
    def test_query_rows_are_leading_rows_of_full_attention(self, kind):
        cfg = tiny_config(attention_kind=kind, depth=1)
        net = model_init(cfg, seed=21, dtype="f64")
        x = T.uniform([2, 65, 64], -1, 1, seed=30, dtype="f64")
        full = attention(x, net.blocks[0].attn, cfg).data
        for rows in (1, 3):
            part = attention(x, net.blocks[0].attn, cfg, query_rows=rows).data
            assert part.shape == (2, rows, 64)
            assert np.abs(part - full[:, :rows]).max() <= 1e-12 * np.abs(full).max()

    @pytest.mark.parametrize("kind", ["mhsa", "lmf_mhsa"])
    def test_logits_and_gradients_match_full_composition(self, kind):
        cfg = tiny_config(attention_kind=kind, depth=2)
        net = model_init(cfg, seed=22, dtype="f64")
        img = T.uniform([3, 3, 32, 32], 0, 1, seed=31, dtype="f64")
        labels = np.array([2, 5, 9])
        runs = []
        for forward in (model_forward, full_composition):
            T.zero_grads(net.parameters())
            logits = forward(img, net)
            T.backward(nn.cross_entropy(logits, labels))
            runs.append((logits.data, [np.zeros_like(p.data) if p.grad is None else p.grad
                                       for p in net.parameters()]))
        (logits, grads), (ref_logits, ref_grads) = runs
        assert np.abs(logits - ref_logits).max() <= 1e-12 * np.abs(ref_logits).max()
        # relative to the whole gradient's scale: under mhsa the K bias
        # gradient is zero in exact arithmetic (softmax is shift invariant),
        # so its own scale is round-off
        scale = max(np.abs(g).max() for g in ref_grads)
        for (name, _), g, ref in zip(net.named_parameters(), grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("use_cls", [True, False])
    def test_last_detour_is_skipped_only_with_a_class_token(self, monkeypatch, use_cls):
        count = [0]
        real = M.rrcv_forward

        def counted(*args):
            count[0] += 1
            return real(*args)

        monkeypatch.setattr(M, "rrcv_forward", counted)
        cfg = tiny_config(use_class_token=use_cls)
        model_forward(T.uniform([1, 3, 32, 32], seed=32), model_init(cfg, seed=23))
        assert count[0] == cfg.depth - (1 if use_cls else 0)
