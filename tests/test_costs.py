"""Analytic cost model: exactness, conventions, monotonicity, comparisons."""

from dataclasses import replace

import pytest

from conftest import random_valid_config
from ctanet.costs import compare_attention_costs, conv_macs, count_costs, count_params, emit_table
from ctanet.errors import ConfigError
from ctanet.model import ModelConfig, model_init, paper_config, tiny_config


class TestParamExactness:
    @pytest.mark.parametrize("cfg", [
        tiny_config(),
        tiny_config(attention_kind="mhsa", kernel_scales=(), kv_reduction=1, rrcv_variant="none"),
        tiny_config(rrcv_variant="dwconv"),
        tiny_config(rrcv_variant="cnn", use_class_token=False),
        paper_config(),
    ], ids=["tiny", "plain-vit", "dwconv", "cnn-nocls", "paper"])
    def test_formula_matches_enumeration(self, cfg):
        assert count_params(cfg).total_params == model_init(cfg, seed=0).param_count()

    def test_thirty_random_configs(self):
        for seed in range(30):
            cfg = random_valid_config(seed)
            formula = count_params(cfg).total_params
            instance = model_init(cfg, seed=seed).param_count()
            assert formula == instance, (seed, cfg)

    def test_linear_param_arithmetic(self):
        from ctanet.costs import _linear_params
        assert _linear_params(4, 5) == 25


class TestFlopConventions:
    def test_linear_mac_convention(self):
        # 2 tokens through a 4 -> 5 map: 40 MACs, 80 FLOPs
        macs = conv_macs(out_elems=2 * 5, in_ch=4, k=1)
        assert macs == 40
        cfg = ModelConfig(image_size=2, patch_size=1, embed_dim=4, heads=1,
                          kv_reduction=1, num_classes=5, use_class_token=False,
                          attention_kind="mhsa", rrcv_variant="none", kernel_scales=())
        rep = count_costs(cfg)
        head = next(r for r in rep.rows if r.name == "head")
        assert head.macs == 4 * 5 and head.flops == 2 * head.macs

    def test_pointwise_conv_equals_linear_over_pixels(self):
        # a 1x1 conv over h*w pixels counts exactly like a linear over tokens
        assert conv_macs(out_elems=7 * 6 * 10, in_ch=3, k=1) == 7 * 6 * 10 * 3

    def test_batch_scaling(self):
        cfg = tiny_config()
        assert count_costs(cfg, batch=4).total_macs == 4 * count_costs(cfg, batch=1).total_macs
        assert count_params(cfg).total_params == count_costs(cfg, batch=4).total_params

    def test_monotone_in_image_depth_dim(self):
        base = tiny_config()
        fl = lambda c: count_costs(c).total_macs
        assert fl(tiny_config(image_size=64)) >= fl(base)
        assert fl(tiny_config(depth=6)) >= fl(base)
        assert fl(tiny_config(embed_dim=128)) >= fl(base)

    def test_score_macs_scale_with_reduction(self):
        cfg = tiny_config()
        lmf = count_costs(cfg)
        base = count_costs(replace(cfg, attention_kind="mhsa", kv_reduction=1, kernel_scales=()))
        s_lmf = next(r for r in lmf.rows if r.name == "blocks.0.attn.scores").macs
        s_mhsa = next(r for r in base.rows if r.name == "blocks.0.attn.scores").macs
        Tt, Tr = cfg.tokens, cfg.reduced_tokens
        assert s_lmf == Tt * Tr * cfg.embed_dim
        assert s_mhsa == Tt * Tt * cfg.embed_dim
        # the reduced score cost is the full cost divided by ~r (ceil granularity)
        assert s_lmf == s_mhsa * Tr / Tt
        assert abs(s_lmf / s_mhsa - 1 / cfg.kv_reduction) < 0.05


class TestComparisons:
    def test_self_comparison_is_zero(self):
        cfg = ModelConfig(attention_kind="mhsa", rrcv_variant="none",
                          kernel_scales=(), kv_reduction=1)
        p, f = compare_attention_costs(cfg)
        assert abs(p) < 1e-9 and abs(f) < 1e-9

    def test_tiny_preset_reductions_positive_for_r_ge_2(self):
        prev_p, prev_f = None, None
        for r in (2, 4, 8, 16):
            p, f = compare_attention_costs(tiny_config(kv_reduction=r))
            assert p > 0 and f > 0, r
            if prev_p is not None:   # closed-form monotone in r
                assert p >= prev_p and f >= prev_f
            prev_p, prev_f = p, f

    def test_paper_shape_meets_reduction_targets(self):
        p, f = compare_attention_costs(paper_config())
        assert p >= 55.0
        assert f >= 65.0

    def test_lmf_params_below_reference(self):
        for r in (2, 4):
            cfg = tiny_config(kv_reduction=r, rrcv_variant="none")
            lmf = count_params(cfg).total_params
            from ctanet.model import baseline_twin
            ref = count_params(baseline_twin(cfg)).total_params
            assert lmf < ref


class TestEmitTable:
    def test_text_header_and_totals(self):
        rep = count_costs(tiny_config())
        text = emit_table(rep)
        lines = text.splitlines()
        assert lines[1].startswith("layer")
        assert lines[-1].startswith("total")

    def test_csv_round_trip(self):
        rep = count_costs(tiny_config())
        csv = emit_table(rep, "csv")
        lines = csv.strip().splitlines()
        assert lines[0] == "layer,params,macs,flops"
        body = [line.split(",") for line in lines[1:]]
        totals = body[-1]
        assert totals[0] == "total"
        assert int(totals[1]) == sum(int(r[1]) for r in body[:-1])
        assert int(totals[2]) == sum(int(r[2]) for r in body[:-1])
        assert int(totals[3]) == 2 * int(totals[2])
        assert int(totals[1]) == rep.total_params

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_table(count_costs(tiny_config()), "yaml")

    def test_list_of_reports(self):
        text = emit_table([count_costs(tiny_config()), count_costs(paper_config())])
        assert text.count("# cost[") == 2
