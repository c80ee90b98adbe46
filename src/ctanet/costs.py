"""Closed-form parameter and FLOP accounting over a ModelConfig.

One walk of the architecture produces per-layer rows carrying exact
integer parameter counts and multiply-accumulate counts for a forward
pass. Parameter totals are cross-checked elsewhere against the element
counts of an instantiated model; the two must agree exactly.

Counting convention:
- one MAC = one multiply-accumulate of a weight application; bias adds
  are not MACs;
- FLOPs = 2 * MACs (both are reported, because published counts mix the
  two conventions);
- normalization, softmax, activation and residual arithmetic is tallied
  separately as "elementwise" FLOPs and excluded from the MAC headline.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .model import ModelConfig, baseline_twin

# documented per-element flop charges for non-MAC work
_ELEM_LAYERNORM = 8
_ELEM_SOFTMAX = 5
_ELEM_GELU = 10
_ELEM_ADD = 1


@dataclass
class CostRow:
    name: str
    params: int = 0
    macs: int = 0
    elementwise_flops: int = 0

    @property
    def flops(self) -> int:
        return 2 * self.macs


@dataclass
class CostReport:
    title: str
    rows: list = field(default_factory=list)
    batch: int = 1
    convention: str = "1 MAC = 2 FLOPs; elementwise work tallied separately"

    def add(self, name: str, params: int = 0, macs: int = 0, elementwise_flops: int = 0):
        self.rows.append(CostRow(name, int(params), int(macs), int(elementwise_flops)))

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    @property
    def total_elementwise_flops(self) -> int:
        return sum(r.elementwise_flops for r in self.rows)


def _linear_params(i: int, o: int, bias: bool = True) -> int:
    return o * i + (o if bias else 0)


def _conv_params(i: int, o: int, k: int, groups: int = 1, bias: bool = True) -> int:
    return o * (i // groups) * k * k + (o if bias else 0)


def conv_macs(out_elems: int, in_ch: int, k: int, groups: int = 1) -> int:
    return out_elems * (in_ch // groups) * k * k


def count_costs(cfg: ModelConfig, batch: int = 1) -> CostReport:
    """Per-layer parameters and MACs for one forward pass at `batch`."""
    cfg.validate()
    B = batch
    D, p, T, N = cfg.embed_dim, cfg.patch_size, cfg.tokens, cfg.num_patches
    use_lmf = cfg.attention_kind == "lmf_mhsa"
    reduced = use_lmf and cfg.kv_reduction > 1
    Tr = cfg.reduced_tokens if reduced else T
    rep = CostReport(title=f"cost[{cfg.attention_kind}, rrcv={cfg.rrcv_variant}, "
                           f"D={D}, depth={cfg.depth}]", batch=batch)

    rep.add("patch_proj", params=_linear_params(3 * p * p, D), macs=B * N * (3 * p * p) * D)
    rep.add("pos_embed", params=T * D, elementwise_flops=_ELEM_ADD * B * T * D)
    if cfg.use_class_token:
        rep.add("cls_token", params=D)

    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        rep.add(f"{pre}.ln1", params=2 * D, elementwise_flops=_ELEM_LAYERNORM * B * T * D)
        if use_lmf and cfg.kernel_scales:
            branch_p = sum(_conv_params(D, D, s, groups=D) for s in cfg.kernel_scales)
            branch_m = sum(conv_macs(B * D * N, D, s, groups=D) for s in cfg.kernel_scales)
            reduce_p = _conv_params(len(cfg.kernel_scales) * D, D, 1)
            reduce_m = conv_macs(B * D * N, len(cfg.kernel_scales) * D, 1)
            rep.add(f"{pre}.attn.fusion", params=branch_p + reduce_p, macs=branch_m + reduce_m)
        rep.add(f"{pre}.attn.qkv", params=3 * _linear_params(D, D), macs=3 * B * T * D * D)
        if reduced:
            rep.add(f"{pre}.attn.kv_reduce", params=2 * _linear_params(T, Tr),
                    macs=2 * B * D * T * Tr)
        rep.add(f"{pre}.attn.scores", macs=B * T * Tr * D,
                elementwise_flops=_ELEM_SOFTMAX * B * cfg.heads * T * Tr)
        rep.add(f"{pre}.attn.weighted_sum", macs=B * T * Tr * D)
        rep.add(f"{pre}.attn.out", params=_linear_params(D, D), macs=B * T * D * D,
                elementwise_flops=_ELEM_ADD * B * T * D)  # residual
        rep.add(f"{pre}.ln2", params=2 * D, elementwise_flops=_ELEM_LAYERNORM * B * T * D)
        if cfg.rrcv_variant != "none":
            C = cfg.rrcv_width
            pix = N * p * p
            params = _linear_params(D, C * p * p) + _linear_params(C * p * p, D)
            macs = 2 * B * N * D * (C * p * p)
            if cfg.rrcv_variant == "dwconv":
                params += 2 * (_conv_params(C, C, 3, groups=C) + _conv_params(C, C, 1))
                macs += 2 * (conv_macs(B * C * pix, C, 3, groups=C) + conv_macs(B * C * pix, C, 1))
            else:
                params += 2 * _conv_params(C, C, 3)
                macs += 2 * conv_macs(B * C * pix, C, 3)
            params += _conv_params(C, C, 1)
            macs += conv_macs(B * C * pix, C, 1)
            elem = _ELEM_GELU * B * C * pix
            if cfg.rrcv_variant == "resnet":
                elem += _ELEM_ADD * B * C * pix
            rep.add(f"{pre}.rrcv", params=params, macs=macs, elementwise_flops=elem)
        rep.add(f"{pre}.mlp",
                params=_linear_params(D, cfg.mlp_ratio * D) + _linear_params(cfg.mlp_ratio * D, D),
                macs=2 * B * T * D * (cfg.mlp_ratio * D),
                elementwise_flops=_ELEM_GELU * B * T * cfg.mlp_ratio * D + _ELEM_ADD * B * T * D)

    rep.add("final_norm", params=2 * D, elementwise_flops=_ELEM_LAYERNORM * B * T * D)
    rep.add("head", params=_linear_params(D, cfg.num_classes), macs=B * D * cfg.num_classes)
    return rep


def count_params(cfg: ModelConfig) -> CostReport:
    """Per-layer parameter counts; must equal instance enumeration exactly."""
    return count_costs(cfg, batch=1)


def compare_attention_costs(cfg: ModelConfig, batch: int = 1):
    """(param_reduction_pct, flop_reduction_pct) of the multi-scale reduced
    attention model against its standard-attention reference.

    Both sides run without the conv detour so the comparison isolates the
    attention mechanism. The reference width is cfg.baseline_dim (its own
    width when unset, which makes a plain self-comparison come out at ~0%).
    """
    lmf_cfg = replace(cfg, attention_kind="lmf_mhsa", rrcv_variant="none").validate()
    base_cfg = baseline_twin(cfg)
    p_lmf, p_base = count_costs(lmf_cfg).total_params, count_costs(base_cfg).total_params
    f_lmf, f_base = count_costs(lmf_cfg, batch).total_macs, count_costs(base_cfg, batch).total_macs
    return (100.0 * (1.0 - p_lmf / p_base), 100.0 * (1.0 - f_lmf / f_base))


def emit_table(report, fmt: str = "aligned-text") -> str:
    """Render one report (or a list of them) as aligned text or CSV."""
    if isinstance(report, (list, tuple)):
        return "\n".join(emit_table(r, fmt) for r in report)
    if fmt == "csv":
        out = io.StringIO()
        out.write("layer,params,macs,flops\n")
        for r in report.rows:
            out.write(f"{r.name},{r.params},{r.macs},{r.flops}\n")
        out.write(f"total,{report.total_params},{report.total_macs},{report.total_flops}\n")
        return out.getvalue()
    if fmt != "aligned-text":
        raise ConfigError(f"unknown table format {fmt!r}")
    rows = [("layer", "params", "macs", "flops", "elem_flops")]
    for r in report.rows:
        rows.append((r.name, str(r.params), str(r.macs), str(r.flops), str(r.elementwise_flops)))
    rows.append(("total", str(report.total_params), str(report.total_macs),
                 str(report.total_flops), str(report.total_elementwise_flops)))
    widths = [max(len(row[c]) for row in rows) for c in range(5)]
    lines = [f"# {report.title}  (batch={report.batch}; {report.convention})"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) if c == 0 else cell.rjust(w)
                               for c, (cell, w) in enumerate(zip(row, widths))))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def human_count(n: float) -> str:
    for unit, div in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(n) >= div:
            return f"{n / div:.2f}{unit}"
    return str(int(n))
