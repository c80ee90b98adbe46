"""The CTA-Net classifier.

A ViT-style token backbone where each block can (a) swap standard
multi-head self-attention for the lightweight multi-scale variant
(depthwise multi-scale fusion in front, token-axis K/V shortening
inside), and (b) route the MLP branch through a token->feature-map->token
convolutional detour (the reverse-reconstruction stage). Both swaps are
pure configuration changes, which is what the ablation harness relies on.

Feature maps in the fusion stage and the detour are channels-last
[B, H, W, C], so 1x1 convolutions are linears over the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import nn
from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import Conv2dParams, LayerNormParams, LinearParams
from .tensor import Tensor

ATTENTION_KINDS = ("mhsa", "lmf_mhsa")
RRCV_VARIANTS = ("none", "cnn", "dwconv", "resnet")
ALLOWED_SCALES = (1, 3, 5)


@dataclass
class ModelConfig:
    image_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 4
    heads: int = 4
    mlp_ratio: int = 4
    attention_kind: str = "lmf_mhsa"
    rrcv_variant: str = "resnet"
    kernel_scales: tuple = (1, 3, 5)     # empty tuple disables the fusion stage
    kv_reduction: int = 4                # 1 keeps full-length K/V (no extra params)
    num_classes: int = 10
    use_class_token: bool = True
    rrcv_channels: Optional[int] = None  # None -> derived width, see rrcv_width
    # Reference width for the cost comparison. None compares against a
    # same-width standard-attention twin; the presets set the conventional
    # ViT width (2x) that published efficiency claims are measured against.
    baseline_dim: Optional[int] = None

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def tokens(self) -> int:
        return self.num_patches + (1 if self.use_class_token else 0)

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def reduced_tokens(self) -> int:
        return math.ceil(self.tokens / self.kv_reduction)

    @property
    def rrcv_width(self) -> int:
        """Channel width of the conv detour.

        embed_dim / patch_size^2 when that is integral, otherwise the
        largest power of two below it, floored at 4.
        """
        if self.rrcv_channels is not None:
            return self.rrcv_channels
        ratio = self.embed_dim / (self.patch_size ** 2)
        if ratio == int(ratio) and ratio >= 1:
            return int(ratio)
        return max(4, 2 ** int(math.floor(math.log2(ratio))) if ratio >= 1 else 4)

    def validate(self) -> "ModelConfig":
        if self.image_size < 1 or self.patch_size < 1 or self.image_size % self.patch_size:
            raise ConfigError(f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.embed_dim < 1 or self.embed_dim % self.heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if self.attention_kind not in ATTENTION_KINDS:
            raise ConfigError(f"attention_kind must be one of {ATTENTION_KINDS}, got {self.attention_kind!r}")
        if self.rrcv_variant not in RRCV_VARIANTS:
            raise ConfigError(f"rrcv_variant must be one of {RRCV_VARIANTS}, got {self.rrcv_variant!r}")
        for s in self.kernel_scales:
            if s not in ALLOWED_SCALES:
                raise ConfigError(f"kernel scale must be in {ALLOWED_SCALES}, got {s}")
        if len(set(self.kernel_scales)) != len(self.kernel_scales):
            raise ConfigError(f"duplicate kernel scales {self.kernel_scales}")
        if self.kv_reduction < 1:
            raise ConfigError(f"kv_reduction must be >= 1, got {self.kv_reduction}")
        if self.kv_reduction > self.num_patches:
            raise ConfigError(
                f"kv_reduction {self.kv_reduction} exceeds patch-token count {self.num_patches}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        return self


def tiny_config(**overrides) -> ModelConfig:
    """Desk-scale preset used by tests and CI runs."""
    base = dict(image_size=32, patch_size=4, embed_dim=64, depth=4, heads=4,
                baseline_dim=128)
    base.update(overrides)
    return ModelConfig(**base).validate()


def paper_config(**overrides) -> ModelConfig:
    """Full-scale preset: 224px, patch 16, depth 8, heads 8.

    embed_dim=384 and kv_reduction=4 are calibration knobs, as is
    baseline_dim=768 (the conventional ViT width the efficiency
    comparison is measured against).
    """
    base = dict(image_size=224, patch_size=16, embed_dim=384, depth=8, heads=8,
                kv_reduction=4, baseline_dim=768)
    base.update(overrides)
    return ModelConfig(**base).validate()


# --------------------------------------------------------------------------
# parameter containers
# --------------------------------------------------------------------------

@dataclass
class FusionParams:
    scales: tuple
    branches: list          # one depthwise Conv2dParams per scale
    reduce: Conv2dParams    # 1x1, |scales|*C -> C


@dataclass
class AttentionParams:
    q: LinearParams
    k: LinearParams
    v: LinearParams
    out: LinearParams
    fusion: Optional[FusionParams] = None
    k_reduce: Optional[LinearParams] = None   # token axis, T -> ceil(T/r)
    v_reduce: Optional[LinearParams] = None


@dataclass
class RrcvParams:
    variant: str
    re: LinearParams        # token dim -> C * patch^2
    body: list              # conv stack, layout depends on variant
    pconv: Conv2dParams     # 1x1 after the body
    embed: LinearParams     # C * patch^2 -> token dim


@dataclass
class MlpParams:
    fc1: LinearParams
    fc2: LinearParams


@dataclass
class BlockParams:
    ln1: LayerNormParams
    attn: AttentionParams
    ln2: LayerNormParams
    rrcv: Optional[RrcvParams]
    mlp: MlpParams


@dataclass
class CtaNet:
    config: ModelConfig
    patch_proj: LinearParams
    pos_embed: Tensor
    cls_token: Optional[Tensor]
    blocks: list
    final_norm: LayerNormParams
    head: LinearParams

    def named_parameters(self):
        """Stable (name, tensor) enumeration; checkpoint order is this order."""
        out = []

        def lin(prefix, p: LinearParams):
            out.append((prefix + ".weight", p.weight))
            if p.bias is not None:
                out.append((prefix + ".bias", p.bias))

        def conv(prefix, p: Conv2dParams):
            out.append((prefix + ".weight", p.weight))
            if p.bias is not None:
                out.append((prefix + ".bias", p.bias))

        def ln(prefix, p: LayerNormParams):
            out.append((prefix + ".gamma", p.gamma))
            out.append((prefix + ".beta", p.beta))

        lin("patch_proj", self.patch_proj)
        out.append(("pos_embed", self.pos_embed))
        if self.cls_token is not None:
            out.append(("cls_token", self.cls_token))
        for i, b in enumerate(self.blocks):
            pre = f"blocks.{i}"
            ln(f"{pre}.ln1", b.ln1)
            for nm in ("q", "k", "v", "out"):
                lin(f"{pre}.attn.{nm}", getattr(b.attn, nm))
            if b.attn.fusion is not None:
                for s, bp in zip(b.attn.fusion.scales, b.attn.fusion.branches):
                    conv(f"{pre}.attn.fusion.k{s}", bp)
                conv(f"{pre}.attn.fusion.reduce", b.attn.fusion.reduce)
            if b.attn.k_reduce is not None:
                lin(f"{pre}.attn.k_reduce", b.attn.k_reduce)
                lin(f"{pre}.attn.v_reduce", b.attn.v_reduce)
            ln(f"{pre}.ln2", b.ln2)
            if b.rrcv is not None:
                lin(f"{pre}.rrcv.re", b.rrcv.re)
                for j, cp in enumerate(b.rrcv.body):
                    conv(f"{pre}.rrcv.body{j}", cp)
                conv(f"{pre}.rrcv.pconv", b.rrcv.pconv)
                lin(f"{pre}.rrcv.embed", b.rrcv.embed)
            lin(f"{pre}.mlp.fc1", b.mlp.fc1)
            lin(f"{pre}.mlp.fc2", b.mlp.fc2)
        ln("final_norm", self.final_norm)
        lin("head", self.head)
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def param_count(self) -> int:
        return sum(t.size for t in self.parameters())


# --------------------------------------------------------------------------
# token / feature-map plumbing
# --------------------------------------------------------------------------

def extract_patches(img: Tensor, patch: int) -> Tensor:
    """[B, H, W, C] -> [B, N, C*patch^2], row-major grid, channel-major patches."""
    B, H, W, C = img.shape
    if H % patch or W % patch:
        raise ShapeError(f"image {H}x{W} not divisible by patch {patch}")
    gh, gw = H // patch, W // patch
    x = T.reshape(img, [B, gh, patch, gw, patch, C])
    x = T.permute(x, (0, 1, 3, 5, 2, 4))
    return T.reshape(x, [B, gh * gw, C * patch * patch])


def patchify_map(x: Tensor, hp: int, wp: int) -> Tensor:
    """[B, C, H, W] -> [B, C, N, hp, wp]; exact inverse of reconstruct."""
    B, C, H, W = x.shape
    if H % hp or W % wp:
        raise ShapeError(f"map {H}x{W} not divisible by patch {hp}x{wp}")
    gh, gw = H // hp, W // wp
    y = T.reshape(x, [B, C, gh, hp, gw, wp])
    y = T.permute(y, (0, 1, 2, 4, 3, 5))
    return T.reshape(y, [B, C, gh * gw, hp, wp])


def reconstruct(patches: Tensor, H: int, W: int) -> Tensor:
    """[B, C, N, hp, wp] -> [B, C, H, W] by tiling the row-major patch grid."""
    B, C, N, hp, wp = patches.shape
    if N * hp * wp != H * W:
        raise ShapeError(f"{N} patches of {hp}x{wp} cannot tile {H}x{W}")
    if H % hp or W % wp or (H // hp) * (W // wp) != N:
        raise ShapeError(f"patch grid for {H}x{W} at {hp}x{wp} does not hold {N} patches")
    gh, gw = H // hp, W // wp
    y = T.reshape(patches, [B, C, gh, gw, hp, wp])
    y = T.permute(y, (0, 1, 2, 4, 3, 5))
    return T.reshape(y, [B, C, H, W])


def patch_embed(img: Tensor, proj: LinearParams, pos: Optional[Tensor],
                cls_token: Optional[Tensor], patch: int) -> Tensor:
    """Project non-overlapping patches, prepend the class token, add positions."""
    B, C, H, W = img.shape
    if H != W:
        raise ShapeError(f"expected a square image, got {H}x{W}")
    tokens = nn.linear(extract_patches(T.permute(img, (0, 2, 3, 1)), patch), proj)
    if cls_token is not None:
        D = tokens.shape[-1]
        cls = T.expand(T.reshape(cls_token, [1, 1, D]), [B, 1, D])
        tokens = T.concat([cls, tokens], axis=1)
    if pos is not None:
        if pos.shape[0] != tokens.shape[1]:
            raise ShapeError(f"positional table covers {pos.shape[0]} tokens, sequence has {tokens.shape[1]}")
        tokens = T.add(tokens, pos)
    return tokens


def _split_cls(x: Tensor, has_cls: bool):
    if not has_cls:
        return None, x
    cls, rest = T.split(x, [1, x.shape[1] - 1], axis=1)
    return cls, rest


def reverse_embed(x: Tensor, re: LinearParams, cfg: ModelConfig) -> Tensor:
    """Tokens back to a channels-last map [B, H, W, C]: drop cls, per-token
    linear to a channel-major C*p*p patch, tile the row-major grid."""
    _, pt = _split_cls(x, cfg.use_class_token)
    B = pt.shape[0]
    g, p, C = cfg.grid, cfg.patch_size, cfg.rrcv_width
    y = T.reshape(nn.linear(pt, re), [B, g, g, C, p, p])
    y = T.permute(y, (0, 1, 4, 2, 5, 3))        # [B, g, p, g, p, C]
    return T.reshape(y, [B, g * p, g * p, C])


# --------------------------------------------------------------------------
# multi-scale fusion and attention
# --------------------------------------------------------------------------

def multi_scale_fuse(x: Tensor, fp: FusionParams) -> Tensor:
    """Depthwise conv per scale on a channels-last map [B, H, W, C], then the
    1x1 reduction of the branches' channel concatenation back to C (computed
    as a sum over the branches, without the concatenation)."""
    if not fp.scales:
        raise ConfigError("multi_scale_fuse needs at least one scale")
    return nn.pointwise_nhwc([nn.conv2d_nhwc(x, bp) for bp in fp.branches], fp.reduce)


def mhsa(x: Tensor, ap: AttentionParams, heads: int, return_weights: bool = False,
         query_rows: Optional[int] = None):
    """Multi-head self-attention of the first `query_rows` tokens (all when
    None) over the whole sequence; the one attention core of both kinds.

    K and V leave their projections as [B, D, S] with one permute each and
    split D into heads as a view, [B, h, dk, S]; when `ap.k_reduce` is set
    they are shortened there along the token axis. K is then the right
    operand of the scores as it stands. Shortening after the head split
    keeps V's gradient in head layout up to the reduce's backward, which
    gathers it into a temporary rather than a buffer the tape holds.
    """
    B, S, D = x.shape
    if D % heads:
        raise ConfigError(f"embed dim {D} not divisible by heads {heads}")
    dk = D // heads
    Sq = S if query_rows is None else query_rows

    xq = x if query_rows is None else T.slice_(x, (slice(None), slice(0, Sq)))
    q = T.permute(T.reshape(nn.linear(xq, ap.q), [B, Sq, heads, dk]), (0, 2, 1, 3))
    k = T.reshape(T.permute(nn.linear(x, ap.k), (0, 2, 1)), [B, heads, dk, S])
    v = T.reshape(T.permute(nn.linear(x, ap.v), (0, 2, 1)), [B, heads, dk, S])
    if ap.k_reduce is not None:
        k = nn.linear(k, ap.k_reduce)                     # [B, h, dk, S_r]
        v = nn.linear(v, ap.v_reduce)
    v = T.permute(v, (0, 1, 3, 2))

    scores = T.scale(T.matmul(q, k), 1.0 / math.sqrt(dk))
    weights = T.softmax(scores, axis=-1)
    ctx = T.matmul(weights, v)                        # [B, h, Sq, dk]
    ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), [B, Sq, D])
    y = nn.linear(ctx, ap.out)
    return (y, weights) if return_weights else y


def fuse_tokens(x: Tensor, fusion: FusionParams, cfg: ModelConfig) -> Tensor:
    """Fusion stage of the lightweight attention: patch tokens pass through
    the multi-scale convolution on their spatial grid, the class token
    bypasses untouched."""
    B, _, D = x.shape
    cls, pt = _split_cls(x, cfg.use_class_token)
    g = cfg.grid
    pt = T.reshape(multi_scale_fuse(T.reshape(pt, [B, g, g, D]), fusion), [B, g * g, D])
    return pt if cls is None else T.concat([cls, pt], axis=1)


def lmf_mhsa(x: Tensor, ap: AttentionParams, cfg: ModelConfig, return_weights: bool = False,
             query_rows: Optional[int] = None):
    """The fusion stage when present (the class token skips it), then `mhsa`,
    which shortens K and V along the token axis when `ap.k_reduce` is set."""
    S = x.shape[1]
    if cfg.kv_reduction > S:
        raise ConfigError(f"kv_reduction {cfg.kv_reduction} exceeds sequence length {S}")
    if ap.fusion is not None:
        x = fuse_tokens(x, ap.fusion, cfg)
    return mhsa(x, ap, cfg.heads, return_weights, query_rows)


def attention(x: Tensor, ap: AttentionParams, cfg: ModelConfig, return_weights: bool = False,
              query_rows: Optional[int] = None):
    """The configured attention kind; `query_rows` limits the queries (and
    the output rows) to the leading tokens."""
    if cfg.attention_kind == "mhsa":
        return mhsa(x, ap, cfg.heads, return_weights, query_rows)
    return lmf_mhsa(x, ap, cfg, return_weights, query_rows)


# --------------------------------------------------------------------------
# the reverse-reconstruction conv detour
# --------------------------------------------------------------------------

def rrcv_forward(x: Tensor, rp: RrcvParams, cfg: ModelConfig) -> Tensor:
    """Tokens -> feature map -> conv body -> 1x1 -> tokens, class token bypassing.

    The caller (the block) wires the output into its residual MLP branch.
    """
    if rp.variant not in ("cnn", "dwconv", "resnet"):
        raise ConfigError(f"unknown conv variant {rp.variant!r}")
    cls, _ = _split_cls(x, cfg.use_class_token)
    f = reverse_embed(x, rp.re, cfg)

    if rp.variant == "cnn":
        h = nn.conv2d_nhwc(f, rp.body[0])
        h = nn.gelu(h)
        h = nn.conv2d_nhwc(h, rp.body[1])
    elif rp.variant == "dwconv":
        h = nn.pointwise_nhwc([nn.conv2d_nhwc(f, rp.body[0])], rp.body[1])
        h = nn.gelu(h)
        h = nn.pointwise_nhwc([nn.conv2d_nhwc(h, rp.body[2])], rp.body[3])
    else:  # resnet: conv-act-conv plus the identity skip, no activation after the sum
        h = nn.conv2d_nhwc(f, rp.body[0])
        h = nn.gelu(h)
        h = nn.conv2d_nhwc(h, rp.body[1])
        h = T.add(h, f)

    h = nn.pointwise_nhwc([h], rp.pconv)
    tokens = nn.linear(extract_patches(h, cfg.patch_size), rp.embed)
    return tokens if cls is None else T.concat([cls, tokens], axis=1)


def mlp_forward(x: Tensor, mp: MlpParams) -> Tensor:
    return nn.linear(nn.gelu(nn.linear(x, mp.fc1)), mp.fc2)


def ct_block(x: Tensor, bp: BlockParams, cfg: ModelConfig) -> Tensor:
    """norm -> attention -> residual, then norm -> conv detour -> MLP -> residual."""
    a = attention(nn.layer_norm(x, bp.ln1), bp.attn, cfg)
    x = T.add(x, a)
    b = nn.layer_norm(x, bp.ln2)
    if bp.rrcv is not None:
        b = rrcv_forward(b, bp.rrcv, cfg)
    b = mlp_forward(b, bp.mlp)
    return T.add(x, b)


def cls_readout(x: Tensor, bp: BlockParams, cfg: ModelConfig) -> Tensor:
    """The class-token row [B, 1, D] of ct_block(x, bp, cfg).

    K and V (with the fusion stage and the token-axis reduce) still see
    every token; the query, softmax row, output projection, residuals, ln2
    and MLP run for the class row alone. The conv detour is skipped: it
    passes the class token through untouched.
    """
    a = attention(nn.layer_norm(x, bp.ln1), bp.attn, cfg, query_rows=1)
    x = T.add(T.slice_(x, (slice(None), slice(0, 1))), a)
    return T.add(x, mlp_forward(nn.layer_norm(x, bp.ln2), bp.mlp))


# --------------------------------------------------------------------------
# whole model
# --------------------------------------------------------------------------

def model_init(cfg: ModelConfig, seed: int = 0, dtype: str = "f32") -> CtaNet:
    """Deterministically build a model; identical seeds give identical weights."""
    cfg.validate()
    D, p = cfg.embed_dim, cfg.patch_size
    counter = [0]

    def next_seed() -> int:
        counter[0] += 1
        return T.fold_seed(seed, counter[0])

    def lin(i, o):
        return nn.linear_init(i, o, seed=next_seed(), dtype=dtype)

    def conv(i, o, k, groups=1):
        return nn.conv2d_init(i, o, k, padding=nn.same_padding(k), groups=groups,
                              seed=next_seed(), dtype=dtype)

    patch_proj = lin(3 * p * p, D)
    pos = T.uniform([cfg.tokens, D], -0.02, 0.02, seed=next_seed(), dtype=dtype, requires_grad=True)
    cls = (T.uniform([D], -0.02, 0.02, seed=next_seed(), dtype=dtype, requires_grad=True)
           if cfg.use_class_token else None)

    blocks = []
    for _ in range(cfg.depth):
        use_lmf = cfg.attention_kind == "lmf_mhsa"
        fusion = None
        if use_lmf and cfg.kernel_scales:
            branches = [conv(D, D, s, groups=D) for s in cfg.kernel_scales]
            reduce = conv(len(cfg.kernel_scales) * D, D, 1)
            fusion = FusionParams(tuple(cfg.kernel_scales), branches, reduce)
        k_red = v_red = None
        if use_lmf and cfg.kv_reduction > 1:
            k_red = lin(cfg.tokens, cfg.reduced_tokens)
            v_red = lin(cfg.tokens, cfg.reduced_tokens)
        attn = AttentionParams(q=lin(D, D), k=lin(D, D), v=lin(D, D), out=lin(D, D),
                               fusion=fusion, k_reduce=k_red, v_reduce=v_red)

        rrcv = None
        if cfg.rrcv_variant != "none":
            C = cfg.rrcv_width
            if cfg.rrcv_variant == "dwconv":
                body = [conv(C, C, 3, groups=C), conv(C, C, 1),
                        conv(C, C, 3, groups=C), conv(C, C, 1)]
            else:
                body = [conv(C, C, 3), conv(C, C, 3)]
            rrcv = RrcvParams(cfg.rrcv_variant, re=lin(D, C * p * p), body=body,
                              pconv=conv(C, C, 1), embed=lin(C * p * p, D))

        blocks.append(BlockParams(
            ln1=nn.layer_norm_init(D, dtype=dtype),
            attn=attn,
            ln2=nn.layer_norm_init(D, dtype=dtype),
            rrcv=rrcv,
            mlp=MlpParams(fc1=lin(D, cfg.mlp_ratio * D), fc2=lin(cfg.mlp_ratio * D, D)),
        ))

    return CtaNet(
        config=cfg,
        patch_proj=patch_proj,
        pos_embed=pos,
        cls_token=cls,
        blocks=blocks,
        final_norm=nn.layer_norm_init(D, dtype=dtype),
        head=lin(D, cfg.num_classes),
    )


def model_forward(img: Tensor, net: CtaNet) -> Tensor:
    """Image batch [B, 3, H, W] to logits [B, num_classes].

    With a class-token head the last block runs as `cls_readout`, which
    computes only the class row the head reads; the logits match the full
    block up to GEMM round-off. Known structural consequence: the conv
    detour only writes patch-token slots, so the final block's detour
    parameters cannot reach the head and get no gradient (`None`); under
    mean pooling every block runs in full and they do. `costs.count_costs`
    still counts the full final block, as the paper's FLOP figure does.
    """
    cfg = net.config
    B, C, H, W = img.shape
    if C != 3 or H != cfg.image_size or W != cfg.image_size:
        raise ShapeError(f"expected [B, 3, {cfg.image_size}, {cfg.image_size}], got {list(img.shape)}")
    t = patch_embed(img, net.patch_proj, net.pos_embed, net.cls_token, cfg.patch_size)
    if not cfg.use_class_token:
        for bp in net.blocks:
            t = ct_block(t, bp, cfg)
        return nn.linear(T.reduce_mean(nn.layer_norm(t, net.final_norm), axis=1), net.head)
    *body, last = net.blocks
    for bp in body:
        t = ct_block(t, bp, cfg)
    feat = nn.layer_norm(cls_readout(t, last, cfg), net.final_norm)
    return nn.linear(T.reshape(feat, [B, cfg.embed_dim]), net.head)


def baseline_twin(cfg: ModelConfig) -> ModelConfig:
    """The standard-attention reference this config is compared against.

    Same shape except: plain attention, no conv detour, no fusion, no K/V
    shortening, and the configured baseline width (own width if unset).
    """
    return replace(
        cfg,
        embed_dim=cfg.baseline_dim or cfg.embed_dim,
        attention_kind="mhsa",
        rrcv_variant="none",
        kernel_scales=(),
        kv_reduction=1,
        baseline_dim=None,
        rrcv_channels=None,
    ).validate()
