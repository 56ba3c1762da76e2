"""1D vision transformer for ECG windows: patch embedding, class token,
post-norm encoder layers with stochastic depth, and a linear head whose class
logits `forward` returns; the loss and probabilities are the caller's.

With hidden_dim=256 and 6 heads the per-head width is floor(256/6)=42, so the
concatenated heads span 252 dims and the output projection maps 252 -> 256.
A convolutional patch embedding whose kernel and step both equal patch_size
is identical to flattening each patch and applying one linear projection,
which is how it is implemented here.

An encoder layer that keeps both branches records ten autodiff nodes: the
q, k and v projections, one `autodiff.attention` node for the heads, the
output projection, two `autodiff.layer_norm` nodes that each add their
residual branch times its factor, and the two biased FFN linears around a
GELU. Stochastic depth is all in the factors: `draw_keep` gives each branch
of a training step 1/p if it survives and 0.0 (no branch) if not, and
inference runs every branch at 1.0.

The head reads only the class token, so `forward` runs the last layer on that
row alone: one `autodiff.index` node takes it as [B, 1, D], and the query
projection, the attention output, both layer norms and the FFN see only it,
while the keys and values still span every token. The head's own `index` then
drops the token axis. Removing either index would need a second shape path
through `attention` or the head, so with the embed's four, the class-token
row, the head's two and the loss, a training forward and its loss tape
10·n_layers + 8 nodes (`training.train_step` scales that loss: one node more).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import Tensor


@dataclass(frozen=True)
class VitHParams:
    """The model settings a run config sets; cli.RunConfig inherits them."""
    seq_len: int = 2000
    patch_size: int = 20
    hidden_dim: int = 256
    n_layers: int = 6
    n_heads: int = 6
    mlp_dim: int = 128
    survival_prob: float = 0.8
    ln_eps: float = 1e-6


@dataclass(frozen=True)
class VitConfig(VitHParams):
    n_classes: int = 2

    def __post_init__(self):
        for name in ("seq_len", "patch_size", "hidden_dim", "n_layers", "n_heads",
                     "mlp_dim", "n_classes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name!r} must be positive")
        if self.hidden_dim < 2:
            raise ValueError(f"config field 'hidden_dim' must be at least 2, the width "
                             f"layer_norm standardizes over, got {self.hidden_dim}")
        if self.seq_len % self.patch_size != 0:
            raise ValueError(f"config field 'seq_len' must be a multiple of config field "
                             f"'patch_size', got {self.seq_len} and {self.patch_size}")
        if self.head_dim < 1:
            raise ValueError(f"config field 'hidden_dim' must be at least config field "
                             f"'n_heads', got {self.hidden_dim} and {self.n_heads}")
        if not (0.0 < self.survival_prob <= 1.0):
            raise ValueError("config field 'survival_prob' must be in (0, 1]")

    @property
    def n_patches(self) -> int:
        return self.seq_len // self.patch_size

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads


@dataclass
class ForwardArtifacts:
    logits: Tensor                      # [B, K]
    attention: np.ndarray | None        # final block's class-token row, [B, H, 1, N+1]


def _truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until within +-2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def param_shapes(config: VitConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every model parameter, in initialization order."""
    d, hdh, m = config.hidden_dim, config.n_heads * config.head_dim, config.mlp_dim
    shapes = {"embed.E": (config.patch_size, d), "embed.E_pos": (config.n_patches + 1, d),
              "embed.cls": (d,)}
    layer = {
        "w_q": (d, hdh), "w_k": (d, hdh), "w_v": (d, hdh), "w_o": (hdh, d),
        "ln1.gamma": (d,), "ln1.beta": (d,), "ln2.gamma": (d,), "ln2.beta": (d,),
        "ffn.w1": (d, m), "ffn.b1": (m,), "ffn.w2": (m, d), "ffn.b2": (d,),
    }
    for i in range(config.n_layers):
        shapes.update({f"layers.{i}.{name}": shape for name, shape in layer.items()})
    shapes["head.w"] = (d, config.n_classes)
    shapes["head.b"] = (config.n_classes,)
    return shapes


def param_count(config: VitConfig) -> int:
    """Number of model parameters, without listing every layer: the count is
    affine in n_layers, so the one- and two-layer configs fix it."""
    one, two = (sum(map(math.prod, param_shapes(replace(config, n_layers=n)).values()))
                for n in (1, 2))
    return one + (config.n_layers - 1) * (two - one)


def init_params(config: VitConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic parameter initialization for a given seed: truncated-normal
    matrices, unit layer-norm gains, zero biases and class token."""
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            p[name] = _truncated_normal(rng, shape)
        else:
            p[name] = np.ones(shape) if name.endswith("gamma") else np.zeros(shape)
    return {k: Tensor(v, requires_grad=True) for k, v in p.items()}


def embed_patches(x: Tensor, params: dict[str, Tensor], config: VitConfig) -> Tensor:
    """Project patches and prepend the class token: [B, seq_len] -> [B, N+1, D].
    Tapes four nodes (the windows' reshape needs no gradient): the patch GEMM, the
    class token [D] added onto [B, 1, D] zeros, their concat and the positions."""
    b = x.shape[0]
    n, d = config.n_patches, config.hidden_dim
    patches = ad.reshape(x, (b, n, config.patch_size))
    z = ad.matmul(patches, params["embed.E"])                   # [B, N, D]
    cls = ad.add(Tensor(np.zeros((b, 1, d))), params["embed.cls"])
    z0 = ad.concat([cls, z], axis=1)
    return ad.add(z0, params["embed.E_pos"])


def mhsa(z: Tensor, params: dict[str, Tensor], prefix: str, config: VitConfig,
         capture: bool = False, queries: Tensor | None = None,
         ) -> tuple[Tensor, np.ndarray | None]:
    """Multi-head self-attention of the `queries` rows [B, Tq, D] (default: all of
    z) over every token of z; optionally returns post-softmax maps [B, H, Tq, T]."""
    q = ad.matmul(z if queries is None else queries, params[prefix + "w_q"])
    k, v = (ad.matmul(z, params[prefix + w]) for w in ("w_k", "w_v"))
    out, attn = ad.attention(q, k, v, config.n_heads)
    return ad.matmul(out, params[prefix + "w_o"]), attn if capture else None


def draw_keep(config: VitConfig, rng: np.random.Generator) -> list[tuple[float, float]]:
    """One training step's stochastic-depth draws, drawn layer by layer, attention
    first: each layer's (attention, FFN) residual factor, 1/survival_prob for a
    kept branch and 0.0 for a dropped one. At survival_prob 1 every factor is 1.0
    and nothing is drawn."""
    p = config.survival_prob
    if p >= 1.0:
        return [(1.0, 1.0)] * config.n_layers
    kept = rng.random((config.n_layers, 2)) < p  # the same doubles as 2·n_layers scalar draws
    return [tuple(row) for row in np.where(kept, 1.0 / p, 0.0).tolist()]


def encoder_layer(z: Tensor, params: dict[str, Tensor], layer: int, config: VitConfig,
                  keep: tuple[float, float] = (1.0, 1.0), capture: bool = False,
                  cls_only: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """Post-norm residual block: LN(Z + a·MHSA(Z)) then LN(Z' + f·FFN(Z')), where
    `keep` holds the factors (a, f); a branch of factor 0.0 is dropped. With
    cls_only, only the class-token row [B, 1, D] attends and goes on, so the
    output is [B, 1, D] and the captured map [B, H, 1, T]."""
    pre = f"layers.{layer}."
    att_scale, ffn_scale = keep

    rows = ad.index(z, (slice(None), slice(0, 1))) if cls_only else z
    att, maps = mhsa(z, params, pre, config, capture=capture, queries=rows)
    z = ad.layer_norm(rows, params[pre + "ln1.gamma"], params[pre + "ln1.beta"], config.ln_eps,
                      residual=att if att_scale else None, residual_scale=att_scale)

    ffn = None
    if ffn_scale:
        hdn = ad.gelu(ad.matmul(z, params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
        ffn = ad.matmul(hdn, params[pre + "ffn.w2"], params[pre + "ffn.b2"])
    z = ad.layer_norm(z, params[pre + "ln2.gamma"], params[pre + "ln2.beta"], config.ln_eps,
                      residual=ffn, residual_scale=ffn_scale)
    return z, maps


def forward(x: np.ndarray, params: dict[str, Tensor], config: VitConfig,
            training: bool = False, capture_attention: bool = False,
            keep: list[tuple[float, float]] | None = None) -> ForwardArtifacts:
    """Full model pass over a batch of windows [B, seq_len] to class logits [B, K].
    In training, `keep` holds the step's `draw_keep` factors, one pair per layer;
    inference keeps every branch at factor 1.0.
    The last layer computes only the class-token row, the one the head reads.
    With capture_attention, the artifacts also carry that row of the final
    block's attention maps, [B, H, 1, N+1]."""
    x = Tensor(x)
    if x.shape[-1] != config.seq_len:
        raise ValueError(f"window length {x.shape[-1]} != seq_len {config.seq_len}")
    if keep is None:
        if training and config.survival_prob < 1.0:
            raise ValueError("training with stochastic depth requires the draw_keep draws")
        keep = [(1.0, 1.0)] * config.n_layers

    z = embed_patches(x, params, config)
    last = config.n_layers - 1
    for layer in range(config.n_layers):
        z, maps = encoder_layer(z, params, layer, config, keep=keep[layer],
                                capture=capture_attention and layer == last,
                                cls_only=layer == last)
    z0 = ad.index(z, (slice(None), 0))               # [B, 1, D] -> [B, D]
    logits = ad.matmul(z0, params["head.w"], params["head.b"])
    return ForwardArtifacts(logits=logits, attention=maps)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: dict[str, Tensor], config: VitConfig,
                    vocab: dict[str, int], meta: dict | None = None) -> None:
    """Write the u64 LE length of a JSON header (config, label vocabulary, meta),
    the header, then every parameter's <f8 bytes in param_shapes(config) order."""
    header = json.dumps(
        {"config": asdict(config), "vocab": vocab, "meta": meta or {}},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for name in param_shapes(config):
            f.write(np.asarray(params[name].data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, Tensor], VitConfig, dict[str, int], dict]:
    """Read a checkpoint written by save_checkpoint, for inference: the returned
    parameters do not require grad, so a forward pass over them records no tape."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        hlen = int.from_bytes(f.read(8), "little")
        if size < 8 or 8 + hlen > size:
            raise ValueError(f"{path}: truncated or corrupt checkpoint (its header "
                             f"length field asks for {hlen} bytes, the file holds {size})")
        header = f.read(hlen)
        try:
            doc = data_io.json_value(json.loads(header), dict, "header")
            stored = data_io.json_field(doc, "config", dict, "header")
            for field in fields(VitConfig):  # a default would silently stand in
                if field.name not in stored:
                    raise ValueError(f"config has no field {field.name!r}")
            config = data_io.json_dataclass(VitConfig(), stored, "config")
            vocab = data_io.json_field(doc, "vocab", dict, "header")
            meta = data_io.json_field(doc, "meta", dict, "header")
        except (ValueError, RecursionError) as e:  # json.loads recurses per nesting level
            raise ValueError(f"{path}: bad checkpoint header ({e})") from e
        count = param_count(config)  # checked before param_shapes lists every layer
        if size - 8 - hlen != 8 * count:
            raise ValueError(f"{path} holds {size - 8 - hlen} parameter bytes, but its "
                             f"config needs {8 * count}; retrain it")
        flat = np.fromfile(f, dtype="<f8", count=count)
    shapes = param_shapes(config)
    sizes = [math.prod(shape) for shape in shapes.values()]
    chunks = np.split(flat, np.cumsum(sizes)[:-1])
    params = {name: Tensor(chunk.reshape(shape))
              for (name, shape), chunk in zip(shapes.items(), chunks)}
    return params, config, vocab, meta
