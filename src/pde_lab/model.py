"""Parameter-conditioned local-attention emulator.

The network maps a short history of snapshots [S, D] to the next snapshot [D].
Internally the latent lives channel-last as [..., D, C]: a per-position linear
encoder, an optional sampling head (mean and log-std with reparametrised
noise), N residual blocks of windowed single-head self-attention plus a gelu
MLP, and a per-position linear decoder.  A small conditioning map turns the
physical parameter vector into per-block scale/shift pairs applied after each
layer normalization; its weights start at zero with bias (1, 0), so an
unconditioned (pretrained) network and the conditioned one start out as the
same function.

No operation depends on absolute position, and the attention windows wrap
circularly, so the emulator commutes with cyclic shifts and one set of weights
serves every spatial size D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import fileio
from .autodiff import Tensor
from .errors import ConfigurationError, FormatError, ShapeError

LOG_STD_MIN = -10.0
LOG_STD_MAX = 5.0


@dataclass
class EmulatorConfig:
    n_blocks: int
    channels: int
    window: int
    history: int
    cond_dim: int = 1
    heads: int = 1
    mlp_ratio: int = 4
    probabilistic: bool = False
    use_cond_gates: bool = False
    equation: str = ""

    def __post_init__(self):
        for name in ("n_blocks", "channels", "window", "history", "cond_dim", "mlp_ratio"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.window % 2 != 1:
            raise ConfigurationError(f"attention window must be odd, got {self.window}")
        if self.heads != 1:
            raise ConfigurationError("only single-head attention is implemented; heads must be 1")

    @property
    def mlp_channels(self) -> int:
        return self.mlp_ratio * self.channels

    @property
    def cond_outputs(self) -> int:
        # scale/shift after both normalizations, plus two gates in the gated variant.
        return (6 if self.use_cond_gates else 4) * self.channels


@dataclass
class BlockParams:
    query: np.ndarray
    key: np.ndarray
    value: np.ndarray
    out_proj: np.ndarray
    pos_bias: np.ndarray
    cond_weight: np.ndarray
    cond_bias: np.ndarray
    mlp_in: np.ndarray
    mlp_out: np.ndarray


@dataclass
class ModelParams:
    config: EmulatorConfig
    encoder: np.ndarray
    decoder: np.ndarray
    blocks: list[BlockParams]
    sample_mean: np.ndarray | None = None
    sample_logstd: np.ndarray | None = None
    norm_mean: float = 0.0
    norm_std: float = 1.0


@dataclass
class Conditioning:
    """Physical parameter vector fed to the conditioning map."""

    value: np.ndarray

    def __post_init__(self):
        self.value = np.atleast_1d(np.asarray(self.value, dtype=np.float64))
        if self.value.ndim != 1:
            raise ConfigurationError(f"conditioning must be a vector, got shape {self.value.shape}")
        if not np.all(np.isfinite(self.value)):
            raise ConfigurationError("conditioning contains non-finite entries")


def _uniform(rng: np.random.Generator, fan_in: int, shape, dtype) -> np.ndarray:
    limit = np.sqrt(1.0 / fan_in)
    return rng.uniform(-limit, limit, shape).astype(dtype)


def init_model(config: EmulatorConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    """Fresh parameters: uniform +-sqrt(1/fan_in) weights, zero position bias,
    zero conditioning weights with identity bias."""
    rng = np.random.default_rng(seed)
    c = config.channels
    cond_bias = np.zeros(config.cond_outputs, dtype=dtype)
    cond_bias[0:c] = 1.0  # scale1
    cond_bias[2 * c : 3 * c] = 1.0  # scale2
    if config.use_cond_gates:
        cond_bias[4 * c :] = 1.0  # both gates

    blocks = []
    for _ in range(config.n_blocks):
        blocks.append(
            BlockParams(
                query=_uniform(rng, c, (c, c), dtype),
                key=_uniform(rng, c, (c, c), dtype),
                value=_uniform(rng, c, (c, c), dtype),
                out_proj=_uniform(rng, c, (c, c), dtype),
                pos_bias=np.zeros(config.window, dtype=dtype),
                cond_weight=np.zeros((config.cond_dim, config.cond_outputs), dtype=dtype),
                cond_bias=cond_bias.copy(),
                mlp_in=_uniform(rng, c, (c, config.mlp_channels), dtype),
                mlp_out=_uniform(rng, config.mlp_channels, (config.mlp_channels, c), dtype),
            )
        )
    return ModelParams(
        config=config,
        encoder=_uniform(rng, config.history, (config.history, c), dtype),
        decoder=_uniform(rng, c, (c, 1), dtype),
        blocks=blocks,
        sample_mean=_uniform(rng, c, (c, c), dtype) if config.probabilistic else None,
        sample_logstd=_uniform(rng, c, (c, c), dtype) if config.probabilistic else None,
    )


def named_parameters(params: ModelParams):
    """Deterministically ordered (name, array) pairs of all trainable arrays."""
    yield "encoder", params.encoder
    for i, blk in enumerate(params.blocks):
        for field in (
            "query",
            "key",
            "value",
            "out_proj",
            "pos_bias",
            "cond_weight",
            "cond_bias",
            "mlp_in",
            "mlp_out",
        ):
            yield f"blocks.{i}.{field}", getattr(blk, field)
    yield "decoder", params.decoder
    if params.sample_mean is not None:
        yield "sample_mean", params.sample_mean
    if params.sample_logstd is not None:
        yield "sample_logstd", params.sample_logstd


def parameter_count(params: ModelParams) -> int:
    return sum(arr.size for _, arr in named_parameters(params))


def expected_parameter_count(config: EmulatorConfig) -> int:
    """Closed-form count; independent of the spatial size D."""
    c = config.channels
    per_block = (
        4 * c * c
        + config.window
        + config.cond_dim * config.cond_outputs
        + config.cond_outputs
        + 2 * c * config.mlp_channels
    )
    total = config.history * c + config.n_blocks * per_block + c
    if config.probabilistic:
        total += 2 * c * c
    return total


CONDITIONING_NAMES = frozenset({"cond_weight", "cond_bias"})


class TensorModel:
    """Model parameters wrapped as autodiff tensors sharing the same buffers."""

    def __init__(self, config: EmulatorConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    @classmethod
    def from_params(cls, params: ModelParams, trainable: str = "none") -> "TensorModel":
        """`trainable` is one of 'none', 'all', 'backbone' (conditioning frozen)."""
        if trainable not in ("none", "all", "backbone"):
            raise ConfigurationError(f"unknown trainable mode {trainable!r}")
        tensors = {}
        for name, arr in named_parameters(params):
            is_cond = name.split(".")[-1] in CONDITIONING_NAMES
            req = trainable == "all" or (trainable == "backbone" and not is_cond)
            tensors[name] = Tensor(arr, requires_grad=req, name=name)
        return cls(params.config, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def trainable(self) -> list[Tensor]:
        return [t for t in self.tensors.values() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.grad = None


def encode(history: Tensor, model: TensorModel) -> Tensor:
    """History [..., S, D] to latent [..., D, C] via a per-position linear map."""
    if history.shape[-2] != model.config.history:
        raise ShapeError(
            f"history has {history.shape[-2]} frames, model expects {model.config.history}"
        )
    return ad.linear(ad.transpose_last2(history), model["encoder"])


def sample_latent(z: Tensor, model: TensorModel, noise: Tensor) -> Tensor:
    """Reparametrised draw mean(z) + exp(clamped log-std(z)) * noise."""
    if model.config.probabilistic is False:
        raise ConfigurationError("sampling head requested on a deterministic model")
    mean = ad.linear(z, model["sample_mean"])
    log_std = ad.clamp(ad.linear(z, model["sample_logstd"]), LOG_STD_MIN, LOG_STD_MAX)
    return ad.add(mean, ad.mul(ad.exp(log_std), noise))


def _windowed(x: Tensor, window: int) -> Tensor:
    """[..., D, C] to window stacks [..., D, K, C]."""
    unfolded = ad.unfold_circular(ad.transpose_last2(x), window)  # [..., C, D, K]
    n = unfolded.ndim
    axes = tuple(range(n - 3)) + (n - 2, n - 1, n - 3)
    return ad.permute(unfolded, axes)


def local_attention(z: Tensor, model: TensorModel, block_index: int) -> Tensor:
    """Single-head attention over circular windows with a learned offset bias."""
    cfg = model.config
    prefix = f"blocks.{block_index}"
    q = ad.linear(z, model[f"{prefix}.query"])
    k = ad.linear(z, model[f"{prefix}.key"])
    v = ad.linear(z, model[f"{prefix}.value"])

    k_win = _windowed(k, cfg.window)  # [..., D, K, C]
    v_win = _windowed(v, cfg.window)
    q_col = ad.reshape(q, q.shape + (1,))  # [..., D, C, 1]
    logits = ad.reshape(ad.matmul(k_win, q_col), k_win.shape[:-1])  # [..., D, K]
    logits = ad.scale(logits, 1.0 / math.sqrt(cfg.channels))
    logits = ad.add(logits, model[f"{prefix}.pos_bias"])
    weights = ad.softmax_lastaxis(logits)

    w_row = ad.reshape(weights, weights.shape[:-1] + (1, cfg.window))  # [..., D, 1, K]
    context = ad.reshape(ad.matmul(w_row, v_win), z.shape)  # [..., D, C]
    return ad.linear(context, model[f"{prefix}.out_proj"])


def _conditioning_scales(
    conditioning: Conditioning, model: TensorModel, block_index: int
) -> tuple[Tensor, ...]:
    cfg = model.config
    if conditioning.value.shape[0] != cfg.cond_dim:
        raise ShapeError(
            f"conditioning length {conditioning.value.shape[0]} does not match "
            f"cond_dim {cfg.cond_dim}"
        )
    prefix = f"blocks.{block_index}"
    weight = model[f"{prefix}.cond_weight"]
    value = Tensor(conditioning.value.astype(weight.dtype))
    vec = ad.linear(value, weight, model[f"{prefix}.cond_bias"])
    c = cfg.channels
    parts = [ad.narrow(vec, i * c, c) for i in range(4)]
    if cfg.use_cond_gates:
        parts += [ad.narrow(vec, 4 * c, c), ad.narrow(vec, 5 * c, c)]
    return tuple(parts)


def transformer_block(
    z: Tensor,
    model: TensorModel,
    block_index: int,
    cond_scales: tuple[Tensor, ...] | None,
) -> Tensor:
    """Residual attention and MLP sub-blocks with conditioned normalizations.

    `cond_scales` of None runs the unconditioned (pretraining) form, i.e.
    scale 1 and shift 0, without touching the conditioning parameters.
    """
    h = ad.layer_normalize(z)
    if cond_scales is not None:
        h = ad.add(ad.mul(h, cond_scales[0]), cond_scales[1])
    attn = local_attention(h, model, block_index)
    if cond_scales is not None and model.config.use_cond_gates:
        attn = ad.mul(attn, cond_scales[4])
    z = ad.add(z, attn)

    h = ad.layer_normalize(z)
    if cond_scales is not None:
        h = ad.add(ad.mul(h, cond_scales[2]), cond_scales[3])
    m = ad.linear(ad.gelu(ad.linear(h, model[f"blocks.{block_index}.mlp_in"])), model[f"blocks.{block_index}.mlp_out"])
    if cond_scales is not None and model.config.use_cond_gates:
        m = ad.mul(m, cond_scales[5])
    return ad.add(z, m)


def forward(
    history: Tensor,
    conditioning: Conditioning | None,
    model: TensorModel,
    mode: str | None = None,
    phase: str = "finetune",
    noise: Tensor | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Next-snapshot prediction [..., D] in the model's normalized units.

    `mode` is 'deterministic' or 'probabilistic' (default: the config's native
    mode).  `phase` 'pretrain' keeps the conditioning map out of the
    computation entirely; 'finetune' applies it per block.
    """
    cfg = model.config
    if mode is None:
        mode = "probabilistic" if cfg.probabilistic else "deterministic"
    if mode not in ("deterministic", "probabilistic"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if phase not in ("pretrain", "finetune"):
        raise ConfigurationError(f"unknown phase {phase!r}")
    if phase == "finetune" and conditioning is None:
        raise ConfigurationError("finetune-phase forward requires a conditioning vector")

    z = encode(history, model)
    if mode == "probabilistic":
        if not cfg.probabilistic:
            raise ConfigurationError("probabilistic forward requested on a deterministic model")
        if noise is None:
            if rng is None:
                raise ConfigurationError("probabilistic forward needs `noise` or `rng`")
            noise = Tensor(rng.standard_normal(z.shape).astype(z.dtype, copy=False))
        elif noise.shape != z.shape:
            raise ShapeError(f"noise shape {noise.shape} does not match latent {z.shape}")
        z = sample_latent(z, model, noise)

    for i in range(cfg.n_blocks):
        scales = None if phase == "pretrain" else _conditioning_scales(conditioning, model, i)
        z = transformer_block(z, model, i, scales)

    out = ad.linear(z, model["decoder"])
    return ad.reshape(out, out.shape[:-1])


def predict(
    params: ModelParams,
    history: np.ndarray,
    conditioning: Conditioning | float | None,
    mode: str | None = None,
    phase: str = "finetune",
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Inference in physical units: standardize, run forward, undo."""
    if isinstance(conditioning, (int, float)):
        conditioning = Conditioning(np.array([conditioning]))
    model = TensorModel.from_params(params, trainable="none")
    scaled = (np.asarray(history) - params.norm_mean) / params.norm_std
    history_t = Tensor(scaled.astype(params.encoder.dtype))
    noise_t = None if noise is None else Tensor(np.asarray(noise, dtype=params.encoder.dtype))
    out = forward(history_t, conditioning, model, mode=mode, phase=phase, noise=noise_t, rng=rng)
    return out.data * params.norm_std + params.norm_mean


def save_checkpoint(path, params: ModelParams) -> None:
    arch = asdict(params.config)
    extra = {"norm_mean": float(params.norm_mean), "norm_std": float(params.norm_std)}
    tensors = {name: arr for name, arr in named_parameters(params)}
    fileio.write_checkpoint(path, arch, extra, tensors)


def load_checkpoint(path, expect_config: EmulatorConfig | None = None) -> ModelParams:
    arch, extra, tensors = fileio.read_checkpoint(path)
    try:
        config = EmulatorConfig(**arch)
    except TypeError as exc:
        raise FormatError(f"{path}: bad architecture header: {exc}") from exc
    if expect_config is not None and config != expect_config:
        raise FormatError(
            f"{path}: checkpoint architecture {config} does not match expected {expect_config}"
        )
    params = init_model(config, seed=0)
    params.norm_mean = float(extra.get("norm_mean", 0.0))
    params.norm_std = float(extra.get("norm_std", 1.0))
    expected = {name for name, _ in named_parameters(params)}
    if expected != set(tensors):
        missing = expected - set(tensors)
        surplus = set(tensors) - expected
        raise FormatError(
            f"{path}: tensor names mismatch (missing {sorted(missing)}, surplus {sorted(surplus)})"
        )
    for name, arr in named_parameters(params):
        stored = tensors[name]
        if stored.shape != arr.shape:
            raise FormatError(
                f"{path}: tensor {name} has shape {stored.shape}, expected {arr.shape}"
            )
        arr[...] = stored
    return params
