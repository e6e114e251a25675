"""Losses, the Adam optimizer and the two-stage training protocol.

Pretraining fits the backbone on one dataset at a single parameter value with
the conditioning map left out of the computation graph; finetuning resumes
from that checkpoint with every parameter trainable, drawing homogeneous
batches shard by shard so one batch never mixes spatial sizes or conditioning
values.  Standardization statistics are frozen from the pretraining set and
travel with the checkpoint.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import model as emodel
from .autodiff import Graph, Tensor
from .errors import BatchingError, ConfigurationError, TrainingAbortedError
from .fileio import Trajectory

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
FINETUNE_LR_DIVISOR = 50.0


# ---------------------------------------------------------------------------
# losses (graph-recorded, usable on plain Tensors too)


def mse_loss(truth: Tensor, prediction: Tensor) -> Tensor:
    diff = ad.sub(prediction, truth)
    return ad.mean_all(ad.mul(diff, diff))


def crps_loss(truth: Tensor, ensemble: Tensor) -> Tensor:
    """Sample-based CRPS, averaged over every non-member axis.

    ``ensemble`` carries the m members on axis 0 and broadcasts against
    ``truth``; with m = 1 this reduces exactly to the mean absolute error.
    """
    m = ensemble.shape[0]
    accuracy = ad.mean_all(ad.absolute(ad.sub(ensemble, truth)))
    if m == 1:
        return accuracy
    left = ad.reshape(ensemble, (m, 1) + ensemble.shape[1:])
    right = ad.reshape(ensemble, (1, m) + ensemble.shape[1:])
    spread = ad.mean_all(ad.absolute(ad.sub(left, right)))
    return ad.sub(accuracy, ad.scale(spread, 0.5))


def spectral_loss(truth: Tensor, prediction: Tensor) -> Tensor:
    """Mean absolute difference of DFT magnitudes along the last axis."""
    return ad.mean_all(ad.absolute(ad.sub(ad.dft_modulus(prediction), ad.dft_modulus(truth))))


def composite_loss(truth: Tensor, ensemble: Tensor, spectral_weight: float = 1.0) -> Tensor:
    """CRPS plus the member-averaged spectral amplitude error on the forecast."""
    crps = crps_loss(truth, ensemble)
    spectral = ad.mean_all(
        ad.absolute(ad.sub(ad.dft_modulus(ensemble), ad.dft_modulus(truth)))
    )
    return ad.add(crps, ad.scale(spectral, spectral_weight))


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class OptimizerState:
    first_moment: dict[str, np.ndarray] = dataclass_field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = dataclass_field(default_factory=dict)
    step_count: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS


def adam_step(tensors: dict[str, Tensor], state: OptimizerState, lr: float) -> None:
    """One Adam update in place on every trainable tensor with a gradient."""
    state.step_count += 1
    t = state.step_count
    correct1 = 1.0 - state.beta1**t
    correct2 = 1.0 - state.beta2**t
    for name, tensor in tensors.items():
        if not tensor.requires_grad or tensor.grad is None:
            continue
        g = tensor.grad
        m = state.first_moment.get(name)
        if m is None:
            m = state.first_moment[name] = np.zeros_like(tensor.data)
        v = state.second_moment.get(name)
        if v is None:
            v = state.second_moment[name] = np.zeros_like(tensor.data)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / correct1
        v_hat = v / correct2
        tensor.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(
            tensor.data.dtype, copy=False
        )


# ---------------------------------------------------------------------------
# data handling


@dataclass
class Shard:
    """One trajectory's worth of samples at a single conditioning value."""

    frames: np.ndarray  # [T, D] float32, already standardized
    conditioning: emodel.Conditioning
    source: str = ""

    @property
    def n_points(self) -> int:
        return self.frames.shape[1]


@dataclass
class SampleSet:
    shards: list[Shard]
    history: int
    norm_mean: float
    norm_std: float

    def n_samples(self) -> int:
        return sum(max(s.frames.shape[0] - self.history, 0) for s in self.shards)


def normalization_stats(trajectories: list[Trajectory]) -> tuple[float, float]:
    """Pooled mean and standard deviation over every frame of every trajectory."""
    total = 0
    mean_acc = 0.0
    sq_acc = 0.0
    for traj in trajectories:
        frames = traj.frames.astype(np.float64)
        total += frames.size
        mean_acc += frames.sum()
        sq_acc += (frames**2).sum()
    if total == 0:
        raise ConfigurationError("cannot compute statistics of an empty dataset")
    mean = mean_acc / total
    var = sq_acc / total - mean**2
    std = float(np.sqrt(max(var, 0.0)))
    if std == 0.0:
        raise ConfigurationError("dataset is constant; refusing unit-variance scaling")
    return float(mean), std


def build_sample_set(
    trajectories: list[Trajectory],
    conditionings: list[emodel.Conditioning | float],
    history: int,
    stats: tuple[float, float] | None = None,
) -> SampleSet:
    """Standardize trajectories and pair each with its conditioning value.

    `stats` of None computes fresh statistics (pretraining); otherwise the
    provided frozen pair is reused (finetuning and evaluation).
    """
    if len(trajectories) != len(conditionings):
        raise ConfigurationError(
            f"{len(trajectories)} trajectories but {len(conditionings)} conditioning values"
        )
    mean, std = stats if stats is not None else normalization_stats(trajectories)
    shards = []
    for traj, cond in zip(trajectories, conditionings):
        if not isinstance(cond, emodel.Conditioning):
            cond = emodel.Conditioning(np.atleast_1d(cond))
        frames = ((traj.frames.astype(np.float64) - mean) / std).astype(np.float32)
        shards.append(
            Shard(frames=frames, conditioning=cond, source=str(traj.metadata.get("source", "")))
        )
    return SampleSet(shards=shards, history=history, norm_mean=mean, norm_std=std)


def assemble_batch(shard: Shard, history: int, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Histories [B, S, D] and targets [B, D] for sample start indices."""
    frames = shard.frames
    histories = np.stack([frames[s : s + history] for s in starts])
    targets = frames[starts + history]
    return histories, targets


def stack_samples(histories: list[np.ndarray]) -> np.ndarray:
    """Stack per-sample histories [S, D_i] into a batch, refusing mixed sizes."""
    sizes = {h.shape for h in histories}
    if len(sizes) > 1:
        raise BatchingError(f"cannot batch mixed spatial shapes {sorted(sizes)}")
    return np.stack(histories)


def _split_indices(n_samples: int, val_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    # Hold out the trailing segment of each shard so validation windows never
    # overlap training windows.
    n_val = int(np.floor(n_samples * val_fraction))
    n_train = n_samples - n_val
    return np.arange(n_train), np.arange(n_train, n_samples)


@dataclass
class TrainConfig:
    phase: str
    loss: str = "mse"  # "mse" or "crps_spectral"
    learning_rate: float | None = None
    epochs: int = 1
    batch_size: int = 128
    ensemble_members: int = 1
    spectral_weight: float = 1.0
    val_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.phase not in ("pretrain", "finetune"):
            raise ConfigurationError(f"phase must be pretrain or finetune, got {self.phase!r}")
        if self.loss not in ("mse", "crps_spectral"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if self.loss == "crps_spectral" and self.ensemble_members < 2:
            raise ConfigurationError("the crps_spectral loss needs at least 2 ensemble members")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigurationError(f"val_fraction must lie in [0, 1), got {self.val_fraction}")


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    train_loss: float
    val_loss: float
    wall_time: float


@dataclass
class TrainResult:
    params: emodel.ModelParams
    history: list[EpochRecord]


def _batch_loss(
    tmodel: emodel.TensorModel,
    histories: np.ndarray,
    targets: np.ndarray,
    conditioning: emodel.Conditioning,
    config: TrainConfig,
    noise_rng: np.random.Generator | None,
) -> Tensor:
    history_t = Tensor(histories)
    target_t = Tensor(targets)
    phase = config.phase
    if config.loss == "mse":
        pred = emodel.forward(history_t, conditioning, tmodel, mode="deterministic", phase=phase)
        return mse_loss(target_t, pred)
    members = []
    for _ in range(config.ensemble_members):
        noise = Tensor(
            noise_rng.standard_normal(
                histories.shape[:-2] + (histories.shape[-1], tmodel.config.channels)
            ).astype(tmodel["encoder"].dtype)
        )
        members.append(
            emodel.forward(
                history_t, conditioning, tmodel, mode="probabilistic", phase=phase, noise=noise
            )
        )
    ensemble = ad.stack0(members)
    return composite_loss(target_t, ensemble, config.spectral_weight)


def _evaluate(
    tmodel: emodel.TensorModel,
    sample_set: SampleSet,
    indices_by_shard: list[np.ndarray],
    config: TrainConfig,
    noise_rng: np.random.Generator | None,
) -> float:
    """Mean loss over the given per-shard sample indices, without recording."""
    total = 0.0
    count = 0
    for shard, indices in zip(sample_set.shards, indices_by_shard):
        for lo in range(0, len(indices), config.batch_size):
            batch = indices[lo : lo + config.batch_size]
            if len(batch) == 0:
                continue
            histories, targets = assemble_batch(shard, sample_set.history, batch)
            loss = _batch_loss(
                tmodel, histories, targets, shard.conditioning, config, noise_rng
            )
            total += float(loss.data) * len(batch)
            count += len(batch)
    return total / count if count else float("nan")


def _train(
    params: emodel.ModelParams,
    sample_set: SampleSet,
    config: TrainConfig,
    learning_rate: float,
    metrics_path=None,
) -> TrainResult:
    trainable = "backbone" if config.phase == "pretrain" else "all"
    tmodel = emodel.TensorModel.from_params(params, trainable=trainable)
    opt = OptimizerState()

    seed_seq = np.random.SeedSequence(config.seed)
    shuffle_seq, noise_seq, val_noise_seq = seed_seq.spawn(3)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    noise_rng = np.random.default_rng(noise_seq) if config.loss == "crps_spectral" else None

    train_idx, val_idx = [], []
    for shard in sample_set.shards:
        n = shard.frames.shape[0] - sample_set.history
        if n < 1:
            raise ConfigurationError(
                f"shard with {shard.frames.shape[0]} frames is too short for "
                f"history {sample_set.history}"
            )
        tr, va = _split_indices(n, config.val_fraction)
        train_idx.append(tr)
        val_idx.append(va)

    records = []
    start = time.perf_counter()
    for epoch in range(config.epochs):
        order = [shuffle_rng.permutation(idx) for idx in train_idx]
        cursors = [0] * len(order)
        # Round-robin over shards keeps every batch homogeneous while the
        # parameter values interleave within the epoch.
        loss_sum, seen = 0.0, 0
        active = True
        batch_index = 0
        while active:
            active = False
            for shard_i, shard in enumerate(sample_set.shards):
                lo = cursors[shard_i]
                if lo >= len(order[shard_i]):
                    continue
                active = True
                batch = order[shard_i][lo : lo + config.batch_size]
                cursors[shard_i] = lo + config.batch_size
                histories, targets = assemble_batch(shard, sample_set.history, batch)
                tmodel.zero_grad()
                with Graph() as graph:
                    loss = _batch_loss(
                        tmodel, histories, targets, shard.conditioning, config, noise_rng
                    )
                    if not np.isfinite(loss.data):
                        raise TrainingAbortedError(
                            f"non-finite loss in epoch {epoch}, batch {batch_index}",
                            epoch=epoch,
                            batch=batch_index,
                        )
                    graph.backward(loss)
                adam_step(tmodel.tensors, opt, learning_rate)
                loss_sum += float(loss.data) * len(batch)
                seen += len(batch)
                batch_index += 1
        val_rng = np.random.default_rng(val_noise_seq) if config.loss == "crps_spectral" else None
        val_loss = _evaluate(tmodel, sample_set, val_idx, config, val_rng)
        records.append(
            EpochRecord(
                epoch=epoch,
                phase=config.phase,
                train_loss=loss_sum / seen if seen else float("nan"),
                val_loss=val_loss,
                wall_time=time.perf_counter() - start,
            )
        )

    if metrics_path is not None:
        write_metrics(metrics_path, records)
    return TrainResult(params=params, history=records)


def write_metrics(path, records: list[EpochRecord]) -> None:
    """Deterministic per-epoch metrics; wall-clock timing goes in a sidecar."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "phase", "train_loss", "val_loss"])
        for r in records:
            writer.writerow([r.epoch, r.phase, f"{r.train_loss:.10e}", f"{r.val_loss:.10e}"])
    with open(path.with_suffix(".timing.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "wall_time_s"])
        for r in records:
            writer.writerow([r.epoch, f"{r.wall_time:.3f}"])


def pretrain(
    params: emodel.ModelParams,
    sample_set: SampleSet,
    config: TrainConfig,
    metrics_path=None,
) -> TrainResult:
    """Backbone training at a single conditioning value.

    The conditioning parameters stay outside the computation graph; the
    resulting model carries the dataset's standardization statistics.
    """
    if config.phase != "pretrain":
        raise ConfigurationError("pretrain() requires a pretrain-phase config")
    values = {tuple(s.conditioning.value.tolist()) for s in sample_set.shards}
    if len(values) != 1:
        raise ConfigurationError(f"pretraining needs a single conditioning value, got {values}")
    params.norm_mean = sample_set.norm_mean
    params.norm_std = sample_set.norm_std
    lr = config.learning_rate if config.learning_rate is not None else 5e-4
    return _train(params, sample_set, config, lr, metrics_path)


def finetune(
    params: emodel.ModelParams,
    sample_set: SampleSet,
    config: TrainConfig,
    pretrain_learning_rate: float = 5e-4,
    metrics_path=None,
) -> TrainResult:
    """Resume from a pretrained model with every parameter trainable.

    The learning rate defaults to the pretraining rate divided by 50; the
    sample set must have been standardized with the pretrained statistics.
    """
    if config.phase != "finetune":
        raise ConfigurationError("finetune() requires a finetune-phase config")
    if not np.isclose(sample_set.norm_mean, params.norm_mean) or not np.isclose(
        sample_set.norm_std, params.norm_std
    ):
        raise ConfigurationError(
            "finetuning data must reuse the standardization frozen at pretraining"
        )
    lr = (
        config.learning_rate
        if config.learning_rate is not None
        else pretrain_learning_rate / FINETUNE_LR_DIVISOR
    )
    return _train(params, sample_set, config, lr, metrics_path)
