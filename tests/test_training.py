import numpy as np
import pytest

from pde_lab import autodiff as ad
from pde_lab import model as emodel
from pde_lab import training
from pde_lab.autodiff import Tensor
from pde_lab.errors import BatchingError, ConfigurationError, TrainingAbortedError
from pde_lab.fileio import Trajectory


def brute_force_crps(truth, ensemble):
    """Per-point integral form of the sample CRPS, three explicit loops."""
    truth = np.broadcast_to(truth, ensemble.shape[1:])
    m = ensemble.shape[0]
    flat_truth = truth.reshape(-1)
    flat_ens = ensemble.reshape(m, -1)
    total = 0.0
    for p in range(flat_truth.size):
        acc = 0.0
        for i in range(m):
            acc += abs(flat_ens[i, p] - flat_truth[p])
        spread = 0.0
        for i in range(m):
            for j in range(m):
                spread += abs(flat_ens[i, p] - flat_ens[j, p])
        total += acc / m - spread / (2 * m * m)
    return total / flat_truth.size


def wave_trajectory(n_frames=22, n_points=24, noise=0.05, seed=0):
    """Drifting sine with a little noise; cheap and learnable in one step."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames)[:, None]
    x = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)[None, :]
    frames = np.sin(x + 0.3 * t) + noise * rng.standard_normal((n_frames, n_points))
    return Trajectory(frames=frames, snapshot_interval=1.0, metadata={"equation": "ks"})


def tiny_model(**overrides):
    base = dict(n_blocks=1, channels=4, window=3, history=2, equation="ks")
    base.update(overrides)
    return emodel.init_model(emodel.EmulatorConfig(**base), seed=0)


class TestCrps:
    def test_hand_value(self):
        """Two members 0 and 1 against truth 0.5: accuracy 0.5, spread 0.5,
        so the score is 0.5 - 0.25 = 0.25."""
        loss = training.crps_loss(Tensor(np.array([0.5])), Tensor(np.array([[0.0], [1.0]])))
        assert loss.data == pytest.approx(0.25, abs=1e-15)

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 7))
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
            truth = rng.standard_normal(shape)
            ensemble = rng.standard_normal((m,) + shape)
            loss = training.crps_loss(Tensor(truth), Tensor(ensemble))
            assert loss.data == pytest.approx(brute_force_crps(truth, ensemble), abs=1e-10)

    def test_single_member_is_mae(self, rng):
        truth = rng.standard_normal((3, 8))
        member = rng.standard_normal((1, 3, 8))
        loss = training.crps_loss(Tensor(truth), Tensor(member))
        assert loss.data == np.mean(np.abs(member[0] - truth))

    def test_perfect_ensemble_scores_zero(self):
        truth = np.array([1.0, -2.0])
        ensemble = np.stack([truth, truth, truth])
        assert training.crps_loss(Tensor(truth), Tensor(ensemble)).data == 0.0

    def test_gradient(self, rng):
        report = ad.check_gradients(
            lambda t, e: training.crps_loss(t, e), [(5,), (3, 5)], tolerance=1e-6
        )
        assert report["passed"]


class TestSpectralLoss:
    def test_single_harmonic_hand_value(self):
        """sin amplitudes 1 vs 0.5 on 8 points: the only differing rfft bin
        has modulus gap 8/2 * 0.5 = 2, averaged over 5 bins -> 0.4."""
        x = np.arange(8) * (2.0 * np.pi / 8.0)
        loss = training.spectral_loss(Tensor(np.sin(x)), Tensor(0.5 * np.sin(x)))
        assert loss.data == pytest.approx(0.4, abs=1e-12)

    def test_phase_blind(self):
        x = np.arange(16) * (2.0 * np.pi / 16.0)
        loss = training.spectral_loss(Tensor(np.sin(x)), Tensor(np.sin(x + 1.3)))
        assert loss.data == pytest.approx(0.0, abs=1e-12)

    def test_composite_composition(self, rng):
        truth = rng.standard_normal((4, 8))
        ensemble = rng.standard_normal((3, 4, 8))
        w = 0.7
        total = training.composite_loss(Tensor(truth), Tensor(ensemble), w).data
        crps = training.crps_loss(Tensor(truth), Tensor(ensemble)).data
        gap = np.abs(
            np.abs(np.fft.rfft(ensemble, axis=-1)) - np.abs(np.fft.rfft(truth, axis=-1))
        )
        assert total == pytest.approx(crps + w * gap.mean(), abs=1e-12)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        t = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        t.grad = np.array([0.5, -0.25, 1e3])
        training.adam_step({"w": t}, training.OptimizerState(), lr=1e-2)
        np.testing.assert_allclose(t.data, [1.0 - 1e-2, -2.0 + 1e-2, 3.0 - 1e-2], atol=1e-9)

    def test_ten_steps_match_reference(self):
        """Independent reimplementation of the update rule, ten steps over a
        fixed gradient schedule."""
        rng = np.random.default_rng(5)
        grads = rng.standard_normal((10, 6))
        t = Tensor(np.zeros(6), requires_grad=True)
        state = training.OptimizerState()
        for g in grads:
            t.grad = g.copy()
            training.adam_step({"w": t}, state, lr=1e-3)

        x = np.zeros(6)
        m = np.zeros(6)
        v = np.zeros(6)
        for step, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 1e-3 * (m / (1 - 0.9**step)) / (np.sqrt(v / (1 - 0.999**step)) + 1e-8)
        np.testing.assert_allclose(t.data, x, atol=1e-14)
        assert state.step_count == 10

    def test_skips_frozen_and_gradless(self):
        frozen = Tensor(np.ones(2))
        idle = Tensor(np.ones(2), requires_grad=True)
        training.adam_step({"a": frozen, "b": idle}, training.OptimizerState(), lr=1.0)
        np.testing.assert_array_equal(frozen.data, 1.0)
        np.testing.assert_array_equal(idle.data, 1.0)


class TestSampleSets:
    def test_pooled_statistics(self, rng):
        a = Trajectory(frames=rng.standard_normal((5, 8)) + 2.0, snapshot_interval=1.0)
        b = Trajectory(frames=rng.standard_normal((9, 4)) - 1.0, snapshot_interval=1.0)
        mean, std = training.normalization_stats([a, b])
        pooled = np.concatenate(
            [a.frames.astype(np.float64).ravel(), b.frames.astype(np.float64).ravel()]
        )
        assert mean == pytest.approx(pooled.mean(), abs=1e-12)
        assert std == pytest.approx(pooled.std(), rel=1e-12)

    def test_constant_dataset_rejected(self):
        flat = Trajectory(frames=np.ones((4, 8)), snapshot_interval=1.0)
        with pytest.raises(ConfigurationError):
            training.normalization_stats([flat])
        with pytest.raises(ConfigurationError):
            training.normalization_stats([])

    def test_standardization_applied(self, rng):
        traj = Trajectory(frames=3.0 * rng.standard_normal((30, 8)) + 5.0, snapshot_interval=1.0)
        ss = training.build_sample_set([traj], [1.0], 2)
        pooled = ss.shards[0].frames.astype(np.float64)
        assert pooled.mean() == pytest.approx(0.0, abs=1e-6)
        assert pooled.std() == pytest.approx(1.0, abs=1e-6)
        assert ss.n_samples() == 28

    def test_frozen_stats_reused(self, rng):
        traj = Trajectory(frames=rng.standard_normal((10, 8)), snapshot_interval=1.0)
        ss = training.build_sample_set([traj], [1.0], 2, stats=(1.0, 2.0))
        assert ss.norm_mean == 1.0 and ss.norm_std == 2.0
        np.testing.assert_allclose(
            ss.shards[0].frames,
            (traj.frames - 1.0) / 2.0,
            atol=1e-7,
        )

    def test_length_mismatch(self, rng):
        traj = Trajectory(frames=rng.standard_normal((10, 8)), snapshot_interval=1.0)
        with pytest.raises(ConfigurationError):
            training.build_sample_set([traj], [1.0, 2.0], 2)

    def test_assemble_batch(self, rng):
        traj = Trajectory(frames=rng.standard_normal((12, 6)), snapshot_interval=1.0)
        ss = training.build_sample_set([traj], [0.5], 3)
        histories, targets = training.assemble_batch(ss.shards[0], 3, np.array([0, 4]))
        assert histories.shape == (2, 3, 6)
        np.testing.assert_array_equal(histories[1], ss.shards[0].frames[4:7])
        np.testing.assert_array_equal(targets[1], ss.shards[0].frames[7])

    def test_mixed_shapes_refused(self, rng):
        with pytest.raises(BatchingError):
            training.stack_samples([rng.standard_normal((2, 8)), rng.standard_normal((2, 6))])

    def test_validation_split_is_trailing(self):
        train, val = training._split_indices(100, 0.05)
        assert len(train) == 95 and len(val) == 5
        np.testing.assert_array_equal(val, np.arange(95, 100))


class TestTrainConfig:
    def test_phase_checked(self):
        with pytest.raises(ConfigurationError):
            training.TrainConfig(phase="transfer")

    def test_crps_needs_members(self):
        with pytest.raises(ConfigurationError):
            training.TrainConfig(phase="pretrain", loss="crps_spectral", ensemble_members=1)

    def test_loss_name_checked(self):
        with pytest.raises(ConfigurationError):
            training.TrainConfig(phase="pretrain", loss="huber")

    def test_val_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            training.TrainConfig(phase="pretrain", val_fraction=1.0)


class TestPretrain:
    def test_loss_decreases_on_learnable_data(self):
        traj = wave_trajectory()
        params = tiny_model(channels=8, n_blocks=2, window=5)
        ss = training.build_sample_set([traj], [1.0], 2)
        config = training.TrainConfig(phase="pretrain", epochs=200, batch_size=32, seed=0)
        result = training.pretrain(params, ss, config)
        assert result.history[-1].train_loss < 0.1 * result.history[0].train_loss
        assert result.history[-1].val_loss < 0.5  # standardized variance is 1

    def test_sets_normalization(self):
        traj = wave_trajectory()
        params = tiny_model()
        ss = training.build_sample_set([traj], [1.0], 2)
        training.pretrain(params, ss, training.TrainConfig(phase="pretrain", epochs=1))
        assert params.norm_mean == ss.norm_mean
        assert params.norm_std == ss.norm_std

    def test_conditioning_parameters_never_move(self):
        """Pretraining must leave the conditioning map bit-identical; it is
        not even part of the computation graph."""
        traj = wave_trajectory()
        params = tiny_model()
        frozen = [
            (blk.cond_weight.copy(), blk.cond_bias.copy()) for blk in params.blocks
        ]
        ss = training.build_sample_set([traj], [1.0], 2)
        training.pretrain(params, ss, training.TrainConfig(phase="pretrain", epochs=3))
        for blk, (w, b) in zip(params.blocks, frozen):
            np.testing.assert_array_equal(blk.cond_weight, w)
            np.testing.assert_array_equal(blk.cond_bias, b)
        assert not np.array_equal(params.encoder, tiny_model().encoder)

    def test_single_conditioning_enforced(self):
        trajs = [wave_trajectory(seed=0), wave_trajectory(seed=1)]
        params = tiny_model()
        ss = training.build_sample_set(trajs, [1.0, 2.0], 2)
        with pytest.raises(ConfigurationError):
            training.pretrain(params, ss, training.TrainConfig(phase="pretrain", epochs=1))

    def test_phase_mismatch(self):
        ss = training.build_sample_set([wave_trajectory()], [1.0], 2)
        with pytest.raises(ConfigurationError):
            training.pretrain(tiny_model(), ss, training.TrainConfig(phase="finetune"))

    def test_seed_determinism(self):
        # batch_size below the sample count so the shuffle order matters
        outcomes = []
        for seed in (4, 4, 9):
            traj = wave_trajectory()
            params = tiny_model()
            ss = training.build_sample_set([traj], [1.0], 2)
            training.pretrain(
                params,
                ss,
                training.TrainConfig(phase="pretrain", epochs=3, batch_size=8, seed=seed),
            )
            outcomes.append(params.encoder.copy())
        np.testing.assert_array_equal(outcomes[0], outcomes[1])
        assert not np.array_equal(outcomes[0], outcomes[2])

    def test_too_short_shard(self):
        short = Trajectory(frames=np.random.default_rng(0).standard_normal((2, 8)),
                           snapshot_interval=1.0)
        ss = training.build_sample_set([short], [1.0], 2)
        with pytest.raises(ConfigurationError):
            training.pretrain(tiny_model(), ss, training.TrainConfig(phase="pretrain", epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        # a rate this absurd overflows float32 activations within a step or two
        traj = wave_trajectory()
        params = tiny_model()
        ss = training.build_sample_set([traj], [1.0], 2)
        config = training.TrainConfig(
            phase="pretrain", epochs=5, batch_size=8, learning_rate=1e30
        )
        with pytest.raises(TrainingAbortedError) as excinfo:
            training.pretrain(params, ss, config)
        assert excinfo.value.epoch >= 0
        assert excinfo.value.batch >= 0

    def test_crps_spectral_path_runs_and_is_deterministic(self):
        losses = []
        for _ in range(2):
            traj = wave_trajectory()
            params = tiny_model(probabilistic=True)
            ss = training.build_sample_set([traj], [1.0], 2)
            config = training.TrainConfig(
                phase="pretrain", loss="crps_spectral", ensemble_members=2,
                epochs=2, seed=11,
            )
            result = training.pretrain(params, ss, config)
            losses.append([r.train_loss for r in result.history])
        assert losses[0] == losses[1]
        assert np.all(np.isfinite(losses[0]))


class TestFinetune:
    def _pretrained(self):
        traj = wave_trajectory()
        params = tiny_model()
        ss = training.build_sample_set([traj], [1.0], 2)
        training.pretrain(params, ss, training.TrainConfig(phase="pretrain", epochs=5))
        return params, ss

    def test_zero_epochs_is_identity(self, rng):
        params, ss = self._pretrained()
        before = {name: arr.copy() for name, arr in emodel.named_parameters(params)}
        history = rng.standard_normal((2, 24)).astype(np.float32)
        out_before = emodel.predict(params, history, 1.0)
        training.finetune(params, ss, training.TrainConfig(phase="finetune", epochs=0))
        for name, arr in emodel.named_parameters(params):
            np.testing.assert_array_equal(arr, before[name], err_msg=name)
        np.testing.assert_array_equal(emodel.predict(params, history, 1.0), out_before)

    def test_moves_conditioning_parameters(self):
        params, ss = self._pretrained()
        w_before = params.blocks[0].cond_weight.copy()
        training.finetune(params, ss, training.TrainConfig(phase="finetune", epochs=3))
        assert not np.array_equal(params.blocks[0].cond_weight, w_before)

    def test_stats_must_match(self):
        params, _ = self._pretrained()
        other = training.build_sample_set([wave_trajectory(seed=3)], [1.0], 2,
                                          stats=(0.5, 9.0))
        with pytest.raises(ConfigurationError):
            training.finetune(params, other, training.TrainConfig(phase="finetune", epochs=1))

    def test_default_rate_is_divided_pretrain_rate(self):
        """Finetuning with no explicit rate must match an explicit rate of
        pretrain_lr / 50 exactly, run for run."""
        results = []
        for explicit in (None, 5e-4 / training.FINETUNE_LR_DIVISOR):
            params, ss = self._pretrained()
            config = training.TrainConfig(
                phase="finetune", epochs=2, learning_rate=explicit, seed=2
            )
            training.finetune(params, ss, config, pretrain_learning_rate=5e-4)
            results.append(np.concatenate(
                [arr.ravel() for _, arr in emodel.named_parameters(params)]
            ))
        np.testing.assert_array_equal(results[0], results[1])

    def test_phase_mismatch(self):
        params, ss = self._pretrained()
        with pytest.raises(ConfigurationError):
            training.finetune(params, ss, training.TrainConfig(phase="pretrain", epochs=1))


class TestFloat32EndToEnd:
    """A float32 model keeps the whole forward and backward path in float32."""

    @pytest.mark.parametrize(
        "phase,loss,trainable",
        [("pretrain", "mse", "backbone"), ("finetune", "crps_spectral", "all")],
    )
    def test_training_step(self, monkeypatch, phase, loss, trainable):
        params = tiny_model(n_blocks=2, probabilistic=True, use_cond_gates=True)
        ss = training.build_sample_set([wave_trajectory()], [1.0], 2)
        histories, targets = training.assemble_batch(ss.shards[0], 2, np.arange(6))
        config = training.TrainConfig(phase=phase, loss=loss, ensemble_members=3)
        tmodel = emodel.TensorModel.from_params(params, trainable=trainable)

        dtypes = []
        finalize = ad._finalize

        def spy(out_data, backward, *inputs):
            dtypes.append(np.asarray(out_data).dtype)
            return finalize(out_data, backward, *inputs)

        monkeypatch.setattr(ad, "_finalize", spy)
        with ad.Graph() as graph:
            value = training._batch_loss(
                tmodel, histories, targets, ss.shards[0].conditioning, config,
                np.random.default_rng(0),
            )
            graph.backward(value)

        assert len(dtypes) >= graph.n_nodes > 0
        assert set(dtypes) == {np.dtype(np.float32)}
        # The deterministic pretrain forward leaves the sampling head unreached.
        grads = [t.grad for t in tmodel.trainable() if t.grad is not None]
        assert len(grads) == len(tmodel.trainable()) - 2 * (phase == "pretrain")
        assert {g.dtype for g in grads} == {np.dtype(np.float32)}

    def test_predict(self, rng):
        params = tiny_model(probabilistic=True, use_cond_gates=True)
        history = rng.standard_normal((2, 24)).astype(np.float32)
        for mode in ("deterministic", "probabilistic"):
            out = emodel.predict(params, history, 0.5, mode=mode, rng=rng)
            assert out.dtype == np.float32, mode


class TestMetrics:
    def test_golden_file(self, tmp_path):
        records = [
            training.EpochRecord(epoch=0, phase="pretrain", train_loss=0.5,
                                 val_loss=0.25, wall_time=1.0),
            training.EpochRecord(epoch=1, phase="pretrain", train_loss=0.125,
                                 val_loss=float("nan"), wall_time=2.5),
        ]
        path = tmp_path / "run.metrics.csv"
        training.write_metrics(path, records)
        assert path.read_bytes() == (
            b"epoch,phase,train_loss,val_loss\r\n"
            b"0,pretrain,5.0000000000e-01,2.5000000000e-01\r\n"
            b"1,pretrain,1.2500000000e-01,nan\r\n"
        )
        timing = (tmp_path / "run.metrics.timing.csv").read_text().splitlines()
        assert timing[0] == "epoch,wall_time_s"
        assert timing[1] == "0,1.000"

    def test_zero_epoch_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        training.write_metrics(path, [])
        assert path.read_bytes() == b"epoch,phase,train_loss,val_loss\r\n"

    def test_training_writes_metrics(self, tmp_path):
        traj = wave_trajectory()
        params = tiny_model()
        ss = training.build_sample_set([traj], [1.0], 2)
        path = tmp_path / "run.csv"
        training.pretrain(
            params, ss, training.TrainConfig(phase="pretrain", epochs=2), metrics_path=path
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0,pretrain,")

    def test_no_validation_split_records_nan(self):
        traj = wave_trajectory()
        params = tiny_model()
        ss = training.build_sample_set([traj], [1.0], 2)
        config = training.TrainConfig(phase="pretrain", epochs=1, val_fraction=0.0)
        result = training.pretrain(params, ss, config)
        assert np.isnan(result.history[0].val_loss)
        assert np.isfinite(result.history[0].train_loss)
