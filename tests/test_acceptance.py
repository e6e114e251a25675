"""Whole-system acceptance checks.

Every test here exercises a complete workflow at realistic scale and prints
one PASS/FAIL line with the measured numbers, so a run log doubles as a
scorecard.  The expensive artifacts are built once per session: a toy
training run on a Kuramoto-Sivashinsky corpus, and a jet-forming beta-plane
simulation whose mid-run state seeds the event-statistics ensemble.
"""

import copy
import sys
import time

import numpy as np
import pytest

from pde_lab import autodiff as ad
from pde_lab import beta_plane, cli, diagnostics, fileio, ks, model, spectral, training
from pde_lab.fileio import Trajectory


def report(label: str, passed: bool, detail: str) -> None:
    """One scorecard line per test, bypassing pytest's capture."""
    sys.__stdout__.write(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}\n")
    sys.__stdout__.flush()


# ---------------------------------------------------------------------------
# shared artifacts

TOY_LENGTH = 22.0
TOY_SNAPSHOTS = 500
TOY_CONFIG = model.EmulatorConfig(
    n_blocks=4, channels=32, window=9, history=2, cond_dim=1, equation="ks"
)
TOY_EPOCHS = 400

# Jet-regime beta-plane recipe: weak forcing pushes the jet scale well inside
# the box and weak drag lets the staircase lock; see the energy-budget and
# jet-count calibration numbers in the repository notes.
BETA_ACCEPT = dict(beta=0.9, mu=2e-3, epsilon=1e-5, forcing_wavenumber=8, seed=0)
BETA_T_END = 5000.0
BETA_STATE_TIME = 1000.0  # mid-organization snapshot that seeds the ensemble
EPS1_BOUND = 0.60


@pytest.fixture(scope="session")
def toy_corpus():
    start = time.perf_counter()
    traj = ks.generate_dataset(ks.KSConfig(domain_length=TOY_LENGTH, seed=0), TOY_SNAPSHOTS)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="session")
def toy_run(toy_corpus):
    """Pretrained toy emulator plus everything needed to audit the run."""
    traj, corpus_wall = toy_corpus
    start = time.perf_counter()
    params = model.init_model(TOY_CONFIG, seed=0)
    init_cond = {
        name: arr.copy() for name, arr in model.named_parameters(params) if "cond" in name
    }
    sample_set = training.build_sample_set([traj], [TOY_LENGTH], TOY_CONFIG.history)
    config = training.TrainConfig(
        phase="pretrain", loss="mse", epochs=TOY_EPOCHS, batch_size=128, seed=0
    )
    result = training.pretrain(params, sample_set, config)
    return {
        "traj": traj,
        "params": result.params,
        "init_cond": init_cond,
        "sample_set": sample_set,
        "history": result.history,
        "corpus_wall": corpus_wall,
        "train_wall": time.perf_counter() - start,
    }


@pytest.fixture(scope="session")
def beta_run():
    """Spin-up from rest with per-unit energy and zonal-profile records."""
    config = beta_plane.BetaConfig(**BETA_ACCEPT)
    plan = beta_plane.make_beta_plan(config)
    state = beta_plane.init_state(config, plan)
    steps_per_unit = int(round(1.0 / config.dt))

    start = time.perf_counter()
    energies = [beta_plane.total_energy(state.zeta_modes, config, plan)]
    profiles = [beta_plane.zonal_velocity(state, config, plan)]
    mid_state = None
    for unit in range(1, int(round(BETA_T_END)) + 1):
        state = beta_plane.run(state, config, plan, steps_per_unit)
        energies.append(beta_plane.total_energy(state.zeta_modes, config, plan))
        profiles.append(beta_plane.zonal_velocity(state, config, plan))
        if unit == int(round(BETA_STATE_TIME)):
            mid_state = copy.deepcopy(state)
    return {
        "config": config,
        "energies": np.array(energies),
        "profiles": np.array(profiles),
        "mid_state": mid_state,
        "wall": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# solvers


def test_etdrk4_fourth_order_convergence():
    """Halving dt divides the error by about 2**4 on a smooth solution."""
    start = time.perf_counter()
    fields = []
    for dt in (0.1, 0.05, 0.025, 0.0125 / 2):
        config = ks.KSConfig(domain_length=22.0, dt=dt, warmup_time=0.0)
        plan = ks.make_ks_plan(config)
        tables = ks.build_tables(config, plan)
        x = spectral.grid_coordinates(plan)
        modes = np.fft.rfft(np.sin(2.0 * np.pi * x / 22.0))
        out = ks.integrate(modes, tables, plan, int(round(1.0 / dt)))
        fields.append(spectral.to_values(out, plan))
    reference = fields[-1]
    errors = [np.max(np.abs(field - reference)) for field in fields[:-1]]
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    wall = time.perf_counter() - start

    ok = all(12.0 < r < 20.0 for r in ratios) and wall < 10.0
    report(
        "etdrk4 fourth-order convergence",
        ok,
        f"error ratios {ratios[0]:.1f}, {ratios[1]:.1f} (target 16 +- 4), wall {wall:.1f}s",
    )
    assert ok


def test_linear_decay_matches_analytic():
    """Single spectral modes decay at their exact linear rates in both solvers."""
    # Kuramoto-Sivashinsky: mode k of length L has growth rate q^2 - q^4 with
    # q = 2 pi k / L; k = 4 on L = 22 sits in the decaying band.
    config = ks.KSConfig(domain_length=22.0, warmup_time=0.0)
    plan = ks.make_ks_plan(config)
    tables = ks.build_tables(config, plan)
    modes = np.zeros(config.n_points // 2 + 1, dtype=complex)
    amplitude = 1e-8 * config.n_points
    modes[4] = amplitude
    q = 2.0 * np.pi * 4 / 22.0
    steps = int(round(1.0 / config.dt))
    out = ks.integrate(modes, tables, plan, steps)
    expected = amplitude * np.exp((q**2 - q**4) * 1.0)
    ks_err = abs(abs(out[4]) - expected) / expected

    # Beta plane with forcing off: every mode's amplitude decays at the drag
    # rate mu while the Rossby term only rotates its phase.
    bconfig = beta_plane.BetaConfig(beta=0.9, epsilon=0.0)
    bplan = beta_plane.make_beta_plan(bconfig)
    state = beta_plane.init_state(bconfig, bplan)
    state.zeta_modes[1, 1] = 1e-6
    for _ in range(int(round(1.0 / bconfig.dt))):
        state = beta_plane.step(state, bconfig, bplan)
    bexpected = 1e-6 * np.exp(-bconfig.mu * 1.0)
    beta_err = abs(abs(state.zeta_modes[1, 1]) - bexpected) / bexpected

    worst = max(ks_err, beta_err)
    ok = worst < 1e-6
    report(
        "linear decay matches analytic",
        ok,
        f"relative errors ks {ks_err:.2e}, beta {beta_err:.2e} (limit 1e-6)",
    )
    assert ok


# ---------------------------------------------------------------------------
# differentiation and model structure

PRIMITIVE_SHAPES = {
    "add": [(3, 4), (3, 4)],
    "sub": [(5,), (5,)],
    "mul": [(2, 3), (2, 3)],
    "scale": [(4, 2)],
    "exp": [(3, 3)],
    "clamp": [(40,)],
    "absolute": [(4, 4)],
    "matmul": [(2, 3, 4), (2, 4, 5)],
    "linear": [(6, 3), (3, 5)],
    "layer_normalize": [(4, 6)],
    "gelu": [(5, 5)],
    "softmax_lastaxis": [(3, 7)],
    "unfold_circular": [(9, 2)],
    "dft_modulus": [(3, 8)],
    "transpose_last2": [(2, 3, 4)],
    "sum_all": [(3, 4)],
    "mean_all": [(2, 5)],
}


def test_gradient_check_suite():
    """Every registered primitive and the full model match finite differences."""
    start = time.perf_counter()
    assert set(PRIMITIVE_SHAPES) == set(ad.GRADCHECK_OPS)
    worst_primitive = 0.0
    for name in sorted(ad.GRADCHECK_OPS):
        result = ad.check_gradients(name, PRIMITIVE_SHAPES[name], tolerance=1e-6)
        worst_primitive = max(worst_primitive, result["max_rel_error"])

    # Probabilistic mode with conditioning gates puts every parameter kind on
    # the tape at once.
    config = model.EmulatorConfig(
        n_blocks=2, channels=4, window=3, history=2, probabilistic=True, use_cond_gates=True
    )
    params = model.init_model(config, seed=11, dtype=np.float64)
    tmodel = model.TensorModel.from_params(params, trainable="none")
    names = [name for name, _ in model.named_parameters(params)]
    shapes = [arr.shape for _, arr in model.named_parameters(params)]
    rng = np.random.default_rng(1234)
    history = ad.Tensor(rng.standard_normal((2, 8)))
    conditioning = model.Conditioning(0.4)
    noise = rng.standard_normal((8, config.channels))

    def full_model(*tensors):
        for name, tensor in zip(names, tensors):
            tmodel.tensors[name] = tensor
        return model.forward(
            history, conditioning, tmodel, mode="probabilistic", noise=ad.Tensor(noise.copy())
        )

    result = ad.check_gradients(full_model, shapes, tolerance=1e-5)
    wall = time.perf_counter() - start

    ok = result["passed"] and wall < 60.0
    report(
        "gradient check suite",
        ok,
        f"worst primitive {worst_primitive:.2e} (limit 1e-6), "
        f"full model {result['max_rel_error']:.2e} (limit 1e-5), wall {wall:.1f}s",
    )
    assert ok


def test_shift_equivariance():
    """Circularly shifting the input shifts the deterministic output in kind."""
    params = model.init_model(TOY_CONFIG, seed=4)
    rng = np.random.default_rng(0)
    # Fresh conditioning weights are zero by design, which would make the
    # conditioning path trivially equivariant; populate them.
    for block in params.blocks:
        block.cond_weight[...] = 0.1 * rng.standard_normal(block.cond_weight.shape)
    worst = 0.0
    for n_points in (56, 90, 246):
        history = rng.standard_normal((2, n_points)).astype(np.float32)
        out = model.predict(params, history, 0.7, mode="deterministic")
        for shift in (1, 7, n_points // 2):
            rolled = model.predict(
                params, np.roll(history, shift, axis=-1), 0.7, mode="deterministic"
            )
            worst = max(worst, float(np.max(np.abs(rolled - np.roll(out, shift)))))
    ok = worst <= 1e-5
    report(
        "shift equivariance",
        ok,
        f"worst deviation {worst:.2e} over grids 56/90/246 (limit 1e-5, 32-bit)",
    )
    assert ok


def test_one_checkpoint_runs_on_all_grids(tmp_path):
    """The same saved weights serve every grid size without reshaping."""
    params = model.init_model(TOY_CONFIG, seed=3)
    path = tmp_path / "any_grid.npec"
    model.save_checkpoint(path, params)
    loaded = model.load_checkpoint(path)
    frozen = {name: arr.copy() for name, arr in model.named_parameters(loaded)}

    rng = np.random.default_rng(5)
    grids = (56, 90, 120, 160, 246, 320, 500)
    shapes_ok = True
    for n_points in grids:
        out = model.predict(
            loaded, rng.standard_normal((2, n_points)).astype(np.float32), 0.5
        )
        shapes_ok = shapes_ok and out.shape == (n_points,) and bool(np.all(np.isfinite(out)))
    untouched = all(
        np.array_equal(arr, frozen[name]) for name, arr in model.named_parameters(loaded)
    )
    ok = shapes_ok and untouched
    report(
        "one checkpoint runs on all grids",
        ok,
        f"grids {grids}, outputs finite: {shapes_ok}, weights untouched: {untouched}",
    )
    assert ok


# ---------------------------------------------------------------------------
# losses


def brute_force_crps(truth: np.ndarray, ensemble: np.ndarray) -> float:
    members, n_points = ensemble.shape
    total = 0.0
    for p in range(n_points):
        accuracy = 0.0
        for i in range(members):
            accuracy += abs(ensemble[i, p] - truth[p])
        spread = 0.0
        for i in range(members):
            for j in range(members):
                spread += abs(ensemble[i, p] - ensemble[j, p])
        total += accuracy / members - spread / (2.0 * members**2)
    return total / n_points


def test_crps_matches_brute_force():
    """The vectorized score equals the triple loop; one member gives the MAE."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        members = int(rng.integers(1, 9))
        n_points = int(rng.integers(1, 13))
        ensemble = rng.standard_normal((members, n_points))
        truth = rng.standard_normal(n_points)
        ours = float(training.crps_loss(ad.Tensor(truth), ad.Tensor(ensemble)).data)
        worst = max(worst, abs(ours - brute_force_crps(truth, ensemble)))

    ensemble = rng.standard_normal((1, 64))
    truth = rng.standard_normal(64)
    single = float(training.crps_loss(ad.Tensor(truth), ad.Tensor(ensemble)).data)
    mae = float(np.mean(np.abs(ensemble - truth)))
    exact = single == mae

    ok = worst < 1e-10 and exact
    report(
        "crps matches brute force",
        ok,
        f"worst gap {worst:.2e} over 100 instances (limit 1e-10), m=1 equals MAE: {exact}",
    )
    assert ok


# ---------------------------------------------------------------------------
# training contracts and toy-scale skill


def test_conditioning_freeze_contract(toy_run):
    """Pretraining never touches conditioning weights; an empty finetune is a no-op."""
    params = toy_run["params"]
    untouched = all(
        np.array_equal(arr, toy_run["init_cond"][name])
        for name, arr in model.named_parameters(params)
        if "cond" in name
    )

    history = toy_run["traj"].frames[200:202]
    before = model.predict(params, history, TOY_LENGTH)
    config = training.TrainConfig(phase="finetune", loss="mse", epochs=0, seed=0)
    training.finetune(params, toy_run["sample_set"], config)
    after = model.predict(params, history, TOY_LENGTH)
    drift = float(np.max(np.abs(after - before)))

    ok = untouched and drift <= 1e-7
    report(
        "conditioning freeze contract",
        ok,
        f"conditioning bit-identical after pretrain: {untouched}, "
        f"zero-epoch finetune drift {drift:.2e} (limit 1e-7)",
    )
    assert ok


def test_toy_pretrain_reaches_skill_floor(toy_run):
    """Toy-scale training beats the climatological floor and rolls out stably."""
    start = time.perf_counter()
    traj = toy_run["traj"]
    params = toy_run["params"]
    frames = traj.frames.astype(np.float64)

    # One-step skill over the trailing fifth of the corpus, which overlaps
    # the held-out validation tail.
    n_eval = TOY_SNAPSHOTS // 5
    errors = []
    for target in range(TOY_SNAPSHOTS - n_eval, TOY_SNAPSHOTS):
        history = frames[target - 2 : target]
        prediction = model.predict(params, history, None, phase="pretrain")
        errors.append(np.mean((prediction - frames[target]) ** 2))
    one_step_mse = float(np.mean(errors))
    climatology = float(frames.var())
    floor = 0.25 * climatology

    rolled = diagnostics.rollout(params, frames[-2:], TOY_LENGTH, 10_000)
    peak = float(np.max(np.abs(rolled.frames)))
    eval_wall = time.perf_counter() - start
    total_wall = toy_run["corpus_wall"] + toy_run["train_wall"] + eval_wall

    ok = one_step_mse < floor and peak < 5.0 and total_wall < 1800.0
    report(
        "toy pretrain reaches skill floor",
        ok,
        f"one-step MSE {one_step_mse:.4f} < {floor:.4f} (0.25 x climatology), "
        f"10k-step rollout peak |u| {peak:.2f} < 5, total wall {total_wall:.0f}s",
    )
    assert ok


def test_emulator_statistics_within_null_band(toy_run):
    """Long-run joint statistics sit within three solver-noise distances."""
    params = toy_run["params"]
    truth_a = ks.generate_dataset(ks.KSConfig(domain_length=TOY_LENGTH, seed=1), 1000)
    truth_b = ks.generate_dataset(ks.KSConfig(domain_length=TOY_LENGTH, seed=2), 1000)
    hist_a = diagnostics.joint_pdf(truth_a)
    hist_b = diagnostics.joint_pdf(truth_b, edges=hist_a.edges)
    solver_null = diagnostics.hellinger(hist_a, hist_b)

    rolled = diagnostics.rollout(params, truth_a.frames[:2], TOY_LENGTH, 1000)
    hist_model = diagnostics.joint_pdf(rolled, edges=hist_a.edges, domain_length=TOY_LENGTH)
    distance = diagnostics.hellinger(hist_a, hist_model)

    ok = solver_null > 0.0 and distance < 3.0 * solver_null
    report(
        "emulator statistics within null band",
        ok,
        f"emulator Hellinger {distance:.4f} < 3 x solver null {solver_null:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# beta-plane physics and event statistics


def test_beta_plane_equilibration_and_jets(beta_run):
    """Energy saturates on the drag clock and the jet count locks in."""
    config = beta_run["config"]
    energies = beta_run["energies"]
    profiles = beta_run["profiles"]

    # Energy at mu * t = 3 should already sit at the statistical plateau,
    # measured as the mean over the final quarter of the run.
    t_eq = int(round(3.0 / config.mu))
    plateau = float(np.mean(energies[-len(energies) // 4 :]))
    at_eq = float(energies[t_eq])
    eq_gap = abs(at_eq - plateau) / plateau
    halfway = float(energies[int(round(1.0 / config.mu))])

    counts = np.array([diagnostics.count_jets(p) for p in profiles[-100:]])
    values, freq = np.unique(counts, return_counts=True)
    mode_count = int(values[np.argmax(freq)])
    mode_freq = float(freq.max() / counts.size)
    wall = beta_run["wall"]

    ok = eq_gap < 0.2 and halfway > 0.5 * plateau and mode_freq > 0.9 and wall < 1200.0
    report(
        "beta-plane equilibration and jets",
        ok,
        f"energy at mu*t=3 within {eq_gap:.1%} of plateau, "
        f"jet count mode {mode_count} holds {mode_freq:.0%} of final 100 frames "
        f"(need >90%), wall {wall:.0f}s",
    )
    assert ok


def test_event_machinery(beta_run):
    """Event detection bookkeeping plus a split-ensemble null comparison."""
    config = beta_run["config"]
    mid_state = beta_run["mid_state"]
    n_snapshots = 121
    interval = 1.0
    runner = diagnostics.solver_member_runner(
        config, mid_state.zeta_modes, n_snapshots, snapshot_interval=interval, base_seed=11
    )

    # Bookkeeping on a few real member trajectories: every event moves the
    # count by one, consecutive events chain, and reversing time swaps kinds.
    chains_ok = True
    reversal_ok = True
    members = [runner(i) for i in range(4)]
    for traj in members:
        events = diagnostics.detect_events(traj)
        for event in events:
            step = 1 if event.kind == "nucleation" else -1
            chains_ok = chains_ok and event.count_after == event.count_before + step
        for prev, cur in zip(events, events[1:]):
            chains_ok = chains_ok and cur.count_before == prev.count_after
        reversed_traj = Trajectory(
            frames=traj.frames[::-1].copy(),
            snapshot_interval=traj.snapshot_interval,
            t0=traj.t0,
            metadata=traj.metadata,
        )
        reversed_events = diagnostics.detect_events(reversed_traj)
        kinds = sorted(e.kind for e in events)
        swapped = sorted(
            "nucleation" if e.kind == "coalescence" else "coalescence" for e in reversed_events
        )
        reversal_ok = reversal_ok and kinds == swapped

    horizon = (n_snapshots - 1) * interval

    def half(offset: int):
        return diagnostics.event_time_pdf(
            lambda i: runner(2 * i + offset),
            ensemble_size=25,
            horizon=horizon,
            kind="coalescence",
            threads=4,
        )

    even, odd = half(0), half(1)
    conserved = (
        even.counts.sum() + even.overflow == 25 and odd.counts.sum() + odd.overflow == 25
    )
    split_distance = diagnostics.hellinger_1d(even, odd)

    ok = chains_ok and reversal_ok and conserved and split_distance < EPS1_BOUND
    report(
        "event machinery",
        ok,
        f"chains consistent: {chains_ok}, reversal swaps kinds: {reversal_ok}, "
        f"counts conserved: {conserved}, split Hellinger {split_distance:.3f} "
        f"(null bound {EPS1_BOUND})",
    )
    assert ok


# ---------------------------------------------------------------------------
# end-to-end determinism


def test_thread_count_invariance(tmp_path):
    """Worker count never changes metric output, and reruns are bit-identical."""
    state_path = tmp_path / "state.pdet"
    zonal_path = tmp_path / "zonal.pdet"
    cli.main(
        [
            "simulate",
            "beta",
            "--beta",
            "0.9",
            "--n",
            "32",
            "--kf",
            "8",
            "--snapshots",
            "3",
            "--interval",
            "0.4",
            "--warmup",
            "2.0",
            "--seed",
            "3",
            "--out",
            str(zonal_path),
            "--save-state",
            str(state_path),
        ]
    )

    outputs = []
    for run, threads in enumerate(("1", "4", "1")):
        csv_path = tmp_path / f"events_{run}.csv"
        code = cli.main(
            [
                "evaluate",
                "events",
                "--state",
                str(state_path),
                "--members",
                "12",
                "--horizon",
                "9.6",
                "--interval",
                "0.4",
                "--debounce",
                "2",
                "--threads",
                threads,
                "--seed",
                "9",
                "--out",
                str(csv_path),
            ]
        )
        assert code == 0
        outputs.append(csv_path.read_bytes())

    threads_match = outputs[0] == outputs[1]
    rerun_match = outputs[0] == outputs[2]
    ok = threads_match and rerun_match
    report(
        "thread count invariance",
        ok,
        f"threads 1 vs 4 identical: {threads_match}, rerun identical: {rerun_match}",
    )
    assert ok
