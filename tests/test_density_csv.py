"""density_matrix.csv: the pair-once writer against the row-by-row reference."""

import tempfile
import tracemalloc

import numpy as np
import pytest

from grwflash import cli
from grwflash.cli import DENSITY_BLOCK, _write_density_csv, main
from grwflash.config import load_config, params_hash
from grwflash.dynamics import EvolutionConfig, run_ensemble
from grwflash.state import make_gaussian_packet

CONFIG = """\
[params]
lambda = 1.0
g = 0.3
masses = {masses}

[grid]
n_points = {n_points}
spacing = 0.5
"""


def make_config(tmp_path, n_points=8, masses="1.0"):
    path = tmp_path / "density.cfg"
    path.write_text(CONFIG.format(n_points=n_points, masses=masses))
    return load_config(path)


def reference_density_csv(path, config, ent, se, master_seed):
    """Every (i, j) formatted on its own, one matrix row at a time.

    The writer ``grwflash ensemble`` used before each Hermitian pair was
    formatted once: ``_write_csv`` fed by a row generator.
    """
    header = f"# params_hash={params_hash(config.params, config.grid)}"
    if master_seed is not None:
        header += f" master_seed={master_seed}"
    rows = (
        (i, j, re, im, e)
        for i in range(ent.shape[0])
        for j, re, im, e in zip(range(ent.shape[1]), ent[i].real.tolist(),
                                ent[i].imag.tolist(), se[i].tolist())
    )
    line = ",".join(["%r"] * 5) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + "i,j,re,im,std_error" + "\n")
        for row in rows:
            fh.write(line % row)


def assert_same_bytes(tmp_path, config, ent, se, master_seed=7):
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir(parents=True)
    ref.mkdir()
    _write_density_csv(new / "density_matrix.csv", config, ent, se, master_seed)
    reference_density_csv(ref / "density_matrix.csv", config, ent, se,
                          master_seed)
    assert (new / "density_matrix.csv").read_bytes() == \
        (ref / "density_matrix.csv").read_bytes()
    assert sorted(p.name for p in new.iterdir()) == ["density_matrix.csv"]


def random_hermitian(b, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    s = np.abs(rng.standard_normal((b, b)))
    return a + a.conj().T, s + s.T


@pytest.mark.parametrize("n_particles, n_points", [(1, 70), (2, 20)])
def test_real_ensemble_matches_reference(tmp_path, n_particles, n_points):
    masses = ", ".join(["1.0"] * n_particles)
    config = make_config(tmp_path, n_points, masses)
    psi0 = make_gaussian_packet(config.grid, n_particles,
                                np.zeros((n_particles, 1)), np.ones(n_particles))
    evo = EvolutionConfig(total_time=1.0, hamiltonian="kinetic")
    result = run_ensemble(psi0, config.params, evo, 16, 3)
    ent, se = result.rho.entries, result.entry_se
    assert ent.shape == (n_points**n_particles,) * 2
    assert_same_bytes(tmp_path, config, ent, se)


@pytest.mark.parametrize("b", [1, DENSITY_BLOCK - 1, DENSITY_BLOCK, 100,
                               2 * DENSITY_BLOCK + 2])
def test_hermitian_blocks_match_reference(tmp_path, b):
    # below, at and across one and two spill blocks
    ent, se = random_hermitian(b, seed=b)
    assert_same_bytes(tmp_path, make_config(tmp_path), ent, se, master_seed=None)


def test_every_fallback_matches_reference(tmp_path):
    b = 2 * DENSITY_BLOCK + 5
    rng = np.random.default_rng(11)
    ent, se = random_hermitian(b, seed=12)
    scales = rng.choice([1e16, 3e16, 1e-4, 7e-5, 5e-324, 1e-310, 1.0], (b, b))
    scales = np.triu(scales) + np.triu(scales, 1).T
    ent = ent * scales
    se = se * scales
    # im of +0.0 or -0.0 on both sides, or +0.0 opposite -0.0
    for value_ij, value_ji, count in ((0.0, 0.0, 40), (-0.0, -0.0, 40),
                                      (0.0, -0.0, 40), (-0.0, 0.0, 40)):
        i, j = rng.integers(0, b, (2, count))
        ent.imag[i, j] = value_ij
        ent.imag[j, i] = value_ji
    # asymmetric std_error and re, one ulp apart
    i, j = rng.integers(0, b, (2, 60))
    se[i, j] = np.nextafter(se[j, i], np.inf)
    i, j = rng.integers(0, b, (2, 60))
    ent.real[i, j] = np.nextafter(ent.real[j, i], -np.inf)
    # non-finite values, sign-flipped nan bits included
    i, j = rng.integers(0, b, (2, 30))
    ent.imag[i, j] = np.nan
    ent.imag[j, i] = -np.nan
    i, j = rng.integers(0, b, (2, 30))
    ent.imag[i, j] = np.inf
    ent.imag[j, i] = -np.inf
    ent.real[:3, -3:] = np.nan
    se[-2:, :2] = np.inf
    assert np.any(np.abs(ent) >= 1e16) and np.any(np.abs(ent) < 1e-300)
    assert_same_bytes(tmp_path, make_config(tmp_path), ent, se)
    # a matrix with no symmetry at all
    ent = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    assert_same_bytes(tmp_path / "asym", make_config(tmp_path),
                      ent * scales, np.abs(rng.standard_normal((b, b))))


def test_non_contiguous_and_real_input_match_reference(tmp_path):
    ent, se = random_hermitian(90, seed=5)
    assert_same_bytes(tmp_path / "t", make_config(tmp_path), ent.T, se.T)
    assert_same_bytes(tmp_path / "r", make_config(tmp_path), ent.real, se)


def test_writer_memory_is_bounded(tmp_path):
    # the mirror triangle held as strings would need several times this
    ent, se = random_hermitian(1024, seed=1)
    tracemalloc.start()
    try:
        _write_density_csv(tmp_path / "density_matrix.csv", make_config(tmp_path),
                           ent, se, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "density.cfg", "density_matrix.csv"]


def test_failed_write_leaves_no_spill_file(tmp_path, monkeypatch):
    b = 2 * DENSITY_BLOCK + 2
    ent, se = random_hermitian(b, seed=4)
    config = make_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    opened, calls = [], []
    temporary_file = tempfile.TemporaryFile

    def recording_temporary_file(*args, **kwargs):
        fh = temporary_file(*args, **kwargs)
        opened.append(fh)
        return fh

    # three reprs per upper entry: fail in row DENSITY_BLOCK + 5, after the
    # second block's spill file was read back, while the third one's is open
    fail_after = 3 * sum(b - i for i in range(DENSITY_BLOCK + 5))

    def failing_repr(value):
        calls.append(1)
        if len(calls) > fail_after:
            raise RuntimeError("injected failure")
        return repr(value)

    monkeypatch.setattr(tempfile, "TemporaryFile", recording_temporary_file)
    monkeypatch.setattr(cli, "repr", failing_repr, raising=False)
    with pytest.raises(RuntimeError, match="injected failure"):
        _write_density_csv(out / "density_matrix.csv", config, ent, se, 1)
    assert len(opened) == 2
    assert len(calls) == fail_after + 1
    assert all(fh.closed for fh in opened)
    assert sorted(p.name for p in out.iterdir()) == []


def test_cli_ensemble_leaves_only_its_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(n_points=DENSITY_BLOCK + 6, masses="1.0")
                   + "\n[ensemble]\nn_traj = 4\ntotal_time = 0.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "ensemble"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "density_matrix.csv", "ensemble_report.json", "manifest.json"]
