"""Each output check accepts a good result and rejects a corrupted one."""

import numpy as np
import pytest

import grwflash as g
from workloads import (
    check_ensemble,
    check_kernel_table,
    check_oracle,
    check_verify,
    force_deviation,
    read_density_csv,
)


def _failed(checks):
    return [name for name, ok, _ in checks if not ok]


def test_verify_check():
    good = check_verify(0, "PASS: trace distance ...\n", {"passed": True})
    assert _failed(good) == []
    assert _failed(check_verify(1, "FAIL: trace distance ...\n", {"passed": False})) \
        == ["exit code 0", "PASS verdict"]
    assert _failed(check_verify(0, "PASS: ...\n", {"passed": False})) == ["PASS verdict"]


def _ensemble_case():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    ent = sum(np.outer(row, row.conj()) for row in v) / 3
    report = {"flash_count_mean": 4.05, "flash_count_var": 4.0, "n_traj": 256}
    return ent, report


def test_ensemble_check_accepts_a_good_result():
    ent, report = _ensemble_case()
    assert _failed(check_ensemble(16, ent, 4, 1.0, report, 4.0)) == []


@pytest.mark.parametrize("corrupt, name", [
    (lambda e, r: (15, e, r), "b^2 CSV rows"),
    (lambda e, r: (16, e + np.diag([0, 0, 0, 1e-3]) * 1j, r), "rho Hermitian"),
    (lambda e, r: (16, 1.001 * e, r), "trace 1"),
    (lambda e, r: (16, e, {**r, "flash_count_mean": 4.7}), "flash count"),
])
def test_ensemble_check_rejects_corruption(corrupt, name):
    ent, report = _ensemble_case()
    rows, ent, report = corrupt(ent, report)
    assert _failed(check_ensemble(rows, ent, 4, 1.0, report, 4.0)) == [name]


def test_density_csv_reader_takes_plain_and_numpy_repr_cells(tmp_path):
    ent, _ = _ensemble_case()
    path = tmp_path / "density_matrix.csv"
    lines = ["# params_hash=x", "i,j,re,im,std_error"]
    for i in range(4):
        for j in range(4):
            re, im = repr(float(ent[i, j].real)), repr(float(ent[i, j].imag))
            if (i + j) % 2:
                re, im = f"np.float64({re})", f"np.float64({im})"
            lines.append(f"{i},{j},{re},{im},0.0")
    path.write_text("\n".join(lines) + "\n")
    rows, parsed = read_density_csv(path, 4)
    assert rows == 16
    assert np.array_equal(parsed, ent)


def _pure_pair():
    grid = g.GridSpec(1, 4, 1.0, (0.0,))
    rng = np.random.default_rng(1)
    amps = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return g.pure_density(g.normalize(g.WaveFunction(grid, 2, amps)))


def test_oracle_check():
    rho0 = _pure_pair()
    assert _failed(check_oracle(rho0, rho0, 0.01)) == []
    skew = rho0.entries.copy()
    skew[0, 1] += 1e-6
    assert _failed(check_oracle(rho0, rho0.with_entries(skew), 0.01)) == ["Hermiticity"]
    assert _failed(check_oracle(rho0, rho0.with_entries(1.001 * rho0.entries), 0.01)) \
        == ["trace drift"]
    assert _failed(check_oracle(rho0, rho0, 0.06)) == ["Newtonian force"]


def _reduced_pair(scale):
    grid = g.GridSpec(1, 42, 0.6, (-9.0,))
    params = g.PhysicalParams(lam=1.0, r_C=1.0, G=0.02, hbar=1.0, masses=(1.0, 1.0))
    x, h, total_time = grid.axis(0), grid.spacing, 2.0
    red0 = np.ones((42, 42), dtype=complex)
    red_t = red0.copy()
    for i in range(10, 16):
        force = g.classical_limit_force([x[i] + h / 2], [[6.0]], params)[0]
        red_t[i, i + 1] = np.exp(-1j * scale * force * total_time * h)
    return (g.DensityMatrix(grid, 1, red0), g.DensityMatrix(grid, 1, red_t),
            params, total_time)


def test_force_deviation():
    red0, red_t, params, total_time = _reduced_pair(1.0)
    assert force_deviation(red0, red_t, params, total_time, 6.0) < 1e-9
    red0, red_t, params, total_time = _reduced_pair(1.1)
    assert force_deviation(red0, red_t, params, total_time, 6.0) == pytest.approx(0.1)


def _kernel_table():
    seps = np.linspace(0.1, 3.0, 5)
    re = np.exp(-seps**2 / 4)
    return np.column_stack([seps, re, np.full(5, 1e-9), np.full(5, 1e-8)])


@pytest.mark.parametrize("column, value, name", [
    (2, 1e-7, "|Im G| <= error <= 1e-6"),
    (3, 2e-6, "|Im G| <= error <= 1e-6"),
    (1, 1.0 + 1e-6, "|G| <= 1 + error"),
])
def test_kernel_check_rejects_corruption(column, value, name):
    table = _kernel_table()
    assert _failed(check_kernel_table(table, 5, "t")) == []
    table[2, column] = value
    assert _failed(check_kernel_table(table, 5, "t")) == [f"t {name}"]


def test_kernel_check_counts_rows():
    assert _failed(check_kernel_table(_kernel_table()[:4], 5, "t")) == ["t rows"]
