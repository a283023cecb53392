"""reprfmt.csv_lines against CPython's repr, cell for cell."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grwflash
from grwflash.reprfmt import csv_lines

CHUNK = 1 << 16  # values per csv_lines call


def assert_matches_repr(values):
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    for start in range(0, x.size, CHUNK):
        part = x[start:start + CHUNK]
        got = csv_lines([part]).tobytes().decode("ascii").split("\n")
        want = [repr(v) for v in part.tolist()]
        assert got[-1] == "" and len(got) == len(want) + 1
        bad = [(bits, g, w) for bits, g, w in zip(
            part.view(np.uint64).tolist(), got, want) if g != w]
        assert not bad, [(hex(bits), g, w) for bits, g, w in bad[:5]]


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    # the largest double's neighbour is inf, a nan's is nan
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate([x, np.nextafter(x, np.inf),
                               np.nextafter(x, -np.inf)])


def test_random_bit_patterns_and_neighbours_match_repr():
    bits = np.random.default_rng(2020).integers(
        0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
    assert_matches_repr(with_neighbours(bits.view(np.float64)))


def test_signs_zeros_and_non_finite_values_match_repr():
    nan_bits = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF8000000000123, 0xFFF0000000000001,
                         0x7FF0000000000001], dtype=np.uint64)
    assert_matches_repr([0.0, -0.0, np.inf, -np.inf])
    assert_matches_repr(nan_bits.view(np.float64))


def test_subnormals_and_the_extremes_match_repr():
    # Schubfach's own two-digit rule gives 4.9e-323 for 5e-323
    small = np.arange(1, 5000, dtype=np.uint64)
    subnormals = np.concatenate([small, small | np.uint64(1 << 63)])
    assert_matches_repr(subnormals.view(np.float64))
    assert_matches_repr(with_neighbours([
        5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308]))


def test_format_thresholds_match_repr():
    # fixed point for 1e-4 <= |x| < 1e16, exponent form outside
    assert_matches_repr(with_neighbours([
        1e16, 9999999999999998.0, 1e15, 1e-4, 1e-5, -1e16, -1e-4, -1e-5,
        0.1, 0.5, 1.0, 1.5, 123.456, 1e22, 1e23]))


def test_powers_and_integers_match_repr():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = [float(10**k) for k in range(309)] + \
        [float("1e-%d" % k) for k in range(1, 324)]
    assert_matches_repr(with_neighbours(powers_of_two))
    assert_matches_repr(with_neighbours(powers_of_ten))
    rng = np.random.default_rng(53)
    integers = np.concatenate([
        np.arange(100_000),
        rng.integers(0, 2**53, 200_000, endpoint=True),
        2**53 - np.arange(1000),
        rng.integers(1, 10**6, 10_000) * 10**rng.integers(0, 10, 10_000),
    ]).astype(np.float64)
    assert_matches_repr(integers)
    assert_matches_repr(-integers)


def test_int_and_mixed_columns_match_percent_r():
    ints = np.array([0, 7, 9, 10, 99, 1234567, 9999999, 10**7, 10**15,
                     2**62, 2**63 - 1], dtype=np.int64)
    floats = np.linspace(-3.0, 3.0, ints.size) ** 7
    got = csv_lines([ints, floats, ints[::-1], -floats]).tobytes()
    want = "".join("%r,%r,%r,%r\n" % row for row in zip(
        ints.tolist(), floats.tolist(), ints[::-1].tolist(),
        (-floats).tolist()))
    assert got.decode("ascii") == want
    with pytest.raises(ValueError, match="nonnegative"):
        csv_lines([np.array([-1])])


def test_importing_the_cli_builds_no_table():
    # the 617 powers of ten and the cell tables are built on first use
    src = str(Path(grwflash.__file__).resolve().parents[1])
    probe = ("import grwflash.cli, grwflash.reprfmt as r; "
             "print(r._tables.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
