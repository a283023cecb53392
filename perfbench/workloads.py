"""The four benchmark workloads: input generation, the timed call, checks.

Every workload drives grwflash through a public entry point: ``cli.main``
with generated config files, or (oracle-2p) the library calls a user makes
for the criterion-09 master run.  Inputs come only from the workload seed.

A workload object has these methods:

- ``setup(seed, work_dir)`` writes the config files, parses them and builds
  any in-memory input; it returns an opaque inputs object.
- ``items(inputs)`` is the number of work items in one run, for
  ``items_per_s``.
- ``run(inputs, out_dir)`` is the timed call.  It returns ``(ops, failed,
  result)``: grwflash calls made, how many raised or exited non-zero, and
  whatever ``check`` and ``digest`` need.
- ``check(inputs, out_dir, result)`` returns ``[(name, ok, detail)]``; and
  ``digest(out_dir, result)`` hashes the outputs, so that two runs of one
  seed can be compared bitwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

from grwflash import analysis, cli, dynamics, state
from grwflash.config import load_config


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _write_config(path, sections: dict):
    """Write an INI config and parse it back, as set-up, so bad input fails early."""
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return load_config(path)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _cli(argv) -> tuple[int, str]:
    """``grwflash <argv>`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _hash_files(out_dir, names, extra: bytes = b"") -> str:
    h = hashlib.sha256(extra)
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class VerifyWorkload:
    """``grwflash verify`` on the criterion-07 problem (ROADMAP E1)."""

    name = "verify-1d"
    n_traj = 4096

    def setup(self, seed, work_dir):
        master_seed = _rng(self.name, seed).randrange(2**31)
        cfg = os.path.join(work_dir, "verify.cfg")
        _write_config(cfg, {
            "params": {"lambda": 1.0, "r_c": 1.0, "g": 0.3},
            "grid": {"n_points": 64, "spacing": 0.25},
            "verify": {"n_traj": self.n_traj, "master_seed": master_seed,
                       "total_time": 2.0, "se_limit": 0.02,
                       "packet_center": 0.0, "packet_width": 0.75},
        })
        return {"argv": ["--config", cfg, "--threads", "1"]}

    def items(self, inputs):
        return self.n_traj

    def run(self, inputs, out_dir):
        code, stdout = _cli(inputs["argv"] + ["--out-dir", out_dir, "verify"])
        return 1, int(code != 0), {"code": code, "stdout": stdout}

    def check(self, inputs, out_dir, result):
        with open(os.path.join(out_dir, "verify_report.json")) as fh:
            report = json.load(fh)
        return check_verify(result["code"], result["stdout"], report)

    def digest(self, out_dir, result):
        return _hash_files(out_dir, ["verify_report.json"],
                           result["stdout"].encode())


def check_verify(code, stdout, report):
    return [
        ("exit code 0", code == 0, f"exit {code}"),
        ("PASS verdict", stdout.startswith("PASS") and report.get("passed") is True,
         stdout.strip()),
    ]


class EnsembleWorkload:
    """``grwflash ensemble``: two particles in 1D, b = 1024 (ROADMAP E3)."""

    name = "ensemble-2p"
    n_traj = 256
    n_points = 32

    def setup(self, seed, work_dir):
        master_seed = _rng(self.name, seed).randrange(2**31)
        cfg = os.path.join(work_dir, "ensemble.cfg")
        _write_config(cfg, {
            "params": {"lambda": 1.0, "r_c": 1.0, "g": 0.3,
                       "masses": "1.0, 1.0"},
            "grid": {"n_points": self.n_points, "spacing": 0.5},
            "ensemble": {"n_traj": self.n_traj, "master_seed": master_seed,
                         "total_time": 2.0, "hamiltonian": "kinetic",
                         "packet_center": "-2.0, 2.0", "packet_width": 1.0},
        })
        return {"argv": ["--config", cfg, "--threads", "1"],
                "expected_flashes": 1.0 * 2 * 2.0}

    def items(self, inputs):
        return self.n_traj

    def run(self, inputs, out_dir):
        code, _ = _cli(inputs["argv"] + ["--out-dir", out_dir, "ensemble"])
        return 1, int(code != 0), {"code": code}

    def check(self, inputs, out_dir, result):
        with open(os.path.join(out_dir, "ensemble_report.json")) as fh:
            report = json.load(fh)
        b = self.n_points**2
        rows, ent = read_density_csv(os.path.join(out_dir, "density_matrix.csv"), b)
        return [("exit code 0", result["code"] == 0, f"exit {result['code']}")] + \
            check_ensemble(rows, ent, b, 0.5**2, report, inputs["expected_flashes"])

    def digest(self, out_dir, result):
        return _hash_files(out_dir, ["density_matrix.csv", "ensemble_report.json"])


def read_density_csv(path, b):
    """``(row count, b x b entries)`` from a ``density_matrix.csv``.

    Cells written as numpy scalar reprs, ``np.float64(x)``, are read as x.
    Parsed in blocks so the check adds little to the run's peak memory.
    """
    ent = np.zeros((b, b), dtype=np.complex128)
    rows = 0
    with open(path, "rb") as fh:
        fh.readline()  # '# params_hash=...'
        fh.readline()  # column names
        while True:
            lines = fh.readlines(1 << 22)
            if not lines:
                break
            text = b"".join(lines).replace(b"np.float64(", b"").replace(b")", b"")
            block = np.loadtxt(io.BytesIO(text), delimiter=",", ndmin=2)
            i = block[:, 0].astype(np.int64)
            j = block[:, 1].astype(np.int64)
            ent[i, j] = block[:, 2] + 1j * block[:, 3]
            rows += len(block)
    return rows, ent


def check_ensemble(rows, ent, b, volume_element, report, expected_mean):
    scale = float(np.max(np.abs(ent)))
    asym = float(np.max(np.abs(ent - ent.conj().T)))
    trace = float(np.real(np.trace(ent))) * volume_element
    mean = report["flash_count_mean"]
    se = math.sqrt(report["flash_count_var"] / report["n_traj"])
    return [
        ("b^2 CSV rows", rows == b * b, f"{rows} rows for b = {b}"),
        ("rho Hermitian", asym <= 1e-12 * scale, f"max asymmetry {asym:.3e}"),
        ("trace 1", abs(trace - 1.0) <= 1e-10, f"trace {trace!r}"),
        ("flash count", abs(mean - expected_mean) <= 5 * se,
         f"mean {mean:.4f} vs {expected_mean} +- 5 x {se:.4f}"),
    ]


class OracleWorkload:
    """The criterion-09 master run through the library (ROADMAP E2)."""

    name = "oracle-2p"
    total_time = 2.0
    dt = 0.05
    lump_at = 6.0

    def setup(self, seed, work_dir):
        # The master equation is deterministic: this workload's inputs are
        # the criterion-09 problem for every seed.
        cfg = _write_config(os.path.join(work_dir, "oracle.cfg"), {
            "params": {"lambda": 1.0, "r_c": 1.0, "g": 0.02,
                       "masses": "1.0, 1.0"},
            "grid": {"n_points": 42, "spacing": 0.6, "origin": -9.0},
        })
        grid = cfg.grid
        packet = state.make_gaussian_packet(grid, 1, [[0.0]], [1.2])
        lump = np.zeros(grid.n_points, dtype=complex)
        lump[int(np.argmin(np.abs(grid.axis(0) - self.lump_at)))] = \
            1.0 / math.sqrt(grid.spacing)
        psi0 = state.WaveFunction(
            grid, 2, np.tensordot(packet.amplitudes, lump, axes=0))
        return {"params": cfg.params, "psi0": psi0,
                "evolution": dynamics.EvolutionConfig(total_time=self.total_time)}

    def items(self, inputs):
        return math.ceil(self.total_time / self.dt)

    def run(self, inputs, out_dir):
        rho0 = state.pure_density(inputs["psi0"])
        rho_t = dynamics.master_evolve(rho0, inputs["params"], inputs["evolution"],
                                       dt=self.dt)
        red0 = state.trace_out(rho0, keep=0)
        red_t = state.trace_out(rho_t, keep=0)
        return 1, 0, {"rho0": rho0, "rho_t": rho_t, "red0": red0, "red_t": red_t}

    def check(self, inputs, out_dir, result):
        worst = force_deviation(result["red0"], result["red_t"], inputs["params"],
                                self.total_time, self.lump_at)
        return check_oracle(result["rho0"], result["rho_t"], worst)

    def digest(self, out_dir, result):
        h = hashlib.sha256()
        for key in ("rho_t", "red_t"):
            h.update(np.ascontiguousarray(result[key].entries).tobytes())
        return h.hexdigest()


def check_oracle(rho0, rho_t, force_dev):
    drift = abs(rho_t.trace().real - rho0.trace().real)
    asym = float(np.max(np.abs(rho_t.entries - rho_t.entries.conj().T)))
    return [
        ("trace drift", drift < 1e-8, f"{drift:.3e}"),
        ("Hermiticity", asym < 1e-9, f"{asym:.3e}"),
        ("Newtonian force", force_dev < 0.05, f"worst deviation {force_dev:.2%}"),
    ]


def force_deviation(red0, red_t, params, total_time, lump_at):
    """Worst |measured/classical - 1| force over the criterion-09 midpoints."""
    grid = red0.grid
    x, h = grid.axis(0), grid.spacing
    worst = 0.0
    for i in range(10, 16):
        phase = float(np.angle(red_t.entries[i, i + 1] / red0.entries[i, i + 1]))
        measured = -phase / (total_time * h)
        predicted = analysis.classical_limit_force([x[i] + h / 2], [[lump_at]],
                                                   params)[0]
        worst = max(worst, abs(measured / predicted - 1.0))
    return worst


class KernelTablesWorkload:
    """The criterion-03 kernel tables, then ``slope`` and ``scan`` (E4)."""

    name = "kernel-tables"
    epsilons = (1e-3, 1e-2, 1e-1)
    n_separations = 50
    slope_separations = tuple(np.linspace(1e-3, 1e-2, 10))
    n_scan = 5

    def setup(self, seed, work_dir):
        # One separation per equal slice of [0.05, 3] r_C: seeded, and the
        # table's total cost varies little from seed to seed.
        rng = _rng(self.name, seed)
        width = (3.0 - 0.05) / self.n_separations
        seps = [0.05 + (i + rng.random()) * width
                for i in range(self.n_separations)]
        calls = []
        for eps in self.epsilons:
            cfg = os.path.join(work_dir, f"kernel-{eps:g}.cfg")
            _write_config(cfg, {
                "params": {"lambda": 1.0, "r_c": 1.0, "g": eps},
                "kernel": {"separations": _floats(seps), "rel_tol": 1e-9,
                           "abs_tol": 2e-7},
            })
            calls.append((f"kernel-{eps:g}", cfg, "kernel"))
        cfg = os.path.join(work_dir, "slope.cfg")
        _write_config(cfg, {
            "params": {"lambda": 1.0, "r_c": 1.0, "g": 1e-4},
            "slope": {"separations": _floats(self.slope_separations),
                      "tolerance": 3e-4},
            "scan": {"lambda_grid": "0.25, 0.5, 1.0, 2.0, 4.0"},
        })
        calls += [("slope", cfg, "slope"), ("scan", cfg, "scan")]
        return {"calls": calls}

    def items(self, inputs):
        return (len(self.epsilons) * self.n_separations
                + len(self.slope_separations) + self.n_scan)

    def run(self, inputs, out_dir):
        # A CLI user pays for the kernel cache in every process.
        analysis.clear_kernel_cache()
        codes = {}
        for label, cfg, subcommand in inputs["calls"]:
            sub = os.path.join(out_dir, label)
            codes[label] = _cli(["--config", cfg, "--out-dir", sub, subcommand])[0]
        failed = sum(code != 0 for code in codes.values())
        return len(codes), failed, {"codes": codes}

    def check(self, inputs, out_dir, result):
        out = [("exit codes 0", all(c == 0 for c in result["codes"].values()),
                str(result["codes"]))]
        for eps in self.epsilons:
            table = np.loadtxt(os.path.join(out_dir, f"kernel-{eps:g}", "kernel.csv"),
                               delimiter=",", skiprows=2, ndmin=2)
            out += check_kernel_table(table, self.n_separations, f"g={eps:g}")
        with open(os.path.join(out_dir, "slope", "slope_report.json")) as fh:
            r2 = json.load(fh)["r_squared"]
        out.append(("slope fit R^2", r2 > 0.999, f"R^2 = {r2!r}"))
        scan = np.loadtxt(os.path.join(out_dir, "scan", "scan.csv"),
                          delimiter=",", skiprows=2, ndmin=2)
        out.append(("scan rows", scan.shape[0] == self.n_scan
                    and bool(np.all(np.isfinite(scan))), f"{scan.shape[0]} rows"))
        return out

    def digest(self, out_dir, result):
        names = [os.path.join(label, name) for label, name in
                 [(f"kernel-{e:g}", "kernel.csv") for e in self.epsilons]
                 + [("slope", "slope.csv"), ("slope", "slope_report.json"),
                    ("scan", "scan.csv")]]
        return _hash_files(out_dir, names)


def check_kernel_table(table, n_rows, label):
    """Criterion 03 at every row: |Im G| <= error <= 1e-6, |G| <= 1 + error."""
    re, im, err = table[:, 1], table[:, 2], table[:, 3]
    real = bool(np.all((np.abs(im) <= err) & (err <= 1e-6)))
    bounded = bool(np.all(np.hypot(re, im) <= 1.0 + err))
    return [
        (f"{label} rows", table.shape[0] == n_rows, f"{table.shape[0]} rows"),
        (f"{label} |Im G| <= error <= 1e-6", real,
         f"worst |Im G| {np.max(np.abs(im)):.2e}, worst error {np.max(err):.2e}"),
        (f"{label} |G| <= 1 + error", bounded,
         f"max |G| - 1 - error {np.max(np.hypot(re, im) - 1.0 - err):.2e}"),
    ]


WORKLOADS = {w.name: w for w in (VerifyWorkload(), EnsembleWorkload(),
                                 OracleWorkload(), KernelTablesWorkload())}
