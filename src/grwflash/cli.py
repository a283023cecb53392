"""Command-line front door: subcommands, run manifests, CSV emission.

Every run writes its outputs plus a JSON manifest (params, grid, seeds,
code version, params hash, flags).  CSV outputs are deterministic: reruns
with identical manifest inputs are byte-identical; timestamps live only in
the manifest.  Every CSV starts with a ``# params_hash=...`` line (plus
``master_seed=...`` for stochastic runs) and a column line; each cell is
the repr of a Python int or float.  ``density_matrix.csv`` has b^2 rows
``i,j,re,im,std_error`` in i-major order; its writer formats each
Hermitian pair once and spills the mirror lines to anonymous temporary
files in the output directory (at most about a quarter of the CSV's size
at once).  Every CSV and JSON output is written under a temporary name and
renamed into place when complete, so a failed write leaves no partial file.
Exit codes: 0 success, 1 physics-check failure (verify), 2 usage,
configuration or output-directory error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import astuple
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (
    QuadratureSpec,
    effective_potential_check,
    falsifiability_scan,
    gamma_at_separation,
    short_distance_rate,
)
from .config import ConfigError, ExperimentConfig, load_config, params_hash
from .dynamics import (
    EvolutionConfig,
    ensemble_vs_master_check,
    run_ensemble,
    run_trajectory,
)
from .quadrature import QuadratureError
from .state import make_gaussian_packet, load_state, save_state
from .units import (
    LAMBDA_GRW_SI,
    derive_r_G,
    si_preset,
)

ENV_OUT_DIR = "GRWFLASH_OUT_DIR"


@contextlib.contextmanager
def _whole_file(path):
    """Open a text file that appears at ``path`` whole or not at all.

    It is written under a temporary name beside ``path``, renamed over it
    once closed and removed on any exception.  Exclusive creation gives it
    the mode a plain ``open`` gives.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_json(path, payload) -> None:
    """``payload`` as indented, key-sorted JSON with a final newline."""
    with _whole_file(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir, config: ExperimentConfig, args, outputs,
                    master_seed=None, n_traj=None) -> None:
    """Write manifest.json, the reproducibility record of one subcommand run."""
    p = config.params
    manifest = {
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in vars(args).items() if v is not None},
        "params": {
            "lambda": p.lam,
            "r_C": p.r_C,
            "G": p.G,
            "hbar": p.hbar,
            "masses": list(p.masses),
            "smearing": p.smearing.kind,
            "smearing_width": p.smearing.width,
        },
        "grid": {
            "dim": config.grid.dim,
            "n_points": config.grid.n_points,
            "spacing": config.grid.spacing,
            "origin": list(config.grid.origin),
        },
        "master_seed": master_seed,
        "n_traj": n_traj,
        "code_version": __version__,
        "params_hash": params_hash(p, config.grid),
        "defaults_applied": config.defaults_applied,
        "outputs": [os.path.basename(str(o)) for o in outputs],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _csv_header(config: ExperimentConfig, columns, master_seed=None) -> str:
    """The two header lines of every CLI CSV: params hash (and seed), columns."""
    header = f"# params_hash={params_hash(config.params, config.grid)}"
    if master_seed is not None:
        header += f" master_seed={master_seed}"
    return header + "\n" + ",".join(columns) + "\n"


def _write_csv(path, config: ExperimentConfig, columns, rows,
               master_seed=None) -> None:
    """Params-hash header, column line, then one line per row.

    Each cell is written as the repr of a Python int or float, so callers
    pass Python scalars (``.tolist()``, ``float()``), never numpy scalars.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"
    with _whole_file(path) as fh:
        fh.write(_csv_header(config, columns, master_seed))
        for row in rows:
            fh.write(line % row)


DENSITY_BLOCK = 64  # target rows per spill file of _write_density_csv
_SIGN_BIT = np.uint64(1 << 63)


def _write_density_csv(path, config: ExperimentConfig, entries, entry_se,
                       master_seed) -> None:
    """``density_matrix.csv``: ``i,j,re,im,std_error`` rows, b^2 of them, i-major.

    The bytes are those of ``_write_csv`` over every (i, j), but each
    Hermitian pair is formatted once.  Row i formats its entries j >= i; the
    line of the mirror (j, i) reuses their three strings, with the sign of
    im flipped, wherever the bits make that exact: equal re and std_error,
    and im(j, i) the negated bits of a non-nan im(i, j).  Every other mirror
    is formatted from its own values, so any input gives the same bytes.
    Mirror lines wait in column order in one anonymous spill file per
    ``DENSITY_BLOCK`` target rows, in the output directory, until their
    block's rows are written.  A block reads its file back whole and takes
    row k's lines with ``spilled[k::size]``: memory holds one block's spill,
    the disk at most about a quarter of the CSV.
    """
    import tempfile

    ent = np.asarray(entries, dtype=np.complex128)
    se = np.asarray(entry_se, dtype=np.float64)
    b = ent.shape[0]
    re, im = ent.real, ent.imag
    re_bits, im_bits = re.view(np.uint64), im.view(np.uint64)
    se_bits = se.view(np.uint64)
    starts = range(0, b, DENSITY_BLOCK)
    spill_dir = os.path.dirname(os.path.abspath(path))
    spills = []
    try:
        for _ in starts[1:]:
            spills.append(tempfile.TemporaryFile(
                "w+", encoding="ascii", newline="", dir=spill_dir))
        with _whole_file(path) as out:
            out.write(_csv_header(config, ["i", "j", "re", "im", "std_error"],
                                  master_seed))
            for n, start in enumerate(starts):
                stop = min(start + DENSITY_BLOCK, b)
                size = stop - start
                spilled = []
                if n:
                    spills[n - 1].seek(0)
                    spilled = spills[n - 1].readlines()
                    spills[n - 1].close()
                inner = [[] for _ in range(size)]  # mirrors from this block
                for i in range(start, stop):
                    rs = list(map(repr, re[i, i:].tolist()))
                    ims = list(map(repr, im[i, i:].tolist()))
                    ses = list(map(repr, se[i, i:].tolist()))
                    # columns < start, then start..i-1, then i..b-1
                    out.write("".join(spilled[i - start::size]))
                    out.write("".join(inner[i - start]))
                    out.write("".join([
                        f"{i},{j},{r},{m},{e}\n"
                        for j, r, m, e in zip(range(i, b), rs, ims, ses)]))
                    lo = i + 1
                    mirror = [
                        f"{j},{i},{r},{m[1:] if m[0] == '-' else '-' + m},{e}\n"
                        for j, r, m, e in zip(range(lo, b), rs[1:], ims[1:],
                                              ses[1:])]
                    exact = ((re_bits[i, lo:] == re_bits[lo:, i])
                             & (se_bits[i, lo:] == se_bits[lo:, i])
                             & (im_bits[lo:, i] == im_bits[i, lo:] ^ _SIGN_BIT)
                             & ~np.isnan(im[i, lo:]))
                    for k in np.flatnonzero(~exact).tolist():
                        j = lo + k
                        mirror[k] = "%r,%r,%r,%r,%r\n" % (
                            j, i, re[j, i].item(), im[j, i].item(),
                            se[j, i].item())
                    for row, line in zip(inner[lo - start:], mirror):
                        row.append(line)
                    for later, fh in enumerate(spills[n:], start=n + 1):
                        first = starts[later] - lo
                        fh.write("".join(mirror[first:first + DENSITY_BLOCK]))
    finally:
        for fh in spills:
            fh.close()


def _initial_state(config: ExperimentConfig, section: dict):
    if section.get("state_file"):
        return load_state(section["state_file"])
    grid = config.grid
    n = config.params.n_particles
    centers = np.asarray(section["packet_center"], dtype=float)
    if centers.size == n:  # scalar center per particle in 1D
        centers = centers.reshape(n, 1) * np.ones((n, grid.dim))
    centers = centers.reshape(n, grid.dim)
    widths = np.asarray(section["packet_width"], dtype=float)
    if widths.size == 1:
        widths = np.repeat(widths, n)
    momenta = section.get("packet_momentum")
    if momenta is not None:
        momenta = np.asarray(momenta, dtype=float).reshape(n, grid.dim)
    return make_gaussian_packet(grid, n, centers, widths, momenta)


def _evolution_config(section: dict) -> EvolutionConfig:
    return EvolutionConfig(
        total_time=section["total_time"],
        hamiltonian=section.get("hamiltonian", "none"),
        snapshot_times=tuple(section.get("snapshot_times") or ()),
        softening=section.get("softening"),
    )


def _cmd_trajectory(config, args, out_dir):
    sec = dict(config.section("trajectory"))
    if args.seed is not None:
        sec["seed"] = args.seed
    psi0 = _initial_state(config, sec)
    evo = _evolution_config(sec)
    traj = run_trajectory(psi0, config.params, evo, sec["seed"], sec["master_seed"])
    flash_path = os.path.join(out_dir, "flashes.csv")
    state_path = os.path.join(out_dir, "final_state.grws")
    _write_csv(flash_path, config,
               ["time", "particle"] + ["x", "y", "z"][:config.grid.dim],
               [(f.time, f.particle, *f.position) for f in traj.flashes],
               sec["master_seed"])
    save_state(traj.final_state, state_path)
    _write_manifest(out_dir, config, args, [flash_path, state_path],
                    master_seed=sec["master_seed"], n_traj=1)
    print(f"trajectory seed={sec['seed']}: {len(traj.flashes)} flashes, "
          f"outputs in {out_dir}")
    return 0


def _cmd_ensemble(config, args, out_dir):
    sec = dict(config.section("ensemble"))
    if args.seed is not None:
        sec["master_seed"] = args.seed
    if args.n_traj is not None:
        sec["n_traj"] = args.n_traj
    psi0 = _initial_state(config, sec)
    evo = _evolution_config(sec)
    result = run_ensemble(
        psi0, config.params, evo, sec["n_traj"], sec["master_seed"],
        workers=args.threads,
    )
    # Keep what the outputs need and drop the rest (the half-split sums)
    # before the density writer runs.
    ent, se = result.rho.entries, result.entry_se
    counts, n_traj = result.flash_counts, result.n_traj
    del result
    rho_path = os.path.join(out_dir, "density_matrix.csv")
    _write_density_csv(rho_path, config, ent, se, sec["master_seed"])
    stats_path = os.path.join(out_dir, "ensemble_report.json")
    _write_json(stats_path, {
        "n_traj": n_traj,
        "flash_count_mean": float(counts.mean()),
        "flash_count_var": float(counts.var(ddof=1)),
        "expected_mean": config.params.lam * config.params.n_particles
                         * evo.total_time,
        "max_entry_se": float(se.max()),
    })
    _write_manifest(out_dir, config, args, [rho_path, stats_path],
                    master_seed=sec["master_seed"], n_traj=sec["n_traj"])
    print(f"ensemble n={sec['n_traj']}: mean flash count {counts.mean():.3f}, "
          f"outputs in {out_dir}")
    return 0


def _cmd_verify(config, args, out_dir):
    sec = dict(config.section("verify"))
    if args.seed is not None:
        sec["master_seed"] = args.seed
    if args.n_traj is not None:
        sec["n_traj"] = args.n_traj
    if args.tolerance is not None:
        sec["se_limit"] = args.tolerance
    psi0 = _initial_state(config, sec)
    evo = _evolution_config(sec)
    report, result, _oracle = ensemble_vs_master_check(
        psi0, config.params, evo, sec["n_traj"], sec["master_seed"],
        se_limit=sec["se_limit"], workers=args.threads,
    )
    report_path = os.path.join(out_dir, "verify_report.json")
    _write_json(report_path, {
        "trace_distance": report.trace_dist,
        "std_error": report.std_error,
        "three_sigma_bound": 3 * report.std_error,
        "se_limit": report.se_limit,
        "n_traj": report.n_traj,
        "passed": report.passed,
    })
    _write_manifest(out_dir, config, args, [report_path],
                    master_seed=sec["master_seed"], n_traj=sec["n_traj"])
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_kernel(config, args, out_dir):
    sec = config.section("kernel")
    rel_tol = args.tolerance if args.tolerance is not None else sec["rel_tol"]
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=sec["abs_tol"])
    path = os.path.join(out_dir, "kernel.csv")
    points = [gamma_at_separation(s, config.params, spec)
              for s in sec["separations"]]
    _write_csv(path, config, ["separation", "re", "im", "error"],
               [(s, float(pt.value.real), float(pt.value.imag), float(pt.error))
                for s, pt in zip(sec["separations"], points)])
    _write_manifest(out_dir, config, args, [path])
    print(f"kernel table for {len(sec['separations'])} separations in {out_dir}")
    return 0


def _cmd_slope(config, args, out_dir):
    sec = config.section("slope")
    tol = args.tolerance if args.tolerance is not None else sec["tolerance"]
    fit = short_distance_rate(config.params, sec["separations"], tolerance=tol)
    path = os.path.join(out_dir, "slope.csv")
    _write_csv(path, config, ["separation", "excess_rate", "error"],
               zip(fit.separations.tolist(), fit.excess.tolist(),
                   fit.errors.tolist()))
    report_path = os.path.join(out_dir, "slope_report.json")
    _write_json(report_path, {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "expected_slope": fit.expected_slope,
        "rel_deviation": fit.rel_deviation,
        "r_squared": fit.r_squared,
    })
    _write_manifest(out_dir, config, args, [path, report_path])
    print(f"slope {fit.slope:.6g} vs expected {fit.expected_slope:.6g} "
          f"({100 * fit.rel_deviation:.2f}% off, R^2={fit.r_squared:.6f})")
    return 0


def _cmd_potential(config, args, out_dir):
    sec = config.section("potential")
    rows = effective_potential_check(sec["d_values"], config.params)
    path = os.path.join(out_dir, "potential.csv")
    _write_csv(path, config,
               ["d", "quadrature", "closed_form", "rel_error", "newton_deviation"],
               [tuple(map(float, astuple(r))) for r in rows])
    _write_manifest(out_dir, config, args, [path])
    onset = [r.d for r in rows if r.newton_deviation > 0.01]
    print(f"potential table in {out_dir}; >1% Newton deviation at d = {onset}")
    return 0


def _cmd_scan(config, args, out_dir):
    sec = config.section("scan")
    tol = args.tolerance if args.tolerance is not None else sec["tolerance"]
    result = falsifiability_scan(
        sec["separation"], config.params.r_C, sec["lambda_grid"],
        config.params, tolerance=tol,
    )
    path = os.path.join(out_dir, "scan.csv")
    _write_csv(path, config,
               ["lambda", "total_rate", "intrinsic", "excess", "excess_error"],
               zip(result.lambda_grid.tolist(), result.rates.tolist(),
                   result.intrinsic.tolist(), result.excess.tolist(),
                   result.excess_errors.tolist()))
    _write_manifest(out_dir, config, args, [path])
    print(f"falsifiability scan over {len(result.lambda_grid)} rates in {out_dir}")
    return 0


def _cmd_presets(config, args, out_dir):
    print("CODATA SI presets (lambda = 1e-16 1/s, r_C = 1e-7 m):")
    for name in ("proton", "electron"):
        p = si_preset(name, LAMBDA_GRW_SI)
        r_g = derive_r_G(p, 0, 0)
        print(f"  {name:<9} m = {p.masses[0]:.10e} kg   "
              f"r_G = {r_g:.4e} m   eps = {r_g / p.r_C:.4e}")
    return 0


_COMMANDS = {
    "trajectory": _cmd_trajectory,
    "ensemble": _cmd_ensemble,
    "verify": _cmd_verify,
    "kernel": _cmd_kernel,
    "slope": _cmd_slope,
    "potential": _cmd_potential,
    "scan": _cmd_scan,
    "presets": _cmd_presets,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grwflash",
        description="Stochastic and exact solvers for the GRW model with "
                    "gravitating flashes.",
    )
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--seed", type=int, help="override the (master) seed")
    parser.add_argument("--n-traj", type=int, dest="n_traj",
                        help="override the trajectory count")
    parser.add_argument("--out-dir", dest="out_dir",
                        help=f"output directory (default ${ENV_OUT_DIR} or cwd)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for ensembles (0 = auto)")
    parser.add_argument("--tolerance", type=float,
                        help="override the subcommand tolerance")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    return parser


def run_subcommand(config: ExperimentConfig, args) -> int:
    out_dir = args.out_dir or os.environ.get(ENV_OUT_DIR) or os.getcwd()
    os.makedirs(out_dir, exist_ok=True)
    return _COMMANDS[args.subcommand](config, args, out_dir)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads < 0:
        print(f"error: --threads must be nonnegative, got {args.threads}",
              file=sys.stderr)
        return 2
    try:
        if args.config:
            config = load_config(args.config)
        else:
            if args.subcommand != "presets":
                print("error: --config is required for this subcommand",
                      file=sys.stderr)
                return 2
            config = None
        return run_subcommand(config, args) if config is not None else \
            _cmd_presets(None, args, None)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
