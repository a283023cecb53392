import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grwflash
from grwflash.cli import main
from grwflash.config import (
    ConfigError,
    load_config,
    params_hash,
    save_config,
)
from grwflash.dynamics import BATCH_SIZE
from grwflash.state import GridSpec
from grwflash.units import dimensionless_params

MINIMAL = """\
[params]
lambda = 1.0
g = 0.09

[grid]
n_points = 48
spacing = 0.3
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_plain_numbers(csv_path):
    """Every data cell of a CLI CSV is a plain number, never a numpy repr."""
    text = csv_path.read_text()
    assert "np." not in text
    for line in text.splitlines()[2:]:
        for cell in line.split(","):
            float(cell)


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.params.lam == 1.0
    assert cfg.params.G == 0.09
    assert cfg.grid.n_points == 48
    assert cfg.grid.dim == 1
    # defaults are recorded for the manifest
    assert cfg.defaults_applied["params"]["r_c"] == 1.0
    assert cfg.sections["ensemble"]["n_traj"] == 256


def test_unknown_key_is_named(tmp_path):
    bad = MINIMAL.replace("lambda = 1.0", "lamda = 1.0")
    with pytest.raises(ConfigError, match="lamda"):
        load_config(write(tmp_path, bad))
    # runs reduce in batches of 64 and fly exactly per segment: neither the
    # batch size nor a free-flight step is a config key
    for extra in ("[verify]\nbatch_size = 8", "[ensemble]\nbatch_size = 8",
                  "[trajectory]\ndt_free = 0.01"):
        key = extra.split("\n")[1].split(" =")[0]
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, MINIMAL + "\n" + extra + "\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mystery"):
        load_config(write(tmp_path, MINIMAL + "\n[mystery]\nx = 1\n"))


def test_invalid_params_rejected(tmp_path):
    with pytest.raises(ConfigError, match="lambda"):
        load_config(write(tmp_path, MINIMAL.replace("lambda = 1.0", "lambda = -2")))


def test_missing_state_file_rejected(tmp_path):
    text = MINIMAL + "\n[trajectory]\nstate_file = nowhere.grws\n"
    with pytest.raises(ConfigError, match="not found"):
        load_config(write(tmp_path, text))


def test_round_trip_save_load(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    out = tmp_path / "echo.cfg"
    save_config(cfg, out)
    again = load_config(out)
    assert again.params == cfg.params
    assert again.grid == cfg.grid
    assert again.sections == cfg.sections


def test_preset_config(tmp_path):
    text = "[params]\npreset = proton\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.params.masses[0] == pytest.approx(1.67262192369e-27)


def test_params_hash_stability():
    p = dimensionless_params(lam=1.0, r_G=0.1)
    g = GridSpec.centered(1, 64, 0.25)
    assert params_hash(p, g) == params_hash(p, g)
    assert params_hash(p, g) != params_hash(dimensionless_params(lam=2.0, r_G=0.1), g)
    assert params_hash(p, g) != params_hash(p, GridSpec.centered(1, 32, 0.25))


def test_cli_presets_exit_zero(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "proton" in out and "electron" in out


def test_cli_missing_config_is_usage_error(capsys):
    assert main(["--config", "/nonexistent/x.cfg", "kernel"]) == 2
    assert main(["kernel"]) == 2


def test_cli_bad_config_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("lambda", "lamda"))
    assert main(["--config", str(path), "trajectory"]) == 2
    assert "lamda" in capsys.readouterr().err


def test_cli_bad_integer_names_its_key(tmp_path, capsys):
    path = write(tmp_path, MINIMAL.replace("n_points = 48", "n_points = abc"))
    assert main(["--config", str(path), "trajectory"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [grid] n_points: ") and "'abc'" in err


def test_cli_truncated_state_file_is_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL + "\n[trajectory]\ntotal_time = 1.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "trajectory"]) == 0
    state = (out / "final_state.grws").read_bytes()
    capsys.readouterr()
    for cut in (10, 30):       # inside the version fields, then after them
        (tmp_path / "cut.grws").write_bytes(state[:cut])
        cut_cfg = write(tmp_path, MINIMAL + "\n[trajectory]\ntotal_time = 1.5\n"
                        "state_file = cut.grws\n", name="cut.cfg")
        rc = main(["--config", str(cut_cfg), "--out-dir", str(tmp_path / "again"),
                   "trajectory"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: truncated state file ")
        assert "cut.grws" in err


def test_cli_failed_json_write_keeps_the_old_file(tmp_path, monkeypatch):
    # an output appears whole or not at all, with the mode of a plain open
    cfg = write(tmp_path, MINIMAL + "\n[trajectory]\ntotal_time = 1.5\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "trajectory"]) == 0
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    for name in ("flashes.csv", "manifest.json"):
        assert (out / name).stat().st_mode == plain.stat().st_mode
    before = sorted(p.name for p in out.iterdir())
    manifest = (out / "manifest.json").read_bytes()

    def failing_dump(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(RuntimeError, match="injected failure"):
        main(["--config", str(cfg), "--out-dir", str(out), "trajectory"])
    assert sorted(p.name for p in out.iterdir()) == before
    assert (out / "manifest.json").read_bytes() == manifest


def test_cli_negative_threads_is_usage_error(tmp_path, capsys):
    # rejected for every subcommand, not only those that start workers
    cfg = write(tmp_path, MINIMAL + "\n[ensemble]\nn_traj = 4\ntotal_time = 0.5\n")
    out = tmp_path / "out"
    for subcommand in ("ensemble", "trajectory"):
        rc = main(["--config", str(cfg), "--out-dir", str(out), "--threads",
                   "-1", subcommand])
        assert rc == 2
        assert "-1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unusable_out_dir_is_usage_error(tmp_path, capsys):
    # a regular file, or a path below one, cannot hold the outputs
    cfg = write(tmp_path, MINIMAL + "\n[ensemble]\nn_traj = 4\ntotal_time = 0.5\n"
                "\n[trajectory]\ntotal_time = 0.5\n")
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    for out in (blocker, blocker / "below"):
        for subcommand in ("ensemble", "trajectory"):
            rc = main(["--config", str(cfg), "--out-dir", str(out), subcommand])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
    assert blocker.read_text() == "keep"


def test_cli_unknown_hamiltonian_is_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL + "\n[trajectory]\ntotal_time = 1.5\n"
                "hamiltonian = harmonic\n")
    rc = main(["--config", str(cfg), "--out-dir", str(tmp_path / "out"),
               "trajectory"])
    assert rc == 2
    assert "harmonic" in capsys.readouterr().err


def test_cli_trajectory_outputs_and_manifest(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL + "\n[trajectory]\ntotal_time = 1.5\n")
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out-dir", str(out), "trajectory"])
    assert rc == 0
    flashes = (out / "flashes.csv").read_text()
    assert flashes.startswith("# params_hash=")
    assert "master_seed=0" in flashes.splitlines()[0]
    assert flashes.splitlines()[1] == "time,particle,x"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "trajectory"
    assert "flashes.csv" in manifest["outputs"]
    assert manifest["params"]["lambda"] == 1.0
    assert (out / "final_state.grws").exists()


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = write(tmp_path, MINIMAL + "\n[trajectory]\ntotal_time = 1.5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["--config", str(cfg), "--out-dir", str(out1), "trajectory"])
    main(["--config", str(cfg), "--out-dir", str(out2), "trajectory"])
    assert (out1 / "flashes.csv").read_bytes() == (out2 / "flashes.csv").read_bytes()
    assert (out1 / "final_state.grws").read_bytes() == (
        out2 / "final_state.grws"
    ).read_bytes()


def test_cli_seed_override_changes_flashes(tmp_path):
    cfg = write(tmp_path, MINIMAL + "\n[trajectory]\ntotal_time = 1.5\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["--config", str(cfg), "--out-dir", str(out1), "trajectory"])
    main(["--config", str(cfg), "--out-dir", str(out2), "--seed", "9",
          "trajectory"])
    a = (out1 / "flashes.csv").read_text().splitlines()[2:]
    b = (out2 / "flashes.csv").read_text().splitlines()[2:]
    assert a != b


def test_cli_ensemble(tmp_path):
    cfg = write(
        tmp_path,
        MINIMAL + "\n[ensemble]\nn_traj = 16\ntotal_time = 1.0\n",
    )
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out-dir", str(out), "ensemble"])
    assert rc == 0
    report = json.loads((out / "ensemble_report.json").read_text())
    assert report["n_traj"] == 16
    lines = (out / "density_matrix.csv").read_text().splitlines()
    assert lines[1] == "i,j,re,im,std_error"
    assert len(lines) == 2 + 48 * 48
    assert_plain_numbers(out / "density_matrix.csv")


def test_cli_verify_pass_and_fail(tmp_path):
    cfg = write(
        tmp_path,
        MINIMAL
        + "\n[verify]\nn_traj = 256\ntotal_time = 2.0\nse_limit = 0.5\n",
    )
    out = tmp_path / "ok"
    assert main(["--config", str(cfg), "--out-dir", str(out), "verify"]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["trace_distance"] < report["three_sigma_bound"]
    # sabotaged tolerance: the standard-error cap cannot be met
    out2 = tmp_path / "bad"
    rc = main([
        "--config", str(cfg), "--out-dir", str(out2), "--tolerance", "1e-6",
        "verify",
    ])
    assert rc == 1
    assert json.loads((out2 / "verify_report.json").read_text())["passed"] is False


def test_cli_verify_refuses_fewer_than_two_batches(tmp_path, capsys):
    cfg = write(
        tmp_path,
        MINIMAL + "\n[verify]\nn_traj = 32\ntotal_time = 2.0\nse_limit = 0.5\n",
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "verify"]) == 2
    # refused up front, not by the noise estimate after the whole run
    assert f"more than {BATCH_SIZE} trajectories" in capsys.readouterr().err
    assert not (out / "verify_report.json").exists()


def test_cli_verify_on_8_rc_box(tmp_path):
    # an 8 r_C box, where the oracle loses ~3e-8 of trace to the wrapped
    # kernels, still gives a verdict
    grid = "n_points = 32\nspacing = 0.25"
    cfg = write(
        tmp_path,
        MINIMAL.replace("n_points = 48\nspacing = 0.3", grid)
        + "\n[verify]\nn_traj = 128\ntotal_time = 2.0\nse_limit = 0.5\n"
        + "packet_width = 0.75\n",
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out-dir", str(out), "verify"]) == 0
    assert json.loads((out / "verify_report.json").read_text())["passed"] is True


def test_cli_verify_kinetic(tmp_path):
    # [verify] takes the flight keys: a moving packet under the kinetic H0
    grid = "n_points = 32\nspacing = 0.25"
    verify = ("\n[verify]\nn_traj = 128\ntotal_time = 2.0\nse_limit = 0.5\n"
              "packet_width = 0.75\npacket_momentum = 1.0\n")
    reports = {}
    for kind in ("kinetic", "none"):
        cfg = write(
            tmp_path,
            MINIMAL.replace("n_points = 48\nspacing = 0.3", grid)
            + verify + f"hamiltonian = {kind}\n",
            name=f"{kind}.cfg",
        )
        out = tmp_path / kind
        assert main(["--config", str(cfg), "--out-dir", str(out), "verify"]) == 0
        reports[kind] = json.loads((out / "verify_report.json").read_text())
    assert reports["kinetic"]["passed"] is True
    # same seeds, so only the free flight can move the verdict's numbers
    assert reports["kinetic"]["trace_distance"] != reports["none"]["trace_distance"]


def test_cli_kernel_slope_potential_scan(tmp_path):
    text = MINIMAL + """
[kernel]
separations = 0.5, 1.0
rel_tol = 1e-8

[slope]
separations = 0.01, 0.02, 0.03, 0.04
tolerance = 1e-3

[potential]
d_values = 1.0, 10.0

[scan]
separation = 0.05
lambda_grid = 1.0, 2.0
tolerance = 1e-3
"""
    # keep the slope/scan params in the linear regime
    text = text.replace("g = 0.09", "g = 0.001")
    cfg = write(tmp_path, text)
    for sub in ("kernel", "slope", "potential", "scan"):
        out = tmp_path / sub
        assert main(["--config", str(cfg), "--out-dir", str(out), sub]) == 0
    kern = (tmp_path / "kernel" / "kernel.csv").read_text().splitlines()
    assert kern[1] == "separation,re,im,error"
    assert len(kern) == 4
    pot = (tmp_path / "potential" / "potential.csv").read_text().splitlines()
    assert len(pot) == 4
    slope_report = json.loads(
        (tmp_path / "slope" / "slope_report.json").read_text()
    )
    assert slope_report["r_squared"] > 0.99
    scan = (tmp_path / "scan" / "scan.csv").read_text().splitlines()
    assert scan[1] == "lambda,total_rate,intrinsic,excess,excess_error"
    for sub, name in [("kernel", "kernel.csv"), ("slope", "slope.csv"),
                      ("potential", "potential.csv"), ("scan", "scan.csv")]:
        assert_plain_numbers(tmp_path / sub / name)
    written = {
        "kernel": ["kernel.csv"],
        "slope": ["slope.csv", "slope_report.json"],
        "potential": ["potential.csv"],
        "scan": ["scan.csv"],
    }
    for sub, names in written.items():
        manifest = json.loads((tmp_path / sub / "manifest.json").read_text())
        assert manifest["subcommand"] == sub
        assert manifest["outputs"] == names
        assert all((tmp_path / sub / name).exists() for name in names)


def test_cli_out_dir_env_var(tmp_path, monkeypatch):
    cfg = write(tmp_path, MINIMAL + "\n[potential]\nd_values = 5.0\n")
    target = tmp_path / "envout"
    monkeypatch.setenv("GRWFLASH_OUT_DIR", str(target))
    assert main(["--config", str(cfg), "potential"]) == 0
    assert (target / "potential.csv").exists()


SHARP_RUN = """\
import json, sys
import grwflash, grwflash.cli
loaded = [sorted(m for m in sys.modules if m.startswith("scipy"))]
cfg, out = sys.argv[1], sys.argv[2]
codes = [grwflash.cli.main(["--config", cfg, "--out-dir", out + sub, sub])
         for sub in ("verify", "kernel")]
loaded.append(sorted(m for m in sys.modules if m.startswith("scipy.special")))
print(json.dumps([codes, loaded]))
"""


def test_sharp_runs_never_load_scipy_special(tmp_path):
    # erf lives in scipy.special, which costs more start-up than numpy; only
    # gaussian smearing and the potential and force checks import it
    cfg = write(
        tmp_path,
        MINIMAL.replace("n_points = 48\nspacing = 0.3",
                        "n_points = 32\nspacing = 0.25")
        + "\n[verify]\nn_traj = 128\ntotal_time = 1.0\nse_limit = 1.0\n"
        + "packet_width = 0.75\n\n[kernel]\nseparations = 0.5, 1.0\n",
    )
    src = str(Path(grwflash.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SHARP_RUN, str(cfg), str(tmp_path / "out-")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == [[], []]
