"""Acceptance suite: one test per criterion, one printed verdict line each.

Dynamical criteria run in working units (r_C = 1, hbar = 1) with rates and
kick strengths chosen for observable effects; the two preset checks use SI
constants since they are pure arithmetic.  Every run is seeded: the suite
is deterministic.

Criteria 4 and 6 check references that follow from the model as the code
defines it:
  - criterion 4: the short-distance slope of the gravitational excess rate
    is (2/sqrt(pi)) lam r_G^2/r_C^3.  To second order in the phase the
    excess is (lam/2) <dphi^2>; the kernel's weight (pi r_C^2)^(-3/2) and
    the two-charge identity Int d3u [1/|u-a| - 1/|u-b|]^2 = 4 pi |a-b|
    give (1/2) pi^(-3/2) 4 pi = 2/sqrt(pi).
  - criterion 6: under the erf law erf(d/r_C)/d the deviation from bare 1/d
    is erfc(d/r_C), so it exceeds 1% exactly below the onset
    d_1 = erfcinv(0.01) r_C = 1.821 r_C and stays under 1% above it.
"""

import math

import numpy as np
from scipy.special import erfcinv, ndtr
from scipy.stats import chi2, kstwobign, poisson

import grwflash as g
from grwflash.analysis import QuadratureSpec


def _verdict(num, ok, text):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {text}"
    print(line)
    assert ok, line


def test_criterion_01_r_g_presets():
    proton = g.derive_r_G(g.si_preset("proton"), 0, 0)
    electron = g.derive_r_G(g.si_preset("electron"), 0, 0)
    dev_p = abs(proton - 1.8e-14) / 1.8e-14
    dev_e = abs(electron - 5.3e-21) / 5.3e-21
    _verdict(
        1,
        dev_p < 0.03 and dev_e < 0.03,
        f"r_G presets: proton {proton:.4e} m ({dev_p:.1%} off), "
        f"electron {electron:.4e} m ({dev_e:.1%} off)",
    )


def test_criterion_02_zero_gravity_reduction():
    # (a) the full pipeline at G = 0 reproduces a vanilla GRW loop built
    # from the collapse primitives alone, flash by flash, on equal seeds
    grid = g.GridSpec.centered(1, 64, 0.25)
    params = g.dimensionless_params(lam=1.0, r_G=0.0)
    config = g.EvolutionConfig(total_time=3.0)
    psi0 = g.make_gaussian_packet(grid, 1, [[0.0]], [0.75])
    logs_equal = True
    for seed in range(6):
        traj = g.run_trajectory(psi0, params, config, seed=seed, master_seed=55)
        psi = psi0
        rng = g.rng_stream(55, seed)
        t, log = 0.0, []
        while True:
            dt, k = g.next_flash(rng, 1, params.lam)
            t += dt
            if t > config.total_time:
                break
            x_f = g.sample_flash_position(psi, k, rng, params.r_C)
            psi = g.normalize(g.apply_collapse(psi, k, x_f, params.r_C))
            log.append((t, k, tuple(x_f)))
        logs_equal &= [
            (f.time, f.particle, f.position) for f in traj.flashes
        ] == log
        logs_equal &= bool(
            np.array_equal(traj.final_state.amplitudes, psi.amplitudes)
        )

    # (b) the kernel at r_G = 0 collapses to the Gaussian closed form
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-11)
    worst = 0.0
    for d in np.linspace(0.0, 4.0, 20):
        pt = g.gamma_at_separation(float(d), params, spec)
        worst = max(worst, abs(pt.value - math.exp(-(d**2) / 4.0)))
    _verdict(
        2,
        logs_equal and worst < 1e-9,
        f"G=0 reduction: flash logs identical over 6 seeds, "
        f"max |Gamma - closed form| = {worst:.2e}",
    )


def test_criterion_03_kernel_realness():
    rng = np.random.default_rng(2024)
    pairs = []
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=3)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pairs.append((x, x + rng.uniform(0.05, 3.0) * direction))
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=2e-7)
    worst_im, worst_err = 0.0, 0.0
    ok = True
    for eps in (1e-3, 1e-2, 1e-1):
        params = g.dimensionless_params(lam=1.0, r_G=eps)
        for x, y in pairs:
            pt = g.gamma_kernel(x, y, params, spec)
            ok &= abs(pt.value.imag) <= pt.error <= 1e-6
            worst_im = max(worst_im, abs(pt.value.imag))
            worst_err = max(worst_err, pt.error)
    _verdict(
        3,
        ok,
        f"kernel realness: 50 pairs x eps in {{1e-3,1e-2,1e-1}}, "
        f"worst |Im Gamma| = {worst_im:.2e} <= worst error {worst_err:.2e} <= 1e-6",
    )


def test_criterion_04_short_distance_slope():
    params = g.dimensionless_params(lam=1.0, r_G=1e-4)
    seps = np.linspace(1e-3, 1e-2, 10)
    fit = g.short_distance_rate(params, seps, tolerance=3e-4)
    ok = fit.rel_deviation <= 0.05 and fit.r_squared > 0.999
    _verdict(
        4,
        ok,
        f"short-distance slope: fitted {fit.slope:.6e} vs (2/sqrt(pi)) lam "
        f"r_G^2/r_C^3 = {fit.expected_slope:.6e} "
        f"(ratio {fit.slope / fit.expected_slope:.3f}, "
        f"deviation {fit.rel_deviation:.1%} <= 5%, "
        f"R^2 = {fit.r_squared:.6f} > 0.999)",
    )


def test_criterion_05_inverse_lambda_scaling():
    params = g.dimensionless_params(lam=1.0, r_G=1e-4)
    expo = g.inverse_lambda_check(params, separation=0.05, factor=2.0,
                                  tolerance=3e-4)
    _verdict(
        5,
        abs(expo + 1.0) <= 0.05,
        f"inverse-lambda scaling: measured exponent {expo:+.4f} vs -1 +- 0.05",
    )


def test_criterion_06_smoothed_potential():
    params = g.dimensionless_params(lam=1.0, r_G=0.0)
    rows = g.effective_potential_check([0.1, 0.5, 1.0, 2.0, 5.0, 10.0], params)
    clause_a = all(r.rel_error < 1e-6 for r in rows)
    max_rel = max(r.rel_error for r in rows)

    # (b) the 1% onset sits where the erf law puts it: erfc(d/r_C) = 0.01
    d_1 = float(erfcinv(0.01))
    inside = g.effective_potential_check(
        np.linspace(0.05, d_1, 40, endpoint=False), params
    )
    outside = g.effective_potential_check(np.linspace(d_1, 2.0, 6)[1:], params)
    min_inside = min(r.newton_deviation for r in inside)
    max_outside = max(r.newton_deviation for r in outside)
    clause_b = min_inside > 0.01 and max_outside < 0.01

    far = g.effective_potential_check([10.0], params)[0]
    clause_c = far.newton_deviation < 1e-3

    _verdict(
        6,
        clause_a and clause_b and clause_c,
        f"smoothed potential: quadrature vs erf max rel err {max_rel:.2e} "
        f"(<=1e-6: {clause_a}); Newton deviation >1% below the onset "
        f"{d_1:.3f} r_C (min {min_inside:.3%}) and <1% from there to 2 r_C "
        f"(max {max_outside:.3%}): {clause_b}; deviation at 10 r_C = "
        f"{far.newton_deviation:.1e} (<1e-3: {clause_c})",
    )


def test_criterion_07_unraveling_vs_master():
    grid = g.GridSpec.centered(1, 64, 0.25)
    params = g.dimensionless_params(lam=1.0, r_G=0.3)
    config = g.EvolutionConfig(total_time=2.0)  # lam*T = 2, a = spacing/2
    psi0 = g.make_gaussian_packet(grid, 1, [[0.0]], [0.75])
    report, _, _ = g.ensemble_vs_master_check(
        psi0, params, config, n_traj=4096, master_seed=2024, se_limit=0.02
    )
    _verdict(
        7,
        report.passed,
        f"unraveling vs master: trace distance {report.trace_dist:.5f} < "
        f"3*SE {3 * report.std_error:.5f}, SE {report.std_error:.5f} < 0.02 "
        f"(n = {report.n_traj})",
    )


def test_criterion_08_no_self_attraction():
    grid = g.GridSpec.centered(1, 64, 0.25)
    params = g.dimensionless_params(lam=1.0, r_G=0.3)
    config = g.EvolutionConfig(total_time=2.0)
    x = grid.axis(0)
    amps = np.exp(-((x - 4.0) ** 2) / (2 * 0.8**2)) + np.exp(
        -((x + 4.0) ** 2) / (2 * 0.8**2)
    )
    psi0 = g.normalize(g.WaveFunction(grid, 1, amps))

    result = g.run_ensemble(psi0, params, config, 4096, master_seed=77)
    probe = g.self_attraction_probe(result, psi0)
    drift = float(probe.drift[0])
    se = float(probe.std_error[0])

    rho0 = g.pure_density(psi0)
    rho_t = g.master_evolve(rho0, params, config)
    dv = grid.cell_volume
    master_drift = abs(
        float(np.sum(x * np.real(np.diag(rho_t.entries)))) * dv
        - float(np.sum(x * np.real(np.diag(rho0.entries)))) * dv
    )
    _verdict(
        8,
        abs(drift) < 3 * se and master_drift < 1e-10,
        f"no self-attraction: ensemble drift {drift:+.5f} "
        f"({abs(drift) / se:.2f} sigma, n = 4096), master drift "
        f"{master_drift:.2e} < 1e-10",
    )


def test_criterion_09_effective_newtonian_attraction():
    # Two-particle harness: the lump is pinned at d = 6 r_C in the
    # infinitely-deep-trap limit (a grid-concentrated state cannot move
    # with no kinetic term; collapses leave it in place).
    grid = g.GridSpec(1, 42, 0.6, (-9.0,))
    x = grid.axis(0)
    lam, r_g01 = 1.0, 0.02
    params = g.PhysicalParams(
        lam=lam, r_C=1.0, G=r_g01 * lam, hbar=1.0, masses=(1.0, 1.0)
    )
    test_packet = g.make_gaussian_packet(grid, 1, [[0.0]], [1.2])
    i_lump = int(np.argmin(np.abs(x - 6.0)))
    lump = np.zeros(grid.n_points, dtype=complex)
    lump[i_lump] = 1.0 / math.sqrt(grid.spacing)
    psi0 = g.WaveFunction(
        grid, 2, np.tensordot(test_packet.amplitudes, lump, axes=0)
    )
    total_time = 2.0
    rho0 = g.pure_density(psi0)
    rho_t = g.master_evolve(
        rho0, params, g.EvolutionConfig(total_time=total_time), dt=0.05
    )
    red0 = g.trace_out(rho0, keep=0)
    red_t = g.trace_out(rho_t, keep=0)
    h = grid.spacing
    worst = 0.0
    for i in range(10, 16):  # pair midpoints from -2.7 to +0.3
        phase = float(np.angle(red_t.entries[i, i + 1] / red0.entries[i, i + 1]))
        measured = -phase / (total_time * h)  # force/hbar toward the lump
        predicted = g.classical_limit_force([x[i] + h / 2], [[6.0]], params)[0]
        worst = max(worst, abs(measured / predicted - 1.0))
    _verdict(
        9,
        worst < 0.05,
        f"Newtonian attraction: reduced-state phase gradient vs classical "
        f"force, worst deviation {worst:.2%} over 6 pair midpoints (< 5%)",
    )


def test_criterion_10_statistical_integrity():
    # flash counts from the event clock alone (states never affect timing)
    n_samples = 100_000
    lam, n_particles, total_time = 1.0, 2, 1.0
    mu = lam * n_particles * total_time
    counts = np.zeros(n_samples, dtype=int)
    clock = g.rng_stream(303, 0)
    for i in range(n_samples):
        t, c = 0.0, 0
        while True:
            dt, _ = g.next_flash(clock, n_particles, lam)
            t += dt
            if t > total_time:
                break
            c += 1
        counts[i] = c
    kmax = 8  # merge the tail so every bin has >> 5 expected entries
    observed = np.array(
        [np.sum(counts == k) for k in range(kmax)] + [np.sum(counts >= kmax)]
    )
    probs = [poisson.pmf(k, mu) for k in range(kmax)] + [
        1 - poisson.cdf(kmax - 1, mu)
    ]
    expected = n_samples * np.array(probs)
    chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
    chi2_crit = float(chi2.isf(0.01, df=kmax))
    counts_ok = chi2_stat < chi2_crit

    # flash positions against the flash-position density law
    grid = g.GridSpec.centered(1, 128, 0.25)
    psi = g.make_gaussian_packet(grid, 1, [[0.0]], [1.4])
    rng = g.rng_stream(404, 0)
    samples = np.sort(
        [g.sample_flash_position(psi, 0, rng, 1.0)[0] for _ in range(n_samples)]
    )
    dens = g.flash_position_density(psi, 0, 1.0)
    # continuum completion of the density: Gaussian mixture over grid atoms
    p = g.position_density(psi, 0) * grid.spacing
    xs = grid.axis(0)
    sigma = 1.0 / math.sqrt(2.0)
    cdf = np.zeros(n_samples)
    for w, c in zip(p, xs):
        cdf += w * ndtr((samples - c) / sigma)
    ks = float(
        max(
            np.max(np.arange(1, n_samples + 1) / n_samples - cdf),
            np.max(cdf - np.arange(0, n_samples) / n_samples),
        )
    )
    ks_crit = float(kstwobign.isf(0.01)) / math.sqrt(n_samples)
    # sanity: the mixture really is the density the library reports
    mix_pdf = sum(
        w * np.exp(-((xs - c) ** 2)) / math.sqrt(math.pi) for w, c in zip(p, xs)
    )
    assert np.allclose(mix_pdf, dens, atol=1e-12)

    _verdict(
        10,
        counts_ok and ks < ks_crit,
        f"statistics: flash-count chi2 {chi2_stat:.1f} < {chi2_crit:.1f} "
        f"(1% level), position KS {ks:.5f} < {ks_crit:.5f} (1% level), "
        f"both at 1e5 samples",
    )
