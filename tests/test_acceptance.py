"""End-to-end acceptance gate.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL - <detail>` line (shown
under pytest's -rA summary) and then asserts, so a failing criterion is
both visible and red. Statistical criteria use fixed seeds; tolerances
and budgets are asserted inside the tests.
"""

from __future__ import annotations

import math
import time

import numpy as np

from cechlab.experiment import ExperimentSpec, lower_bound_audit, run_experiment
from cechlab.filtration import build_cech_filtration
from cechlab.geometry import PointCloud
from cechlab.persistence import (betti, betti_oracle, compute_persistence,
                                 persistent_betti)
from cechlab.properties import (SmallGraph, convergence_diagnostic,
                                estimate_mu, iso_graph, palm_check,
                                PropertyDescriptor, sep, trivial_context)
from cechlab.sampling import Density, stream
from cechlab.witness import construct_witness, perturb_and_verify, search_m

_UNIT_SQUARE = Density.uniform_box([(0.0, 1.0), (0.0, 1.0)])
_ELAPSED: dict[str, float] = {}


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_betti_matches_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20250814)
    clouds = 0
    comparisons = 0
    mismatches = 0
    for i in range(210):
        d = 2 + (i % 2)
        n = int(rng.integers(2, 13))
        cloud = PointCloud(d, rng.random((n, d)))
        clouds += 1
        for r in rng.uniform(0.05, 0.75, size=5):
            for k in (0, 1, 2):
                comparisons += 1
                if betti(cloud, float(r), k) != betti_oracle(cloud, float(r), k):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and clouds >= 200 and elapsed < 60.0
    assert _report("1", ok,
                   f"{comparisons} comparisons on {clouds} clouds, "
                   f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_02_equilateral_triangle_interval():
    side = 1.0
    cloud = PointCloud.from_points([(0.0, 0.0), (side, 0.0),
                                    (side / 2.0, side * math.sqrt(3.0) / 2.0)])
    diagram = compute_persistence(build_cech_filtration(cloud, 1.0, 2))
    loops = diagram.in_dimension(1)
    birth, death = loops[0]
    interval_ok = (len(loops) == 1
                   and abs(birth - 0.5) <= 1e-9
                   and abs(death - 1.0 / math.sqrt(3.0)) <= 1e-9)
    alive = persistent_betti(cloud, 0.5, 1.1, 1)
    gone = persistent_betti(cloud, 0.5, 1.2, 1)
    ok = interval_ok and alive == 1 and gone == 0
    assert _report("2", ok,
                   f"dim-1 interval [{birth:.10f}, {death:.10f}), "
                   f"rank(theta=1.1)={alive}, rank(theta=1.2)={gone}")


def test_criterion_03_theta_one_reduction():
    rng = np.random.default_rng(3)
    mismatches = 0
    instances = 0
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        cloud = PointCloud(d, rng.random((int(rng.integers(2, 11)), d)))
        r = float(rng.uniform(0.05, 0.8))
        k = int(rng.integers(0, 2))
        instances += 1
        if persistent_betti(cloud, r, 1.0, k) != betti(cloud, r, k):
            mismatches += 1
    assert _report("3", mismatches == 0,
                   f"{instances} random instances, {mismatches} mismatches")


def test_criterion_04_witness_construction():
    target = math.sqrt(1.0 / 6.0)
    details = []
    ok = True
    for theta in (1.2, 1.5, 2.0):
        start = time.perf_counter()
        witness = construct_witness(1, theta)
        elapsed = time.perf_counter() - start
        good = (witness.verify() >= 1
                and abs(witness.R - target) <= 1e-9
                and elapsed < 10.0)
        ok = ok and good
        details.append(f"theta={theta}: rank={witness.verified_rank}, "
                       f"|R-sqrt(1/6)|={abs(witness.R - target):.2e}, {elapsed:.2f}s")
    assert _report("4", ok, "; ".join(details))


def test_criterion_05_perturbation_stability():
    fractions = []
    for i, theta in enumerate((1.2, 1.5, 2.0)):
        witness = construct_witness(1, theta)
        fractions.append(perturb_and_verify(witness, stream(50, i), 100))
    ok = all(f == 1.0 for f in fractions)
    assert _report("5", ok,
                   "success fractions " + ", ".join(f"{f:.3f}" for f in fractions)
                   + " over 100 trials x 3 witnesses")


def test_criterion_06_isolated_cycle_audit():
    start = time.perf_counter()
    spec_a = ExperimentSpec(d=2, k=1, theta=1.0, density=_UNIT_SQUARE, c=0.6,
                            q=-0.6, n_grid=(20.0,), trials=8500, seed=5)
    table_a = lower_bound_audit(spec_a, m=3)
    spec_b = ExperimentSpec(d=2, k=1, theta=1.4, density=_UNIT_SQUARE, c=0.65,
                            q=-0.6, n_grid=(15.0,), trials=1500, seed=6)
    table_b = lower_bound_audit(spec_b, m=4)
    elapsed = time.perf_counter() - start
    clouds = len(table_a.rows) + len(table_b.rows)
    nonzero_a = sum(1 for row in table_a.rows if row.isolated_cycles > 0)
    nonzero_b = sum(1 for row in table_b.rows if row.isolated_cycles > 0)
    nonzero = nonzero_a + nonzero_b
    ok = clouds >= 10_000 and nonzero > 0
    assert _report("6", ok,
                   f"{clouds} clouds audited, zero violations, "
                   f"{nonzero} with isolated cycles (m=3: {nonzero_a}, m=4: {nonzero_b}), "
                   f"equality fractions {table_a.equality_fraction():.3f}/"
                   f"{table_b.equality_fraction():.3f}, {elapsed:.0f}s")


def test_criterion_07_arity_brackets():
    start = time.perf_counter()
    w3 = search_m(2, 1, 1.0, 3, 10_000, stream(7))
    w4 = search_m(2, 1, 1.4, 4, 65_536, stream(7))
    none3 = search_m(2, 1, 1.4, 3, 1_000_000, stream(7))
    elapsed = time.perf_counter() - start
    ok = (w3 is not None and len(w3.points) == 3 and w3.verify() >= 1
          and w4 is not None and len(w4.points) == 4 and w4.verify() >= 1
          and none3 is None and elapsed < 600.0)
    assert _report("7", ok,
                   f"theta=1: 3-point witness {'found' if w3 else 'missing'}; "
                   f"theta=1.4: 4-point witness "
                   f"{'found' if w4 else 'missing'}, 3-point search over 1e6 "
                   f"trials {'empty' if none3 is None else 'HIT'}; {elapsed:.0f}s (< 600s)")


def test_criterion_08_mu_and_scaling_ratios():
    start = time.perf_counter()
    target = math.pi / 2.0
    edge = iso_graph(SmallGraph.complete(2), 1.0, 2)
    mu = estimate_mu(edge, _UNIT_SQUARE, 200_000, stream(88))
    mu_ok = abs(mu.value - target) <= 3.0 * mu.std_error

    plain = lambda r: iso_graph(SmallGraph.complete(2), r, 2)
    isolated = lambda r: sep(r) * iso_graph(SmallGraph.complete(2), r, 2)
    row_count = convergence_diagnostic(plain, _UNIT_SQUARE, 0.15, -0.6,
                                       [10_000.0], 150, stream(89))[0]
    row_comp = convergence_diagnostic(isolated, _UNIT_SQUARE, 0.15, -0.6,
                                      [10_000.0], 150, stream(90))[0]
    count_ok = abs(row_count.ratio / target - 1.0) <= 0.10
    comp_ok = abs(row_comp.ratio / target - 1.0) <= 0.10
    elapsed = time.perf_counter() - start
    ok = mu_ok and count_ok and comp_ok and elapsed < 300.0
    assert _report("8", ok,
                   f"mu={mu.value:.4f}+-{mu.std_error:.4f} vs pi/2={target:.4f}; "
                   f"count ratio {row_count.ratio / target:.3f}, isolated ratio "
                   f"{row_comp.ratio / target:.3f} of pi/2 (10% band); "
                   f"{elapsed:.0f}s (< 300s)")


def test_criterion_09_palm_identity():
    start = time.perf_counter()
    ones = PropertyDescriptor("one", 1, 1.0, 1.0, lambda pts: True)
    singles = palm_check(trivial_context() * ones, 50.0, _UNIT_SQUARE, 3000,
                         stream(91))
    pairs = palm_check(trivial_context() * iso_graph(SmallGraph.complete(2),
                                                     0.05, 2),
                       200.0, _UNIT_SQUARE, 1500, stream(92),
                       rhs_trials=150_000)
    elapsed = time.perf_counter() - start
    singles_exact = singles.rhs == 50.0 and singles.rhs_se == 0.0
    ok = singles.agree and singles_exact and pairs.agree and elapsed < 120.0
    assert _report("9", ok,
                   f"p=1: lhs={singles.lhs:.2f}+-{singles.lhs_se:.2f} vs rhs=50 "
                   f"exactly; p=2: lhs={pairs.lhs:.2f}+-{pairs.lhs_se:.2f} vs "
                   f"rhs={pairs.rhs:.2f}+-{pairs.rhs_se:.2f}; {elapsed:.0f}s (< 120s)")


def test_criterion_10a_subcritical_exponent():
    start = time.perf_counter()
    spec = ExperimentSpec(d=2, k=1, theta=1.0, density=_UNIT_SQUARE, c=0.9,
                          q=-0.6, n_grid=(500.0, 1000.0, 2000.0, 4000.0, 8000.0),
                          trials=60, seed=1, max_trials=400, target_rel_se=0.08)
    result = run_experiment(spec, m=3)
    elapsed = time.perf_counter() - start
    _ELAPSED["10a"] = elapsed
    fitted = result.fit is not None
    slope = result.fit.slope if fitted else math.nan
    ok = fitted and abs(slope - 0.6) <= 0.15
    assert _report("10a", ok,
                   f"fitted exponent {slope:.3f} vs predicted "
                   f"{result.predicted:.1f} (band +-0.15), "
                   f"CI [{result.fit.ci_lo:.3f}, {result.fit.ci_hi:.3f}]"
                   if fitted else f"no fit: {result.fit_note}")


def test_criterion_10b_constant_band():
    start = time.perf_counter()
    # With q = -2/3 in d = 2 the predicted exponent 1 + (qd+1)(m-1) is 0
    # for m = 4, so the means sit in a constant band around the limit
    # c^{d(m-1)}/m! * int f^m * int zeta. theta must lie inside the m = 4
    # window (2/sqrt(3), sqrt(2)): triangles die by 2/sqrt(3) ~ 1.1547,
    # squares by sqrt(2) ~ 1.4142. At theta = 1.4 only slivers around
    # squares persist and the limit is below 4e-3, which no reachable n
    # can show; theta = 1.2 keeps a margin on both sides, and there the
    # limit is about 0.43 at c = 2.6.
    theta = 1.2
    none3 = search_m(2, 1, theta, 3, 1_000_000, stream(7))
    w4 = search_m(2, 1, theta, 4, 65_536, stream(7))
    m_ok = (none3 is None and w4 is not None and len(w4.points) == 4
            and w4.verify() >= 1)
    # 400 trials per n (the criterion asks for at least 50) keep each
    # mean's standard error small next to the band, so the band
    # measurement is not seed noise.
    spec = ExperimentSpec(d=2, k=1, theta=theta,
                          density=Density.uniform_box([(-1.0, 1.0), (-1.0, 1.0)]),
                          c=2.6, q=-2.0 / 3.0, n_grid=(100.0, 1000.0, 10000.0),
                          trials=400, seed=0)
    result = run_experiment(spec, m=4)
    elapsed = time.perf_counter() - start
    total = elapsed + _ELAPSED.get("10a", 0.0)
    timing = f"criterion 10 total {total:.0f}s (< 1800s)"
    if "10a" not in _ELAPSED:
        timing += ", 10a's time not included (10a did not run earlier in this process)"
    means = [row.mean_betti for row in result.rows]
    band = max(means) / min(means) if min(means) > 0.0 else math.inf
    ok = m_ok and band <= 3.0 and total < 1800.0
    assert _report("10b", ok,
                   f"theta={theta}, m=4 "
                   f"({'confirmed' if m_ok else 'NOT confirmed'}: 3-point search "
                   f"over 1e6 trials {'empty' if none3 is None else 'HIT'}, "
                   f"4-point witness {'found' if w4 else 'missing'}), "
                   f"predicted exponent {result.predicted:.1f}; "
                   f"per-n means {', '.join(f'{m:.3f}' for m in means)} "
                   f"(n=100, 1000, 10000; 400 trials each), "
                   f"band ratio {band:.2f} vs <= 3; {timing}")
