"""Top-level acceptance battery.

Each test prints exactly one ``[acceptance N] PASS/FAIL — details`` line.
Synthetic-data and oracle checks are exact; numbers measured on chaotic
trajectories carry explicit tolerance bands because the exact values depend
on the initial condition.  The suite pins one reference trajectory
(ic = (5, 5, 5), 10^4-step transient, 100_001 samples at dt = 0.001) so the
measured quantities are reproducible bit-for-bit.

One check is intentionally left failing: the sweep's fixed relative scale
(test 6, clause (a)) does not produce exactly two loops at every embedding
dimension on this data; the printed detail and the assertion message carry
the measured counts.  See the README's "Known failing check" section.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    complex_at,
    complex_below,
    components_unionfind,
    dense_betti,
    euler_characteristic,
    random_edge_filtration,
)
from topo_recon.embed import (
    PointCloud,
    ami_curve,
    bbox_diameter,
    delay_embed,
    first_minimum,
)
from topo_recon.landmarks import select_evenly_spaced, select_maxmin
from topo_recon.mscan import dm_filtration, lifespan_matrix, sweep
from topo_recon.persistence import betti_at, persistent_homology
from topo_recon.signal import ScalarSeries, add_uniform_noise, integrate_lorenz, observe
from topo_recon.witness import distance_matrix, edge_births, flag_expand

IC = (5.0, 5.0, 5.0)
TRANSIENT = 10_000
N_STEPS = 100_001
DT = 0.001
TAU_BAND = (139.2, 208.8)  # 174 +- 20% samples


def report(n: int, ok: bool, detail: str) -> None:
    line = f"[acceptance {n}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def barcode_of(ef, dim_cap, cap):
    return persistent_homology(flag_expand(ef, dim_cap=dim_cap, max_value=cap))


def witness_barcode(points, landmarks, dim_cap, cap):
    ef = edge_births(distance_matrix(points, landmarks.coords))
    return ef, barcode_of(ef, dim_cap, cap)


def k1_by_length(bc):
    return sorted(bc.by_dim(1), key=lambda iv: -iv.length)


def last_finite_death(bars):
    return max((iv.death for iv in bars if math.isfinite(iv.death)), default=0.0)


@pytest.fixture(scope="module")
def lorenz():
    traj = integrate_lorenz(ic=IC, dt=DT, n_steps=N_STEPS, transient_steps=TRANSIENT)
    return observe(traj, "x"), np.asarray(traj.points)


@pytest.fixture(scope="module")
def tau(lorenz):
    t = first_minimum(ami_curve(lorenz[0], tau_max=400))
    assert t is not None
    return t


@pytest.fixture(scope="module")
def lorenz_3d_filtration(lorenz):
    """Edge filtration of the full 3-d trajectory over 201 evenly spaced landmarks."""
    _, pts = lorenz
    cloud = PointCloud(pts, np.arange(len(pts)))
    lms = select_evenly_spaced(cloud, every=500)
    assert lms.ell == 201
    return edge_births(distance_matrix(cloud.points, lms.coords))


@pytest.fixture(scope="module")
def lorenz_3d_dim3(lorenz_3d_filtration):
    return flag_expand(lorenz_3d_filtration, dim_cap=3, max_value=1.8)


def test_criterion_1_synthetic_topology():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    # (a) noisy circle: one component, one dominant loop
    theta = rng.uniform(0.0, 2.0 * np.pi, 500)
    circle = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.uniform(-0.01, 0.01, (500, 2))
    cloud = PointCloud(circle, np.arange(500))
    _, bc = witness_barcode(circle, select_maxmin(cloud, 20, seed=0), dim_cap=2, cap=1.5)
    inf_k0 = [iv for iv in bc.by_dim(0) if math.isinf(iv.death)]
    k1 = k1_by_length(bc)
    second = k1[1].length if len(k1) > 1 else 0.0
    ok_a = len(inf_k0) == 1 and len(k1) >= 1 and k1[0].length > 5.0 * second
    detail_a = f"(a) circle: inf-k0={len(inf_k0)}, top-k1={k1[0].length:.3f} vs 2nd={second:.3f}"

    # (b) figure-eight: two dominant loops
    theta8 = rng.uniform(0.0, 2.0 * np.pi, (2, 250))
    lobes = [
        np.column_stack([np.cos(theta8[i]) + (1.0 if i else -1.0), np.sin(theta8[i])])
        for i in range(2)
    ]
    eight = np.vstack(lobes) + rng.uniform(-0.01, 0.01, (500, 2))
    cloud8 = PointCloud(eight, np.arange(500))
    _, bc8 = witness_barcode(eight, select_maxmin(cloud8, 20, seed=0), dim_cap=2, cap=1.5)
    k1_8 = k1_by_length(bc8)
    third = k1_8[2].length if len(k1_8) > 2 else 0.0
    ok_b = len(k1_8) >= 2 and k1_8[1].length > 5.0 * third
    detail_b = (
        f"(b) eight: top-2 k1 = {k1_8[0].length:.3f}/{k1_8[1].length:.3f} vs 3rd={third:.3f}"
        if k1_8
        else "(b) eight: no loops found"
    )

    # (c) two clusters, separation 10x radius: a beta0=2 plateau at least one radius wide
    radius, separation = 0.5, 5.0
    angles = rng.uniform(0.0, 2.0 * np.pi, 200)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, 200))
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts[100:, 0] += separation
    cloud_c = PointCloud(pts, np.arange(200))
    _, bc_c = witness_barcode(pts, select_maxmin(cloud_c, 10, seed=0), dim_cap=2, cap=6.0)
    k0 = bc_c.by_dim(0)
    finite_deaths = sorted(iv.death for iv in k0 if math.isfinite(iv.death))
    inf_c = sum(1 for iv in k0 if math.isinf(iv.death))
    plateau = finite_deaths[-1] - finite_deaths[-2] if len(finite_deaths) >= 2 else 0.0
    mid = finite_deaths[-1] - 0.5 * plateau if finite_deaths else 0.0
    ok_c = (
        inf_c == 1
        and plateau >= radius
        and betti_at(bc_c, mid)[0] == 2
    )
    detail_c = f"(c) clusters: plateau={plateau:.3f} (need >={radius}), beta0(mid)={betti_at(bc_c, mid)[0]}"

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 10.0
    report(1, ok, f"{detail_a}; {detail_b}; {detail_c}; {elapsed:.1f}s (<10s)")


def test_criterion_2_brute_force_homology():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    checked_values = 0
    for _ in range(200):
        ef = random_edge_filtration(rng, n_max=12)
        dim_cap = int(rng.integers(2, 4))
        ff = flag_expand(ef, dim_cap=dim_cap)
        bc = persistent_homology(ff)
        for eps in sorted({v for _, v in ff.simplices}):
            sims = complex_below(ef, eps, dim_cap)
            betti = dense_betti(sims)
            expected = (betti + [0] * dim_cap)[:dim_cap]
            got = betti_at(bc, eps)
            assert got == expected, f"betti mismatch at eps={eps}: {got} != {expected}"
            lib_sims = [s for s, _ in complex_at(ff, eps)]
            assert sorted(lib_sims) == sorted(sims), f"complex mismatch at eps={eps}"
            chi = sum((-1) ** k * b for k, b in enumerate(betti))
            assert euler_characteristic(lib_sims) == chi, f"Euler mismatch at eps={eps}"
            checked_values += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(
        2,
        ok,
        f"200 random filtrations, {checked_values} critical values: reduction == dense "
        f"rank-nullity, Euler identity holds; {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_unionfind_oracle():
    rng = np.random.default_rng(3)
    checks = 0
    for _ in range(50):
        ef = random_edge_filtration(rng, n_max=12)
        bc = barcode_of(ef, dim_cap=1, cap=None)
        finite = ef.births[np.isfinite(ef.births)]
        top = float(finite.max()) if finite.size else 1.0
        for eps in rng.uniform(0.0, top * 1.05, size=20):
            uf = components_unionfind(ef, float(eps))
            red = betti_at(bc, float(eps))[0]
            assert uf == red, f"beta0 mismatch at eps={eps}: unionfind {uf} != reduction {red}"
            checks += 1
    report(3, True, f"union-find == reduction beta0 on {checks} (instance, eps) pairs, exact")


def test_criterion_4_lorenz_3d(lorenz_3d_filtration, lorenz_3d_dim3):
    t0 = time.perf_counter()
    ef = lorenz_3d_filtration

    bc2 = barcode_of(ef, dim_cap=2, cap=6.0)
    k0, k1 = bc2.by_dim(0), bc2.by_dim(1)
    merge = last_finite_death(k0)
    inf_k0 = sum(1 for iv in k0 if math.isinf(iv.death))
    ok_merge = 0.005 <= merge <= 0.05 and inf_k0 == 1

    b1_at_12 = betti_at(bc2, 1.2)[1]
    ok_b1 = b1_at_12 == 2

    late = sorted((iv for iv in k1 if iv.death > 1.2), key=lambda iv: iv.death)
    inf_k1 = [iv for iv in k1 if math.isinf(iv.death)]
    ok_shape = (
        len(late) == 2
        and not inf_k1
        and all(iv.birth <= 1.2 for iv in late)
        and late[0].death < late[1].death
    )
    final = late[-1].death if late else math.nan
    ok_final = ok_shape and 2.0 <= final <= 8.0

    bc3 = persistent_homology(lorenz_3d_dim3)
    k2_in_band = [iv for iv in bc3.by_dim(2) if iv.birth < 1.7 and iv.death > 0.017]
    ok_b2 = not k2_in_band and betti_at(bc3, 1.2)[1] == 2

    elapsed = time.perf_counter() - t0
    ok = ok_merge and ok_b1 and ok_shape and ok_final and ok_b2 and elapsed < 300.0
    report(
        4,
        ok,
        f"beta0=1 above {merge:.4f} (band [0.005,0.05]); beta1@1.2={b1_at_12} (need 2); "
        f"beta2 bars in [0.017,1.7]: {len(k2_in_band)} (need 0); loop deaths past 1.2: "
        f"{[round(iv.death, 3) for iv in late]} -> acyclic above {final:.3f} (band [2,8]); "
        f"{elapsed:.0f}s (<300s)",
    )


def test_criterion_5_2d_economy(lorenz, tau, lorenz_3d_dim3):
    series, _ = lorenz
    ok_tau = TAU_BAND[0] <= tau <= TAU_BAND[1]

    w2 = delay_embed(series, 2, tau)
    lms = select_evenly_spaced(w2, every=500)
    ok_ell = 180 <= lms.ell <= 220
    ef = edge_births(distance_matrix(w2.points, lms.coords))
    ff = flag_expand(ef, dim_cap=3, max_value=0.21)
    b1 = betti_at(persistent_homology(ff), 0.2)[1]
    ok_b1 = b1 == 2

    count_2d = len(complex_at(ff, 0.2))
    count_3d = len(complex_at(lorenz_3d_dim3, 1.2))
    ratio = count_2d / count_3d
    ok_ratio = ratio < 0.6

    ok = ok_tau and ok_ell and ok_b1 and ok_ratio
    report(
        5,
        ok,
        f"tau={tau} (band [{TAU_BAND[0]:.0f},{TAU_BAND[1]:.0f}]); ell={lms.ell} (~200); "
        f"beta1@0.2={b1} (need 2); simplex count {count_2d} vs 3-d {count_3d} at 1.2 "
        f"-> ratio {ratio:.3f} (<0.6)",
    )


def test_criterion_6_dimension_sweep(lorenz, tau):
    t0 = time.perf_counter()
    series, _ = lorenz
    sw = sweep(series, tau, xi=0.0054, every=500, m_max=8)

    # (a) loop count at the per-dimension scale for m = 2..5
    b1_at_eps = {}
    for m in range(2, 6):
        bc = barcode_of(sw.per_m[m - 1], dim_cap=2, cap=sw.epsilons[m - 1])
        b1_at_eps[m] = betti_at(bc, sw.epsilons[m - 1])[1]
    ok_a = all(v == 2 for v in b1_at_eps.values())

    # (b) + (c) lifespan-1 census
    matrix = lifespan_matrix(sw)
    iu, ju = np.triu_indices(sw.ell, k=1)
    lifespans = matrix[iu, ju]
    masks = sw.existence[iu, ju]
    n_life1 = int(np.sum(lifespans == 1))
    n_only_m1 = int(np.sum(masks == 1))
    ok_c = 683 * 0.7 <= n_life1 <= 683 * 1.3
    ok_b = n_life1 > 0 and n_only_m1 > 0.5 * n_life1

    # (d) exhaustive nesting of the lifespan filtration
    ok_d = True
    for m in range(1, sw.m_max + 1):
        bit = (masks >> (m - 1) & 1).astype(bool)
        below = sw.per_m[m - 1].births[iu, ju] <= sw.epsilons[m - 1]
        if not np.array_equal(bit, below):
            ok_d = False
    dmf = dm_filtration(sw, dim_cap=2)
    edge_values = {s: v for s, v in dmf.filtration.simplices if len(s) == 2}
    for (i, j), v in edge_values.items():
        if v != sw.m_max - matrix[i, j]:
            ok_d = False
    level_sets = {k: set(v) for k, v in dmf.levels.items()}
    for k in range(2, sw.m_max + 2):
        if not level_sets[k] <= level_sets[k - 1]:
            ok_d = False
    for k in range(1, sw.m_max + 1):
        expected = {(int(i), int(j)) for i, j in zip(iu[matrix[iu, ju] >= k], ju[matrix[iu, ju] >= k])}
        if level_sets[k] != expected:
            ok_d = False

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 600.0
    report(
        6,
        ok,
        f"(a) loops at eps(m), m=2..5: measured {b1_at_eps}, need all 2 -> "
        f"{'PASS' if ok_a else 'FAIL'}; "
        f"(b) only-at-m=1 share {n_only_m1}/{n_life1} = {n_only_m1 / max(n_life1, 1):.1%} (>50%) -> "
        f"{'PASS' if ok_b else 'FAIL'}; "
        f"(c) lifespan-1 count {n_life1} (band 683+-30% = [478.1, 887.9]) -> "
        f"{'PASS' if ok_c else 'FAIL'}; "
        f"(d) nesting exhaustive -> {'PASS' if ok_d else 'FAIL'}; {elapsed:.0f}s (<600s)",
    )


def test_criterion_7_noise_robustness(lorenz, tau):
    series, _ = lorenz

    def noisy_run(nu, cap):
        noisy = add_uniform_noise(series, nu, seed=0)
        w2 = delay_embed(noisy, 2, tau)
        every = (len(w2) - 1) // 200
        lms = select_evenly_spaced(w2, every=every)
        ef = edge_births(distance_matrix(w2.points, lms.coords))
        return lms.ell, barcode_of(ef, dim_cap=2, cap=cap)

    ell1, bc1 = noisy_run(1.0, cap=3.0)
    k1 = k1_by_length(bc1)
    spurious = k1[2].length if len(k1) > 2 else 0.0
    ok_nu1 = (
        ell1 == 201
        and len(k1) >= 2
        and all(math.isfinite(iv.death) for iv in k1)
        and k1[0].length >= 3.0 * spurious
        and k1[1].length >= 3.0 * spurious
    )

    ell4, bc4 = noisy_run(4.0, cap=1.5)
    k0_4, k1_4 = bc4.by_dim(0), bc4.by_dim(1)
    inf_k0 = sum(1 for iv in k0_4 if math.isinf(iv.death))
    inf_k1 = sum(1 for iv in k1_4 if math.isinf(iv.death))
    threshold = max(last_finite_death(k0_4), last_finite_death(k1_4))
    ok_nu4 = ell4 == 201 and inf_k0 == 1 and inf_k1 == 0 and 0.08 <= threshold <= 0.30

    ok = ok_nu1 and ok_nu4
    report(
        7,
        ok,
        f"nu=1 (ell={ell1}): two loops of length {k1[0].length:.3f}/{k1[1].length:.3f} vs "
        f"worst spurious {spurious:.3f} (need >=3x); nu=4 (ell={ell4}): acyclic above "
        f"{threshold:.3f} (band [0.08,0.30])",
    )


def test_criterion_8_prefix_exactness():
    rng = np.random.default_rng(8)
    n_series = 20
    for _ in range(n_series):
        n = int(rng.integers(60, 300))
        series = ScalarSeries(rng.standard_normal(n), 1.0)
        tau_steps = int(rng.integers(1, 6))
        m_max = int(rng.integers(2, 9))
        while (m_max - 1) * tau_steps >= n - 2:
            m_max -= 1
        top = delay_embed(series, m_max, tau_steps)
        for m in range(1, m_max + 1):
            sub = delay_embed(series, m, tau_steps, m_anchor=m_max)
            assert np.array_equal(sub.points, top.points[:, :m]), "prefix mismatch"
            assert np.array_equal(sub.time_index, top.time_index), "time index mismatch"
    report(8, True, f"{n_series}/{n_series} random series: anchored prefixes bitwise exact")


def test_criterion_9_diameter_law(lorenz, tau):
    series, _ = lorenz
    diam_1 = bbox_diameter(delay_embed(series, 1, tau))
    worst = 0.0
    diams = []
    for m in range(1, 9):
        diam_m = bbox_diameter(delay_embed(series, m, tau))
        diams.append(diam_m)
        worst = max(worst, abs(diam_m / (diam_1 * math.sqrt(m)) - 1.0))
    ok = worst <= 1e-9
    report(
        9,
        ok,
        f"diam(W_m)/diam(W_1) == sqrt(m) for m=1..8, max rel err {worst:.2e} (<=1e-9); "
        f"diam(W_1)={diam_1:.4f}",
    )
