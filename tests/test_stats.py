"""Normal special functions, quantiles, root finding, threshold constants."""

import math
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from regretalloc.stats import (
    bisect_root,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    normal_sf,
    solve_threshold_constants,
    threshold_constants,
)
from reference_values import (
    ORACLE_C0,
    ORACLE_CDF_075,
    ORACLE_CDF_MINUS_8,
    ORACLE_SF_075,
    ORACLE_SF_10,
    ORACLE_T_STAR,
    ORACLE_Z_05,
    ORACLE_Z_80,
    ORACLE_Z_90,
)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_value_at_075(self):
        assert normal_cdf(0.75) == pytest.approx(ORACLE_CDF_075, abs=1e-12)
        assert normal_sf(0.75) == pytest.approx(ORACLE_SF_075, abs=1e-12)

    def test_far_left_tail_keeps_relative_accuracy(self):
        value = normal_cdf(-8.0)
        assert value == pytest.approx(ORACLE_CDF_MINUS_8, rel=1e-6)

    def test_sf_avoids_cancellation(self):
        # 1 - cdf(10) would be exactly 0 in floats; the survival form is not.
        assert normal_sf(10.0) == pytest.approx(ORACLE_SF_10, rel=1e-6)
        assert 1.0 - normal_cdf(10.0) == 0.0

    def test_cdf_plus_sf_is_one(self):
        for i in range(-100, 101):
            x = i / 10.0
            assert abs(normal_cdf(x) + normal_sf(x) - 1.0) <= 1e-12

    def test_matches_independent_oracle_on_grid(self):
        mpmath.mp.dps = 30
        for i in range(-60, 61):
            x = i / 4.0
            exact = float(mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)) / 2)
            assert normal_cdf(x) == pytest.approx(exact, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=-30, max_value=30), st.floats(min_value=0, max_value=5))
    def test_monotone_nondecreasing(self, x, step):
        assert normal_cdf(x + step) >= normal_cdf(x)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_tail_values(self):
        assert normal_quantile(0.05) == pytest.approx(ORACLE_Z_05, abs=1e-8)
        assert normal_quantile(0.90) == pytest.approx(ORACLE_Z_90, abs=1e-8)
        assert normal_quantile(0.80) == pytest.approx(ORACLE_Z_80, abs=1e-8)

    def test_inverse_contract(self):
        for p in (1e-9, 1e-4, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-6):
            z = normal_quantile(p)
            assert abs(normal_cdf(z) - p) <= 1e-10

    def test_roundtrip_through_cdf(self):
        for i in range(-50, 51):
            x = i / 10.0
            assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestBisectRoot:
    def test_finds_sqrt2(self):
        root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, tolerance=1e-13)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_requires_sign_change(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, tolerance=1e-10)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x, -1.0, 1.0, tolerance=0.0)


class TestThresholdConstants:
    def test_values_against_independent_oracle(self):
        constants = solve_threshold_constants(tolerance=1e-12)
        assert constants.t_star == pytest.approx(ORACLE_T_STAR, abs=1e-9)
        assert constants.c0 == pytest.approx(ORACLE_C0, abs=1e-9)

    def test_bracketing_invariants(self):
        constants = threshold_constants()
        assert 0.74 < constants.t_star < 0.76
        assert 0.169 < constants.c0 < 0.171

    def test_c0_built_from_root(self):
        constants = threshold_constants()
        assert constants.c0 == constants.t_star * normal_sf(constants.t_star)
        assert round(constants.c0, 2) == 0.17

    def test_root_satisfies_stationarity(self):
        t = threshold_constants().t_star
        assert abs(t * normal_pdf(t) - normal_sf(t)) <= 1e-12

    def test_grid_maximum_matches(self):
        constants = threshold_constants()
        grid = [5.0 * k / 10_000 for k in range(10_001)]
        values = [t * normal_sf(t) for t in grid]
        best = max(range(len(grid)), key=values.__getitem__)
        nearest = min(range(len(grid)), key=lambda k: abs(grid[k] - constants.t_star))
        assert best == nearest
        assert values[best] == pytest.approx(constants.c0, abs=1e-6)

    def test_memoized_once(self):
        a = threshold_constants()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: threshold_constants(), range(32)))
        assert all(r is a for r in results)

    def test_memoized_once_from_concurrent_cold_start(self):
        # In a fresh interpreter, threads race to import the module and read
        # the constants; the import lock solves them once for all of them.
        script = textwrap.dedent(
            """
            import threading
            from concurrent.futures import ThreadPoolExecutor

            barrier = threading.Barrier(8)

            def first_use(_):
                barrier.wait()
                from regretalloc.stats import threshold_constants
                return threshold_constants()

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(first_use, range(8)))
            print(len({id(r) for r in results}))
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            solve_threshold_constants(tolerance=-1.0)
