"""Reference figures for the bundled COVID-19 vaccine scenario.

``REF_*`` entries are the published benchmark values this scenario is
calibrated against, kept as the strings they were printed with so tests can
honor their limited precision (a value printed as "0.012" carries a rounding
quantum of 0.0005).  ``ORACLE_*`` entries were computed before the build
with an independent high-precision evaluator (mpmath, 40 digits) and pin
this package's own closed forms tightly.

Regret entries are in units of 1e-4 unless noted; rates are fractions.
"""

import json
import math
from pathlib import Path

from regretalloc import casestudy

BUNDLED_CONFIG_PATH = Path(casestudy.__file__).with_name("covid_trial.json")

# --- universal constants (independent bisection oracle, 40 digits) --------
ORACLE_T_STAR = 0.751791524693564
ORACLE_C0 = 0.169971207479904

# --- normal special functions (independent series/erfc oracle) ------------
ORACLE_CDF_075 = 0.773372647623
ORACLE_SF_075 = 0.226627352377
ORACLE_CDF_MINUS_8 = 6.22096057427e-16
ORACLE_SF_10 = 7.61985302416e-24
ORACLE_Z_05 = -1.64485362695
ORACLE_Z_80 = 0.841621233573
ORACLE_Z_90 = 1.28155156554

# --- design noise sqrt(s0^2+s1^2), percent ---------------------------------
REF_DESIGN_NOISE_PCT = {
    0.005: ("11.79", "22.08"),
    0.025: ("11.82", "22.10"),
}
ORACLE_DESIGN_NOISE = {
    0.005: (0.11792000, 0.22080110),
    0.025: (0.11823764, 0.22097090),
}

# --- allocations ------------------------------------------------------------
REF_ALLOCATIONS = {
    0.005: {"minimax": (6100, 3218), "proportional": (7734, 1584), "egalitarian": (2068, 7250)},
    0.025: {"minimax": (6102, 3216), "proportional": (7734, 1584), "egalitarian": (2074, 7244)},
}
ORACLE_MINIMAX_SHARES_CASE1 = (6100.014401, 3219.985599)
ORACLE_NEYMAN_ALLOCATION = {0.005: (6736, 2582), 0.025: (6740, 2578)}

# --- worst-case expected regret (x 1e-4) at the reference allocations ------
# columns: (separate, joint, egalitarian); None marks an infinite cell
REF_WORST_CASE = {
    0.005: {
        "only_1": (None, None, None),
        "only_2": (None, None, None),
        "minimax": ("4.60", None, "9.36"),
        "proportional": ("4.94", "3.51", "13.34"),
        "egalitarian": ("6.23", None, "6.23"),
    },
    0.025: {
        "only_1": (None, None, None),
        "only_2": (None, None, None),
        "minimax": ("4.61", None, "9.37"),
        "proportional": ("4.95", "3.51", "13.35"),
        "egalitarian": ("6.24", None, "6.24"),
    },
}

# --- evaluation scenario (from the reported incidence rates) ---------------
REF_TRUTH_TAU_PCT = {0.005: ("-0.13", "-0.24"), 0.025: ("0.11", "-0.10")}
REF_TRUTH_NOISE_PCT = {0.005: ("4.35", "5.28"), 0.025: ("4.45", "5.34")}
ORACLE_TRUTH_TAU = {0.005: (-0.001299, -0.002449), 0.025: (0.001105, -0.001045)}
ORACLE_TRUTH_NOISE = {0.005: (0.043590306, 0.052866946), 0.025: (0.044603907, 0.05348841)}

# --- expected regret (x 1e-4) at the reference allocations -----------------
# Allocations as printed alongside the expected-regret benchmarks (the
# budget-exhausting variants for beta = 0.025).
REF_EXPECTED_ALLOCATIONS = {
    0.005: {
        "only_1": (9320, 0),
        "only_2": (0, 9320),
        "minimax": (6100, 3218),
        "proportional": (7734, 1584),
        "egalitarian": (2068, 7250),
    },
    0.025: {
        "only_1": (9320, 0),
        "only_2": (0, 9320),
        "minimax": (6102, 3218),
        "proportional": (7736, 1584),
        "egalitarian": (2074, 7246),
    },
}
# columns: (separate, joint, egalitarian)
REF_EXPECTED = {
    0.005: {
        "only_1": ("2.30", "0.316", "12.20"),
        "only_2": ("5.38", "0.012", "6.47"),
        "minimax": ("0.67", "0.005", "0.78"),
        "proportional": ("0.75", "0.047", "2.36"),
        "egalitarian": ("1.83", "0.003", "2.19"),
    },
    0.025: {
        "only_1": ("1.29", "0.33", "5.18"),
        "only_2": ("4.77", "6.76", "5.55"),
        "minimax": ("1.16", "1.73", "2.26"),
        "proportional": ("1.07", "0.68", "3.03"),
        "egalitarian": ("2.16", "6.07", "2.34"),
    },
}
# Joint-column benchmarks for allocations sampling more than one group were
# produced by an unstated method and are NOT reproducible from the pooled
# sign rule's closed form (which is cross-validated by simulation instead);
# see discrepancies.txt in the reproduce output.
MIXED_JOINT_ROWS = {"minimax", "proportional", "egalitarian"}

# --- independent-oracle regret values (x 1e-4) ------------------------------
# Worst case at the REF_ALLOCATIONS rows; columns (separate, joint, egalitarian).
_INF = math.inf
ORACLE_WORST_CASE = {
    0.005: {
        "minimax": (4.60280, _INF, 9.35618),
        "proportional": (4.94224, 3.50666, 13.3356),
        "egalitarian": (6.23313, _INF, 6.23337),
    },
    0.025: {
        "minimax": (4.61214, _INF, 9.36629),
        "proportional": (4.95119, 3.51328, 13.3459),
        "egalitarian": (6.24081, _INF, 6.24082),
    },
}
# Expected regret at the REF_EXPECTED_ALLOCATIONS rows; same column order.
ORACLE_EXPECTED = {
    0.005: {
        "only_1": (2.30765, 0.313267, 12.2450),
        "only_2": (5.39411, 0.0116982, 6.49500),
        "minimax": (0.669516, 0.102897, 0.773230),
        "proportional": (0.744677, 0.181848, 2.35528),
        "egalitarian": (1.83277, 0.0246270, 2.19489),
    },
    0.025: {
        "only_1": (1.30467, 0.335763, 5.22500),
        "only_2": (4.74769, 6.72091, 5.52500),
        "minimax": (1.16985, 2.23685, 2.26364),
        "proportional": (1.08313, 1.01621, 3.04327),
        "egalitarian": (2.16179, 5.71662, 2.34814),
    },
}
ORACLE_C0_OVER_SQRT2 = 0.120187793416
ORACLE_C0_OVER_5 = 0.033994241496
ORACLE_ADVERSARIAL_TAU_G1 = 0.531596885149  # t_star * sqrt(0.5)

# --- power-based total sample size -----------------------------------------
REF_BUDGET = 9320
ORACLE_REQUIRED_N = {
    # beta -> {power_quantile: even-ceil N with size quantile 0.05}
    0.005: {0.90: 9436, 0.80: 6812},
    0.025: {0.90: 9470, 0.80: 6838},
}


def print_quantum(printed: str) -> float:
    """Half a unit in the last printed digit (the value's own precision)."""
    if "." not in printed:
        return 0.5
    decimals = len(printed.split(".")[1])
    return 0.5 * 10.0**-decimals


def agrees_with_printed(value: float, printed: str, rel: float, abs_floor: float = 0.0) -> bool:
    """True when ``value`` matches a printed benchmark within ``rel`` relative
    tolerance, the benchmark's own print quantum, or ``abs_floor``, whichever
    is loosest."""
    ref = float(printed)
    tol = max(rel * abs(ref), print_quantum(printed), abs_floor)
    return math.isfinite(value) and abs(value - ref) <= tol


def bundled_config_document() -> dict:
    """A fresh, mutable copy of the bundled scenario document, read from the
    JSON file packaged with ``regretalloc``."""
    return json.loads(BUNDLED_CONFIG_PATH.read_text(encoding="utf-8"))
