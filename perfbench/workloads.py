"""Seeded workload generators.

Each generator turns ``(seed, smoke)`` into a :class:`Workload`: the config
sources goldenslant is handed (bundled names or generated ``.cfg`` files),
the run seed, and the amount of work one pass does.  The same seed always
gives byte-identical config files.  ``smoke`` shrinks every workload to a
size the benchmark's own tests can run in a few seconds.

The ``exact_dense`` generator checks its own input in plain
:class:`fractions.Fraction` arithmetic before handing it over, so a bad seed
cannot hide behind a defect in goldenslant's exact kernel.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

BUNDLED = (
    "paper_example_1",
    "paper_example_2",
    "paper_example_3",
    "paper_example_4_k1",
    "paper_example_4_k2_paperformula",
    "spaceform_n4",
)

CURVED_COMPONENTS = ("u*cos(v)", "u*sin(v)", "v", "u^2/3")
CURVED_PHI = ("psi", "one_minus_psi", "psi", "one_minus_psi")
SPACEFORM_CURVATURES = (1.0, -1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int  # run seed handed to run_scenario
    sources: tuple[str, ...]  # bundled config names or config file paths
    items: int  # work items one pass completes
    item_unit: str  # what an item is: scenarios, points or trials
    params: dict  # generator parameters, kept for the gate


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[name](seed, workdir, smoke)


def _write(workdir: Path, name: str, seed: int, config: dict) -> str:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{name}-seed{seed}.cfg"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return str(path)


def bundled_mix(seed: int, workdir: Path, smoke: bool) -> Workload:
    return Workload("bundled_mix", seed, BUNDLED, len(BUNDLED), "scenarios", {})


def curved_grid(seed: int, workdir: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    count = 4 if smoke else 14
    du, dv = round(rng.uniform(0.0, 0.25), 6), round(rng.uniform(-0.25, 0.25), 6)
    u_lo, v_lo = 0.5 + du, -1.0 + dv  # u stays > 0
    config = {
        "ambient": {"dim": 4, "phi": {"pattern": list(CURVED_PHI)}},
        "immersion": {
            "params": ["u", "v"],
            "components": list(CURVED_COMPONENTS),
            "samples": {"grid": [[u_lo, u_lo + 1.0, count], [v_lo, v_lo + 2.0, count]]},
        },
        "suites": ["identities", "extrinsic", "slant"],
        "seed": seed,
    }
    path = _write(workdir, "curved_grid", seed, config)
    params = {"count": count, "u": (u_lo, u_lo + 1.0), "v": (v_lo, v_lo + 2.0)}
    return Workload("curved_grid", seed, (path,), count * count, "points", params)


def spaceform_trials(seed: int, workdir: Path, smoke: bool) -> Workload:
    n, p = (4, 2) if smoke else (8, 4)
    trials = 5 if smoke else 200
    c_p, c_q = SPACEFORM_CURVATURES
    config = {
        "ambient": {"dim": n, "phi": {"pattern": ["psi"] * p + ["one_minus_psi"] * (n - p)}},
        "spaceform": {"c_p": c_p, "c_q": c_q, "p": p, "trials": trials, "seed": seed},
        "suites": ["curvature"],
        "seed": seed,
    }
    path = _write(workdir, "spaceform_trials", seed, config)
    params = {"n": n, "p": p, "trials": trials, "c_p": c_p, "c_q": c_q}
    return Workload("spaceform_trials", seed, (path,), trials, "trials", params)


# ---------------------------------------------------------------------------
# exact_dense: plain-Fraction construction and self-check


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _inverse(a):
    """Gauss-Jordan inverse over Fraction; None when ``a`` is singular."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _q_mul(x, y):
    """Product in Q(sqrt5) of pairs (a, b) meaning a + b*sqrt5."""
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _q_det3(m):
    """Determinant of a 3x3 matrix of (a, b) pairs by cofactor expansion."""
    total = (Fraction(0), Fraction(0))
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = _q_mul(_q_mul(m[0][perm[0]], m[1][perm[1]]), m[2][perm[2]])
        total = (total[0] + sign * term[0], total[1] + sign * term[1])
    return total


def _q_text(a: Fraction, b: Fraction) -> str:
    sign = "-" if b < 0 else "+"
    return f"({a}{sign}{abs(b)}*sqrt5)"


def check_exact_input(metric, f, jac) -> None:
    """Raise ValueError unless F^2 = I, gF = F^T g and the Jacobian has full rank.

    ``metric`` and ``f`` are Fraction matrices; ``jac`` is an n x m matrix of
    (a, b) pairs meaning a + b*sqrt5.  Full rank over Q(sqrt5) is witnessed
    by one nonzero m x m minor (m = 3 here).
    """
    n = len(f)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if _matmul(f, f) != eye:
        raise ValueError("F^2 != I")
    if _matmul(metric, f) != _matmul(_transpose(f), metric):
        raise ValueError("gF != F^T g")
    if not _full_rank(jac):
        raise ValueError("Jacobian is rank deficient")


def _full_rank(jac) -> bool:
    if len(jac[0]) != 3:
        raise ValueError("the rank witness expects m = 3")
    return any(_q_det3([jac[r] for r in rows]) != (0, 0)
               for rows in combinations(range(len(jac)), 3))


def exact_dense(seed: int, workdir: Path, smoke: bool) -> Workload:
    n, k, m = (4, 2, 3) if smoke else (8, 4, 3)
    rng = random.Random(seed)
    metric = [[Fraction(2) if i == j else Fraction(1, 2) if abs(i - j) == 1 else Fraction(0)
               for j in range(n)] for i in range(n)]
    while True:  # a reflection needs a k-dimensional subspace W
        w = [[Fraction(rng.randint(-1, 1)) for _ in range(k)] for _ in range(n)]
        gram_inv = _inverse(_matmul(_matmul(_transpose(w), metric), w))
        if gram_inv is not None:
            break
    # F = I - 2 W (W^T g W)^-1 W^T g reflects across the g-orthogonal complement of W.
    proj = _matmul(_matmul(_matmul(w, gram_inv), _transpose(w)), metric)
    f = [[Fraction(int(i == j)) - 2 * proj[i][j] for j in range(n)] for i in range(n)]
    jac = None
    while jac is None or not _full_rank(jac):  # entries (a, b) mean a + b*sqrt5
        jac = [[(Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 2))
                for _ in range(m)] for _ in range(n)]
    check_exact_input(metric, f, jac)
    components = [
        "+".join(f"{_q_text(*jac[i][j])}*u{j + 1}" for j in range(m)) + f"+{rng.randint(-3, 3)}"
        for i in range(n)
    ]
    config = {
        "ambient": {
            "dim": n,
            "metric": [[str(x) for x in row] for row in metric],
            "phi": {"from_involution": [[str(x) for x in row] for row in f]},
        },
        "immersion": {
            "params": [f"u{j + 1}" for j in range(m)],
            "components": components,
            "samples": {"grid": [[-1, 1, 2]] * m},
        },
        "suites": ["structure", "identities", "slant"],
        "seed": seed,
    }
    path = _write(workdir, "exact_dense", seed, config)
    params = {"n": n, "k": k, "m": m}
    return Workload("exact_dense", seed, (path,), 1, "scenarios", params)


GENERATORS = {
    "bundled_mix": bundled_mix,
    "curved_grid": curved_grid,
    "exact_dense": exact_dense,
    "spaceform_trials": spaceform_trials,
}
