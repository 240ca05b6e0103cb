"""Scenario configuration: parsing, validation and object construction.

Configs are JSON documents (conventionally ``*.cfg``).  Validation errors
carry a JSON-pointer-style path to the offending entry::

    {
      "ambient": {
        "dim": 4,
        "metric": [["1", "0", ...], ...],          # optional, default identity
        "phi": {"pattern": ["psi", "psi", "one_minus_psi", "one_minus_psi"]}
               | {"matrix": [["1/2+1/2*sqrt5", ...], ...]}
               | {"from_involution": [["1", "0", ...], ...]}
      },
      "immersion": {                               # needed by identities/extrinsic/slant
        "params": ["u1", "u2"],
        "components": ["psi*u1", "(1-psi)*u1", ...],
        "samples": {"grid": [[-1, 1, 3], [-1, 1, 3]], "extra_points": [[0, 0]]}
      },
      "spaceform": {"c_p": 1, "c_q": -1, "p": 2, "trials": 100, "seed": 7},
      "slant": {"angle_formula": "projection" | "unnormalized"},
      "suites": ["structure", "identities", "slant"],
      "tolerances": {"tol_angle": 1e-6},
      "seed": 0
    }

Matrix entries are exact Q(sqrt5) strings (``"r"`` or ``"r+s*sqrt5"``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, ExprSyntaxError
from .expr import Expr, parse
from .quadrat import QuadRat, parse_quadrat

SUITE_ORDER = ("structure", "identities", "extrinsic", "slant", "curvature")
IMMERSION_SUITES = {"identities", "extrinsic", "slant"}

# spaceform.trials and spaceform.seed size nothing: they are validated and echoed
# because the benchmark's generated configs write them (ROADMAP item 1 deletes them).
MAX_TRIALS = 100_000
# Exact validation costs grow as dim^3, so the dimension bounds a run's work.
MAX_DIM = 32
# The point suites evaluate every sample point in one batch, so points do too.
MAX_POINTS = 100_000
# That batch holds arrays of points * dim^2 numbers, about 48 bytes and 0.15 us per unit
# (curved immersions at dim 16 and 32, up to 8,000 points), so this cap keeps a run near
# 0.8 GB and 2.5 s; below dim 13 MAX_POINTS binds first.
MAX_POINT_WORK = 2 ** 24

ANGLE_FORMULA_PROJECTION = "projection"
ANGLE_FORMULA_UNNORMALIZED = "unnormalized"


class Tolerances(NamedTuple):
    tol_struct: float = 1e-9
    tol_frame: float = 1e-9
    tol_class: float = 1e-7
    tol_angle: float = 1e-6

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


class SpaceformSection(NamedTuple):
    c_p: float
    c_q: float
    p: int
    trials: int = 100
    seed: int = 0


class SampleSpec(NamedTuple):
    """Evaluation grid: per-parameter (lo, hi, count) plus explicit points."""

    grid: tuple[tuple[float, float, int], ...]
    extra_points: tuple[tuple[float, ...], ...] = ()

    @classmethod
    def default(cls, m: int) -> SampleSpec:
        return cls(grid=tuple((-1.0, 1.0, 3) for _ in range(m)))

    @property
    def size(self) -> int:
        """Number of sample points, counted without building them."""
        return math.prod(count for _, _, count in self.grid) + len(self.extra_points)

    def points(self):
        """The (N, m) sample points: the grid, last parameter fastest, then the extra points."""
        import numpy as np

        axes = [np.linspace(lo, hi, count) for lo, hi, count in self.grid]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        extra = np.array(self.extra_points, dtype=float).reshape(-1, len(axes))
        return np.concatenate([grid, extra])

    def first_and_extent(self):
        """``points()[:1]`` and each parameter's max |x| over ``points()``, read off its two grid
        ends (where the grid starts; no grid value lies past them) and the extra points."""
        import numpy as np

        ends = [np.linspace(lo, hi, min(count, 2)) for lo, hi, count in self.grid]
        extra = np.reshape(self.extra_points, (-1, len(ends)))
        extent = [np.abs(np.append(axis, column)).max() for axis, column in zip(ends, extra.T)]
        return np.array([[axis[0] for axis in ends]]), np.array(extent)


class ScenarioConfig(NamedTuple):
    """A validated config.  The ``build_*`` methods import the numeric modules
    they construct from, so loading a config imports none of them."""

    dim: int
    metric_rows: tuple[tuple[QuadRat, ...], ...] | None
    phi_kind: str  # matrix | pattern | from_involution
    phi_payload: tuple  # pattern names, or the parsed matrix rows
    suites: tuple[str, ...]
    immersion_params: tuple[str, ...] | None = None
    immersion_components: tuple[Expr, ...] | None = None
    immersion_samples: SampleSpec | None = None
    spaceform: SpaceformSection | None = None
    angle_formula: str = ANGLE_FORMULA_PROJECTION
    tolerances: Tolerances = Tolerances()
    seed: int = 0

    def build_metric(self):
        from .structures import Metric

        if self.metric_rows is None:
            return Metric.euclidean(self.dim)
        return Metric(self.metric_rows)

    def build_structure(self):
        from .structures import GoldenStructure, diagonal_golden, golden_from_product

        metric = self.build_metric()
        if self.phi_kind == "pattern":
            return diagonal_golden(self.phi_payload, metric)
        if self.phi_kind == "matrix":
            return GoldenStructure(self.phi_payload, metric)
        return golden_from_product(self.phi_payload, metric)

    def build_immersion(self):
        from .submanifold import ImmersionSpec

        return ImmersionSpec(self.immersion_params, self.immersion_components,
                             self.immersion_samples)

    def with_overrides(self, seed: int | None = None,
                       tol_angle: float | None = None) -> ScenarioConfig:
        cfg = self
        if seed is not None:
            cfg = cfg._replace(seed=_as_int(seed, "/seed", minimum=0))
        if tol_angle is not None:
            tol_angle = _as_number(tol_angle, "/tolerances/tol_angle", minimum=0.0)
            cfg = cfg._replace(tolerances=cfg.tolerances._replace(tol_angle=tol_angle))
        return cfg


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}/{key}", "missing required entry")
    return mapping[key]


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}/{key}", "unknown entry")


def _as_int(value, path: str, minimum: int | None = None,
            maximum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}")
    return value


def _as_number(value, path: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, "expected a finite number")
    if minimum is not None and number < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return number


def _as_expr(text: str, params: list[str], path: str) -> Expr:
    try:
        return parse(text, params)
    except ExprSyntaxError as exc:
        raise ConfigError(path, str(exc)) from None


def _as_matrix(value, dim: int, path: str) -> tuple[tuple[QuadRat, ...], ...]:
    """The parsed rows of a matrix of Q(sqrt5) strings."""
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(path, f"expected {dim} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{path}/{i}", f"expected {dim} entries")
        cells = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise ConfigError(f"{path}/{i}/{j}", "matrix entries are Q(sqrt5) strings")
            try:
                cells.append(parse_quadrat(cell))
            except ValueError as exc:
                raise ConfigError(f"{path}/{i}/{j}", str(exc)) from None
        rows.append(tuple(cells))
    return tuple(rows)


def parse_config(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("", "top level must be an object")
    _check_keys(data, {"ambient", "immersion", "spaceform", "slant", "suites",
                       "tolerances", "seed"}, "")

    ambient = _require(data, "ambient", "")
    if not isinstance(ambient, dict):
        raise ConfigError("/ambient", "expected an object")
    _check_keys(ambient, {"dim", "metric", "phi"}, "/ambient")
    dim = _as_int(_require(ambient, "dim", "/ambient"), "/ambient/dim", minimum=1,
                 maximum=MAX_DIM)

    metric_rows = None
    if "metric" in ambient:
        metric_rows = _as_matrix(ambient["metric"], dim, "/ambient/metric")

    phi = _require(ambient, "phi", "/ambient")
    if not isinstance(phi, dict):
        raise ConfigError("/ambient/phi", "expected an object")
    _check_keys(phi, {"matrix", "pattern", "from_involution"}, "/ambient/phi")
    if len(phi) != 1:
        raise ConfigError("/ambient/phi",
                          "exactly one of matrix / pattern / from_involution")
    phi_kind = next(iter(phi))
    if phi_kind == "pattern":
        pattern = phi["pattern"]
        if not isinstance(pattern, list) or len(pattern) != dim:
            raise ConfigError("/ambient/phi/pattern", f"expected {dim} entries")
        for i, name in enumerate(pattern):
            if name not in ("psi", "one_minus_psi"):
                raise ConfigError(f"/ambient/phi/pattern/{i}",
                                  "entries are 'psi' or 'one_minus_psi'")
        phi_payload = tuple(pattern)
    else:
        phi_payload = _as_matrix(phi[phi_kind], dim, f"/ambient/phi/{phi_kind}")

    suites_raw = _require(data, "suites", "")
    if not isinstance(suites_raw, list) or not suites_raw:
        raise ConfigError("/suites", "expected a nonempty list")
    for i, name in enumerate(suites_raw):
        if name not in SUITE_ORDER:
            raise ConfigError(f"/suites/{i}", f"unknown suite {name!r}")
    suites = tuple(s for s in SUITE_ORDER if s in suites_raw)

    imm_params = imm_components = imm_samples = None
    if "immersion" in data:
        imm = data["immersion"]
        if not isinstance(imm, dict):
            raise ConfigError("/immersion", "expected an object")
        _check_keys(imm, {"params", "components", "samples"}, "/immersion")
        params = _require(imm, "params", "/immersion")
        if (not isinstance(params, list) or not params
                or any(not isinstance(p, str) for p in params)):
            raise ConfigError("/immersion/params", "expected a nonempty list of names")
        if len(set(params)) != len(params):
            raise ConfigError("/immersion/params", "parameter names must be distinct")
        components = _require(imm, "components", "/immersion")
        if not isinstance(components, list) or len(components) != dim:
            raise ConfigError("/immersion/components", f"expected {dim} expressions")
        if any(not isinstance(c, str) for c in components):
            raise ConfigError("/immersion/components", "expressions are strings")
        if len(params) >= dim:
            raise ConfigError("/immersion/params",
                              f"need fewer parameters than ambient dimension {dim}")
        imm_params = tuple(params)
        imm_components = tuple(_as_expr(text, params, f"/immersion/components/{i}")
                               for i, text in enumerate(components))
        imm_samples = _parse_samples(imm.get("samples", {}), len(params))
        if imm_samples.size > MAX_POINTS:
            raise ConfigError("/immersion/samples",
                              f"{imm_samples.size} sample points exceed the cap of {MAX_POINTS}")
        if imm_samples.size * dim ** 2 > MAX_POINT_WORK:
            raise ConfigError("/immersion/samples",
                              f"{imm_samples.size} sample points at dimension {dim} exceed "
                              f"the cap of {MAX_POINT_WORK} on points * dim^2")

    spaceform = None
    if "spaceform" in data:
        sf = data["spaceform"]
        if not isinstance(sf, dict):
            raise ConfigError("/spaceform", "expected an object")
        _check_keys(sf, {"c_p", "c_q", "p", "trials", "seed"}, "/spaceform")
        p = _as_int(_require(sf, "p", "/spaceform"), "/spaceform/p", minimum=0)
        if p > dim:
            raise ConfigError("/spaceform/p", f"must be <= ambient dimension {dim}")
        spaceform = SpaceformSection(
            c_p=_as_number(_require(sf, "c_p", "/spaceform"), "/spaceform/c_p"),
            c_q=_as_number(_require(sf, "c_q", "/spaceform"), "/spaceform/c_q"),
            p=p,
            trials=_as_int(sf.get("trials", 100), "/spaceform/trials", minimum=1,
                           maximum=MAX_TRIALS),
            seed=_as_int(sf.get("seed", 0), "/spaceform/seed", minimum=0),
        )

    angle_formula = ANGLE_FORMULA_PROJECTION
    if "slant" in data:
        sl = data["slant"]
        if not isinstance(sl, dict):
            raise ConfigError("/slant", "expected an object")
        _check_keys(sl, {"angle_formula"}, "/slant")
        angle_formula = sl.get("angle_formula", ANGLE_FORMULA_PROJECTION)
        if angle_formula not in (ANGLE_FORMULA_PROJECTION, ANGLE_FORMULA_UNNORMALIZED):
            raise ConfigError("/slant/angle_formula",
                              "expected 'projection' or 'unnormalized'")

    tolerances = Tolerances()
    if "tolerances" in data:
        tols = data["tolerances"]
        if not isinstance(tols, dict):
            raise ConfigError("/tolerances", "expected an object")
        _check_keys(tols, set(tolerances.as_dict()), "/tolerances")
        updates = {k: _as_number(v, f"/tolerances/{k}", minimum=0.0)
                   for k, v in tols.items()}
        tolerances = tolerances._replace(**updates)

    seed = _as_int(data.get("seed", 0), "/seed", minimum=0)

    for suite in suites:
        if suite in IMMERSION_SUITES and imm_params is None:
            raise ConfigError("/immersion", f"suite {suite!r} requires the immersion section")
        if suite == "curvature" and spaceform is None:
            raise ConfigError("/spaceform", "suite 'curvature' requires the spaceform section")

    return ScenarioConfig(
        dim=dim,
        metric_rows=metric_rows,
        phi_kind=phi_kind,
        phi_payload=phi_payload,
        suites=suites,
        immersion_params=imm_params,
        immersion_components=imm_components,
        immersion_samples=imm_samples,
        spaceform=spaceform,
        angle_formula=angle_formula,
        tolerances=tolerances,
        seed=seed,
    )


def _parse_samples(value, m: int) -> SampleSpec:
    if not isinstance(value, dict):
        raise ConfigError("/immersion/samples", "expected an object")
    _check_keys(value, {"grid", "extra_points"}, "/immersion/samples")
    grid = SampleSpec.default(m).grid
    if "grid" in value:
        raw = value["grid"]
        if not isinstance(raw, list) or len(raw) != m:
            raise ConfigError("/immersion/samples/grid",
                              f"expected one [lo, hi, count] triple per parameter ({m})")
        grid = []
        for i, triple in enumerate(raw):
            path = f"/immersion/samples/grid/{i}"
            if not isinstance(triple, list) or len(triple) != 3:
                raise ConfigError(path, "expected [lo, hi, count]")
            lo = _as_number(triple[0], f"{path}/0")
            hi = _as_number(triple[1], f"{path}/1")
            count = _as_int(triple[2], f"{path}/2", minimum=1)
            if not math.isfinite(hi - lo):
                raise ConfigError(path, "the span hi - lo is past the float range")
            grid.append((lo, hi, count))
    extra = []
    points = value.get("extra_points", [])
    if not isinstance(points, list):
        raise ConfigError("/immersion/samples/extra_points", "expected a list of points")
    for i, pt in enumerate(points):
        path = f"/immersion/samples/extra_points/{i}"
        if not isinstance(pt, list) or len(pt) != m:
            raise ConfigError(path, f"expected {m} coordinates")
        extra.append(tuple(_as_number(x, f"{path}/{j}") for j, x in enumerate(pt)))
    return SampleSpec(grid=tuple(grid), extra_points=tuple(extra))


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("", f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable or not UTF-8
        raise ConfigError("", f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError("", f"invalid JSON: {exc}") from None
    return parse_config(data)
