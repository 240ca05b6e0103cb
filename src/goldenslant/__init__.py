"""Golden structures, slant submanifolds and space-form curvature checks.

Exports resolve on first use (PEP 562): ``import goldenslant`` loads no
submodule, and ``goldenslant.NAME`` imports only the module that defines
NAME, so loading a config never imports numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# defining submodule -> the names it exports here (a submodule exports itself)
_EXPORTS = {
    "config": "config SampleSpec ScenarioConfig Tolerances load_config parse_config",
    "errors": "errors ConfigError DimensionMismatch DomainError ExprSyntaxError "
              "GoldenslantError InvalidInvolution InvalidStructure MetricIncompat RankDeficient "
              "UnknownIdentifier ZeroVector",
    "exactlin": "exactlin",
    "expr": "expr Expr parse",
    "extrinsic": "extrinsic",
    "jets": "jets Jet2",
    "quadrat": "quadrat ONE_MINUS_PSI PSI SQRT5 QuadRat parse_quadrat",
    "slant": "slant SlantReport classify reference_cosine",
    "spaceform": "spaceform curvature_certificate",
    "structures": "structures AlmostProductStructure GoldenStructure Metric StructureReport "
                  "diagonal_golden golden_eigendecomp golden_from_product product_from_golden "
                  "verify_golden",
    "submanifold": "submanifold ImmersionSpec InducedOperators TangentFrame frame_at "
                   "induced_operators structural_identity_residuals",
    "suites": "suites render_report run_scenario",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Nothing is cached: each access reads the defining module's current binding,
    # so a function replaced there and later restored is never left behind here.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
