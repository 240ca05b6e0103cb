"""Exception types shared across the toolkit."""

from __future__ import annotations


class GoldenslantError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(GoldenslantError):
    pass


class InvalidInvolution(GoldenslantError):
    pass


class MetricIncompat(GoldenslantError):
    pass


class InvalidStructure(GoldenslantError):
    pass


class ExprSyntaxError(GoldenslantError):
    """Malformed expression text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Identifier outside the declared parameters and built-in constants."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class DomainError(GoldenslantError):
    """Evaluation left the domain of a function (sqrt of a negative, division by zero)."""


class RankDeficient(GoldenslantError):
    pass


class ZeroVector(GoldenslantError):
    pass


class ConfigError(GoldenslantError):
    """Scenario configuration problem; ``path`` is a JSON-pointer-style location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message
