"""Suite configuration: the check ids, the two flavors, SuiteConfig and its grid.

Standard library only, so that qgordon-verify can parse and check its whole
configuration before it loads any numerical layer.  counting and harness
import these names from here; each has this one definition.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

REGULAR = "regular"
OVER = "over"

CHECK_IDS = (
    "recurrences",
    "gf-consistency",
    "summand-eqs",
    "gf-match",
    "product-eval",
    "identities",
)


class ConfigError(ValueError):
    """Invalid suite configuration; reported before any computation."""


class _ConfigFields(NamedTuple):
    checks: tuple
    ks: tuple
    ds: tuple
    a_values: Optional[tuple]  # None = all valid for each (k, d)
    s_values: Optional[tuple]
    flavors: tuple
    trunc_order: int
    x_order: int
    summand_n_max: int
    alt_condition: bool


class SuiteConfig(_ConfigFields):
    """Grid and options for one batch run."""

    __slots__ = ()

    def __new__(
        cls,
        checks: tuple = CHECK_IDS,
        ks: tuple = (2, 3),
        ds: tuple = (1, 2),
        a_values: Optional[tuple] = None,
        s_values: Optional[tuple] = None,
        flavors: tuple = (REGULAR, OVER),
        trunc_order: int = 30,
        x_order: int = 10,
        summand_n_max: int = 3,
        alt_condition: bool = False,
    ):
        self = super().__new__(
            cls, checks, ks, ds, a_values, s_values, flavors, trunc_order, x_order,
            summand_n_max, alt_condition,
        )
        bad = [c for c in checks if c not in CHECK_IDS]
        if bad:
            raise ConfigError(f"unknown checks: {', '.join(bad)}")
        # an empty check list is legal and yields an empty report
        if not ks or not ds or not flavors:
            raise ConfigError("empty grid dimension")
        if any(k < 2 for k in ks):
            raise ConfigError("k must be at least 2")
        if any(d < 1 for d in ds):
            raise ConfigError("d must be at least 1")
        if any(f not in (REGULAR, OVER) for f in flavors):
            raise ConfigError("flavor must be regular or over")
        if trunc_order < 1 or x_order < 1:
            raise ConfigError("truncation orders must be positive")
        if summand_n_max < 0:
            raise ConfigError("summand_n_max must be at least 0")
        if "product-eval" in checks and trunc_order < x_order:
            raise ConfigError(
                f"product-eval needs trunc_order >= x_order (got N = {trunc_order}, "
                f"X = {x_order}): the x = 1 comparison is exact only through q^(N-X)"
            )
        if a_values is not None and any(v < 1 for v in a_values):
            raise ConfigError("a values must be at least 1")
        if s_values is not None and any(v < 0 for v in s_values):
            raise ConfigError("s values must be non-negative")
        grid_values = (("k", ks), ("d", ds), ("a", a_values), ("s", s_values), ("flavor", flavors))
        for name, values in grid_values:
            if values is not None and len(set(values)) < len(values):
                raise ConfigError(f"repeated {name} values: each report would be made twice")
        if next(_grid(self), None) is None:
            raise ConfigError("empty grid: no tuple has d <= k, 0 <= s < d and 1 <= a <= k")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _groups(config: SuiteConfig) -> Iterable[list[tuple]]:
    """The (k, a, d, s, flavor) tuples of the grid, one non-empty list per
    (flavor, k, d) group, with s, then a, varying within a group."""
    for flavor in config.flavors:
        for k in config.ks:
            for d in config.ds:
                if d > k:
                    continue
                ss = config.s_values if config.s_values is not None else range(d)
                aa = config.a_values if config.a_values is not None else range(1, k + 1)
                group = [
                    (k, a, d, s, flavor) for s in ss if 0 <= s < d for a in aa if 1 <= a <= k
                ]
                if group:
                    yield group


def _grid(config: SuiteConfig) -> Iterable[tuple]:
    for group in _groups(config):
        yield from group
