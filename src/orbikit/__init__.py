"""Exact Chen-Ruan orbifold Hodge diamonds and derived-equivalence invariants.

Everything is exact integer/rational arithmetic.  The core objects are `HodgeDiamond` (sparse, possibly rationally
graded), `InertiaComponent` and `OrbifoldPresentation` (sector data), and operations assembling diamonds, computing
Hochschild column sums, checking the numeric constraints derived equivalence imposes, and reconstructing integer
diamonds in dimension up to three.  Names load on first use, so each CLI command imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"


def __getattr__(name: str):
    """On the first missing name, publish the five modules' `__all__` names and `__all__` as plain attributes."""
    if name in ("formats", "catalog", "cli"):  # modules without exports here, imported when reached by name
        return import_module(f"{__name__}.{name}")
    modules = [import_module(f"{__name__}.{m}") for m in ("diamond", "inertia", "quotient", "invariants", "errors")]
    public = {n: getattr(m, n) for m in modules for n in m.__all__}
    globals().update(public, __all__=[*public, "__version__"])
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
