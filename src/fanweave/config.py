"""Default numerical tolerances and run configuration.

All fixtures in this package have entries that are roots of unity, so double
precision leaves residuals around 1e-13; the defaults below keep an order of
magnitude of margin on top of that.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Named absolute tolerances.

    ``DEFAULT_TOLS`` holds the defaults.  Every check reads the tolerances in
    force through :func:`tols`; the only way to change them is a
    :func:`tolerances` block (the CLI's ``--tol`` enters one for the run).
    """

    unitarity: float = 1e-9        # ||A*A - I||_F
    orthogonality: float = 1e-9    # |tr(U_x* U_y) - d delta_xy|
    commutation: float = 1e-9      # ||AB - BA||_F, and entrywise for float Hadamard predicates
    trace: float = 1e-9            # |tr W| for unitary-system members
    psd: float = 1e-10             # lambda_min >= -psd (POVM elements, PPT certificates)
    hermitian: float = 1e-9        # relative ||A - A*||_F / ||A||_F
    normality: float = 1e-8        # relative ||A*A - AA*||_F / ||A||_F^2
    diag_residual: float = 1e-8    # off-diagonal residual of joint diagonalization, times sqrt(d)
    row_sum: float = 1e-8          # |sum of a traceless diagonal|
    unbiasedness: float = 1e-9     # |d |<b, b'>|^2 - 1| across bases
    unimodular: float = 1e-12      # ||H_jk| - 1|
    vector_norm: float = 1e-12     # |  ||psi|| - 1 |
    schmidt: float = 1e-8          # singular-value cutoff / flatness of Schmidt spectra
    purity_ratio: float = 1e-8     # second eigenvalue <= ratio * largest for a pure element
    povm_sum: float = 1e-9         # ||sum A_j - I||_F


DEFAULT_TOLS = Tolerances()

_ACTIVE: ContextVar[Tolerances] = ContextVar("fanweave_tolerances", default=DEFAULT_TOLS)


def tols() -> Tolerances:
    """The tolerances in force in the current thread or task."""
    return _ACTIVE.get()


@contextmanager
def tolerances(**overrides: float):
    """Override named tolerances for the duration of a ``with`` block.

    Overrides nest, are reset on exit and are seen only by the entering thread
    or task; unknown names and values not finite and positive raise ValueError.
    """
    known = sorted(f.name for f in dataclasses.fields(Tolerances))
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ValueError(f"unknown tolerance name(s) {unknown}; known names: {known}")
    values = {name: float(value) for name, value in overrides.items()}
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"tolerance {name!r} must be finite and positive, got {value!r}")
    token = _ACTIVE.set(dataclasses.replace(_ACTIVE.get(), **values))
    try:
        yield _ACTIVE.get()
    finally:
        _ACTIVE.reset(token)


# Angle resolution used when rounding unimodular spectra into discrete
# invariants.  Fixture spectra are separated by at least 2*pi/d, far above
# this, so the rounding is safe; it is deliberately not run-configurable.
ANGLE_DECIMALS = 8


@dataclass(frozen=True)
class RunConfig:
    """CLI-level configuration: seed, report format and artifact path."""

    seed: int = 0
    fmt: str = "text"
    out: str | None = None
