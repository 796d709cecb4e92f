"""Rate bookkeeping: the one-shot budget tuple and the additive constant.

The additive rate constant c(eps) = 2 log2(2/sqrt(eps)) + log2(48/eps) is
the value forced by the convex-split parameter choices eta = sqrt(eps)/2,
gamma = sqrt(eps)/4; every threshold helper accepts an override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def composition_eps(eps: float) -> float:
    """eps0 = eps^(1/10), the error of the side-information composition's
    hypothesis tests, derived from the protocol's eps."""
    return eps ** (1.0 / 10.0)


def default_log_const(eps: float) -> float:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return 2.0 * math.log2(2.0 / math.sqrt(eps)) + math.log2(48.0 / eps)


@dataclass(frozen=True)
class OneShotBudget:
    """Error budget and link rates (bits): (eps, R_X, R_Y, C_X, C_Y)."""

    eps: float
    r_x: float
    r_y: float = 0.0
    c_x: float = 0.0
    c_y: float = 0.0

    def __post_init__(self):
        for name in ("eps", "r_x", "r_y", "c_x", "c_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        for name in ("r_x", "r_y", "c_x", "c_y"):
            if getattr(self, name) < 0:
                raise ValueError(f"rate {name} must be nonnegative")

    @property
    def link_rates(self) -> tuple[tuple[float, float], ...]:
        """(R, C) of each link, in the order of ``protocols.prep.LINKS``."""
        return ((self.r_x, self.c_x), (self.r_y, self.c_y))

    @property
    def eps0(self) -> float:
        """Derived budget for the side-information composition
        (``composition_eps``)."""
        return composition_eps(self.eps)
