"""The classic k-color Polya urn and the chameleon-marble urn with its family split.

Masses are real numbers, not integer counts: the walk's edge weights
include non-integer initial values, and the urn masses mirror them.
The chameleon ("magic") marble has unit mass and no stored color; its
color is evaluated at draw time from the identity of the particle
present at the site (red for the left particle, blue for the right).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import RngStream


class NegativeMassError(ValueError):
    """An effective red or blue mass went negative (only possible for a < 1)."""


@dataclass(frozen=True)
class PolyaUrn:
    """Classic k-color urn: draw a color with probability proportional to
    its mass, then add ``d`` of the drawn color.

    The color fractions converge to Dirichlet(masses / d) (Pemantle, "A
    survey of random processes with reinforcement", Probab. Surveys 4,
    2007); for two colors that is Beta(red / d, blue / d).
    """

    masses: tuple[float, ...]
    d: float = 1.0

    def __post_init__(self) -> None:
        if len(self.masses) < 2:
            raise ValueError(f"an urn needs at least two colors, got {len(self.masses)}")
        if any(m < 0 for m in self.masses):
            raise ValueError(
                f"urn masses must be nonnegative, got {', '.join(map(str, self.masses))}")
        if self.d <= 0:
            raise ValueError(f"reinforcement must be positive, got {self.d}")

    def limit_law(self) -> tuple[float, ...]:
        """Parameters of the Dirichlet limit law of the color fractions."""
        return tuple(m / self.d for m in self.masses)


@dataclass(slots=True)
class MagicUrn:
    """One site's urn: pure red/blue marbles, family red/blue marbles, and
    the unit-mass chameleon marble (implicit).

    Family marbles keep a fixed color once added; only the chameleon
    marble changes color with the particle present.  ``pure_red`` may be
    negative at initialization when a < 1; every draw checks that the
    masses of both directions stay nonnegative.  Draws update the masses
    in place.
    """

    pure_red: float
    pure_blue: float
    fam_red: float = 0  # an int zero keeps Fraction masses exact
    fam_blue: float = 0

    def __post_init__(self) -> None:
        if self.fam_red < 0 or self.fam_blue < 0:
            raise ValueError("family masses must be nonnegative")


def polya_fraction_samples(
    urn: PolyaUrn, n_draws: int, n_runs: int, rng: RngStream
) -> np.ndarray:
    """Color fractions after ``n_draws`` drawings of ``n_runs`` independent
    urns, as an (n_runs, k) array.

    Vectorized across runs; one uniform per (draw, run).  Only the k - 1
    running sums of the masses are kept: a uniform below the sum up to a
    color picks that color or an earlier one, so each sum it falls below
    grows by ``d``.
    """
    d = float(urn.d)
    cum = np.repeat(np.cumsum(urn.masses[:-1], dtype=float)[:, None], n_runs, axis=1)
    total = float(sum(urn.masses))  # deterministic: every drawing adds exactly d
    for _ in range(n_draws):
        cum += d * (rng.gen.random(n_runs) * total < cum)
        total += d
    return (np.diff(cum, axis=0, prepend=0.0, append=total) / total).T
