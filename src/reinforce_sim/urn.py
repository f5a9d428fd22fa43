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

    @property
    def total(self):
        """Total drawn-from mass, chameleon marble included (``magic_draw``
        sums the same fields in the same order)."""
        return self.pure_red + self.pure_blue + self.fam_red + self.fam_blue + 1


def left_mass(urn: MagicUrn, left_present: bool):
    """Mass of the marbles that send the present particle left: the red
    marbles, plus the chameleon marble when the left particle is present.

    The rest of ``urn.total`` sends it right.  Raises NegativeMassError
    when either direction's mass is negative (only possible for a < 1).
    """
    red = urn.pure_red + urn.fam_red
    blue = urn.pure_blue + urn.fam_blue
    if left_present:
        red += 1
    else:
        blue += 1
    if red < 0 or blue < 0:
        raise NegativeMassError(
            f"effective masses went negative (red={red}, blue={blue}) "
            f"with {'left' if left_present else 'right'} particle present; urn={urn}"
        )
    return red


def magic_draw(urn: MagicUrn, left_present: bool, u: float) -> tuple[bool, bool]:
    """One drawing on uniform ``u`` with the given particle present; adds
    two marbles of the drawn class to ``urn`` in place and returns (whether
    the jump goes right, whether the marble was pure).

    ``u`` picks the direction pool by mass (``left_mass`` against the
    rest), and within the pool the marble is pure when ``u`` falls below
    the pool's pure mass; a family marble or the chameleon marble adds two
    family marbles.  A negative pure mass (a < 1) makes the pure/family
    split ill-defined; the draw then goes to the pool's family marbles,
    which leaves the walk's law alone (it only depends on the pooled
    masses).  The fields are read directly: this runs once per event of
    every coupled run.
    """
    left = left_mass(urn, left_present)
    pure_red, pure_blue = urn.pure_red, urn.pure_blue
    total = pure_red + pure_blue + urn.fam_red + urn.fam_blue + 1
    if total <= 0:
        raise NegativeMassError(f"urn total mass {total} is not positive; urn={urn}")
    x = u * total
    if x < left:
        if x < pure_red:  # never for a negative pure mass: x >= 0
            urn.pure_red = pure_red + 2
            return False, True
        urn.fam_red += 2
        return False, False
    if x - left < pure_blue:
        urn.pure_blue = pure_blue + 2
        return True, True
    urn.fam_blue += 2
    return True, False


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
