"""Seeded random streams and the beta / Dirichlet / digamma substrate.

All randomness in the package flows through :class:`RngStream`, a
counter-based Philox generator used in the style of Random123 (Salmon
et al., SC'11): the seed fixes the Philox key, and the trial and role
are counter words.  A trial's dynamics stream is ``(seed, trial)``;
anything else the trial samples (an environment, holding times) comes
from ``(seed, trial, role)``.  Dynamics streams give only uniforms, so
no output depends on how uniforms are buffered.  Distinct counter words
under one key give independent streams, so :meth:`RngStream.rekey` moves
one generator from trial to trial by rewriting its counter.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_BUFFER_BLOCK = 1024
QUAD_ABS_TOL = 1e-8  # absolute error bound of integrate_log_odds

# Roles: counter word 3 of a stream; role 0 would alias the dynamics
# stream and is not one.
ENVIRONMENT = 1  # a coupled run's quenched environment; rwre chain one's
MIRROR_ENVIRONMENT = 2  # rwre chain two's (the mirrored half-line)
HOLDING_TIMES = 3  # exponential holding times of a logged trajectory


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, trial) or (seed, trial, role).

    Stream ``(s, t, role)`` is numpy's Philox4x64 generator
    ``Philox(s & MASK64, counter=[0, 0, t & MASK64, role or 0])``: numpy
    hashes only the seed, into the two-word key, and the role-less stream
    of trial t is ``Philox(s).jumped(t)``.  Counter words 0 and 1 leave
    each stream 2**128 blocks of draws.  Uniform draws are buffered in
    blocks for speed; consumption order is still fully deterministic.
    """

    seed: int
    trial: int
    role: int | None = None
    gen: np.random.Generator = field(init=False, repr=False)
    _key: np.ndarray = field(init=False, repr=False)
    _buf: np.ndarray = field(init=False, repr=False)
    _pos: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.role == 0:
            raise ValueError("role 0 aliases the dynamics stream; roles are nonzero")
        bits = np.random.Philox(self.seed & _MASK64,
                                counter=[0, 0, self.trial & _MASK64, self.role or 0])
        self._key = bits.state["state"]["key"]  # the seed's; rekey keeps it
        self.gen = np.random.Generator(bits)
        self._buf = np.empty(0)
        self._pos = 0

    def uniform(self) -> float:
        """Next uniform draw on [0, 1)."""
        if self._pos >= self._buf.shape[0]:
            self._buf = self.gen.random(_BUFFER_BLOCK)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` draws of the :meth:`uniform` sequence, as an array.

        The buffered block is drained first, so mixing the two methods
        never reorders draws.
        """
        k = min(n, self._buf.shape[0] - self._pos)
        if k <= 0:
            return self.gen.random(n)
        head = self._buf[self._pos:self._pos + k]
        self._pos += k
        return np.concatenate((head, self.gen.random(n - k)))

    def rekey(self, trial: int) -> None:
        """Turn this stream into stream ``(seed, trial, role)``, bit for bit.

        Only the counter changes: words 0 and 1 return to 0, word 2 becomes
        the trial, and the key stays the seed's.  The buffers are emptied,
        so the generator is left as a freshly built one.
        """
        self.trial = trial
        counter = [0, 0, trial & _MASK64, self.role or 0]
        self.gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": counter, "key": self._key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._buf = np.empty(0)
        self._pos = 0


def trial_streams(seed: int, trials: int, role: int | None = None):
    """Yield the streams ``(seed, t, role)`` for t < ``trials``, in order.

    One generator serves them all, re-keyed to each trial's counter, so a
    yielded stream is valid only until the next one is yielded.
    """
    rng = RngStream(seed, 0, role)
    for trial in range(trials):
        rng.rekey(trial)
        yield rng


@dataclass(frozen=True)
class BetaParams:
    """Beta shape parameters, both finite and positive."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"BetaParams.{name} must be finite and > 0, got {v!r}")


def sample_beta(rng: RngStream, p: BetaParams) -> float:
    """One draw from Beta(alpha, beta) via two gamma variates.

    The two-gamma route stays valid for shape parameters below 1.
    """
    x = rng.gen.gamma(p.alpha)
    y = rng.gen.gamma(p.beta)
    while x + y == 0.0:  # extreme-shape underflow guard
        x = rng.gen.gamma(p.alpha)
        y = rng.gen.gamma(p.beta)
    return x / (x + y)


def sample_dirichlet(
    rng: RngStream, alphas: tuple[float, float, float]
) -> tuple[float, float, float]:
    """One Dirichlet(alphas) draw on the 2-simplex; components sum to 1 exactly.

    Every shape must be finite and positive; a caller with a component
    fixed at 0 draws the other two as a Beta.
    """
    if not all(0 < a < np.inf for a in alphas):
        raise ValueError(f"Dirichlet shapes must be finite and > 0, got {alphas!r}")
    g1 = rng.gen.gamma(alphas[0])
    g2 = rng.gen.gamma(alphas[1])
    g3 = rng.gen.gamma(alphas[2])
    s = g1 + g2 + g3
    x = g1 / s
    z = g3 / s
    # renormalize so x + y + z == 1.0 exactly: the last component absorbs
    # the rounding of the first two, and fl(t + fl(1 - t)) == 1 for t in [0, 1]
    y = 1.0 - x - z
    if y < 0.0:
        y = 0.0
    z = 1.0 - (x + y)
    if z < 0.0:
        z = 0.0
        y = 1.0 - x
    return x, y, z


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0."""
    from scipy import special  # scipy loads only where it is used

    if not np.isfinite(x) or x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    return float(special.digamma(x))


def integrate_log_odds(p: BetaParams) -> float:
    """E[log(p/(1-p))] for p ~ Beta(alpha, beta), by adaptive quadrature.

    Integrates in the substituted variable s with x/(1-x) = exp(2s),
    which removes the endpoint singularities of the raw integrand.  Raises
    :class:`QuadratureError` in place of scipy's ``IntegrationWarning``, or
    if quad's error or its distance to digamma(alpha) - digamma(beta) is
    more than ``QUAD_ABS_TOL``.
    """
    from scipy import integrate, special  # scipy loads only where it is used

    a1, a2 = p.alpha, p.beta
    n = a1 + a2
    # log of the normalising constant 2**(3-n) / B(a1, a2): in linear space
    # its two factors underflow and overflow once a1 + a2 passes ~1075
    log_c = (3.0 - n) * np.log(2.0) - special.betaln(a1, a2)

    def integrand(s: float) -> float:
        # c * s * sinh((a1-a2) s) * cosh(s)^-n, evaluated in log space to
        # avoid overflow of the factors for large s or large shapes
        log_cosh = abs(s) + np.log1p(np.exp(-2.0 * abs(s))) - np.log(2.0)
        t, log_rest = (a1 - a2) * s, log_c - n * log_cosh
        return s * 0.5 * (np.exp(log_rest + t) - np.exp(log_rest - t))

    # the integrand peaks near s = |log(a1/a2)| / 2 with width about
    # 1/sqrt(n): quad on [0, inf) alone never samples it at large shapes
    peak = 0.5 * abs(np.log(a1) - np.log(a2))
    split = peak + 10.0 / np.sqrt(n)
    tol = {"epsabs": QUAD_ABS_TOL * 1e-4, "epsrel": 1e-11, "limit": 400}
    # a nonfinite integrand (shapes near the float limit) shows in the
    # check below, not as numpy's overflow warnings
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            head, head_err = integrate.quad(integrand, 0.0, split, points=[peak], **tol)
            tail, tail_err = integrate.quad(integrand, split, np.inf, **tol)
            value, err = head + tail, head_err + tail_err
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"log-odds quadrature for Beta({a1}, {a2}) failed: "
                                  + " ".join(str(exc).split())) from exc
    closed = digamma(a1) - digamma(a2)
    if not (err <= QUAD_ABS_TOL and abs(value - closed) <= QUAD_ABS_TOL):  # NaN compares False
        raise QuadratureError(
            f"log-odds quadrature for Beta({a1}, {a2}) gave {value!r} with error {err:.3e}, "
            f"against the closed form {closed!r} (tolerance {QUAD_ABS_TOL:.1e})"
        )
    return value
