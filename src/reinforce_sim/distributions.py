"""Seeded random streams and the beta / Dirichlet / digamma substrate.

All randomness in the package flows through :class:`RngStream`, a
counter-based Philox generator keyed in the style of Random123 (Salmon
et al., SC'11): a trial's dynamics stream by ``(seed, trial)``, anything
else the trial samples (an environment, holding times) by ``(seed,
trial, role)``.  Dynamics streams give only uniforms, so no output
depends on how uniforms are buffered.  Distinct keys give statistically
independent streams (numpy's SeedSequence guarantee).  A Philox stream is
fixed by its two-word key, so :func:`stream_keys` derives the keys of a
whole run in one pass and :meth:`RngStream.rekey` moves one generator
from stream to stream.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

_MASK64 = (1 << 64) - 1
_BUFFER_BLOCK = 1024

# Roles: SeedSequence([s, t, 0]) equals SeedSequence([s, t]), so role 0
# would alias the dynamics stream and is not one.
ENVIRONMENT = 1  # a coupled run's quenched environment; rwre chain one's
MIRROR_ENVIRONMENT = 2  # rwre chain two's (the mirrored half-line)
HOLDING_TIMES = 3  # exponential holding times of a logged trajectory

# numpy's SeedSequence hash (bit_generator.pyx): a pool of four uint32
# words, mixed with these constants, then hashed out as the Philox key
_POOL_SIZE = 4
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, trial) or (seed, trial, role).

    Backed by numpy's Philox4x64 bit generator seeded through the
    ``SeedSequence`` of the key.  Uniform draws are buffered in blocks for
    speed; consumption order is still fully deterministic.
    """

    seed: int
    trial: int
    role: int | None = None
    gen: np.random.Generator = field(init=False, repr=False)
    _buf: np.ndarray = field(init=False, repr=False)
    _pos: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.role == 0:
            raise ValueError("role 0 aliases the dynamics stream; roles are nonzero")
        key = [self.seed & _MASK64, self.trial & _MASK64]
        key += [] if self.role is None else [self.role]
        self.gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
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

    def rekey(self, trial: int, key) -> None:
        """Turn this stream into stream ``(seed, trial, role)``, bit for bit.

        ``key`` is that stream's row of :func:`stream_keys`.  The generator
        is left as a freshly built one: Philox counter 0, empty buffers.
        """
        self.trial = trial
        self.gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._buf = np.empty(0)
        self._pos = 0


def stream_keys(seed: int, trials: int, role: int | None = None) -> np.ndarray:
    """Philox keys of the streams ``(seed, t, role)`` for t < ``trials``.

    Row t of the ``(trials, 2)`` uint64 result equals
    ``SeedSequence([seed & MASK64, t(, role)]).generate_state(2, uint64)``,
    the key :class:`RngStream` builds its generator from; every trial's
    SeedSequence hash runs at once, in uint32 arithmetic that wraps.
    """
    s = seed & _MASK64
    # the entropy words: seed (one word, or two above 2**32), trial, role;
    # SeedSequence pads a short pool with zeros
    words = [np.uint32(s & 0xFFFFFFFF)] + ([np.uint32(s >> 32)] if s >> 32 else [])
    words.append(np.arange(trials, dtype=np.uint32))
    words += [] if role is None else [np.uint32(role)]
    words += [np.uint32(0)] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    with np.errstate(over="ignore"):
        pool = [hashmix(w) for w in words]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        hash_const = _INIT_B
        out = []
        for value in pool:
            value = value ^ hash_const
            hash_const = hash_const * _MULT_B
            value = value * hash_const
            out.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # generate_state(2, uint64) views the four uint32 words little-endian
    shift = np.uint64(32)
    return np.stack((out[0] | out[1] << shift, out[2] | out[3] << shift), axis=1)


def trial_streams(seed: int, trials: int, role: int | None = None):
    """Yield the streams ``(seed, t, role)`` for t < ``trials``, in order.

    One generator serves them all, re-keyed from :func:`stream_keys`, so a
    yielded stream is valid only until the next one is yielded.
    """
    keys = stream_keys(seed, trials, role)
    rng = RngStream(seed, 0, role)
    for trial in range(trials):
        rng.rekey(trial, keys[trial])
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
    if not np.isfinite(x) or x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x!r}")
    return float(special.digamma(x))


def integrate_log_odds(p: BetaParams, abs_tol: float = 1e-8) -> float:
    """E[log(p/(1-p))] for p ~ Beta(alpha, beta), by adaptive quadrature.

    Integrates in the substituted variable s with x/(1-x) = exp(2s),
    which removes the endpoint singularities of the raw integrand.  The
    result must agree with digamma(alpha) - digamma(beta).
    """
    a1, a2 = p.alpha, p.beta
    n = a1 + a2
    c = 2.0 ** (3.0 - n) * np.exp(-special.betaln(a1, a2))

    def integrand(s: float) -> float:
        # s * sinh((a1-a2) s) * cosh(s)^-n, evaluated in log space to
        # avoid overflow of the two factors for large s
        log_cosh = abs(s) + np.log1p(np.exp(-2.0 * abs(s))) - np.log(2.0)
        t = (a1 - a2) * s
        return c * s * 0.5 * (np.exp(t - n * log_cosh) - np.exp(-t - n * log_cosh))

    value, err = integrate.quad(
        integrand, 0.0, np.inf, epsabs=abs_tol * 1e-4, epsrel=1e-11, limit=400
    )
    if not (np.isfinite(value) and err <= abs_tol):  # a NaN error compares False
        raise QuadratureError(
            f"log-odds quadrature for Beta({a1}, {a2}) gave {value!r} with "
            f"error {err:.3e} (tolerance {abs_tol:.1e})"
        )
    return value
