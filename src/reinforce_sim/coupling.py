"""Four-process coupled construction: two urn-driven particles sandwiched
between two random walks in (dependent) random environments.

Per site, the environment pair (limiting pure-red fraction, limiting
pure-blue fraction) comes from a single Dirichlet draw on the simplex.
The outer walkers move by those fractions when free; when an outer
walker sits on its inner partner they share one departure clock and the
inner urn drawing decides both moves.

An event takes two uniforms: one picks the clock group, the other drives
its urn draw or free step.  :func:`coupled_events` runs the events of one
chunk of uniforms in a single loop, and :func:`run_coupling` hands it the
stream's chunks in order, so a run's result is that of reading the stream
one uniform at a time.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .direct import ModelParams
from .distributions import (
    ENVIRONMENT, BetaParams, RngStream, sample_beta, sample_dirichlet, trial_streams,
    uniform_chunks,
)
from .urn import MagicUrn, NegativeMassError
from .urn_process import check_small_a_policy, initial_masses

# marginal check: family-wise level, split across the tested sites, the
# fewest free steps a site needs to be tested, and the most trials that
# `couple --marginal-check` runs
SIGNIFICANCE = 0.01
MIN_VISITS = 20
MARGINAL_TRIALS = 200


class SandwichViolationError(RuntimeError):
    """The pathwise ordering lP <= l <= r <= rP failed (must never happen)."""


def sample_site_environment(params: ModelParams, v: int, rng: RngStream) -> tuple[float, float]:
    """One environment draw (q_r, p_l) for site v, its limiting pure-red and
    pure-blue fractions: the limit law of its initial urn (r, b) read as a
    Polya urn of pure red, family (the chameleon marble's unit mass) and
    pure blue with step 2, Dirichlet(r/2, 1/2, b/2).  A mass <= 0 fixes its
    fraction at 0, and the other one is Beta(m/2, 1/2).  A draw off the
    simplex raises ValueError."""
    r, b = initial_masses(params, v)
    if r > 0 and b > 0:
        q_r, _, p_l = sample_dirichlet(rng, (r / 2, 0.5, b / 2))
    elif r <= 0:
        q_r, p_l = 0.0, sample_beta(rng, BetaParams(b / 2, 0.5))
    else:
        q_r, p_l = sample_beta(rng, BetaParams(r / 2, 0.5)), 0.0
    if not (0.0 <= q_r <= 1.0 and 0.0 <= p_l <= 1.0 and q_r + p_l <= 1.0 + 1e-12):
        raise ValueError(f"site {v}: fractions q_r={q_r}, p_l={p_l} are off the simplex")
    return q_r, p_l


class Environment:
    """Lazily sampled, memoized site -> (q_r, p_l) table, drawn from ``rng``
    in the order sites are first visited, and the free outer steps it
    drives: "lP" jumps right with probability p_l, "rP" with 1 - q_r.
    ``free_steps[walker, v]`` tallies [steps, right jumps] over every run.
    """

    def __init__(self, params: ModelParams, rng: RngStream):
        check_small_a_policy(params)
        self.params = params
        self._rng = rng
        self._sites: dict[int, tuple[float, float]] = {}
        self.free_steps: dict[tuple[str, int], list[int]] = {}

    def at(self, v: int) -> tuple[float, float]:
        env = self._sites.get(v)
        if env is None:
            env = self._sites[v] = sample_site_environment(self.params, v, self._rng)
        return env

    def right_rate(self, walker: str, v: int) -> float:
        q_r, p_l = self.at(v)
        return p_l if walker == "lP" else 1.0 - q_r

    def free_step(self, walker: str, v: int, u: float) -> int:
        """The site free walker ``walker`` moves to from v on uniform u."""
        to = v + 1 if u < self.right_rate(walker, v) else v - 1
        tally = self.free_steps.setdefault((walker, v), [0, 0])
        tally[0] += 1
        tally[1] += to > v
        return to


class CoupledState:
    """Positions of the four coupled processes, from the start sites of
    ``env.params``, with the run's urns and its environment, the largest
    rP - lP so far and the events run."""

    __slots__ = ("lP", "l", "r", "rP", "env", "urns", "max_gap", "events")

    def __init__(self, env: Environment):
        self.lP = self.l = env.params.l0
        self.r = self.rP = env.params.r0
        self.max_gap = self.rP - self.lP
        self.events = 0
        self.env = env
        self.urns: dict[int, MagicUrn] = {}

    def urn_at(self, v: int) -> MagicUrn:
        """Site v's urn, materialized from its initial masses on first use."""
        urn = self.urns.get(v)
        if urn is None:
            urn = self.urns[v] = MagicUrn(*initial_masses(self.env.params, v))
        return urn

    def positions(self) -> tuple[int, int, int, int]:
        return self.lP, self.l, self.r, self.rP


def coupled_events(state: CoupledState, u: list[float]) -> bool:
    """Run one event of the coupled quadruple on each consecutive pair
    (u_group, u_draw) of ``u``, up to the meeting; returns whether the
    inner pair met.

    Clock groups: the l pair (one clock shared when coincident), the r
    pair, and each free outer walker (lP, then rP).  The mover is group
    ``int(u_group * n)`` of the n active groups, read by comparing
    ``u_group * n`` with 1, 2 and 3.  ``u_draw`` drives the free walker's
    ``Environment.free_step``, or the inner walker's urn draw: the
    direction pool by mass (the red marbles, plus the chameleon marble when
    the left particle is present, against the rest), then a pure marble
    when ``u_draw * total`` falls below the pool's pure mass, else two
    family marbles.  A negative pure mass (a < 1) sends the draw to the
    family marbles, which leaves the walk's law alone (it depends only on
    the pooled masses).

    The positions, ``max_gap`` and ``events`` run in locals and are
    written back to ``state`` on return or raise.  A negative direction
    mass or a total mass <= 0 raises NegativeMassError at the positions
    before the event; an event that breaks lP <= l <= r <= rP raises
    SandwichViolationError at the positions it left.  ``events`` counts
    the failing event.
    """
    lP, l, r, rP = state.lP, state.l, state.r, state.rP
    if l >= r:
        raise SandwichViolationError(
            f"coupled_events called at or past the meeting time (l={l}, r={r})"
        )
    urns, free_step = state.urns, state.env.free_step
    max_gap, e = state.max_gap, state.events
    pairs = iter(u)
    try:
        for u_group, u_draw in zip(pairs, pairs):
            e += 1
            l_free = lP != l
            x = u_group * (2 + l_free + (rP != r))
            if x < 2:
                left_present = x < 1
                v = l if left_present else r
                urn = urns.get(v)
                if urn is None:  # a site's urn materializes at its first draw
                    urn = state.urn_at(v)
                pure_red, pure_blue = urn.pure_red, urn.pure_blue
                fam_red, fam_blue = urn.fam_red, urn.fam_blue
                # the chameleon marble is red when the left particle is present
                red = pure_red + fam_red + left_present
                blue = pure_blue + fam_blue + (not left_present)
                if red < 0 or blue < 0:
                    raise NegativeMassError(
                        f"effective masses went negative (red={red}, blue={blue}) with "
                        f"{'left' if left_present else 'right'} particle present; urn={urn}"
                    )
                total = pure_red + pure_blue + fam_red + fam_blue + 1
                if total <= 0:
                    raise NegativeMassError(f"urn total mass {total} is not positive; urn={urn}")
                x = u_draw * total
                if x < red:
                    right = False
                    pure = x < pure_red  # never for a negative pure mass: x >= 0
                    if pure:
                        urn.pure_red = pure_red + 2
                    else:
                        urn.fam_red = fam_red + 2
                else:
                    right = True
                    pure = x - red < pure_blue
                    if pure:
                        urn.pure_blue = pure_blue + 2
                    else:
                        urn.fam_blue = fam_blue + 2
                if left_present:
                    if not l_free:
                        # red or chameleon marble: both jump left; the outer
                        # walker follows a right jump only on a pure blue marble
                        lP = l + 1 if pure and right else l - 1
                    l = l + 1 if right else l - 1
                else:
                    if rP == r:
                        rP = r - 1 if pure and not right else r + 1
                    r = r + 1 if right else r - 1
            elif x < 3 and l_free:
                lP = free_step("lP", lP, u_draw)
            else:
                rP = free_step("rP", rP, u_draw)
            if not lP <= l <= r <= rP:
                raise SandwichViolationError(f"ordering violated: lP={lP}, l={l}, r={r}, rP={rP}")
            if rP - lP > max_gap:
                max_gap = rP - lP
            if l == r:
                return True
        return False
    finally:
        state.lP, state.l, state.r, state.rP = lP, l, r, rP
        state.max_gap, state.events = max_gap, e


@dataclass
class CouplingRunResult:
    """Summary of one coupled run.  ``positions`` is (lP, l, r, rP) where
    the run stopped; with the seed, the stream and the event count it is
    the run's replay record, and it is not part of the JSON summary."""

    violations: int
    tau1_event: int | None
    max_gap: int  # maximum of rP - lP over the run
    events_executed: int
    seed: int
    stream_id: int  # trial of the dynamics stream (seed, trial)
    positions: tuple[int, int, int, int]

    def to_json(self) -> str:
        return json.dumps(
            {
                "violations": self.violations,
                "tau1_event": self.tau1_event,
                "max_rP_minus_lP": self.max_gap,
                "events": self.events_executed,
                "seed": self.seed,
                "stream_id": self.stream_id,
            }
        )


def replay_record(seed: int, trial: int, event: int, positions: tuple[int, ...]) -> str:
    """Where a run stopped: its dynamics stream, the event, and (lP, l, r, rP)."""
    lP, l, r, rP = positions
    return f"seed {seed}, trial {trial}, event {event} at lP={lP}, l={l}, r={r}, rP={rP}"


def run_coupling(rng: RngStream, env: Environment) -> CouplingRunResult:
    """Run the coupled quadruple of ``env.params`` on dynamics stream ``rng``
    in environment ``env`` until the inner pair meets or ``max_events`` run
    out.  The environment may be shared across runs (fixed-environment
    experiments) or sampled per run from its own stream.

    The stream is read in chunks (:func:`uniform_chunks`), each one call of
    :func:`coupled_events`, and every event takes its next two uniforms in
    order, so no result depends on the chunk sizes.  A
    SandwichViolationError ends the run with ``violations`` 1 at the
    positions it left; a NegativeMassError is raised again naming the
    stream, the event and the positions before it.
    """
    params = env.params
    state = CoupledState(env)
    if params.l0 == params.r0:
        return CouplingRunResult(0, 0, 0, 0, rng.seed, rng.trial, state.positions())
    violations = 0
    tau1 = None
    try:
        for u in uniform_chunks(rng, params.max_events):
            if coupled_events(state, u.tolist()):
                tau1 = state.events
                break
    except SandwichViolationError:
        violations = 1
    except NegativeMassError as exc:
        where = replay_record(rng.seed, rng.trial, state.events, state.positions())
        raise NegativeMassError(f"{where}: {exc}") from exc
    return CouplingRunResult(violations, tau1, state.max_gap, state.events, rng.seed, rng.trial,
                             state.positions())


@dataclass
class SiteCheck:
    site: int
    walker: str
    visits: int
    right_jumps: int
    expected_right: float
    p_value: float


@dataclass
class MarginalCheckReport:
    """Chi-square (binomial) comparison of free-walker jump frequencies
    against the fixed environment, Bonferroni-corrected across sites."""

    trials: int
    checks: list[SiteCheck]
    excluded_sites: int
    passed: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "trials": self.trials,
                "significance": SIGNIFICANCE,
                "excluded_sites": self.excluded_sites,
                "passed": self.passed,
                "checks": [vars(c) for c in self.checks],
            }
        )


def marginal_check(params: ModelParams, trials: int, seed: int) -> MarginalCheckReport:
    """Verify the free outer walkers follow their per-site jump laws.

    The environment of trial 0, stream (seed, 0, ENVIRONMENT), is held
    fixed, and trials 0, 1, ... rerun their dynamics streams (seed, trial)
    in it through :func:`run_coupling`.  Only free (non-coincident) steps
    are tallied (``Environment.free_steps``), since coincident steps are
    resolved by the urn drawing rather than the limiting fractions.
    Sites with fewer than ``MIN_VISITS`` tallied steps are excluded; a
    check that tests no site, or in which a run breaks the sandwich
    order, fails.
    """
    from scipy import stats  # scipy loads only where it is used

    env = Environment(params, RngStream(seed, 0, ENVIRONMENT))
    violations = sum(run_coupling(rng, env).violations for rng in trial_streams(seed, trials))
    tested = [(k, v) for k, v in env.free_steps.items() if v[0] >= MIN_VISITS]
    excluded = len(env.free_steps) - len(tested)
    alpha = SIGNIFICANCE / max(len(tested), 1)
    checks = []
    passed = bool(tested) and not violations
    for (walker, site), (visits, rights) in sorted(tested):
        p_right = env.right_rate(walker, site)
        if p_right in (0.0, 1.0):
            # degenerate rows: the frequency must be exact
            ok = rights == int(round(p_right * visits))
            pval = 1.0 if ok else 0.0
        else:
            pval = float(stats.binomtest(rights, visits, p_right).pvalue)
        checks.append(SiteCheck(site, walker, visits, rights, p_right, pval))
        if pval < alpha:
            passed = False
    return MarginalCheckReport(trials=trials, checks=checks, excluded_sites=excluded, passed=passed)
