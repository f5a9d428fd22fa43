"""Four-process coupled construction: two urn-driven particles sandwiched
between two random walks in (dependent) random environments.

Per site, the environment pair (limiting pure-red fraction, limiting
pure-blue fraction) comes from a single Dirichlet draw on the simplex.
The outer walkers move by those fractions when free; when an outer
walker sits on its inner partner they share one departure clock and the
inner urn drawing decides both moves.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .direct import ModelParams
from .distributions import (
    ENVIRONMENT, BetaParams, RngStream, sample_beta, sample_dirichlet, trial_streams,
)
from .urn import MagicUrn, NegativeMassError, Side, magic_draw
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
    ``env.params``, with the run's urns and its environment."""

    def __init__(self, env: Environment):
        self.lP = self.l = env.params.l0
        self.r = self.rP = env.params.r0
        self.env = env
        self.urns: dict[int, MagicUrn] = {}

    def urn_at(self, v: int) -> MagicUrn:
        """Site v's urn, materialized from its initial masses on first use."""
        urn = self.urns.get(v)
        if urn is None:
            urn = self.urns[v] = MagicUrn(*initial_masses(self.env.params, v))
        return urn

    def check_sandwich(self) -> None:
        if not (self.lP <= self.l <= self.r <= self.rP):
            raise SandwichViolationError(
                f"ordering violated: lP={self.lP}, l={self.l}, r={self.r}, rP={self.rP}"
            )


# active clock groups by (lP == l, rP == r): a free outer walker runs its own
# clock.  The order fixes which uniforms pick which group.
_GROUPS = {
    (True, True): ("l_group", "r_group"),
    (True, False): ("l_group", "r_group", "rP"),
    (False, True): ("l_group", "r_group", "lP"),
    (False, False): ("l_group", "r_group", "lP", "rP"),
}


def coupled_step(state: CoupledState, rng: RngStream) -> str:
    """One event of the coupled quadruple; returns the group that moved.

    Clock groups: the l pair ("l_group", one clock shared when
    coincident), the r pair ("r_group"), and each free outer walker
    ("lP", "rP").  The mover group is uniform among the active groups.
    """
    if state.l >= state.r:
        raise SandwichViolationError(
            f"coupled_step called at or past the meeting time (l={state.l}, r={state.r})"
        )
    l_coincident = state.lP == state.l
    r_coincident = state.rP == state.r
    groups = _GROUPS[l_coincident, r_coincident]
    n = len(groups)
    g = groups[int(rng.uniform() * n)]

    if g == "l_group":
        v = state.l
        direction, pure = magic_draw(state.urn_at(v), Side.LEFT, rng)
        state.l = v - 1 if direction is Side.LEFT else v + 1
        if l_coincident:
            # red or chameleon marble: both jump left; the outer walker
            # follows a right jump only on a pure blue marble
            state.lP = v + 1 if pure and direction is Side.RIGHT else v - 1
    elif g == "r_group":
        v = state.r
        direction, pure = magic_draw(state.urn_at(v), Side.RIGHT, rng)
        state.r = v + 1 if direction is Side.RIGHT else v - 1
        if r_coincident:
            state.rP = v - 1 if pure and direction is Side.LEFT else v + 1
    elif g == "lP":
        state.lP = state.env.free_step(g, state.lP, rng.uniform())
    else:
        state.rP = state.env.free_step(g, state.rP, rng.uniform())

    state.check_sandwich()
    return g


@dataclass
class CouplingRunResult:
    """Summary of one coupled run."""

    violations: int
    tau1_event: int | None
    max_gap: int  # maximum of rP - lP over the run
    events_executed: int
    seed: int
    stream_id: int  # trial of the dynamics stream (seed, trial)

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


def run_coupling(rng: RngStream, env: Environment) -> CouplingRunResult:
    """Run the coupled quadruple of ``env.params`` on dynamics stream ``rng``
    in environment ``env`` until the inner pair meets or ``max_events`` run
    out.  The environment may be shared across runs (fixed-environment
    experiments) or sampled per run from its own stream.  A
    NegativeMassError is raised again naming the stream and the event.
    """
    params = env.params
    if params.l0 == params.r0:
        return CouplingRunResult(0, 0, 0, 0, rng.seed, rng.trial)
    state = CoupledState(env)
    max_gap = state.rP - state.lP
    violations = 0
    tau1 = None
    e = 0
    try:
        for e in range(1, params.max_events + 1):
            coupled_step(state, rng)
            gap = state.rP - state.lP
            if gap > max_gap:
                max_gap = gap
            if state.l == state.r:
                tau1 = e
                break
    except SandwichViolationError:
        violations = 1
    except NegativeMassError as exc:
        raise NegativeMassError(f"seed {rng.seed}, trial {rng.trial}, event {e}: {exc}") from exc
    return CouplingRunResult(violations, tau1, max_gap, e, rng.seed, rng.trial)


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
