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
from .urn import Side, magic_draw
from .urn_process import UrnField, check_small_a_policy, initial_masses

# marginal check: family-wise level, split across the tested sites, and
# the fewest free steps a site needs to be tested
SIGNIFICANCE = 0.01
MIN_VISITS = 20


class SandwichViolationError(RuntimeError):
    """The pathwise ordering lP <= l <= r <= rP failed (must never happen)."""


@dataclass(frozen=True)
class SiteEnvironment:
    """Limiting pure-red and pure-blue fractions at one site.

    Both come from one simplex draw, so q_r + p_l <= 1.  The left walker
    jumps right with probability p_l, the right walker with 1 - q_r.
    """

    q_r_polya: float
    p_l_polya: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.q_r_polya <= 1.0 and 0.0 <= self.p_l_polya <= 1.0):
            raise ValueError(f"fractions must lie in [0,1]: {self}")
        if self.q_r_polya + self.p_l_polya > 1.0 + 1e-12:
            raise ValueError(f"fractions must sum to at most 1: {self}")

    @property
    def p_r_polya(self) -> float:
        return 1.0 - self.q_r_polya


def sample_site_environment(params: ModelParams, v: int, rng: RngStream) -> SiteEnvironment:
    """One environment draw for site v from the limit law of its initial urn
    (r, b), read as a Polya urn of pure red, family (the chameleon marble's
    unit mass) and pure blue with step 2: Dirichlet(r/2, 1/2, b/2).  A mass
    <= 0 fixes its fraction at 0, and the other one is Beta(m/2, 1/2).
    """
    r, b = initial_masses(params, v)
    if r > 0 and b > 0:
        q_r, _, p_l = sample_dirichlet(rng, (r / 2, 0.5, b / 2))
        return SiteEnvironment(q_r, p_l)
    if r <= 0:
        return SiteEnvironment(0.0, sample_beta(rng, BetaParams(b / 2, 0.5)))
    return SiteEnvironment(sample_beta(rng, BetaParams(r / 2, 0.5)), 0.0)


class Environment:
    """Lazily sampled, memoized site -> SiteEnvironment table.

    Sites are drawn from ``rng`` in the order they are first visited.
    """

    def __init__(self, params: ModelParams, rng: RngStream):
        check_small_a_policy(params)
        self.params = params
        self._rng = rng
        self._sites: dict[int, SiteEnvironment] = {}

    def at(self, v: int) -> SiteEnvironment:
        env = self._sites.get(v)
        if env is None:
            env = sample_site_environment(self.params, v, self._rng)
            self._sites[v] = env
        return env


@dataclass
class CoupledState:
    """Positions of the four coupled processes plus their drivers."""

    lP: int
    l: int
    r: int
    rP: int
    field: UrnField
    env: Environment

    def check_sandwich(self) -> None:
        if not (self.lP <= self.l <= self.r <= self.rP):
            raise SandwichViolationError(
                f"ordering violated: lP={self.lP}, l={self.l}, r={self.r}, rP={self.rP}"
            )


def init_coupled_state(params: ModelParams, env: Environment) -> CoupledState:
    return CoupledState(
        lP=params.l0, l=params.l0, r=params.r0, rP=params.r0,
        field=UrnField(params), env=env,
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
        direction, pure = magic_draw(state.field.urn_at(v), Side.LEFT, rng)
        state.l = v - 1 if direction is Side.LEFT else v + 1
        if l_coincident:
            # red or chameleon marble: both jump left; the outer walker
            # follows a right jump only on a pure blue marble
            state.lP = v + 1 if pure and direction is Side.RIGHT else v - 1
    elif g == "r_group":
        v = state.r
        direction, pure = magic_draw(state.field.urn_at(v), Side.RIGHT, rng)
        state.r = v + 1 if direction is Side.RIGHT else v - 1
        if r_coincident:
            state.rP = v - 1 if pure and direction is Side.LEFT else v + 1
    elif g == "lP":
        v = state.lP
        state.lP = v + 1 if rng.uniform() < state.env.at(v).p_l_polya else v - 1
    else:
        v = state.rP
        state.rP = v + 1 if rng.uniform() < state.env.at(v).p_r_polya else v - 1

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


def run_coupling(params: ModelParams, rng: RngStream, env: Environment) -> CouplingRunResult:
    """Run the coupled quadruple on dynamics stream ``rng`` in environment
    ``env`` until the inner pair meets or ``params.max_events`` run out.

    The environment may be shared across runs (fixed-environment
    experiments) or sampled per run from its own stream.
    """
    if params.l0 == params.r0:
        return CouplingRunResult(0, 0, 0, 0, rng.seed, rng.trial)
    state = init_coupled_state(params, env)
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
    in it for up to ``params.max_events`` events each.  Only free
    (non-coincident) steps are tallied, since coincident steps are
    resolved by the urn drawing rather than the limiting fractions.
    Sites with fewer than ``MIN_VISITS`` tallied steps are excluded; a
    check that tests no site fails.
    """
    from scipy import stats  # scipy loads only where it is used

    env = Environment(params, RngStream(seed, 0, ENVIRONMENT))
    counts: dict[tuple[str, int], list[int]] = {}

    for trial_rng in trial_streams(seed, trials if params.l0 < params.r0 else 0):
        state = init_coupled_state(params, env)
        for _ in range(params.max_events):
            if state.l >= state.r:
                break
            lP, rP = state.lP, state.rP
            g = coupled_step(state, trial_rng)
            if g == "lP" or g == "rP":
                site = lP if g == "lP" else rP
                c = counts.setdefault((g, site), [0, 0])
                c[0] += 1
                c[1] += getattr(state, g) == site + 1

    tested = [(k, v) for k, v in counts.items() if v[0] >= MIN_VISITS]
    excluded = len(counts) - len(tested)
    alpha = SIGNIFICANCE / max(len(tested), 1)
    checks = []
    passed = bool(tested)
    for (walker, site), (visits, rights) in sorted(tested):
        se = env.at(site)
        p_right = se.p_l_polya if walker == "lP" else se.p_r_polya
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
