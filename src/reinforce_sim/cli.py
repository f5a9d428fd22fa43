"""Batch command-line front-end.

Every subcommand is a pure function of its configuration and seed:
rerunning with the same arguments reproduces output files byte for
byte.  CSV outputs start with ``#``-prefixed metadata lines embedding
the tool version, the resolved configuration, and the seed; JSON
outputs carry the same information in a ``meta`` object.

Exit codes: 0 success, 1 invariant falsified at runtime, 2 usage error.
"""
from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import __version__
from .direct import ModelParams, meeting_statistics, run_direct, run_direct_batch
from .distributions import (
    ENVIRONMENT, HOLDING_TIMES, BetaParams, QuadratureError, RngStream, integrate_log_odds,
    trial_streams,
)
from .rwre import criterion, difference_recurrence
from .urn import NegativeMassError, PolyaUrn, polya_fraction_samples
from .urn_process import SmallAPolicyError, compare_exact
from .coupling import (
    MARGINAL_TRIALS, Environment, marginal_check, replay_record, run_coupling,
)


def _configurable(command: click.Command) -> list[click.Option]:
    """The options a config file may set and a run records: all but the
    on/off flags and the options naming files."""
    return [
        p for p in command.params
        if isinstance(p, click.Option) and not p.is_flag and not isinstance(p.type, click.Path)
    ]


def _resolved(**derived) -> dict:
    """The running command's configuration: the parsed value of each
    configurable option, plus the ``derived`` entries."""
    ctx = click.get_current_context()
    return {p.name: ctx.params[p.name] for p in _configurable(ctx.command)} | derived


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the config file's settings the defaults of the command's options.

    The option is eager, so this runs before the other options are read:
    a flag then overrides the file, which overrides the built-in default,
    and click parses a file value as the text of its flag (usage error on
    failure).  A file that is not UTF-8 JSON, unknown keys and values not
    shaped as their flags (:func:`_flag_text`) are usage errors too.
    """
    if path is None:
        return
    try:  # decoding, JSON syntax and the int digit limit raise ValueError
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except ValueError as exc:
        raise click.UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise click.UsageError("config file must contain a JSON object")
    known = {p.name: p for p in _configurable(ctx.command)}
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise click.UsageError(
            f"unknown config key(s) {', '.join(unknown)}; expected some of {', '.join(sorted(known))}"
        )
    ctx.default_map = {key: _flag_text(key, known[key], value)
                       for key, value in cfg.items() if value is not None}


def _flag_text(key: str, option: click.Option, value):
    """A config value as the text its flag would carry: a list of items for
    a ``multiple`` option, an item of ``nargs`` > 1 values a list of them
    (``--pair``), else one value.  Any other shape is a usage error."""
    def item(value, nargs):
        if nargs == 1 and not isinstance(value, (list, dict)):
            return str(value)
        if nargs > 1 and isinstance(value, list):
            return [item(x, 1) for x in value]
        shape = "one value" if nargs == 1 else f"lists of {nargs} values"
        raise click.UsageError(f"config key {key} takes {shape}, not {json.dumps(value)}")

    if not option.multiple:
        return item(value, option.nargs)
    if not isinstance(value, list):
        raise click.UsageError(f"config key {key} takes a list, not {json.dumps(value)}")
    return [item(x, option.nargs) for x in value]


def _meta(config: dict) -> dict:
    return {"tool": "reinforce-sim", "version": __version__, "config": config}


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_csv(path: str | None, config: dict, notes: list[str], columns: tuple, rows) -> None:
    """CRLF CSV: version and config header lines, ``# note:`` lines, the
    column row, then, for each row ``(labels, fraction, stderr)``, one line
    per label: the ``repr`` of the label, the fraction and the standard
    error.  The pair is formatted once per row, however many labels (a
    ``range`` of them, say) share it."""
    lines = [f"# reinforce-sim v{__version__}", f"# config: {json.dumps(config, sort_keys=True)}"]
    lines += [f"# note: {note}" for note in notes]
    lines.append(",".join(columns))
    text = [line + "\r\n" for line in lines]
    for labels, fraction, stderr in rows:
        tail = f",{fraction!r},{stderr!r}\r\n"
        text.append(tail.join(map(repr, labels)) + tail)
    _write_text(path, "".join(text))


def _model_params(a, delta, l0, r0, events, allow_small_a=False) -> ModelParams:
    try:
        return ModelParams(
            a=a, delta=delta, l0=l0, r0=r0, max_events=events, allow_small_a=allow_small_a,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
@click.version_option(version=__version__, prog_name="reinforce-sim")
def main() -> None:
    """Reinforced-walk simulation and verification experiments."""


_seed_option = click.option("--seed", type=int, default=0, help="Master seed (default 0).")
_config_option = click.option(
    "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
    is_eager=True, expose_value=False, callback=_load_config,
    help="JSON config file keyed by option name; explicit flags override it.",
)
_events_option = click.option("--events", type=int, default=10000,
                              help="Event budget per trial (default 10000).")
_allow_small_a_option = click.option("--allow-small-a", is_flag=True,
                                     help="Permit 0 < a < 1 for the urn model.")


def _trials_option(default: int):
    return click.option("--trials", type=click.IntRange(min=1), default=default,
                        help=f"Number of trials (default {default}).")


def _model_options(command):
    """Declare the model parameters --a, --delta, --l0 and --r0, in that order."""
    for option in reversed((
        click.option("--a", type=float, default=1.0, help="Initial edge weight (default 1.0)."),
        click.option("--delta", type=float, default=0.0, help="Rightward drift (default 0.0)."),
        click.option("--l0", type=int, default=0),
        click.option("--r0", type=int, default=2),
    )):
        command = option(command)
    return command


@main.command()
@_config_option
@click.option("--n", type=click.IntRange(1, 2), default=2, help="Number of particles (default 2).")
@_model_options
@_events_option
@_trials_option(100)
@click.option("--stop-after-meetings", type=click.IntRange(min=1), default=None,
              help="End each trial after this many meetings (hitting-time mode).")
@click.option("--timestamps", is_flag=True,
              help="Give the --trajectory-out events exponential holding times.")
@_seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Meeting statistics CSV (default stdout).")
@click.option("--trajectory-out", type=click.Path(dir_okay=False), default=None,
              help="JSONL event log of the first trial.")
def simulate(n, a, delta, l0, r0, events, trials,
             stop_after_meetings, timestamps, seed, out_path, trajectory_out) -> None:
    """Run the direct weight-reinforced dynamics and report meeting statistics."""
    params = _model_params(a, delta, l0, r0, events)

    # trial 0 runs once, with its event log when there is a log to write
    logged = None if trajectory_out is None else run_direct(
        params, n, RngStream(seed, 0), stop_after_meetings=stop_after_meetings)
    rows = []  # a lone particle never meets, so its statistics have no rows
    if n > 1:
        # hist[k]: trials with exactly k meetings, added up block by block
        hist = np.bincount([] if logged is None else [logged.meetings], minlength=1)
        for block in run_direct_batch(params, seed, range(int(logged is not None), trials),
                                      stop_after_meetings=stop_after_meetings):
            counts = np.bincount(block[:, 0], minlength=hist.size)
            hist = counts + np.pad(hist, (0, counts.size - hist.size))
        rows = meeting_statistics(hist)
    resolved = _resolved(outside_recurrence_regime=params.outside_recurrence_regime)
    notes = ["delta >= 1 is outside the proven recurrence regime"]
    _write_csv(out_path, resolved, notes if params.outside_recurrence_regime else [],
               ("k", "frequency", "stderr"), rows)
    if logged is not None:
        clock = RngStream(seed, 0, HOLDING_TIMES) if timestamps else None
        _write_text(trajectory_out, logged.to_jsonl(clock))


@main.command("urn-verify")
@_config_option
@_model_options
@click.option("--horizon", type=int, default=4, help="Enumeration depth (default 4).")
@_allow_small_a_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="JSON report path (default stdout summary only).")
def urn_verify(a, delta, l0, r0, horizon, allow_small_a, out_path) -> None:
    """Certify the urn representation against the weight dynamics by exact
    enumeration; fails (exit 1) if the distributions differ, naming on
    stderr the first step at which the two kernels differ."""
    params = _model_params(a, delta, l0, r0, 0, allow_small_a=allow_small_a)
    try:
        law = compare_exact(params, horizon)
    except ValueError as exc:  # horizon out of range, or a < 1 without the flag
        raise click.UsageError(str(exc)) from exc
    tv, ok = float(law.tv_distance), law.tv_distance == 0
    shown = repr(tv)
    if tv == 0 and not ok:  # a nonzero distance below the smallest double
        from decimal import Decimal

        shown = f"{Decimal(law.tv_distance.numerator) / law.tv_distance.denominator:.6e}"
        tv = math.ulp(0.0)
    report = {
        "meta": _meta(_resolved()),
        "tv_distance": tv,
        "trajectories_direct": law.trajectories_direct,
        "trajectories_urn": law.trajectories_urn,
        "equivalent": ok,
    }
    if out_path is not None:
        _write_text(out_path, json.dumps(report, sort_keys=True) + "\n")
    _write_text(None, f"TV(direct, urn) = {shown} at horizon {horizon}: "
                      f"{'OK' if ok else 'MISMATCH'}\n")
    if not ok:  # a distance > 0 needs a step at which the kernels differ
        sys.stderr.write(f"first kernel difference: {law.first_difference}\n")
        sys.exit(1)


@main.command()
@_config_option
@_model_options
@_events_option
@_trials_option(100)
@_allow_small_a_option
@click.option("--marginal-check", "do_marginal_check", is_flag=True,
              help=f"Append a fixed-environment jump-frequency test report over the "
                   f"first min(trials, {MARGINAL_TRIALS}) trials.")
@_seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="JSONL run summaries (default stdout).")
def couple(a, delta, l0, r0, events, trials, allow_small_a,
           do_marginal_check, seed, out_path) -> None:
    """Run the four-process coupled construction; any ordering violation,
    or a failed marginal check, is a hard failure (exit 1)."""
    params = _model_params(a, delta, l0, r0, events, allow_small_a=allow_small_a)
    if do_marginal_check and l0 == r0:
        raise click.UsageError("--marginal-check needs l0 < r0: "
                               "a coincident start has no free steps")
    try:
        results = [
            run_coupling(rng, Environment(params, env_rng))
            for rng, env_rng in zip(trial_streams(seed, trials),
                                    trial_streams(seed, trials, ENVIRONMENT))
        ]
        report = (marginal_check(params, min(trials, MARGINAL_TRIALS), seed)
                  if do_marginal_check else None)
    except SmallAPolicyError as exc:
        raise click.UsageError(str(exc)) from exc
    except NegativeMassError as exc:
        sys.stderr.write(f"negative urn mass in a coupled run: {exc}\n")
        sys.exit(1)
    lines = [json.dumps({"meta": _meta(_resolved())}, sort_keys=True)]
    lines += [res.to_json() for res in results]
    if report is not None:
        lines.append(report.to_json())
    marginal_passed = report is None or report.passed
    _write_text(out_path, "\n".join(lines) + "\n")
    violations = sum(res.violations for res in results)
    for res in results:
        if res.violations:
            where = replay_record(res.seed, res.stream_id, res.events_executed, res.positions)
            sys.stderr.write(f"ordering violated: {where}\n")
    if violations:
        sys.stderr.write(f"ordering violations detected in {violations} run(s)\n")
    if not marginal_passed:
        sys.stderr.write("marginal check failed; its report is the last output line\n")
    if violations or not marginal_passed:
        sys.exit(1)


@main.command("criterion")
@_config_option
@click.option("--pair", "pairs", type=(float, float), multiple=True,
              help="Beta shape pair alpha beta; repeatable.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def criterion_cmd(pairs, out_path) -> None:
    """Evaluate transience / return-time criteria over a parameter grid,
    with both the closed form and the quadrature route."""
    grid = list(pairs)
    if not grid:
        raise click.UsageError("give at least one --pair ALPHA BETA (or pairs in --config)")
    rows = []
    for alpha, beta in grid:
        try:  # the quadrature error names the pair
            p = BetaParams(alpha, beta)
            quadrature = integrate_log_odds(p)
        except (ValueError, QuadratureError) as exc:
            raise click.UsageError(str(exc)) from exc
        row = criterion(p)
        rows.append(row | {"closed_form": row["log_odds_mean"], "quadrature": quadrature})
    report = {"meta": _meta(_resolved()), "results": rows}
    _write_text(out_path, json.dumps(report, sort_keys=True) + "\n")


def _unit_interval(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if not 0.0 < value <= 1.0:  # NaN compares False, so it is refused too
        raise click.BadParameter(f"{value!r} is not in (0, 1].")
    return value


@main.command()
@_config_option
@click.option("--red", type=float, default=1.0, help="Initial red mass (default 1.0).")
@click.option("--blue", type=float, default=1.0, help="Initial blue mass (default 1.0).")
@click.option("--d", type=float, default=1.0, help="Reinforcement per draw (default 1.0).")
@click.option("--draws", type=click.IntRange(min=1), default=10000,
              help="Drawings per run (default 10000).")
@click.option("--runs", type=click.IntRange(min=1), default=10000,
              help="Monte Carlo runs (default 10000).")
@click.option("--three-color", is_flag=True,
              help="Also test the (pure red, family, pure blue) marginals.")
@click.option("--ks-threshold", type=float, default=0.02, callback=_unit_interval,
              help="Largest passing KS distance, in (0, 1] (default 0.02).")
@_seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def polya(red, blue, d, draws, runs, three_color, ks_threshold, seed, out_path) -> None:
    """Monte Carlo check of the urn limit laws (KS against the Beta or
    Dirichlet-marginal targets); exit 1 if a KS distance exceeds the threshold."""
    from scipy import stats  # scipy loads only where it is used

    try:
        urn = PolyaUrn((red, blue), d)
        law = BetaParams(*urn.limit_law())
    except ValueError as exc:
        raise click.UsageError(f"no Beta limit law for red={red}, blue={blue}, d={d}: {exc}") from exc
    samples = polya_fraction_samples(urn, draws, runs, RngStream(seed, 0))[:, 0]
    ks = float(stats.kstest(samples, lambda x: stats.beta.cdf(x, law.alpha, law.beta)).statistic)
    report = {
        "meta": _meta(_resolved(three_color=three_color)),
        "two_color": {
            "target": {"alpha": law.alpha, "beta": law.beta},
            "ks_distance": ks,
            "passed": ks < ks_threshold,
        },
    }
    if three_color:
        # the chameleon urn's pure red, family (the chameleon's unit mass)
        # and pure blue marbles, each drawing adding two marbles
        urn3 = PolyaUrn((red, 1.0, blue), 2.0)
        fracs = polya_fraction_samples(urn3, draws, runs, RngStream(seed, 1))
        marginals = []
        alphas = urn3.limit_law()
        total = sum(alphas)
        for i, name in enumerate(("pure_red", "family", "pure_blue")):
            a1, a2 = alphas[i], total - alphas[i]
            ks_i = float(stats.kstest(fracs[:, i], lambda x: stats.beta.cdf(x, a1, a2)).statistic)
            marginals.append({"component": name, "alpha": a1, "beta": a2,
                              "ks_distance": ks_i, "passed": ks_i < ks_threshold})
        report["three_color"] = marginals
    _write_text(out_path, json.dumps(report, sort_keys=True) + "\n")
    if not all(c["passed"] for c in [report["two_color"], *report.get("three_color", [])]):
        sys.exit(1)


@main.command()
@_config_option
@click.option("--alpha1", type=float, default=0.5)
@click.option("--beta1", type=float, default=1.5)
@click.option("--alpha2", type=float, default=0.5)
@click.option("--beta2", type=float, default=1.5)
@click.option("--budgets", type=str, default="100,1000,10000",
              help="Comma-separated event budgets (default 100,1000,10000).")
@_trials_option(1000)
@_seed_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Curve CSV (default stdout).")
def rwre(alpha1, beta1, alpha2, beta2, budgets, trials, seed, out_path) -> None:
    """Two-chain difference-recurrence experiment: return-probability curve
    over increasing event budgets."""
    try:
        budget_list = [int(tok) for tok in budgets.split(",") if tok.strip()]
        p1 = BetaParams(alpha1, beta1)
        p2 = BetaParams(alpha2, beta2)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if not budget_list or min(budget_list) < 1:
        raise click.UsageError("--budgets must be positive integers")
    curve = difference_recurrence(p1, p2, budget_list, trials, seed)
    if not curve.regime_ok:
        sys.stderr.write("warning: environment parameters violate the mu > 0 hypothesis; the "
                         "return probability has no guarantee in this regime\n")
    _write_csv(out_path, _resolved(budgets=budget_list, regime_ok=curve.regime_ok), [],
               ("budget", "hit_fraction", "stderr"), curve.rows())


if __name__ == "__main__":
    main()
