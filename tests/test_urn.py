"""Classic Polya urns and the chameleon-marble urn."""
from dataclasses import astuple, replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reinforce_sim.distributions import RngStream
from reinforce_sim.urn import (
    MagicUrn,
    NegativeMassError,
    PolyaUrn,
    polya_fraction_samples,
)

from oracles import left_mass, magic_draw, polya_fractions, total_mass


def reference_draw(urn: MagicUrn, left_present: bool, rng):
    """Five-category reference drawing: (right, pure, masses after).

    Picks a color pool by mass, then a category in the pool in proportion
    to its mass; a pool holding a negative pure mass (a < 1) reattributes
    the draw among its positive categories with a second uniform.
    """
    chameleon = ("magic", 1)
    red = [("pure_red", urn.pure_red), ("fam_red", urn.fam_red)]
    blue = [("pure_blue", urn.pure_blue), ("fam_blue", urn.fam_blue)]
    (red if left_present else blue).append(chameleon)
    eff_red = urn.pure_red + urn.fam_red + (1 if left_present else 0)
    eff_blue = urn.pure_blue + urn.fam_blue + (0 if left_present else 1)
    total = urn.pure_red + urn.pure_blue + urn.fam_red + urn.fam_blue + 1
    if eff_red < 0 or eff_blue < 0 or total <= 0:
        raise ValueError("no valid direction law")
    u = rng.gen.random() * total
    if u < eff_red:
        right, pool = False, red
    else:
        right, pool = True, blue
        u -= eff_red
    if any(mass < 0 for _, mass in pool):
        pool = [(name, mass) for name, mass in pool if mass > 0]
        u = rng.gen.random() * sum(mass for _, mass in pool)
    drawn, acc = pool[-1][0], 0
    for name, mass in pool[:-1]:
        acc += mass
        if u < acc:
            drawn = name
            break
    if drawn == "magic":  # the chameleon's two new marbles join its color's family
        drawn = "fam_red" if left_present else "fam_blue"
    after = replace(urn)
    setattr(after, drawn, getattr(after, drawn) + 2)
    return right, drawn.startswith("pure"), after


class TestPolyaUrn:
    def test_draw_reinforces_only_drawn_color(self):
        # after one drawing from (1, 1) with d = 2 the red fraction is 3/4
        # (red drawn) or 1/4 (blue drawn), never anything else
        xs = polya_fraction_samples(PolyaUrn((1.0, 1.0), d=2.0), 1, 1000, RngStream(31, 0))
        assert set(xs[:, 0].tolist()) == {0.25, 0.75}
        assert (xs.sum(axis=1) == 1.0).all()

    def test_invalid_masses_rejected(self):
        with pytest.raises(ValueError, match="nonnegative, got -1.0, 1.0"):
            PolyaUrn((-1.0, 1.0))
        with pytest.raises(ValueError):
            PolyaUrn((1.0, 1.0), d=0.0)
        with pytest.raises(ValueError):
            PolyaUrn((1.0,))

    def test_two_step_exchangeability_exact(self):
        # P(red, blue) == P(blue, red) for any masses, by exact fractions
        r, b, d = Fraction(3, 2), Fraction(5, 7), Fraction(2)
        t = r + b
        p_rb = (r / t) * (b / (t + d))
        p_br = (b / t) * (r / (t + d))
        assert p_rb == p_br

    def test_length_three_exchangeability_exact(self):
        r0, b0, d = Fraction(1), Fraction(2), Fraction(2)

        def seq_prob(colors):
            r, b = r0, b0
            p = Fraction(1)
            for c in colors:
                t = r + b
                if c == "r":
                    p *= r / t
                    r += d
                else:
                    p *= b / t
                    b += d
            return p

        for k in range(4):
            probs = {
                seq_prob(seq)
                for seq in product("rb", repeat=3)
                if seq.count("r") == k
            }
            assert len(probs) == 1  # permutations of one composition agree

    def test_limit_law_parameters(self):
        assert PolyaUrn((1.0, 2.0), d=2.0).limit_law() == (0.5, 1.0)
        assert PolyaUrn((3.0, 3.0), d=1.0).limit_law() == (3.0, 3.0)

    def test_fraction_martingale(self):
        # E[red fraction after n draws] = initial fraction, at several n
        urn = PolyaUrn((1.0, 2.0), d=2.0)
        rng = RngStream(32, 0)
        for n in (10, 100, 1000):
            xs = polya_fraction_samples(urn, n, 10_000, rng)[:, 0]
            se = xs.std(ddof=1) / np.sqrt(len(xs))
            assert abs(xs.mean() - 1.0 / 3.0) < 3 * se + 1e-12

    @pytest.mark.parametrize("red,blue,d", [(1.0, 1.0, 2.0), (2.0, 1.0, 2.0), (1.0, 3.0, 1.0)])
    def test_fraction_converges_to_beta(self, red, blue, d):
        urn = PolyaUrn((red, blue), d=d)
        rng = RngStream(33, 0)
        xs = polya_fraction_samples(urn, 10_000, 10_000, rng)[:, 0]
        ks = stats.kstest(xs, stats.beta(*urn.limit_law()).cdf).statistic
        assert ks < 0.02

    @pytest.mark.parametrize("masses,d", [
        ((1.0, 2.0), 2.0), ((0.5, 0.25), 0.75), ((0.0, 1.0), 1.0),
        ((1.0, 1.0, 2.0), 2.0), ((2.0, 1.0, 3.0), 2.0), ((0.5, 1.0, 0.25), 2.0),
        ((1.0, 0.5, 2.0, 0.25), 1.0),
    ])
    def test_fractions_equal_the_one_run_oracle(self, masses, d):
        # dyadic masses keep every running sum exact, so the fractions
        # agree bit for bit
        xs = polya_fraction_samples(PolyaUrn(masses, d), 150, 200, RngStream(30, 0))
        assert xs.tolist() == polya_fractions(masses, d, 150, 200, RngStream(30, 0))


class TestMagicUrnMasses:
    def test_mass_accessors(self):
        # the red marbles send the right particle left; the blue ones and
        # the chameleon send it right
        urn = MagicUrn(1.0, 2.0, fam_red=4.0, fam_blue=6.0)
        assert left_mass(urn, False) == 5.0
        assert total_mass(urn) - left_mass(urn, True) == 8.0
        assert total_mass(urn) == 14.0

    def test_chameleon_marble_counts_in_total(self):
        assert total_mass(MagicUrn(0.0, 0.0)) == 1

    def test_negative_family_masses_rejected(self):
        with pytest.raises(ValueError):
            MagicUrn(1.0, 1.0, fam_red=-0.5)

    def test_negative_pure_mass_allowed_at_init(self):
        # a < 1 initializations carry pure_red = a - 1 < 0
        urn = MagicUrn(-0.5, 1.0)
        assert urn.pure_red + urn.fam_red == -0.5


# MagicUrn(1, 1, 1, 1) has total mass 5, laid out as pure red, family red,
# (chameleon if the left particle is present), pure blue, family blue,
# (chameleon if the right one is).  Uniform u lands at 5u on that line.
UNIT_URN = MagicUrn(1.0, 1.0, 1.0, 1.0)


def draw_at(u: float, left_present: bool):
    """(right, pure, urn after) of one drawing from UNIT_URN on uniform u."""
    urn = replace(UNIT_URN)
    right, pure = magic_draw(urn, left_present, u)
    return right, pure, urn


class TestOutcomeRules:
    def test_direction_fixed_colors(self):
        # pure red, family red, pure blue, family blue, with either particle
        # present; a draw is (right, pure)
        slots = {True: (0.1, 0.3, 0.7, 0.9), False: (0.1, 0.3, 0.5, 0.7)}
        for left_present, (pure_red, fam_red, pure_blue, fam_blue) in slots.items():
            assert draw_at(pure_red, left_present)[:2] == (False, True)
            assert draw_at(fam_red, left_present)[:2] == (False, False)
            assert draw_at(pure_blue, left_present)[:2] == (True, True)
            assert draw_at(fam_blue, left_present)[:2] == (True, False)
        # a uniform on a boundary (5 * 0.2 == 1.0) belongs to the next marble
        assert draw_at(0.2, True)[:2] == (False, False)

    def test_chameleon_direction_tracks_present_particle(self):
        assert draw_at(0.5, True)[:2] == (False, False)
        assert draw_at(0.9, False)[:2] == (True, False)

    def test_updates_add_two_to_drawn_category(self):
        # MagicUrn(1, 2, 0, 3) with the left particle present lays out pure
        # red, the chameleon (red), pure blue and family blue on [0, 7)
        for x, right, pure, field in ((0.5, False, True, 0), (3.0, True, True, 1),
                                      (1.5, False, False, 2), (5.5, True, False, 3)):
            urn = MagicUrn(1.0, 2.0, fam_red=0.0, fam_blue=3.0)
            before = astuple(urn)
            assert magic_draw(urn, True, x / 7) == (right, pure)
            grown = [after - b for after, b in zip(astuple(urn), before)]
            assert grown == [2.0 if i == field else 0.0 for i in range(4)]

    def test_chameleon_update_joins_family_with_current_color(self):
        _, _, left = draw_at(0.5, True)
        assert astuple(left) == (1.0, 1.0, 3.0, 1.0)
        _, _, right = draw_at(0.9, False)
        assert astuple(right) == (1.0, 1.0, 1.0, 3.0)

    def test_total_grows_by_two_per_draw(self):
        rng = RngStream(34, 0)
        urn = MagicUrn(1.0, 1.5)
        for k in range(1, 200):
            magic_draw(urn, k % 2 == 1, rng.gen.random())
            assert total_mass(urn) == pytest.approx(3.5 + 2 * k)


class TestMagicDraw:
    def test_category_frequencies_match_masses(self):
        urn = MagicUrn(2.0, 1.5, fam_red=3.0, fam_blue=0.5)
        rng = RngStream(35, 0)
        n = 100_000
        counts = dict.fromkeys(product((False, True), (True, False)), 0)
        for _ in range(n):
            counts[magic_draw(replace(urn), True, rng.gen.random())] += 1
        # the chameleon marble is red (a family-like draw) with the left
        # particle present; keys are (right, pure)
        masses = {(False, True): urn.pure_red, (False, False): urn.fam_red + 1,
                  (True, True): urn.pure_blue, (True, False): urn.fam_blue}
        for key, mass in masses.items():
            p = mass / total_mass(urn)
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[key] / n - p) < 4 * se

    def test_direction_matches_outcome(self):
        # the one mass that grows is the drawn marble's: pure or family, of
        # the jump direction's color (fields: pure red, pure blue, family red, family blue)
        rng = RngStream(36, 0)
        urn = MagicUrn(1.0, 1.0)
        for k in range(500):
            before = astuple(urn)
            right, pure = magic_draw(urn, k % 2 == 1, rng.gen.random())
            grown = [i for i, (x, y) in enumerate(zip(astuple(urn), before)) if x != y]
            assert grown == [(0 if pure else 2) + right]

    def test_negative_effective_mass_is_hard_error(self):
        # fresh a < 1 urn visited by the wrong particle: effective red
        # mass is a - 1 < 0
        urn = MagicUrn(-0.5, 1.0)
        rng = RngStream(37, 0)
        with pytest.raises(NegativeMassError):
            magic_draw(urn, False, rng.gen.random())

    def test_negative_pure_mass_with_compensating_chameleon(self):
        # the chameleon marble restores a valid direction law; the drawn
        # marble is then never attributed to the negative category
        urn = MagicUrn(-0.5, 1.0)
        rng = RngStream(38, 0)
        n = 20_000
        lefts = 0
        for _ in range(n):
            right, pure = magic_draw(replace(urn), True, rng.gen.random())
            assert not (pure and not right)
            lefts += not right
        p_left = (urn.pure_red + urn.fam_red + 1) / total_mass(urn)  # 0.5 / 1.5
        assert abs(lefts / n - p_left) < 4 * np.sqrt(p_left * (1 - p_left) / n)

    @settings(max_examples=300, deadline=None)
    @given(
        pure_red=st.sampled_from([-0.5, 0.0, 1.0]) | st.floats(-0.99, 8.0),
        pure_blue=st.sampled_from([-0.5, 0.0, 1.0]) | st.floats(-0.99, 8.0),
        fam_red=st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 8.0),
        fam_blue=st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 8.0),
        left_present=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_five_category_reference(self, pure_red, pure_blue, fam_red, fam_blue,
                                             left_present, seed):
        # the reference reads the draw's uniform, and a second one only
        # where a negative pure mass makes the split of its pool moot
        urn = MagicUrn(pure_red, pure_blue, fam_red, fam_blue)
        u = RngStream(seed, 0).gen.random()
        try:
            expected = reference_draw(urn, left_present, RngStream(seed, 0))
        except ValueError:
            with pytest.raises(NegativeMassError):
                magic_draw(urn, left_present, u)
            return
        right, pure = magic_draw(urn, left_present, u)
        assert (right, pure, urn) == expected


def edge_weights(urn: MagicUrn, left_present: bool):
    """Edge weights ([v-1,v], [v,v+1]) the present particle sees at the urn."""
    left = left_mass(urn, left_present)
    return left, total_mass(urn) - left


class TestEffectiveEdgeWeights:
    def test_chameleon_side_depends_on_present(self):
        urn = MagicUrn(1.0, 2.0, fam_red=4.0, fam_blue=0.0)
        assert edge_weights(urn, True) == (6.0, 2.0)
        assert edge_weights(urn, False) == (5.0, 3.0)

    def test_fresh_inner_urn_matches_initial_edge_weights(self):
        # a=1, delta=0 interior site: both edges at weight 1
        assert edge_weights(MagicUrn(0.0, 1.0), True) == (1.0, 1.0)
        assert edge_weights(MagicUrn(1.0, 0.0), False) == (1.0, 1.0)


class TestLimitLaws:
    # the chameleon urn read as pure red, family (the chameleon marble's unit
    # mass) and pure blue, each drawing adding two marbles
    def test_three_color_limit_parameters(self):
        assert PolyaUrn((1.0, 1.0, 2.0), d=2.0).limit_law() == (0.5, 0.5, 1.0)

    def test_degenerate_components_marked(self):
        # a color of mass 0 is never drawn: its fraction stays exactly 0
        urn = PolyaUrn((0.0, 1.0, 2.0), d=2.0)
        assert urn.limit_law() == (0.0, 0.5, 1.0)
        xs = polya_fraction_samples(urn, 100, 1000, RngStream(40, 0))
        assert (xs[:, 0] == 0.0).all() and (xs[:, 1:] > 0.0).all()

    def test_three_color_fractions_converge_to_dirichlet(self):
        urn = PolyaUrn((1.0, 1.0, 2.0), d=2.0)
        rng = RngStream(39, 0)
        xs = polya_fraction_samples(urn, 10_000, 10_000, rng)
        assert xs.shape == (10_000, 3)
        np.testing.assert_allclose(xs.sum(axis=1), 1.0, atol=1e-12)
        alphas = urn.limit_law()
        total = sum(alphas)
        for i, a_i in enumerate(alphas):
            ks = stats.kstest(xs[:, i], stats.beta(a_i, total - a_i).cdf).statistic
            assert ks < 0.02

    def test_three_color_sampling_rejects_negative_pure(self):
        with pytest.raises(ValueError):
            PolyaUrn((-0.5, 1.0, 1.0), d=2.0)
