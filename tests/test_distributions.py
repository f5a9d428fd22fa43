"""Random streams, beta/Dirichlet sampling, and the log-odds quadrature."""
import ctypes
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from reinforce_sim import native
from reinforce_sim.distributions import (
    ENVIRONMENT,
    HOLDING_TIMES,
    MIRROR_ENVIRONMENT,
    BetaParams,
    QuadratureError,
    RngStream,
    digamma,
    integrate_log_odds,
    sample_beta,
    sample_dirichlet,
    trial_streams,
)

from oracles import beta_samples


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(42, 0)
        b = RngStream(42, 0)
        assert [a.gen.random() for _ in range(100)] == [b.gen.random() for _ in range(100)]

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0)
        b = RngStream(42, 1)
        assert [a.gen.random() for _ in range(8)] != [b.gen.random() for _ in range(8)]

    def test_distinct_seeds_differ(self):
        assert RngStream(1, 0).gen.random() != RngStream(2, 0).gen.random()

    def test_buffered_and_block_draws_in_range(self):
        rng = RngStream(7, 3)
        xs = [rng.gen.random() for _ in range(10_000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        block = rng.uniforms(1000)
        assert block.shape == (1000,)
        assert ((block >= 0) & (block < 1)).all()

    def test_uneven_blocks_are_the_draws_one_at_a_time(self):
        # block edges fall inside Philox's four-word output blocks
        ref = RngStream(8, 1)
        rng = RngStream(8, 1)
        got = []
        for k in (8000, 500, 0, 9000, 3, 1, 2):
            got.extend(rng.uniforms(k).tolist())
        assert got == [ref.gen.random() for _ in range(len(got))]

    def test_zero_seed_is_valid(self):
        assert 0.0 <= RngStream(0, 0).gen.random() < 1.0

    def test_distinct_keys_give_distinct_streams(self):
        keys = [(trial, role) for trial in range(4)
                for role in (None, ENVIRONMENT, MIRROR_ENVIRONMENT, HOLDING_TIMES)]
        heads = {tuple(RngStream(5, trial, role).uniforms(8)) for trial, role in keys}
        assert len(heads) == len(keys)

    def test_dynamics_stream_has_no_role(self):
        # the dynamics stream has counter word 3 = 0, so role 0 would alias it
        ref = np.random.Generator(np.random.Philox(5, counter=[0, 0, 2, 0]))
        assert RngStream(5, 2).uniforms(8).tolist() == ref.random(8).tolist()
        with pytest.raises(ValueError, match="role 0"):
            RngStream(5, 2, 0)


class TestStreamKeys:
    def test_stream_is_the_seed_key_at_the_trial_role_counter(self):
        mask = 2**64 - 1
        # -1 and 2**64 - 1 both mask to 2**64 - 1; trial 2**32 + 1 needs
        # both halves of counter word 2
        for seed in (0, 7, -1, 2**32 + 5, 2**64 - 1, 2**64 + 7, -(2**70) - 3):
            for trial in (0, 1, 2999, 2**32 + 1):
                for role in (None, ENVIRONMENT, MIRROR_ENVIRONMENT, HOLDING_TIMES):
                    ref = np.random.Philox(seed & mask, counter=[0, 0, trial & mask, role or 0])
                    assert (RngStream(seed, trial, role).uniforms(9).tolist()
                            == np.random.Generator(ref).random(9).tolist())
                jumped = np.random.Philox(seed & mask).jumped(trial)
                assert (RngStream(seed, trial).uniforms(9).tolist()
                        == np.random.Generator(jumped).random(9).tolist())
            # trial 0's dynamics stream keeps the bits of the 0.2 releases'
            # SeedSequence([s, 0]) key
            old_key = np.random.Philox(np.random.SeedSequence([seed & mask, 0]))
            assert (RngStream(seed, 0).uniforms(9).tolist()
                    == np.random.Generator(old_key).random(9).tolist())

    @pytest.mark.parametrize("role", [None, ENVIRONMENT, MIRROR_ENVIRONMENT])
    def test_rekeyed_stream_equals_a_fresh_one(self, role):
        # the references are numpy's own generators: the counter set as an
        # array, and for a dynamics stream Philox(s).jumped(t) too, below
        # 2**64 (a jump past it carries into counter word 3)
        mask, p = 2**64 - 1, BetaParams(0.5, 1.5)

        def draws(rng):
            return (rng.gen.random(7).tolist(), [sample_beta(rng, p) for _ in range(5)],
                    [rng.gen.random() for _ in range(3)])

        for seed in (0, 7, 2**70 + 3, -5):
            stream = RngStream(seed, 0, role)
            for trial in (3, 39, 0, 3, 2**63 + 1, 2**64 - 1, 2**64 + 2):
                # leave the stream mid-Philox-block on another counter
                stream.gen.random()
                sample_beta(stream, p)
                stream.rekey(trial)
                assert stream.trial == trial
                counter = np.array([0, 0, trial & mask, role or 0], dtype=np.uint64)
                refs = [np.random.Philox(seed & mask, counter=counter)]
                if role is None and trial <= mask:
                    refs.append(np.random.Philox(seed & mask).jumped(trial))
                got = draws(stream)
                assert draws(RngStream(seed, trial, role)) == got
                assert all(draws(SimpleNamespace(gen=np.random.Generator(bits))) == got
                           for bits in refs)

    @pytest.mark.parametrize("role", [None, ENVIRONMENT])
    def test_trial_streams_equal_fresh_ones(self, role):
        for trial, stream in enumerate(trial_streams(11, 25, role)):
            fresh = RngStream(11, trial, role)
            assert (stream.seed, stream.trial, stream.role) == (11, trial, role)
            assert [stream.gen.random() for _ in range(3)] == [fresh.gen.random() for _ in range(3)]
            assert stream.gen.gamma(0.5) == fresh.gen.gamma(0.5)
        assert trial == 24


class _Philox(ctypes.Structure):
    """``struct philox`` of ``kernels.c``, the C twin of RngStream."""

    _fields_ = [("counter", ctypes.c_uint64 * 4), ("key", ctypes.c_uint64 * 2),
                ("buffer", ctypes.c_uint64 * 4), ("buffer_pos", ctypes.c_int),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


class _BitGen(ctypes.Structure):
    """numpy's ``bitgen_t``: a state and four callbacks that read it."""

    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", ctypes.c_void_p),
                ("next_uint32", ctypes.c_void_p), ("next_double", ctypes.c_void_p),
                ("next_raw", ctypes.c_void_p)]


class TestPhiloxTwin:
    """The kernel library's Philox streams, driven through their exported
    ``bitgen_t`` callbacks, against numpy's Philox at the same key and
    counter, word for word."""

    MASK = 2**64 - 1
    NEXT = {"uint64": ctypes.c_uint64, "uint32": ctypes.c_uint32, "double": ctypes.c_double}
    CALLBACKS = {"uint64": "philox_next64", "uint32": "philox_next32",
                 "double": "philox_next_double"}

    def twin(self, key, counter):
        """A fresh C stream (nothing buffered) and a draw function over it."""
        library, state = native.kernels(), _Philox(counter=(ctypes.c_uint64 * 4)(*counter),
                                                   key=(ctypes.c_uint64 * 2)(*key), buffer_pos=4)
        calls = {kind: ctypes.CFUNCTYPE(ret, ctypes.c_void_p)((self.CALLBACKS[kind], library))
                 for kind, ret in self.NEXT.items()}
        return state, lambda kind: calls[kind](ctypes.addressof(state))

    @staticmethod
    def numpy_philox(key, counter):
        """numpy's Philox at ``key`` and ``counter``, both given as uint64
        arrays (numpy reads a list of large ints as floats)."""
        return np.random.Philox(key=np.array(key, np.uint64),
                                counter=np.array(counter, np.uint64))

    @staticmethod
    def numpy_draw(bits):
        """A draw function over numpy's own callbacks of ``bits``."""
        calls = {"uint64": bits.ctypes.next_uint64, "uint32": bits.ctypes.next_uint32,
                 "double": bits.ctypes.next_double}
        return lambda kind: calls[kind](bits.ctypes.state)

    @staticmethod
    def kinds(n, seed):
        """``n`` callback names in a fixed order that mixes all three."""
        return [("uint64", "uint32", "double")[k]
                for k in np.random.default_rng(seed).integers(0, 3, n).tolist()]

    @pytest.mark.parametrize("words", [(0, 0), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1),
                                       (2**64 - 3, 2**64 - 1)],
                             ids=["fresh", "carry-word-0", "carry-word-1", "carry-later"])
    def test_interleaved_draws_equal_numpys(self, words):
        # blocks from a counter at 2**64 - 1 in word 0 carry into word 1,
        # and from 2**64 - 1 in both into word 2
        key = RngStream(29, 0).key
        for trial, role in ((0, 0), (5, ENVIRONMENT), (2**64 - 1, MIRROR_ENVIRONMENT)):
            counter = [*words, trial, role]
            _, mine = self.twin(key, counter)
            theirs = self.numpy_draw(self.numpy_philox(key, counter))
            order = self.kinds(400, trial)
            assert [mine(kind) for kind in order] == [theirs(kind) for kind in order]

    def test_a_bitgen_of_the_twin_draws_numpys_gammas(self):
        library = native.kernels()
        gamma = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p, ctypes.c_double)(
            ("random_standard_gamma", library))
        key = RngStream(-3, 0).key
        for shape in (1e-3, 0.5, 30.0):
            counter = [0, 0, 7, ENVIRONMENT]
            state, mine = self.twin(key, counter)
            bits = _BitGen(ctypes.addressof(state), *(
                ctypes.cast(getattr(library, self.CALLBACKS[kind]), ctypes.c_void_p)
                for kind in ("uint64", "uint32", "double", "uint64")))
            ref = self.numpy_philox(key, counter)
            expected = np.random.Generator(ref).standard_gamma(shape, 500).tolist()
            assert [gamma(ctypes.addressof(bits), shape) for _ in range(500)] == expected
            theirs = self.numpy_draw(ref)  # the two streams stand at the same word
            order = self.kinds(20, 1)
            assert [mine(kind) for kind in order] == [theirs(kind) for kind in order]

    @pytest.mark.parametrize("seed", [0, 7, -3, -(2**70) - 3, 2**64 + 5, 2**70 + 5])
    def test_keyed_at_the_streams_key_and_counter_it_is_the_stream(self, seed):
        # RngStream masks the seed and the trial to 64 bits; its key words
        # are numpy's hash of the masked seed
        assert RngStream(seed, 0).key == \
            np.random.Philox(seed & self.MASK).state["state"]["key"].tolist()
        for trial in (0, 3, 2**64 - 1, 2**64 + 2):
            for role in (None, ENVIRONMENT, MIRROR_ENVIRONMENT):
                stream = RngStream(seed, trial, role)
                _, mine = self.twin(stream.key, [0, 0, trial & self.MASK, role or 0])
                assert [mine("double") for _ in range(9)] == stream.uniforms(9).tolist()


class TestSampleBeta:
    def test_scalar_draws_are_the_two_gamma_ratio(self):
        # the law tests below sample in blocks; one block of one is one draw
        p = BetaParams(0.5, 1.5)
        rng, twin = RngStream(10, 0), RngStream(10, 0)
        assert [sample_beta(rng, p) for _ in range(50)] == [
            beta_samples(twin, p, 1)[0] for _ in range(50)]

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.5, 0.5), (2.0, 2.0)])
    def test_symmetric_mean_is_half(self, alpha, beta):
        rng = RngStream(11, 0)
        xs = beta_samples(rng, BetaParams(alpha, beta), 100_000)
        assert abs(xs.mean() - 0.5) < 0.01

    def test_mean_matches_density_integral(self):
        # oracle: integrate x * beta density directly instead of using
        # the closed-form alpha / (alpha + beta)
        alpha, beta = 1.5, 0.5
        dens_norm = np.exp(-special.betaln(alpha, beta))
        target, err = integrate.quad(
            lambda x: x * dens_norm * x ** (alpha - 1) * (1 - x) ** (beta - 1), 0, 1
        )
        assert err < 1e-8
        rng = RngStream(12, 0)
        xs = beta_samples(rng, BetaParams(alpha, beta), 100_000)
        assert abs(xs.mean() - target) < 0.01

    def test_small_shapes_stay_in_unit_interval(self):
        rng, p = RngStream(13, 0), BetaParams(0.05, 0.07)
        xs = np.array([sample_beta(rng, p) for _ in range(10_000)])
        assert ((xs >= 0) & (xs <= 1)).all()

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (float("nan"), 1.0), (float("inf"), 1.0)])
    def test_invalid_shapes_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            BetaParams(alpha, beta)


class TestSampleDirichlet:
    def test_components_sum_to_one_exactly(self):
        rng = RngStream(21, 0)
        p = (0.5, 0.5, 1.5)
        for _ in range(2000):
            x, y, z = sample_dirichlet(rng, p)
            assert x >= 0 and y >= 0 and z >= 0
            assert x + y + z == 1.0

    def test_symmetric_mean(self):
        rng = RngStream(22, 0)
        p = (0.5, 0.5, 0.5)
        xs = np.array([sample_dirichlet(rng, p) for _ in range(50_000)])
        assert np.abs(xs.mean(axis=0) - 1.0 / 3.0).max() < 0.01

    def test_mean_matches_weights(self):
        rng = RngStream(23, 0)
        p = (0.5, 0.5, 1.0)
        xs = np.array([sample_dirichlet(rng, p) for _ in range(50_000)])
        assert np.abs(xs.mean(axis=0) - [0.25, 0.25, 0.5]).max() < 0.01

    def test_marginals_are_beta(self):
        from scipy import stats

        rng = RngStream(24, 0)
        p = (0.5, 0.5, 1.5)
        xs = np.array([sample_dirichlet(rng, p) for _ in range(10_000)])
        for i, alpha_i in enumerate((0.5, 0.5, 1.5)):
            ks = stats.kstest(xs[:, i], stats.beta(alpha_i, 2.5 - alpha_i).cdf).statistic
            assert ks < 0.02

    def test_degenerate_markers_rejected(self):
        # a point-mass component (shape 0) is the caller's to handle
        rng = RngStream(25, 0)
        with pytest.raises(ValueError, match="finite and > 0"):
            sample_dirichlet(rng, (0.0, 0.5, 1.0))
        with pytest.raises(ValueError):
            sample_dirichlet(rng, (1.0, 0.5, 0.0))

    def test_invalid_params_rejected(self):
        rng = RngStream(26, 0)
        for alphas in ((0.5, 0.0, 0.5), (-1.0, 0.5, 0.5), (0.5, 0.5, -1e-300),
                       (float("nan"), 0.5, 0.5), (0.5, float("inf"), 0.5)):
            with pytest.raises(ValueError):
                sample_dirichlet(rng, alphas)
        # a rejected draw consumes no randomness
        assert rng.gen.random() == RngStream(26, 0).gen.random()


class TestDigamma:
    def test_recurrence_relation(self):
        # psi(x+1) - psi(x) = 1/x
        for x in (0.3, 1.0, 2.5, 10.0):
            assert digamma(x + 1) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_expected_log_uniform(self):
        # E[log U] = psi(1) - psi(2) = -1; oracle by direct quadrature
        target, err = integrate.quad(np.log, 0, 1)
        assert err < 1e-10
        assert digamma(1.0) - digamma(2.0) == pytest.approx(target, abs=1e-10)

    def test_against_mpmath(self):
        import mpmath

        for x in (1e-3, 0.1, 1.0, 4.5, 100.0, 1e6):
            assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(ValueError):
            digamma(x)


class TestIntegrateLogOdds:
    GRID = [
        (0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 1.5),
        (1.5, 0.5), (3.0, 0.1), (0.1, 3.0), (5.0, 5.0), (2.5, 0.5),
        (0.05, 0.07), (4.0, 0.3), (0.3, 4.0), (10.0, 1.0), (1.0, 10.0),
        (6.0, 2.0), (2.0, 6.0), (0.75, 1.25), (1.25, 0.75), (8.0, 8.0),
    ]

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_matches_digamma_difference(self, alpha, beta):
        got = integrate_log_odds(BetaParams(alpha, beta))
        assert got == pytest.approx(digamma(alpha) - digamma(beta), abs=1e-7)

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_sign_tracks_shape_ordering(self, alpha, beta):
        got = integrate_log_odds(BetaParams(alpha, beta))
        if alpha > beta:
            assert got > 0
        elif alpha < beta:
            assert got < 0
        else:
            assert abs(got) < 1e-8

    def test_uniform_case_is_zero(self):
        assert abs(integrate_log_odds(BetaParams(1.0, 1.0))) < 1e-10

    def test_beta_2_1_value(self):
        # psi(2) - psi(1) = 1 exactly
        assert integrate_log_odds(BetaParams(2.0, 1.0)) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(min_value=0.1, max_value=20.0),
        beta=st.floats(min_value=0.1, max_value=20.0),
    )
    def test_antisymmetry_property(self, alpha, beta):
        fwd = integrate_log_odds(BetaParams(alpha, beta))
        rev = integrate_log_odds(BetaParams(beta, alpha))
        assert fwd == pytest.approx(-rev, abs=1e-7)


def test_quadrature_error_is_raisable():
    with pytest.raises(QuadratureError):
        raise QuadratureError("synthetic")


def test_quadrature_off_the_closed_form_is_an_error():
    # at shapes this large the integrand's factors lose their digits: quad
    # converges, with a small error estimate, to -0.55 against
    # psi(1e8) - psi(3e8) = -1.10
    with pytest.raises(QuadratureError,
                       match=r"Beta\(100000000.0, 300000000.0\) gave -0.549.* -1.098"):
        integrate_log_odds(BetaParams(1e8, 3e8))


@pytest.mark.parametrize("alpha,beta", [(540.0, 540.0), (530.0, 545.0), (1000.0, 2000.0),
                                        (300.0, 800.0), (1e5, 2e5)])
def test_large_shapes_match_the_closed_form(alpha, beta):
    # 2**(3 - n) / B(alpha, beta) is out of float range here; its log is
    # not.  At (1e5, 2e5) the integrand's peak is about 2e-3 wide.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate_log_odds(BetaParams(alpha, beta))
    assert got == pytest.approx(digamma(alpha) - digamma(beta), abs=1e-8)


@pytest.mark.parametrize("alpha,beta", [(1e-8, 0.1), (1e-6, 1.0)])
def test_quadrature_warning_is_an_error(alpha, beta):
    # scipy's IntegrationWarning becomes the error, whatever the warning
    # filters, and is not shown
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(QuadratureError, match=rf"Beta\({alpha}, {beta}\) failed"):
            integrate_log_odds(BetaParams(alpha, beta))
    assert caught == []


@pytest.mark.parametrize("alpha,beta", [(1e30, 1.0), (1.0, 1e30)])
def test_nonfinite_quadrature_is_an_error(alpha, beta):
    # the integrand overflows and quad returns an infinite value: the
    # closed-form check refuses it, with no numpy or scipy warning on the way
    sign = "" if alpha > beta else "-"
    with warnings.catch_warnings(), pytest.raises(
            QuadratureError, match=re.escape(f"Beta({alpha}, {beta}) gave {sign}inf")):
        warnings.simplefilter("error")
        integrate_log_odds(BetaParams(alpha, beta))
