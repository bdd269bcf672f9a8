import math

import numpy as np
import pytest

from revprime.arithmetic import totient
from revprime.circle import (
    EXP_SUM_KINDS,
    ExpSumEvaluator,
    WeaklyDigitalSeed,
    build_arcs,
    congruence_reversal_seed,
    exp_sum,
    exp_sum_evaluator,
    gamma_sigma,
    major_arc_residual,
    minor_arc_probe,
    parseval_check,
    weyl_ratio,
)
from revprime.digits import Base, coprime_leading_indicator, count_coprime_leading
from revprime.errors import ResourceLimitError
from revprime.sieve import get_prime_table, indicator_support


def test_exp_sum_at_zero(b10):
    assert abs(exp_sum(0.0, 1000, "all") - 1000) < 1e-9
    expected = count_coprime_leading(1000, b10)
    assert abs(exp_sum(0.0, 1000, "B_set", b10) - expected) < 1e-9


def test_exp_sum_half_primes():
    # e(p/2) = (-1)^p: +log 2, then -log p for the odd primes up to 10
    value = exp_sum(0.5, 10, "prime")
    expected = math.log(2) - math.log(3) - math.log(5) - math.log(7)
    assert abs(value - expected) < 1e-12


def test_exp_sum_conjugate_symmetry(b10):
    rng = np.random.default_rng(11)
    for kind in ("prime", "all", "B_set", "reversed_prime_coprime"):
        for _ in range(12):
            alpha = float(rng.random())
            z1 = exp_sum(alpha, 10**4, kind, b10)
            z2 = exp_sum(1.0 - alpha, 10**4, kind, b10)
            assert abs(z1.conjugate() - z2) < 1e-6 * (1 + abs(z1))


def test_exp_sum_periodicity_exact():
    assert exp_sum(0.375, 500, "all") == exp_sum(1.375, 500, "all")
    for alpha in (5.372, 2.9, 17.0001):
        assert exp_sum(alpha, 300, "all") == exp_sum(alpha % 1.0, 300, "all")


def test_exp_sum_geometric_closed_form():
    for beta in (0.013, 0.21, 0.47):
        s = abs(exp_sum(beta, 1000, "all"))
        closed = abs(math.sin(math.pi * 1000 * beta) / math.sin(math.pi * beta))
        assert abs(s - closed) < 1e-6


def _direct_exp_sum(alpha, x, kind, base):
    """The sum rebuilt from its coefficients at every call, in the same
    elementwise and pairwise-sum order."""
    if kind in ("prime", "reversed_prime_coprime"):
        n, w = indicator_support(x, kind, base)
    elif kind == "all":
        n, w = np.arange(1, x + 1, dtype=np.int64), np.ones(x)
    else:
        n = np.flatnonzero(coprime_leading_indicator(x, base))
        w = np.ones(len(n))
    theta = 2.0 * np.pi * ((n * (alpha % 1.0)) % 1.0)
    return complex(np.sum(w * np.cos(theta)), np.sum(w * np.sin(theta)))


def test_exp_sum_evaluator_equals_exp_sum(b10):
    rng = np.random.default_rng(12)
    # the curve's j/128 grid and both ends of [0, 1): the evaluator takes the
    # fractional part as t - floor(t), the reference as t % 1.0
    grid = [j / 128 for j in range(129)] + [1 - 1e-9, 1e-9]
    alphas = [0.0, 0.5, -1e-20, 1.375, *(rng.random(6) * 4.0 - 2.0), *grid]
    for kind in EXP_SUM_KINDS:
        evaluate = exp_sum_evaluator(20000, kind, b10)
        for alpha in alphas:
            want = _direct_exp_sum(alpha, 20000, kind, b10)
            assert evaluate(alpha) == exp_sum(alpha, 20000, kind, b10) == want, (kind, alpha)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _cos_sin_sizes(monkeypatch) -> list[int]:
    """The number of entries of every later np.cos and np.sin call."""
    sizes = []
    for name in ("cos", "sin"):
        real = getattr(np, name)

        def spy(x, *args, real=real, **kwargs):
            sizes.append(np.size(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return sizes


def test_phase_table_is_the_direct_sum_bit_for_bit(b10, monkeypatch):
    # alpha mod 1 = j/2^e with 2^e <= len(n) takes its cos and sin from a
    # table of 2^e entries; one past that cap, and at any other alpha, every
    # term takes its own.  Both are the reference sum in every bit.
    sizes = _cos_sin_sizes(monkeypatch)
    for kind in EXP_SUM_KINDS:
        evaluate = exp_sum_evaluator(20000, kind, b10)
        assert evaluate.n.dtype == np.int64
        support = len(evaluate.n)
        cap = 1 << (support.bit_length() - 1)  # the largest 2^e <= len(n)
        assert cap >= 128, (kind, support)
        # -1e-20 mod 1 is 1.0 and -3/8 mod 1 is 5/8
        tabled = [0.0, 0.5, 1.0, 3.25, -0.5, -3 / 8, -1e-20, 1 - 2.0**-1, 1 - 2.0**-2,
                  1 - 2.0**-7, 1 / cap, 3 / cap, 1 - 1 / cap, 7 + 5 / cap, -5 / cap]
        direct = [1 / (2 * cap), 3 / (2 * cap), 1 - 1 / (2 * cap), 1 - 2.0**-40, 0.1, -0.1, 1e-9]
        for alpha, table in [(a, True) for a in tabled] + [(a, False) for a in direct]:
            want = _direct_exp_sum(alpha, 20000, kind, b10)
            sizes.clear()
            assert _bits(evaluate(alpha)) == _bits(want), (kind, alpha)
            assert len(sizes) == 2, (kind, alpha, sizes)
            if table:
                assert max(sizes) <= cap, (kind, alpha, sizes)
            else:
                assert sizes == [support, support], (kind, alpha, sizes)


def test_phase_table_needs_exact_products():
    # past 2^53 a product n * alpha is rounded, so its phase is no longer
    # (n num mod den)/den: such an alpha keeps the direct path
    n = np.arange(2**52 + 1, 2**52 + 128, 2, dtype=np.int64)  # 64 odd n
    w = np.linspace(1.0, 2.0, len(n))
    evaluate = ExpSumEvaluator(n, w)
    for alpha in (1 / 64, 7 / 64, 63 / 64, 0.1):
        theta = 2.0 * np.pi * ((n * alpha) % 1.0)
        want = complex(np.sum(w * np.cos(theta)), np.sum(w * np.sin(theta)))
        assert _bits(evaluate(alpha)) == _bits(want), alpha


def test_curve_grid_takes_cos_and_sin_once_per_phase(b10, monkeypatch):
    # on the grid j/128 no cos or sin call sees more than 128 phases; at 0.1
    # a call sees every term of the support
    sizes = _cos_sin_sizes(monkeypatch)
    for kind in EXP_SUM_KINDS:
        evaluate = exp_sum_evaluator(10**5, kind, b10)
        sizes.clear()
        for j in range(128):
            evaluate(j / 128)
        assert len(sizes) == 2 * 128 and max(sizes) <= 128, kind
        sizes.clear()
        evaluate(0.1)
        assert max(sizes) == len(evaluate.n) > 128, kind


def test_build_arcs_structure():
    part = build_arcs(10**6, 1.0)
    assert abs(part.Q - math.log(10**6)) < 1e-12
    assert max(arc.q for arc in part.arcs) == 13
    # the q=1 arcs are the two clipped end intervals
    ends = sorted((arc.lo, arc.hi) for arc in part.arcs if arc.q == 1)
    assert ends[0][0] == 0.0 and abs(ends[0][1] - part.Q / 10**6) < 1e-15
    assert ends[1][1] == 1.0 and abs(ends[1][0] - (1 - part.Q / 10**6)) < 1e-15
    assert part.total_measure < 1.0
    assert len(part.arcs) == sum(totient(q) for q in range(1, 14)) + 1
    # pairwise disjoint by construction check
    ordered = sorted(part.arcs, key=lambda a: a.lo)
    assert all(x.hi < y.lo for x, y in zip(ordered, ordered[1:]))


def test_build_arcs_rejects_overlap():
    with pytest.raises(ValueError):
        build_arcs(16, 3.0)
    with pytest.raises(ValueError):
        build_arcs(10, 1.0)


def test_build_arcs_ceiling():
    # floor(Q) = 2880 at N = 1e12, B = 2.4: disjoint arcs, but about 2.5e6 of them
    with pytest.raises(ResourceLimitError):
        build_arcs(10**12, 2.4)


def test_build_arcs_refuses_B_and_N_past_the_float_range():
    for B in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            build_arcs(10**4, B)
    # (log N)^B overflows: refused by the grid ceiling before the power
    with pytest.raises(ResourceLimitError, match="ceiling"):
        build_arcs(10**4, 1e308)
    with pytest.raises(ValueError, match="at most"):
        build_arcs(10**400, 1.0)


def test_residual_at_zero_is_pnt_residual(b10):
    N = 10**4
    table = get_prime_table(N)
    theta = float(np.log(table.primes(N).astype(float)).sum())
    res = major_arc_residual(0.0, N, b10, which="S")
    assert abs(res - abs(theta - N) / N) < 1e-12


def test_residual_rev_vanishing_coefficient(b10):
    # q = 7 does not divide 990: the predicted sum is zero on that arc
    N = 10**4
    res = major_arc_residual(1 / 7, N, b10, which="revS")
    s = abs(exp_sum(1 / 7, N, "reversed_prime_coprime", b10))
    assert abs(res - s / N) < 1e-12


def test_residual_outside_arcs(b10):
    with pytest.raises(ValueError):
        major_arc_residual(0.437, 10**4, b10, which="S")


def test_residual_decreasing_at_one_third(b10):
    values = [
        major_arc_residual(1 / 3, N, b10, which="revS") for N in (10**4, 10**5, 10**6)
    ]
    assert values[0] > values[1] > values[2]


def test_weyl_ratios(b10):
    assert weyl_ratio(0.5, 1000, kind="all") <= 0.5 + 1e-12
    rng = np.random.default_rng(5)
    for _ in range(50):
        beta = float(rng.uniform(0.01, 0.99))
        assert weyl_ratio(beta, 1000, kind="all") <= 1.0
    with pytest.raises(ValueError):
        weyl_ratio(2.0, 100)


def test_weyl_bset_under_fixture_bound(b10, fixtures):
    bound = fixtures["weyl_bset_bound.b10.n1e5"]
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        beta = float(rng.random())
        if min(beta, 1 - beta) < 1e-9:
            continue
        worst = max(worst, weyl_ratio(beta, 10**5, b10, kind="B_set"))
    assert worst <= bound, worst


def test_parseval_small_support(b10):
    res = parseval_check(40, b10)
    # coprime reversed primes up to 40: 7, 13, 17, 31, 37 (32 = rev 23 is
    # excluded by the gcd filter); weights are logs of the source primes
    expected = sum(math.log(p) ** 2 for p in (7, 31, 71, 13, 73))
    assert abs(res.lhs - expected) < 1e-9
    assert abs(res.lhs - res.rhs) <= 1e-6 * res.lhs


@pytest.mark.parametrize("N", [10**3, 10**4])
def test_parseval_quadrature(N, b10):
    res = parseval_check(N, b10)
    assert abs(res.lhs - res.rhs) <= 1e-6 * res.lhs
    assert math.isfinite(res.scaled) and res.scaled > 0


def test_parseval_scaled_bounded(b10):
    values = [parseval_check(N, b10).scaled for N in (10**3, 10**4, 10**5)]
    assert max(values) < 1.0  # empirical: well below the N log N scale


def test_minor_arc_probe(b10):
    probe = minor_arc_probe(10**4, 1.0, b10, samples=30, seed=7)
    # scaled report is monotone in the exponent
    keys = sorted(probe.scaled)
    values = [probe.scaled[a] for a in keys]
    assert values == sorted(values)
    # deterministic for a fixed seed
    again = minor_arc_probe(10**4, 1.0, b10, samples=30, seed=7)
    assert again.max_abs == probe.max_abs
    assert probe.samples == 30 and probe.max_abs > 0
    assert probe.max_abs_prime > 0


def test_minor_arc_probe_matches_recorded_oracle(b10, fixtures):
    # the standalone fixtures oracle replays the same seed and rejection
    # stream with its own sums; the library must land on the same maximum
    probe = minor_arc_probe(10**5, 1.0, b10, samples=100, seed=0)
    recorded = fixtures["minor_probe_max.b10.n1e5"]
    assert abs(probe.max_abs - recorded) <= 1e-4 * recorded


def test_minor_arc_sampler_rejects_major_points(b10):
    # every major-arc point must be rejected: verify via the partition
    part = build_arcs(10**4, 1.0)
    inside = part.arcs[0].center + part.arcs[0].halfwidth / 2
    assert part.find(inside) is not None
    assert part.find(0.437) is None


def test_gamma_sigma_zero_seed(b10):
    gammas, sigma = gamma_sigma(WeaklyDigitalSeed(b10, np.zeros((5, 10))), 5)
    assert sigma == 0.0 and all(g == 0.0 for g in gammas)


def test_gamma_sigma_integer_differences(b10):
    # b*alpha_i - alpha_{i+1} integer-valued on digits: gamma_i = 0
    maps = np.vstack([np.arange(10) * 3.0, np.arange(10) * 30.0])
    gammas, sigma = gamma_sigma(WeaklyDigitalSeed(b10, maps), 1)
    assert sigma == 0.0


def test_gamma_sigma_reversal_seed(b10):
    # phase 1/3 with 3 | 99: every interior position is integer-valued and
    # only the boundary term (zero-extended final map) contributes
    seed = congruence_reversal_seed(b10, 1, 3, 10)
    gammas, sigma = gamma_sigma(seed, 10)
    assert sigma > 0
    assert all(g < 1e-12 for g in gammas[:-1])
    assert gammas[-1] > 1e-7


def test_reversal_seed_refuses_maps_past_the_float_range(b10):
    assert np.isfinite(congruence_reversal_seed(b10, 1, 3, 307).maps).all()
    # L = 2e6 is refused before b^(L-1) is computed
    for h, L, k in ((1, 309, 0), (1, 310, 0), (1, 2 * 10**6, 0), (10**400, 10, 0), (1, 10, 10**400)):
        with pytest.raises(ValueError, match="float range"):
            congruence_reversal_seed(b10, h, 3, L, k=k)
    # finite maps whose D_i = b alpha_i - alpha_(i+1) is not
    seed = congruence_reversal_seed(b10, 1, 3, 308)
    assert gamma_sigma(seed, 0) == ([], 0.0)
    with pytest.raises(ValueError, match="float range"):
        gamma_sigma(seed, 10)


def test_gamma_sigma_length_guard(b10):
    seed = congruence_reversal_seed(b10, 1, 3, 4)
    with pytest.raises(ValueError):
        gamma_sigma(seed, 5)
