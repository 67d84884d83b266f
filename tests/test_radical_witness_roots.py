"""Radical witness roots: branch identification and the branch sweep.

numeric._identify_branch takes the branch of a root from its argument,
given in doubles with an error bound, and checks it against
exact._complex_root, with no mpmath call. engine._branch_sweep finds the
hit (jb, ja) of the witness scalar system, and the branches of beta, u and
alpha, by branch arithmetic on integers, with no root taken. The mpmath
identification and the mpc sweep they replaced are kept here as
reference_identify_branch and reference_sweep, the latter at 1,024 bits.
Identification must give the reference's branch or raise where it raises,
on bases with parts thousands of bits wide or far below 1, on the axes and
the diagonals, at indices up to 2^40 - 1; the sweep must give the
reference's pair, and its branches must name the reference's roots, also
where a, rhs or u lies on the negative real axis or 2^-200 off it.
"""

import importlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from conftest import branch_completeness_pairs
from qhgerm import GQ_ZERO, build_witness, decide_equivalence, gq, parse_poly, witness_branch_count
from qhgerm import engine
from qhgerm.errors import InternalInconsistencyError
from qhgerm.exact import _make
from qhgerm.numeric import _identify_branch, nth_root, to_mpc

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDED = settings(max_examples=150, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
# the reference sweep's precision, and the tolerance of its test
REFERENCE_BITS = 1024


def reference_identify_branch(base, index, theta, err):
    """The mpmath identification: nearest branch by argument, then the
    root's argument within a quarter of the spacing less err of theta."""
    if index == 1 or base.is_zero:
        return 0
    with mp.workprec(index.bit_length() + 64):
        z = to_mpc(base)
        branch = int(mp.nint((index * mpf(theta) - mp.arg(z)) / (2 * mp.pi))) % index
        off = abs(mpf(math.remainder(theta - float(mp.arg(nth_root(z, index, branch))),
                                     2 * math.pi)))
        if off + err > mp.pi / (2 * index):
            raise InternalInconsistencyError(
                "radical branch identification failed: no root is close enough"
            )
    return branch


def outcome(identify, base, index, theta, err=0.0):
    try:
        return identify(base, index, theta, err)
    except InternalInconsistencyError:
        return "raises"


parts = st.one_of(st.integers(-50, 50), st.integers(-(2**64), 2**64),
                  st.integers(-(2**3000), 2**3000))
denominators = st.one_of(st.just(1), st.integers(1, 2**64), st.integers(2**2000, 2**4000))


@st.composite
def bases(draw):
    """Nonzero Gaussian rationals, a fifth each on an axis and on a diagonal."""
    a, b, d = draw(parts), draw(parts), draw(denominators)
    shape = draw(st.sampled_from(["any", "any", "any", "axis", "diagonal"]))
    n = abs(a) or 1
    if shape == "axis":
        a, b = draw(st.sampled_from([(n, 0), (-n, 0), (0, n), (0, -n)]))
    elif shape == "diagonal":
        a, b = n * draw(st.sampled_from([1, -1])), n * draw(st.sampled_from([1, -1]))
    elif a == b == 0:
        a = 1
    return _make(a, b, d)


indices = st.one_of(st.integers(1, 2**20), st.integers(1, 12), st.just(2**40 - 1))


def moved_angle(base, index, branch, prec, fraction, sign):
    """The argument of the branch-th root at prec bits, as a double, moved by
    fraction of the angle between neighbouring roots, 2*pi/index, either way."""
    with mp.workprec(prec):
        theta = mp.arg(nth_root(base, index, branch))
        return float(theta + sign * fraction * 2 * mp.pi / index)


class TestIdentifyBranch:
    @seed(20261201)
    @SEEDED
    @given(base=bases(), index=indices, data=st.data())
    def test_roots_moved_by_up_to_a_quarter_spacing_keep_their_branch(self, base, index, data):
        # the move and the error bound together stay below a quarter spacing
        branch = data.draw(st.integers(0, index - 1))
        fraction = data.draw(st.floats(0, 0.249))
        err = data.draw(st.floats(0, 0.249 - fraction)) * 2 * math.pi / index
        theta = moved_angle(base, index, branch, data.draw(st.integers(53, 1024)), fraction,
                            data.draw(st.sampled_from([1, -1])))
        assert _identify_branch(base, index, theta, err) == branch
        assert reference_identify_branch(base, index, theta, err) == branch

    @seed(20261202)
    @SEEDED
    @given(base=bases(), index=indices.filter(lambda k: k > 1), data=st.data())
    def test_points_past_a_quarter_spacing_raise(self, base, index, data):
        # 0.26 to 0.49 of the spacing from one root is over half of it from the
        # others; so is a move of 0.2 with an error bound of 0.06 more
        branch = data.draw(st.integers(0, index - 1))
        fraction, err = data.draw(st.sampled_from([(None, 0.0), (0.2, 0.06)]))
        if fraction is None:
            fraction = data.draw(st.floats(0.26, 0.49))
        err *= 2 * math.pi / index
        theta = moved_angle(base, index, branch, data.draw(st.integers(53, 1024)), fraction,
                            data.draw(st.sampled_from([1, -1])))
        assert outcome(_identify_branch, base, index, theta, err) == "raises"
        assert outcome(reference_identify_branch, base, index, theta, err) == "raises"

    @seed(20261203)
    @SEEDED
    @given(base=bases(), index=indices.filter(lambda k: k > 1), data=st.data())
    def test_a_point_halfway_between_two_roots_raises(self, base, index, data):
        branch = data.draw(st.integers(0, index - 1))
        theta = moved_angle(base, index, branch, data.draw(st.integers(53, 1024)), 0.5, 1)
        assert outcome(_identify_branch, base, index, theta) == "raises"
        assert outcome(reference_identify_branch, base, index, theta) == "raises"

    @pytest.mark.parametrize("index", [1, 2, 7, 2**40 - 1])
    def test_zero_base(self, index):
        # zero has the one root 0, branch 0, whatever the angle
        for theta in (0.0, 1.0, -math.pi / 2):
            assert _identify_branch(GQ_ZERO, index, theta, 0.0) == reference_identify_branch(
                GQ_ZERO, index, theta, 0.0) == 0

    @pytest.mark.parametrize("scale", [1.45, 1.9, 3, 2**64, 2**-64, mpf(2) ** 5000])
    @pytest.mark.parametrize("base, index", [
        (gq(5), 2), (gq(0, -7), 2), (gq(3, 3), 3), (_make(2**3000 + 1, -(2**2999), 3), 5)])
    def test_scaled_roots_agree(self, base, index, scale):
        # identification reads the argument alone: a root times any positive
        # scale keeps its branch, whether or not it lies within a quarter of
        # the spacing of the root in the plane
        for branch in range(index):
            with mp.workprec(128):
                theta = float(mp.arg(nth_root(base, index, branch) * scale))
            assert _identify_branch(base, index, theta, 2.0**-50) == reference_identify_branch(
                base, index, theta, 2.0**-50) == branch

    def test_zero_target_of_a_nonzero_base_raises(self):
        # a zero target has no argument: any angle, to within pi
        for theta in (0.0, 2.0, -3.0):
            assert outcome(_identify_branch, gq(2), 3, theta, math.pi) == "raises"
            assert outcome(reference_identify_branch, gq(2), 3, theta, math.pi) == "raises"

    @pytest.mark.parametrize("index", [2**40, 2**41 + 3])
    def test_index_at_the_complex_root_limit_raises_value_error(self, index):
        with pytest.raises(ValueError):
            _identify_branch(gq(2), index, 0.0, 0.0)

    def test_makes_no_mpmath_call(self):
        code = (
            "import sys\n"
            "from qhgerm.exact import gq\n"
            "from qhgerm.numeric import _identify_branch\n"
            "assert _identify_branch(gq(2), 3, 0.0, 0.0) == 0\n"
            "assert _identify_branch(gq(-8), 3, 3.14159, 1e-5) == 1\n"
            "assert 'mpmath' not in sys.modules\n"
        )
        src = Path(engine.__file__).resolve().parent.parent
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr


def on_axis(z, bits):
    """z with a part below 2^-bits of |z| set to 0: rounding noise of mpc
    arithmetic on a value that lies on an axis. Values off an axis by more,
    like the 2^-200 of the cases below, keep both parts."""
    floor = abs(z) * mpf(2) ** -bits
    return mpc(z.real if abs(z.real) > floor else 0, z.imag if abs(z.imag) > floor else 0)


def reference_sweep(w, m, e_pow, m_pow, a_num, rhs_num, c0_num, d0_num, tol_bits):
    """Every (jb, ja) in order until one passes the test |lhs - d0| <=
    2^-tol_bits*|d0|, the mpc sweep the builder had; rhs and u on the
    negative real axis take Arg pi, as their exact values do."""
    tol_id = mpf(2) ** -tol_bits
    rhs_num = on_axis(rhs_num, tol_bits)
    for jb in range(m_pow):
        beta_num = nth_root(rhs_num, m_pow, jb)
        u_num = on_axis(a_num * beta_num**w.p, tol_bits)
        for ja in range(w.q):
            alpha_num = nth_root(u_num, w.q, ja)
            lhs = c0_num * alpha_num**m * beta_num**e_pow
            if abs(lhs - d0_num) <= tol_id * abs(d0_num):
                return jb, ja, alpha_num, beta_num, u_num
    raise InternalInconsistencyError("no consistent root branches")


def near(x, y):
    return abs(x - y) <= abs(y) * mpf(2) ** -(REFERENCE_BITS // 2)


def compare_sweep(args, hit):
    """(the sweep's pair, the reference's, whether the sweep's branches of
    beta, alpha and u name the reference's roots), for one call of
    engine._branch_sweep with args and its result hit."""
    w, m, e_pow, m_pow, r0, base, d, branch, base_beta, base_alpha = args
    jb, ja, k_beta, k_alpha, k_u = hit
    order = d * m_pow
    with mp.workprec(REFERENCE_BITS):
        a_num = nth_root(base, d, branch)
        rhs_num = to_mpc(r0) ** w.q * a_num**-m
        *want, alpha, beta, u = reference_sweep(w, m, e_pow, m_pow, a_num, rhs_num, mpc(1),
                                                to_mpc(r0), REFERENCE_BITS // 2)
        roots = (near(nth_root(base_beta, order, k_beta % order), beta)
                 and near(nth_root(base_alpha, w.q * order, k_alpha % (w.q * order)), alpha)
                 and near(nth_root(base_alpha, order, k_u % order), u))
    return (jb, ja), tuple(want), roots


@pytest.fixture
def sweeps(monkeypatch):
    """Each call of engine._branch_sweep, as compare_sweep's triple."""
    seen = []
    sweep = engine._branch_sweep

    def both(*args):
        hit = sweep(*args)
        seen.append(compare_sweep(args, hit))
        return hit

    monkeypatch.setattr(engine, "_branch_sweep", both)
    return seen


def agree(seen):
    return all(got == want and roots for got, want, roots in seen)


def witness_every_branch(first, second, verdict):
    for branch in range(witness_branch_count(verdict)):
        build_witness(first, second, verdict, branch)


def sweep_args(p, q, m, e_pow, r0, base, d, branch):
    """engine._branch_sweep's arguments for the system with these data."""
    w = SimpleNamespace(p=p, q=q)
    base_beta = r0 ** (q * d) * base**-m
    base_alpha = r0 ** (p * q * d) * base ** (q * e_pow)
    return w, m, e_pow, p * m + q * e_pow, r0, base, d, branch, base_beta, base_alpha


def sweep_every_branch(p, q, m, e_pow, r0, base, d):
    seen = []
    for branch in range(d):
        args = sweep_args(p, q, m, e_pow, r0, base, d, branch)
        seen.append(compare_sweep(args, engine._branch_sweep(*args)))
    return seen


# the tuples of test_u_on_the_cut and test_rhs_on_the_cut: p, q, m, E, d
CUT_CASES = [(1, 2, 1, 1, 4), (2, 3, 1, 2, 4), (2, 3, 2, 1, 8), (3, 4, 1, 3, 6),
             (2, 5, 3, 2, 6), (1, 3, 2, 5, 9), (4, 7, 3, 2, 8), (2, 2, 1, 1, 2)]
OFF_CUT = [Fraction(0), Fraction(1, 2**200), Fraction(-1, 2**200)]
OFF_CUT_IDS = ["on", "above", "below"]
# units of Q(i) and 1 +- i: some power of one of them is each of -1, 1, -4
SMALL = [gq(1), gq(-1), gq(0, 1), gq(0, -1), gq(1, 1), gq(1, -1)]


class TestBranchSweep:
    def test_branch_completeness_pairs(self, sweeps):
        for first, second, verdict in branch_completeness_pairs():
            witness_every_branch(first, second, verdict)
        assert len(sweeps) > 200
        assert agree(sweeps)

    @pytest.mark.skipif(not (BENCH / "corpus.py").is_file(), reason="bench/corpus.py is absent")
    @pytest.mark.parametrize("corpus_seed", [3, 7, 11])
    def test_radical_corpus_every_branch(self, sweeps, monkeypatch, corpus_seed):
        # as they are and with both germs times 2^-300
        monkeypatch.syspath_prepend(str(BENCH))
        corpus = importlib.import_module("corpus")
        for pair in corpus.witness_pairs(corpus_seed, 4, radical=True):
            if pair["truth"] == "Equivalent":
                for scale in ("", f"(1/{2**300})*"):
                    first, second = (parse_poly(f"{scale}({pair[side]})")
                                     for side in ("first_text", "second_text"))
                    witness_every_branch(first, second, decide_equivalence(first, second))
        assert len(sweeps) >= 80
        assert agree(sweeps)

    @pytest.mark.parametrize("p, q, m, e_pow, d", CUT_CASES)
    @pytest.mark.parametrize("a_imag", OFF_CUT, ids=OFF_CUT_IDS)
    def test_u_on_the_cut(self, p, q, m, e_pow, d, a_imag):
        # a = -1 on the cut, or 2^-200 above or below it, as the branch of
        # base = a^d that takes it, and r0 with r0^q*(-1)^-m = rhs a positive
        # real; then u = a*beta^p is on the cut, or as far off it on a's side,
        # at jb = 0. Every branch of base is swept
        a = gq(-1) + gq(0, 1) * gq(a_imag)
        r0 = next(r for r in SMALL if (r**q * gq(-1) ** m).im == 0 < (r**q * gq(-1) ** m).re)
        *_, base_alpha = sweep_args(p, q, m, e_pow, r0, a**d, d, 0)
        assert (base_alpha.b == 0) == (a_imag == 0)
        assert agree(sweep_every_branch(p, q, m, e_pow, r0, a**d, d))

    @pytest.mark.parametrize("p, q, m, e_pow, d", CUT_CASES)
    @pytest.mark.parametrize("r0_imag", OFF_CUT, ids=OFF_CUT_IDS)
    def test_rhs_on_the_cut(self, p, q, m, e_pow, d, r0_imag):
        # base = 1, so a = 1 on branch 0, and r0 = z*(1 + r0_imag*i) with z^q
        # a negative real: rhs = r0^q is on the cut, or about q*2^-200 off it
        z = next((r for r in SMALL if (r**q).im == 0 > (r**q).re), None)
        if z is None:
            pytest.skip("no power of a unit or of 1 + i is a negative real here")
        r0 = z * (gq(1) + gq(0, 1) * gq(r0_imag))
        *_, base_beta, _ = sweep_args(p, q, m, e_pow, r0, gq(1), d, 0)
        assert (base_beta.b == 0) == (r0_imag == 0)
        assert agree(sweep_every_branch(p, q, m, e_pow, r0, gq(1), d))

    @pytest.mark.parametrize("d0_bits", [98, 100, 300])
    def test_tiny_d0_passes_every_pair(self, d0_bits):
        # |lhs| = |d0| on every pair, so the tolerance tol*(1 + |d0|) the
        # sweep once had passed every pair for a small enough d0, whatever
        # the angle, and gave the first, (0, 0). The sweep reads r0 = d0/c0
        # alone, and gives the pair whose lhs is d0, which the reference's
        # relative test finds with c0 and d0 at 2^-d0_bits
        args = sweep_args(2, 3, 1, 2, gq(-3, 1), gq(1, 1), 1, 0)
        hit = engine._branch_sweep(*args)
        with mp.workprec(REFERENCE_BITS):
            w, m, e_pow, m_pow, r0, base = args[:6]
            a_num = to_mpc(base)
            c0_num = mpf(2) ** -d0_bits
            want = reference_sweep(w, m, e_pow, m_pow, a_num, to_mpc(r0) ** w.q / a_num,
                                   c0_num, c0_num * to_mpc(r0), REFERENCE_BITS // 2)
        assert hit[:2] == want[:2] != (0, 0)
        assert compare_sweep(args, hit)[2]

    def test_bases_that_are_not_the_system_s_raise(self):
        # base_alpha must be base^M*base_beta^p; times 2 + i, the arguments of
        # the bases are no whole number of turns apart, and the sweep says so
        # rather than take a rounded count of turns
        w, m, e_pow, m_pow, r0, base, d, branch, base_beta, base_alpha = sweep_args(
            2, 3, 1, 2, gq(-3, 1), gq(1, 1), 1, 0)
        for wrong in ((base_beta * gq(2, 1), base_alpha), (base_beta, base_alpha * gq(2, 1))):
            with pytest.raises(InternalInconsistencyError, match="whole number of turns"):
                engine._branch_sweep(w, m, e_pow, m_pow, r0, base, d, branch, *wrong)


def test_radical_witness_does_not_depend_on_precision():
    first, second = parse_poly("Y^2-X^3"), parse_poly("Y^2-3*X^3")
    verdict = decide_equivalence(first, second)
    witnesses = {build_witness(first, second, verdict, 0, precision)
                 for precision in (53, 128, 8192)}
    assert len(witnesses) == 1
