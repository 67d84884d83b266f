"""Radical witness roots: branch identification and the pruned branch sweep.

numeric._identify_branch guesses a branch in doubles and checks the guess
against exact._complex_root, with no mpmath call; engine._branch_sweep skips
the (jb, ja) pairs of its sweep that an angle bound in doubles proves to
fail. The mpmath identification and the full sweep they replaced are kept
here as reference_identify_branch and reference_sweep. Identification must
give the reference's branch or raise where it raises, on bases with parts
thousands of bits wide or far below 1, on the axes and the diagonals, at
indices up to 2^40 - 1; the sweep must give the reference's pair and the
same bits of alpha and beta.
"""

import importlib
import os
import subprocess
import sys
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


def reference_identify_branch(base, index, target):
    """The mpmath identification: nearest branch by argument, then a root check."""
    with mp.workprec(index.bit_length() + 64):
        z = to_mpc(base)
        branch = int(mp.nint((index * mp.arg(target) - mp.arg(z)) / (2 * mp.pi))) % index
        if index > 1:
            root = nth_root(z, index, branch)
            if abs(root - target) > abs(root) * mp.sinpi(mpf(1) / index) / 2:
                raise InternalInconsistencyError(
                    "radical branch identification failed: no root is close enough"
                )
    return branch


def outcome(identify, base, index, target):
    try:
        return identify(base, index, target)
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


def moved_root(base, index, branch, prec, fraction, turn):
    """The branch-th root at prec bits, moved by fraction of the distance
    between neighbouring roots in the direction turn*2*pi."""
    with mp.workprec(prec):
        root = nth_root(base, index, branch)
        spacing = 2 * abs(root) * mp.sin(mp.pi / index)
        return root + fraction * spacing * mp.expjpi(2 * mpf(turn))


class TestIdentifyBranch:
    @seed(20261201)
    @SEEDED
    @given(base=bases(), index=indices, data=st.data())
    def test_roots_moved_by_up_to_a_quarter_spacing_keep_their_branch(self, base, index, data):
        branch = data.draw(st.integers(0, index - 1))
        target = moved_root(base, index, branch, data.draw(st.integers(53, 1024)),
                            data.draw(st.floats(0, 0.249)), data.draw(st.floats(0, 1)))
        assert _identify_branch(base, index, target) == branch
        assert reference_identify_branch(base, index, target) == branch

    @seed(20261202)
    @SEEDED
    @given(base=bases(), index=indices.filter(lambda k: k > 1), data=st.data())
    def test_points_past_a_quarter_spacing_raise(self, base, index, data):
        # 0.26 to 0.49 of the spacing from one root is over half of it from the others
        branch = data.draw(st.integers(0, index - 1))
        target = moved_root(base, index, branch, data.draw(st.integers(53, 1024)),
                            data.draw(st.floats(0.26, 0.49)), data.draw(st.floats(0, 1)))
        assert outcome(_identify_branch, base, index, target) == "raises"
        assert outcome(reference_identify_branch, base, index, target) == "raises"

    @seed(20261203)
    @SEEDED
    @given(base=bases(), index=indices.filter(lambda k: k > 1), data=st.data())
    def test_a_point_halfway_between_two_roots_raises(self, base, index, data):
        branch = data.draw(st.integers(0, index - 1))
        with mp.workprec(data.draw(st.integers(53, 1024))):
            target = nth_root(base, index, branch) * mp.expjpi(mpf(1) / index)
        assert outcome(_identify_branch, base, index, target) == "raises"
        assert outcome(reference_identify_branch, base, index, target) == "raises"

    @pytest.mark.parametrize("index", [1, 2, 7, 2**40 - 1])
    def test_zero_base(self, index):
        zero = mpc(0)
        assert _identify_branch(GQ_ZERO, index, zero) == reference_identify_branch(
            GQ_ZERO, index, zero) == 0
        if index > 1:
            assert outcome(_identify_branch, GQ_ZERO, index, mpc(1)) == "raises"
            assert outcome(reference_identify_branch, GQ_ZERO, index, mpc(1)) == "raises"

    @pytest.mark.parametrize("scale", [1.45, 1.9, 3, 2**64, 2**-64, mpf(2) ** 5000])
    @pytest.mark.parametrize("base, index", [
        (gq(5), 2), (gq(0, -7), 2), (gq(3, 3), 3), (_make(2**3000 + 1, -(2**2999), 3), 5)])
    def test_scaled_roots_agree(self, base, index, scale):
        # a root times 1.45 is within the radius for index 2; the rest are past it
        for branch in range(index):
            with mp.workprec(128):
                target = nth_root(base, index, branch) * scale
            assert outcome(_identify_branch, base, index, target) == outcome(
                reference_identify_branch, base, index, target)

    def test_zero_target_of_a_nonzero_base_raises(self):
        assert outcome(_identify_branch, gq(2), 3, mpc(0)) == "raises"
        assert outcome(reference_identify_branch, gq(2), 3, mpc(0)) == "raises"

    @pytest.mark.parametrize("index", [2**40, 2**41 + 3])
    def test_index_at_the_complex_root_limit_raises_value_error(self, index):
        with pytest.raises(ValueError):
            _identify_branch(gq(2), index, mpc(1))

    def test_makes_no_mpmath_call(self):
        # a stand-in target with the mpc's parts: 2^(1/3) to 53 bits, and 0
        code = (
            "import sys\n"
            "from types import SimpleNamespace\n"
            "from qhgerm.exact import gq\n"
            "from qhgerm.numeric import _identify_branch\n"
            "man = round(2 ** (1 / 3) * 2**52)\n"
            "target = SimpleNamespace(_mpc_=((0, man, -52, 53), (0, 0, 0, 0)))\n"
            "assert _identify_branch(gq(2), 3, target) == 0\n"
            "assert 'mpmath' not in sys.modules\n"
        )
        src = Path(engine.__file__).resolve().parent.parent
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert run.returncode == 0, run.stderr


def reference_sweep(w, m, e_pow, m_pow, a_num, rhs_num, c0_num, d0_num, tol_bits):
    """Every (jb, ja) in order until one passes the test, as before pruning."""
    tol_id = mpf(2) ** -tol_bits
    for jb in range(m_pow):
        beta_num = nth_root(rhs_num, m_pow, jb)
        u_num = a_num * beta_num**w.p
        for ja in range(w.q):
            alpha_num = nth_root(u_num, w.q, ja)
            lhs = c0_num * alpha_num**m * beta_num**e_pow
            if abs(lhs - d0_num) <= tol_id * abs(d0_num):
                return jb, ja, alpha_num, beta_num
    raise InternalInconsistencyError("no consistent root branches")


def bits(hit):
    jb, ja, alpha, beta = hit
    return jb, ja, alpha._mpc_, beta._mpc_


@pytest.fixture
def sweeps(monkeypatch):
    """Each call of engine._branch_sweep, as (bits of its hit, bits of reference_sweep's)."""
    seen = []
    sweep = engine._branch_sweep

    def both(*args):
        hit = sweep(*args)
        seen.append((bits(hit), bits(reference_sweep(*args))))
        return hit

    monkeypatch.setattr(engine, "_branch_sweep", both)
    return seen


def witness_every_branch(first, second, verdict):
    for branch in range(witness_branch_count(verdict)):
        build_witness(first, second, verdict, branch)


class TestBranchSweep:
    def test_branch_completeness_pairs(self, sweeps):
        for first, second, verdict in branch_completeness_pairs():
            witness_every_branch(first, second, verdict)
        assert len(sweeps) > 200
        assert all(got == want for got, want in sweeps)

    @pytest.mark.skipif(not (BENCH / "corpus.py").is_file(), reason="bench/corpus.py is absent")
    @pytest.mark.parametrize("corpus_seed", [3, 7, 11])
    def test_radical_corpus_every_branch(self, sweeps, monkeypatch, corpus_seed):
        monkeypatch.syspath_prepend(str(BENCH))
        corpus = importlib.import_module("corpus")
        for pair in corpus.witness_pairs(corpus_seed, 4, radical=True):
            if pair["truth"] == "Equivalent":
                first, second = parse_poly(pair["first_text"]), parse_poly(pair["second_text"])
                witness_every_branch(first, second, decide_equivalence(first, second))
        assert len(sweeps) >= 40
        assert all(got == want for got, want in sweeps)

    @pytest.mark.parametrize("p, q, m, e_pow, m_pow", [
        (1, 2, 1, 1, 4), (2, 3, 1, 2, 4), (2, 3, 2, 1, 8), (3, 4, 1, 3, 6),
        (2, 5, 3, 2, 6), (1, 3, 2, 5, 9), (4, 7, 3, 2, 8), (2, 2, 1, 1, 2)])
    @pytest.mark.parametrize("a_imag", [0, 2**-200, -(2**-200)], ids=["on", "above", "below"])
    def test_u_on_the_cut(self, p, q, m, e_pow, m_pow, a_imag):
        # a = -1 and rhs = 1 make u = a*beta^p a negative real wherever p*jb
        # is a multiple of M; a tiny imaginary part of a puts it just off the
        # cut, on either side. d0 is the value of one such pair, so the sweep
        # must find it (or an earlier pair of the same value)
        w = SimpleNamespace(p=p, q=q)
        with mp.workprec(192):
            a_num, rhs_num, c0_num = mpc(-1, a_imag), mpc(1), mpc(mpf(3) / 7, mpf(-2) / 5)
            for jb in range(m_pow):
                if p * jb % m_pow:
                    continue
                beta = nth_root(rhs_num, m_pow, jb)
                u = a_num * beta**p
                for ja in range(q):
                    d0_num = c0_num * nth_root(u, q, ja)**m * beta**e_pow
                    args = (w, m, e_pow, m_pow, a_num, rhs_num, c0_num, d0_num, 96)
                    assert bits(engine._branch_sweep(*args)) == bits(reference_sweep(*args))

    @pytest.mark.parametrize("d0_bits", [98, 100, 300])
    def test_tiny_d0_passes_every_pair(self, d0_bits):
        # |lhs| = |d0| on every pair, so the tolerance tol*(1 + |d0|) the
        # sweep once had passed every pair here, whatever the angle, and gave
        # the first, (0, 0); relative to |d0| the sweep gives the first pair
        # whose lhs is d0, (0, 1), and d0 is the value of the last one
        w, m, e_pow, m_pow = SimpleNamespace(p=2, q=3), 1, 2, 8
        with mp.workprec(192):
            a_num, rhs_num = mpc(1, 1), mpc(-3, 1)
            c0_num = mpf(2) ** -d0_bits * mp.expjpi(mpf(1) / 3)
            beta = nth_root(rhs_num, m_pow, m_pow - 1)
            alpha = nth_root(a_num * beta**w.p, w.q, w.q - 1)
            d0_num = c0_num * alpha**m * beta**e_pow
            args = (w, m, e_pow, m_pow, a_num, rhs_num, c0_num, d0_num, 96)
            hit = engine._branch_sweep(*args)
            assert bits(hit) == bits(reference_sweep(*args))
            _, _, alpha, beta = hit
            assert abs(c0_num * alpha**m * beta**e_pow - d0_num) < abs(d0_num) * mpf(2) ** -150
        assert hit[:2] == (0, 1)
