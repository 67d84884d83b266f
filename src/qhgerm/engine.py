"""Decision engine for right-equivalence of quasihomogeneous plane germs.

Two non-homogeneous quasihomogeneous polynomials with the same weights are
right-equivalent exactly when their ladder root multisets are related by a
scale (weights p > 1) or by an affine scale (p = 1). The matchers here work
at the coefficient level, never through numeric roots, so verdicts on exact
input are exact. The numeric kernel provides an independent second route.

Witness convention: a witness is the substitution
    Psi(X, Y) = (alpha*X, beta*Y + gamma*X^q)
with gamma absent when p > 1, and applying Psi to the first polynomial
reproduces the second exactly: second = first o Psi.
"""

from __future__ import annotations

from math import lcm, log2, pi, remainder, sin, tau

from .errors import (
    AmbiguousClusteringError,
    BranchOutOfRangeError,
    DegenerateConfigurationError,
    InternalInconsistencyError,
    NonConvergenceError,
    NotEquivalentVerdictError,
)
from .exact import (
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    Record,
    UniPoly,
    _exact_root,
    _gaussian_roots,
    _is_radical_product,
    _make,
    gcd_bezout,
)
from .numeric import (
    DEFAULT_PRECISION,
    DEFAULT_TOL,
    NumericMatch,
    _double_polar,
    _identify_branch,
    _nearest_clusters,
    cluster_roots,
    # eval_bivar is not called here, but bench/tracing.py patches engine.eval_bivar
    eval_bivar,
    find_roots,
    nth_root,
    numeric_match,
    refine_roots,
    to_mpc,
)
# parse_poly is not called here, but bench/tracing.py patches engine.parse_poly
from .polyio import MODE_NUMERIC, BivarPoly, X, Y, parse_poly
from .structure import (
    NON_HOMOGENEOUS_QH,
    GermAnalysis,
    analyze_germ,
)

# typing.TYPE_CHECKING without loading typing; type checkers take it as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from mpmath import mpc

# the least working precision in bits, that of a double, that the CLI and
# verify_witness accept
MIN_PRECISION = 53

STATUS_EQUIVALENT = "Equivalent"
STATUS_INEQUIVALENT = "Inequivalent"
STATUS_NOT_APPLICABLE = "NotApplicable"

MODE_AUTO = "auto"


class ScaleClass(Record):
    """All maps carrying one ladder's roots onto another's, one per d-th root of base.

    indices holds the active top-offsets whose coefficient ratios pinned the
    class down; an empty tuple means every nonzero scale works (then d is 1
    and base is 1, so the class degenerates to the single scale 1).

    centers is None for a scale match (p > 1). For an affine match (p = 1)
    it is (c1, c2), and roots map by z -> a*(z - c1) + c2 for every scale a
    in the class, i.e. the shift for a given a is c2 - a*c1.
    """

    __slots__ = ("d", "base", "indices", "centers")


class Verdict(Record):
    """A decision with the two germ analyses it was made from.

    match is the exact route's ScaleClass or the numeric route's
    NumericMatch for an Equivalent verdict, and None otherwise.
    """

    __slots__ = ("status", "mode", "first", "second", "match", "reason")

    @property
    def invariants(self) -> dict:
        return {"first": _side_invariants(self.first), "second": _side_invariants(self.second)}


class RadicalScalar(Record):
    """The branch-th index-th root of an exact Gaussian rational.

    Branch k means the root whose argument is (Arg(base) + 2*pi*k)/index,
    with the principal argument taken in (-pi, pi].
    """

    __slots__ = ("base", "index", "branch", "approx")

    def __str__(self) -> str:
        return f"({self.base})^(1/{self.index}) branch {self.branch} ~ {self.approx}"


class ShearTerm(Record):
    """Shear coefficient given implicitly as alpha_coeff*alpha^q + beta_coeff*beta.

    Used when the shear is algebraic of degree too high for a single radical;
    it is still exact, since both coefficients are Gaussian rationals and the
    witness scalars alpha, beta are pure radicals.
    """

    __slots__ = ("alpha_coeff", "beta_coeff")

    def __str__(self) -> str:
        return f"({self.alpha_coeff})*alpha^q + ({self.beta_coeff})*beta"


class Witness(Record):
    """Coordinate change (alpha*X, beta*Y + gamma*X^q) with second = first o Psi.

    gamma is None exactly when p > 1. Scalars are GaussianRational when an
    exact rational witness exists, RadicalScalar (or ShearTerm for gamma)
    otherwise. scale is the root a of the scale class with alpha^q =
    a*beta^p. branch records which root of the scale class was taken; None
    means the default search that prefers rational witnesses. shears is
    None when p > 1, and for p = 1 the Gaussian rationals (s_pre, s_post)
    with gamma = s_pre*alpha^q + s_post*beta: not printed, and only a hint
    to verify_witness, which proves whatever pair it is given.
    """

    __slots__ = ("alpha", "beta", "gamma", "scale", "weights", "branch", "shears")


class VerificationReport(Record):
    """Outcome of verify_witness. Every check is exact: max_residual and tol
    are "0" and samples 0, fields kept for the shape of the --json report."""

    __slots__ = ("passed", "exact", "max_residual", "tol", "samples", "precision")


def linear_multiset_match(first: UniPoly, second: UniPoly) -> ScaleClass | None:
    """Scale class carrying the roots of first onto the roots of second.

    Both arguments must be monic. Works purely on coefficients: a scale a
    works iff second's coefficient at top-offset i equals a^i times first's,
    for every i. Pairwise ratio consistency is not enough, so the class is
    pinned through a Bezout combination and every ratio is rechecked against
    the resulting base.
    """
    if first.is_zero or second.is_zero:
        raise ValueError("matcher requires nonzero polynomials")
    if first.leading != GQ_ONE or second.leading != GQ_ONE:
        raise ValueError("matcher requires monic polynomials")
    if first.degree != second.degree:
        return None
    degree = first.degree
    active = [i for i in range(1, degree + 1) if not first.coeff_from_top(i).is_zero]
    active_second = [
        i for i in range(1, degree + 1) if not second.coeff_from_top(i).is_zero
    ]
    if active != active_second:
        return None
    if not active:
        return ScaleClass(1, GQ_ONE, (), None)
    ratios = {i: second.coeff_from_top(i) / first.coeff_from_top(i) for i in active}
    d, bez = gcd_bezout(active)
    base = GQ_ONE
    for i, x in zip(active, bez):
        base = base * ratios[i] ** x
    for i in active:
        if ratios[i] != base ** (i // d):
            return None
    return ScaleClass(d, base, tuple(active), None)


def affine_multiset_match(first: UniPoly, second: UniPoly) -> ScaleClass | None:
    """Affine-scale relation between two monic root multisets.

    Centers both multisets on their centroids (an affine map must match
    centroid to centroid), then delegates to the linear matcher and records
    the two centroids as the class's centers.
    """
    if first.degree != second.degree:
        return None
    degree = first.degree
    if degree < 1:
        return ScaleClass(1, GQ_ONE, (), (GQ_ZERO, GQ_ZERO))
    center_first = -first.coeff_from_top(1) / degree
    center_second = -second.coeff_from_top(1) / degree
    inner = linear_multiset_match(first.shift(center_first), second.shift(center_second))
    if inner is None:
        return None
    return ScaleClass(inner.d, inner.base, inner.indices, (center_first, center_second))


def _side_invariants(analysis: GermAnalysis) -> dict:
    form = analysis.canonical
    return {
        "p": analysis.weights.p,
        "q": analysis.weights.q,
        "nu": analysis.weights.nu,
        "class": analysis.germ_class,
        "m": form.m,
        "m0": form.m0,
        "ladderDegree": form.ladder_degree,
        "ord0": analysis.ord_at_origin,
    }


def _numeric_clusters(parts, precision: int, tol: float, den: int = 0):
    """Cluster the roots of a ladder given as its square-free parts, in the
    one loop that raises precision: it doubles, up to 1024 bits, while
    clustering is ambiguous or the root finder does not converge, then rises
    by the bits den*err lacks while some disc has 4*den*err >= 1. A part's
    first pass runs find_roots; a raise polishes its roots (refine_roots).
    Returns the clusters, made once, and each part's roots.

    The root finder only sees the simple roots of one exact part; each
    approximation enters the clustering with its part's multiplicity as a
    weight, so multiple roots do not turn into wide approximation clouds.
    """
    prec, found, clusters = precision, [None] * len(parts), None
    while True:
        try:
            found = [find_roots(part, prec) if roots is None else refine_roots(part, roots, prec)
                     for (part, _), roots in zip(parts, found)]
            if clusters is None:
                clusters = cluster_roots([r for roots in found for r in roots], tol,
                                         [m for (_, m), roots in zip(parts, found) for _ in roots])
            lack = den and max((4 * den * r.err for roots in found for r in roots), default=0)
            if lack < 1:
                return clusters, found
            prec += int(lack).bit_length() + 1
        except (AmbiguousClusteringError, NonConvergenceError):
            if prec >= 1024:
                raise
            prec = min(2 * prec, 1024)


def ladder_roots(ladder: UniPoly, precision: int, tol: float) -> list:
    """Distinct ladder roots as (value, multiplicity, exact) entries.

    value is the mpc center of a cluster (exact False), or the
    GaussianRational root that _rational_roots finds on the square-free
    part of the cluster's multiplicity (exact True) when that cluster's
    center lies nearest the root. The cluster holding a root's
    approximation has its center within tol/2 of it and every other center
    lies at least 3*tol/2 away, so the nearest center (_nearest_clusters)
    is that cluster's; its multiplicity equals the part's only when it
    holds that root alone.
    """
    if ladder.degree < 1:
        return []
    parts = ladder.squarefree_parts()
    den = lcm(*(c.d for c in ladder.monic()[0].coeffs))
    clusters, found = _numeric_clusters(parts, precision, tol, den)
    entries = [(cl.center, cl.multiplicity, False) for cl in clusters]
    exact = [(root, mult) for (part, mult), roots in zip(parts, found)
             for root in _rational_roots(part, den, roots)]
    nearest = _nearest_clusters(clusters, [to_mpc(root) for root, _ in exact])
    for (root, mult), k in zip(exact, nearest):
        if clusters[k].multiplicity == mult:
            entries[k] = (root, mult, True)
    return entries


def _rational_roots(part: UniPoly, den: int, roots: list) -> list:
    """The roots of part in Q(i), read off its discs from _numeric_clusters,
    where 4*den*err < 1. den*r is a Gaussian integer for every root r in
    Q(i) of a ladder, den the lcm of the denominators of the monic ladder
    (rational root theorem in Z[i]), and part is a factor of that ladder. So
    den*z lies within 1/4 of den*r in each component for the root r in the
    disc about z, and rounding den*z gives den*r whenever r is in Q(i). A
    candidate is kept only where part vanishes exactly, and once.
    """
    out = []
    for r in roots:
        candidate = _make(_round_scaled(r.value.real, den), _round_scaled(r.value.imag, den), den)
        if candidate not in out and part.eval(candidate).is_zero:
            out.append(candidate)
    return out


def _round_scaled(x, den: int) -> int:
    """den*x rounded to the nearest integer, exactly, for an mpf x."""
    man, exp = x.man_exp  # man is the modulus of the mantissa
    man = den * (-man if x < 0 else man)
    return man << exp if exp >= 0 else (man + (1 << (-exp - 1))) >> -exp


def decide_equivalence(
    first: BivarPoly,
    second: BivarPoly,
    weights: tuple[int, int] | None = None,
    mode: str = MODE_AUTO,
    precision: int = DEFAULT_PRECISION,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Decide right-equivalence of two germs.

    mode "auto" picks "numeric" when either input carried decimal literals
    and "exact" otherwise; "exact" refuses decimal input rather than
    pretending rounded coefficients are exact. Discrete invariants are
    always compared exactly; only the root matching is mode-dependent.
    """
    if mode not in (MODE_AUTO, "exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < tol < 1:
        raise ValueError("tol must lie strictly between 0 and 1")
    input_numeric = MODE_NUMERIC in (first.mode, second.mode)
    if mode == "exact" and input_numeric:
        raise ValueError(
            "exact mode on input with decimal literals; use numeric or auto"
        )
    eff_mode = "numeric" if (mode == "numeric" or (mode == MODE_AUTO and input_numeric)) else "exact"
    first_a = analyze_germ(first, weights)
    second_a = analyze_germ(second, weights)

    def verdict(status, match=None, reason=None):
        return Verdict(status, eff_mode, first_a, second_a, match, reason)

    if first_a.germ_class != NON_HOMOGENEOUS_QH or second_a.germ_class != NON_HOMOGENEOUS_QH:
        return verdict(
            STATUS_NOT_APPLICABLE,
            reason="the decision procedure covers only non-homogeneous quasihomogeneous "
            f"germs; classes here are {first_a.germ_class} and {second_a.germ_class}",
        )
    w1, w2 = first_a.weights, second_a.weights
    if (w1.p, w1.q) != (w2.p, w2.q):
        return verdict(
            STATUS_NOT_APPLICABLE,
            reason=f"weight types differ: ({w1.p},{w1.q}) vs ({w2.p},{w2.q})",
        )
    if w1.nu != w2.nu:
        return verdict(
            STATUS_INEQUIVALENT, reason=f"weighted degrees differ: {w1.nu} vs {w2.nu}"
        )
    f1, f2 = first_a.canonical, second_a.canonical
    if f1.m != f2.m:
        return verdict(
            STATUS_INEQUIVALENT, reason=f"X-axis multiplicities differ: {f1.m} vs {f2.m}"
        )
    if f1.m0 != f2.m0:
        return verdict(
            STATUS_INEQUIVALENT, reason=f"Y-axis multiplicities differ: {f1.m0} vs {f2.m0}"
        )
    if f1.ladder_degree != f2.ladder_degree:
        raise InternalInconsistencyError(
            "ladder degrees differ although nu, m, m0 agree"
        )
    affine = w1.p == 1
    if eff_mode == "exact":
        match = _exact_match(first_a, second_a)
    else:
        clusters = [_numeric_clusters(f.ladder.squarefree_parts(), precision, tol)[0]
                    for f in (f1, f2)]
        match = numeric_match("affine" if affine else "linear", *clusters, tol)
    if match is None:
        kind = "an affine scale" if affine else "a scale"
        return verdict(
            STATUS_INEQUIVALENT,
            reason=f"ladder root configurations are not related by {kind}",
        )
    return verdict(STATUS_EQUIVALENT, match)


def _exact_match(first_a: GermAnalysis, second_a: GermAnalysis):
    """ScaleClass of the two ladders, affine when p = 1, or None."""
    ladders = first_a.canonical.ladder, second_a.canonical.ladder
    if first_a.weights.p == 1:
        return affine_multiset_match(*ladders)
    return linear_multiset_match(*ladders)


def witness_branch_count(verdict: Verdict) -> int:
    """Number of scale branches available for witness construction."""
    if not isinstance(verdict.match, ScaleClass):
        raise ValueError("branch count is defined by the exact matcher only")
    return verdict.match.d


def _gq_bits(g: GaussianRational) -> int:
    return max(max(abs(x.numerator), x.denominator).bit_length() for x in (g.re, g.im))


def _simplify_scalar(base: GaussianRational, index: int, target: mpc, branch: int):
    """Reduce target, the branch-th index-th root of base, to its lowest radical form.

    If target is the b-th index-th root of base, then target^e is the
    (b mod index/e)-th (index/e)-th root of base for each divisor e of
    index. The first e in ascending order where that root is a Gaussian
    rational g gives target = g^(1/e); e = 1 gives a plain
    GaussianRational, and e = index always matches with g = base.
    """
    from mpmath import mp
    g, e = base, index
    for div in range(1, index):
        if index % div == 0:
            root = _exact_root(base, index // div, branch % (index // div))
            if root is not None:
                g, e = root, div
                break
    if e == 1:
        return g
    if e < index:
        branch = _identify_branch(g, e, target)
    return RadicalScalar(g, e, branch, mp.nstr(target, 20))


def _witness_data(first_a: GermAnalysis, second_a: GermAnalysis):
    f1, f2 = first_a.canonical, second_a.canonical
    w = first_a.weights
    m = f1.m
    m0 = f1.m0 or 0
    degree = f1.ladder_degree
    e_pow = m0 + w.p * degree
    m_pow = w.p * m + w.q * e_pow
    if m_pow != w.nu:
        raise InternalInconsistencyError("exponent bookkeeping disagrees with nu")
    return w, m, e_pow, m_pow, f2.c0 / f1.c0, f1.c0, f2.c0


def _rational_witness(first_a, second_a, match):
    """Search for an all-rational witness; None when no such witness exists.

    Exhaustive over Gaussian-rational roots at every stage, so failure here
    proves every witness for the pair needs an irrational radical.
    """
    w, m, e_pow, m_pow, r0, c0, d0 = _witness_data(first_a, second_a)
    for a in _gaussian_roots(match.base, match.d):
        rhs = r0**w.q * a**-m
        for beta in _gaussian_roots(rhs, m_pow):
            for alpha in _gaussian_roots(a * beta**w.p, w.q):
                if c0 * alpha**m * beta**e_pow == d0:
                    gamma = shears = None
                    if match.centers is not None:
                        c_first, c_second = match.centers
                        gamma, shears = (c_first * a - c_second) * beta, (c_first, -c_second)
                    return Witness(alpha, beta, gamma, a, w, None, shears)
    return None


def _sweep_tries(w, m, e_pow, m_pow, a_num, rhs_num, c0_num, d0_num, tol_bits):
    """For each jb in order, the ja that _branch_sweep must try: every ja but
    those whose pair provably fails its test |lhs - d0| <= tol*|d0|, tol =
    2^-tol_bits.

    lhs = c0*alpha^m*beta^E lies on the ray from 0 at its argument, and d0
    lies at least |d0|*min(1, sin|D|) from that ray, D the angle from d0 to
    lhs in (-pi, pi]. So a pair with min(1, sin|D|) > tol fails, whatever
    |lhs|.

    mpmath's root on branch j has argument (Arg + 2*pi*j)/k, so beta_jb has
    theta = (Arg(rhs) + 2*pi*jb)/M, u = a*beta^p has Arg(u) = Arg(a) +
    p*theta reduced to (-pi, pi], and D = Arg(c0) - Arg(d0) + m*(Arg(u) +
    2*pi*ja)/q + E*theta mod 2*pi. The Args of rhs, a, c0 and d0 are read
    off their mpcs in doubles (_double_polar), on mpmath's side of the cut.
    The sums, of terms up to 2*pi*(m + E + 2) in size, are then within eps
    = (m + E + 8)*(p + 2)*2^-40 of the arguments of the mpcs the sweep
    computes at 96 bits or more. A pair is skipped when |D| - eps, capped
    at pi/2, has a sine above the bound by a factor 2^(2^-20), which
    covers the rounding of the doubles and of mpmath's test. Only Arg(u),
    a sum reduced here and not read off an mpc, can land on the other side
    of the cut from mpmath's, which moves D by 2*pi*m/q: where it lies
    within eps of +-pi, every ja of that jb is tried.
    """
    every = range(w.q)
    arg_d0 = _double_polar(d0_num)[1]
    eps = (m + e_pow + 8) * (w.p + 2) * 2.0**-40
    arg_a, arg_rhs, arg_c0 = (_double_polar(z)[1] for z in (a_num, rhs_num, c0_num))
    lead = arg_c0 - arg_d0
    for jb in range(m_pow):
        theta = (arg_rhs + tau * jb) / m_pow
        arg_u = remainder(arg_a + w.p * theta, tau)
        if pi - abs(arg_u) <= eps:
            yield jb, every
            continue
        delta = lead + e_pow * theta + m * arg_u / w.q
        tries = []
        for ja in every:
            off = abs(remainder(delta + m * tau * ja / w.q, tau)) - eps
            if off <= 0 or log2(sin(min(off, pi / 2))) <= 2.0**-20 - tol_bits:
                tries.append(ja)
        yield jb, tries


def _branch_sweep(w, m, e_pow, m_pow, a_num, rhs_num, c0_num, d0_num, tol_bits):
    """The first pair (jb, ja), in order, with c0*alpha^m*beta^E = d0 to within
    2^-tol_bits*|d0|, where beta is the jb-th M-th root of rhs and
    alpha the ja-th q-th root of u = a*beta^p: (jb, ja, alpha, beta) as mpc
    at the caller's precision. Pairs that _sweep_tries proves to fail are
    not tried, and a jb with no pair left takes no root at all.
    """
    from mpmath import mpf
    tol_id = mpf(2) ** -tol_bits
    for jb, tries in _sweep_tries(w, m, e_pow, m_pow, a_num, rhs_num, c0_num, d0_num,
                                  tol_bits):
        if not tries:
            continue
        beta_num = nth_root(rhs_num, m_pow, jb)
        u_num = a_num * beta_num**w.p
        for ja in tries:
            alpha_num = nth_root(u_num, w.q, ja)
            lhs = c0_num * alpha_num**m * beta_num**e_pow
            if abs(lhs - d0_num) <= tol_id * abs(d0_num):
                return jb, ja, alpha_num, beta_num
    raise InternalInconsistencyError(
        "no consistent root branches for the witness scalar system"
    )


def _radical_witness(first_a, second_a, match, branch, precision):
    """Witness on a chosen scale branch, as exact radicals.

    The scalar system alpha^q = a*beta^p, c0*alpha^m*beta^E = d0 always has
    a complex solution on every branch, found by sweeping root branches
    numerically (_branch_sweep, which skips the pairs that provably miss)
    and then identifying each scalar exactly as a pure radical.
    """
    from mpmath import mp
    w, m, e_pow, m_pow, r0, c0, d0 = _witness_data(first_a, second_a)
    d = match.d
    base = match.base
    base_beta = r0 ** (w.q * d) * base**-m
    base_alpha = r0 ** (w.p * w.q * d) * base ** (w.q * e_pow)
    workbits = max(
        precision + 64, _gq_bits(base_beta) + 96, _gq_bits(base_alpha) + 96
    )
    with mp.workprec(workbits):
        a_num = nth_root(to_mpc(base), d, branch)
        rhs_num = to_mpc(r0) ** w.q * a_num**-m
        _, _, alpha_num, beta_num = _branch_sweep(
            w, m, e_pow, m_pow, a_num, rhs_num, to_mpc(c0), to_mpc(d0), workbits // 2)

        # the scale is on branch; alpha, beta and gamma are on branches to be found
        def radical(value, k, target):
            return _simplify_scalar(value, k, target, _identify_branch(value, k, target))

        beta = radical(base_beta, m_pow * d, beta_num)
        alpha = radical(base_alpha, w.q * d * m_pow, alpha_num)
        scale = _simplify_scalar(base, d, a_num, branch)
        gamma = shears = None
        if match.centers is not None:
            # gamma = c1*alpha^q - c2*beta = (c1*a - c2)*beta, as u*rho with u
            # in Q(i) and rho^(d*M) known: rho = beta when a is rational or
            # c1 = 0 (u = 0 simplifies to gamma = 0), rho = alpha^q when c2 = 0
            c_first, c_second = match.centers
            shears = c_first, -c_second
            if c_first.is_zero or isinstance(scale, GaussianRational):
                u = -c_second if c_first.is_zero else c_first * scale - c_second
                rho, rho_power = beta_num, base_beta
            elif c_second.is_zero:
                u, rho, rho_power = c_first, alpha_num**w.q, base_alpha
            else:
                u = None
            gamma = ShearTerm(c_first, -c_second) if u is None else radical(
                u ** (m_pow * d) * rho_power, m_pow * d, to_mpc(u) * rho)
        return Witness(alpha, beta, gamma, scale, w, branch, shears)


def build_witness(
    first: BivarPoly,
    second: BivarPoly,
    verdict: Verdict | None = None,
    branch: int | None = None,
    precision: int = DEFAULT_PRECISION,
) -> Witness:
    """Construct an explicit coordinate change realizing an equivalence.

    With branch None, searches for an all-rational witness first and falls
    back to radical scalars on the principal branch. An explicit branch
    selects one root of the scale class and always yields radical form
    (reduced to rationals where the branch happens to be rational).

    The witness is built from the verdict's germ analyses and exact match;
    a numeric verdict gets the exact match of its analyses first. The
    verdict must have been decided on first and second.
    """
    if verdict is None:
        verdict = decide_equivalence(first, second)
    if verdict.status != STATUS_EQUIVALENT:
        raise NotEquivalentVerdictError(
            f"cannot build a witness from a {verdict.status} verdict"
        )
    first_a, second_a = verdict.first, verdict.second
    match = verdict.match
    if isinstance(match, NumericMatch):
        match = _exact_match(first_a, second_a)
        if match is None:
            raise NotEquivalentVerdictError(
                "the exact matcher finds no witness; a numeric verdict on "
                "rounded input does not support witness construction"
            )
    if branch is not None:
        if not 0 <= branch < match.d:
            raise BranchOutOfRangeError(f"branch {branch} outside 0..{match.d - 1}")
        return _radical_witness(first_a, second_a, match, branch, precision)
    witness = _rational_witness(first_a, second_a, match)
    if witness is not None:
        return witness
    return _radical_witness(first_a, second_a, match, 0, precision)


def scalar_to_mpc(scalar, precision: int) -> mpc:
    from mpmath import mp
    with mp.workprec(precision + 20):
        if isinstance(scalar, GaussianRational):
            return to_mpc(scalar)
        if isinstance(scalar, RadicalScalar):
            return nth_root(scalar.base, scalar.index, scalar.branch)
    raise TypeError(f"cannot evaluate {type(scalar).__name__} on its own")


def witness_to_mpc(witness: Witness, precision: int) -> tuple:
    """(alpha, beta, gamma) of a witness as mpc at precision + 20 bits.

    gamma is None when the witness has no shear; a ShearTerm is evaluated
    at the numeric alpha and beta.
    """
    from mpmath import mp
    with mp.workprec(precision + 20):
        alpha = scalar_to_mpc(witness.alpha, precision)
        beta = scalar_to_mpc(witness.beta, precision)
        gamma = witness.gamma
        if isinstance(gamma, ShearTerm):
            gamma = (to_mpc(gamma.alpha_coeff) * alpha**witness.weights.q
                     + to_mpc(gamma.beta_coeff) * beta)
        elif gamma is not None:
            gamma = scalar_to_mpc(gamma, precision)
        return alpha, beta, gamma


def verify_witness(
    first: BivarPoly,
    second: BivarPoly,
    witness: Witness,
    precision: int = DEFAULT_PRECISION,
) -> VerificationReport:
    """Prove or refute that applying the witness to first reproduces second.

    All-rational witnesses are verified by exact polynomial substitution,
    radical witnesses by an exact certificate (_certify); either way the
    report is exact, with residual and tol "0" and no samples. A radical
    witness the certificate cannot prove fails. precision must be an int of
    at least MIN_PRECISION bits; the check itself takes none.
    """
    if not isinstance(precision, int) or isinstance(precision, bool):
        raise ValueError(f"precision must be an int, got {type(precision).__name__}")
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    if all(s is None or isinstance(s, GaussianRational)
           for s in (witness.alpha, witness.beta, witness.gamma)):
        x_image = X.scale(witness.alpha)
        y_image = Y.scale(witness.beta)
        if witness.gamma is not None:
            y_image = y_image + BivarPoly.monomial(witness.weights.q, 0, witness.gamma)
        passed = first.substitute(x_image, y_image) == second
    else:
        passed = _certify(first, second, witness)
    return VerificationReport(passed, True, "0", "0", 0, precision)


def _radical(scalar) -> tuple:
    """A witness scalar as (base, index, branch); a Gaussian rational g is (g, 1, 0)."""
    if isinstance(scalar, RadicalScalar):
        return scalar.base, scalar.index, scalar.branch
    return scalar, 1, 0


def _certify(first, second, witness) -> bool:
    """Whether first o Psi = second, proved in Q(i) (exact._is_radical_product
    proves each claim that a Gaussian rational is a product of the
    witness's radicals).

    Shear. For a pair (s_pre, s_post) with gamma = s_pre*alpha^q +
    s_post*beta, Psi = S(s_pre) o D o S(s_post) as maps of the plane, with
    S(s) = (X, Y + s*X^q) and D = (alpha*X, beta*Y); so first o Psi = second
    iff H o D = K, H = first o S(s_pre) and K = second o S(-s_post), both
    exact substitutions. A ShearTerm gamma is its own pair. Else the pair is
    the witness's shears, a hint any pair that passes proves right (none
    means gamma = 0): gamma = s_post*beta when s_pre = 0, s_pre*alpha^q
    when s_post = 0. For p = 1 and a rational scale a, (A) below makes it
    (s_pre*a + s_post)*beta, so the pair (0, s_pre*a + s_post) serves too,
    with one substitution fewer.

    Scaling. H o D = K iff their supports are equal and h_ij*alpha^i*beta^j
    = k_ij on each. Take (i0, j0), the first term, and r0 = k_i0j0/h_i0j0:
    (C) r0 = alpha^i0*beta^j0. A term (i0 + t*q, j0 - t*p) of the weighted
    line then needs (k_ij/h_ij)/r0 = (alpha^q*beta^-p)^t, which is (B)
    a^t once (A) alpha^q = a*beta^p holds; a is the witness's scale, of
    small index, and the wide bases of alpha and beta enter (A) and (C)
    only. Any other term, or every term when (A) fails, is checked as
    k_ij/h_ij = alpha^i*beta^j.
    """
    p, q = witness.weights.p, witness.weights.q
    alpha, beta, scale = map(_radical, (witness.alpha, witness.beta, witness.scale))
    radicals = [alpha, beta, scale]
    gamma = witness.gamma
    if gamma is not None and not isinstance(gamma, ShearTerm):
        radicals.append(_radical(gamma))
    # one enclosure precision for every check, so each root is taken once
    bits = (2 * lcm(*(k for _, k, _ in radicals)) * sum(k for _, k, _ in radicals)).bit_length()
    roots = {}

    def holds(r, factors) -> bool:
        return _is_radical_product(r, factors, bits, roots)

    line = holds(GQ_ONE, ((alpha, q), (scale, -1), (beta, -p)))  # (A)
    if gamma is None:
        s_pre = s_post = GQ_ZERO
    elif isinstance(gamma, ShearTerm):
        s_pre, s_post = gamma.alpha_coeff, gamma.beta_coeff
    else:
        s_pre, s_post = witness.shears or (GQ_ZERO, GQ_ZERO)
        rho = radicals[-1]
        if s_pre.is_zero:
            proved = holds(s_post, ((rho, 1), (beta, -1)))
        elif s_post.is_zero:
            proved = holds(s_pre, ((rho, 1), (alpha, -q)))
        elif p == 1 and isinstance(witness.scale, GaussianRational) and line:
            s_pre, s_post = GQ_ZERO, s_pre * witness.scale + s_post
            proved = holds(s_post, ((rho, 1), (beta, -1)))
        else:
            proved = False
        if not proved:
            return False
    h = first if s_pre.is_zero else first.substitute(X, Y + BivarPoly.monomial(q, 0, s_pre))
    k = second if s_post.is_zero else second.substitute(X, Y - BivarPoly.monomial(q, 0, s_post))
    if h.terms.keys() != k.terms.keys():
        return False
    if not h.terms:
        return True
    (i0, j0), *rest = h.terms
    r0 = k.terms[i0, j0] / h.terms[i0, j0]
    if not holds(r0, ((alpha, i0), (beta, j0))):
        return False
    for i, j in rest:
        ratio = k.terms[i, j] / h.terms[i, j]
        t, off = divmod(i - i0, q)
        if not off and j0 - j == t * p and line:
            if not holds(ratio / r0, ((scale, t),)):
                return False
        elif not holds(ratio, ((alpha, i), (beta, j))):
            return False
    return True


def whitney_quartic(t) -> BivarPoly:
    """The four-line quartic X*Y*(Y-X)*(Y-t*X); t must avoid 0 and 1."""
    t = whitney_configuration(t)[3]
    return X * Y * (Y - X) * (Y - BivarPoly.monomial(1, 0, t))


def whitney_configuration(t) -> tuple:
    """Slopes of the four lines of the quartic, None standing for infinity."""
    t = GaussianRational.of(t)
    if t.is_zero or t == GQ_ONE:
        raise DegenerateConfigurationError(
            f"t = {t} collapses two of the four lines"
        )
    return (None, GQ_ZERO, GQ_ONE, t)


def cross_ratio(z1, z2, z3, z4) -> GaussianRational:
    """Cross-ratio (z1,z2;z3,z4) of four distinct points, None = infinity.

    Factors involving the point at infinity drop in matching numerator and
    denominator pairs, which realizes the limit.
    """
    if len({z1, z2, z3, z4}) < 4:
        raise DegenerateConfigurationError("cross-ratio needs four distinct points")

    def diff(u, v):
        return GQ_ONE if u is None or v is None else GaussianRational.of(u) - v

    num = diff(z1, z3) * diff(z2, z4)
    den = diff(z2, z3) * diff(z1, z4)
    if den.is_zero:
        raise InternalInconsistencyError("distinct points gave a zero denominator")
    value = num / den
    if value.is_zero or value == GQ_ONE:
        raise InternalInconsistencyError("distinct points gave a degenerate ratio")
    return value


def j_from_cross_ratio(lam: GaussianRational) -> GaussianRational:
    """The ordering-free invariant 256*(l^2-l+1)^3 / (l^2*(l-1)^2)."""
    if lam.is_zero or lam == GQ_ONE:
        raise DegenerateConfigurationError("cross-ratio 0 or 1 has no invariant")
    numerator = (lam * lam - lam + GQ_ONE) ** 3 * 256
    denominator = (lam * lam) * (lam - GQ_ONE) ** 2
    return numerator / denominator


def whitney_compare(t_first, t_second) -> dict:
    """Compare two four-line quartics: invariants plus the decider's verdict.

    The quartics are homogeneous, so the germ decider reports NotApplicable;
    the line configurations are still separated exactly by the cross-ratio
    invariant, which is what the comparison returns.
    """
    sides = {}
    for key, t in (("first", t_first), ("second", t_second)):
        config = whitney_configuration(t)
        lam = cross_ratio(*config)
        sides[key] = {
            "t": config[3],
            "poly": whitney_quartic(t),
            "config": config,
            "crossRatio": lam,
            "j": j_from_cross_ratio(lam),
        }
    verdict = decide_equivalence(sides["first"]["poly"], sides["second"]["poly"])
    return {
        "first": sides["first"],
        "second": sides["second"],
        "jEqual": sides["first"]["j"] == sides["second"]["j"],
        "verdict": verdict,
    }
