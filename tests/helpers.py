"""Shared brute-force helpers and every reference route the tests compare against.

The package keeps one production route per quantity; the independent routes
that check it live here: the full 3-tensor walks, the group algebra of S_N,
the oracle's sweep of a whole coset, the two-block universal sum, the
polynomial-ring Poisson bracket, Lemma 3's exponent bookkeeping, the finite
value through embedding, the displayed braid products, the per-term
``Fraction`` evaluation and the multiplied-out series expansion.  They share
no enumeration with the package, except the generic cancellation of the
universal numerators, which checks only the cancellation and so sums the
package's own profiles, and the full-slice reader, which checks only that
leaving out zero rows and columns changes nothing and so walks the
package's own ``transport``.
"""

import itertools
from fractions import Fraction
from math import factorial, prod

from cosetalg import (
    CosetMatrix,
    EpsPolynomial,
    EpsRingElement,
    Margins,
    MarginOverflow,
    OffDiagonalType,
    bracket,
    commutator,
    embed_offdiagonal,
    multiply,
    r_element,
    structure_constant,
)
from cosetalg.combination import Combination, bilinear
from cosetalg.oracle import classify, compose, coset_partition


def naive_classify(g, n):
    """Intersection recount with explicit sets; independent of oracle.classify."""
    blocks, start = [], 0
    for size in n:
        blocks.append(set(range(start, start + size)))
        start += size
    nu = len(n)
    return tuple(
        tuple(len({g[x] for x in blocks[i]} & blocks[j]) for j in range(nu))
        for i in range(nu)
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def naive_tables(n):
    """All margin matrices by filtering row compositions on their column sums."""
    nu = len(n)
    out = []
    for rows in itertools.product(*(_compositions(n[i], nu) for i in range(nu))):
        if all(sum(rows[i][j] for i in range(nu)) == n[j] for j in range(nu)):
            out.append(tuple(rows))
    return out


def balanced_types(nu, entry_max, star_caps=None):
    """All balanced off-diagonal types with entries <= entry_max, sorted."""
    cells = [(i, j) for i in range(nu) for j in range(nu) if i != j]
    found = []
    for values in itertools.product(range(entry_max + 1), repeat=len(cells)):
        grid = [[0] * nu for _ in range(nu)]
        for (i, j), v in zip(cells, values):
            grid[i][j] = v
        ok = True
        for j in range(nu):
            col = sum(grid[i][j] for i in range(nu) if i != j)
            row = sum(grid[j][i] for i in range(nu) if i != j)
            if col != row or (star_caps is not None and col > star_caps[j]):
                ok = False
                break
        if ok:
            found.append(OffDiagonalType(tuple(tuple(r) for r in grid)))
    found.sort(key=lambda t: t.entries)
    return found


def margins_of(*n):
    return Margins(tuple(n))


# Reference routes: the full 3-tensor walks that the slice convolution in
# ``cosetalg.algebra`` and ``cosetalg.universal`` replaced.  They enumerate
# every tensor one by one and build one Fraction per tensor.


def tensor_sums(a, b, nu):
    """Return (t_entries, c_entries, prod t_ijk!) for every tensor with margins a and b.

    Cells are visited in row-major order of (i, j) and each a_ij is split
    across k under the remaining b-column budgets.
    """
    colrem = [list(row) for row in b]
    t = [[[0] * nu for _ in range(nu)] for _ in range(nu)]
    cells = [(i, j) for i in range(nu) for j in range(nu)]
    results = []

    def after_cell(ci, denom):
        if ci == len(cells):
            if any(v for row in colrem for v in row):
                return
            c = tuple(
                tuple(sum(t[i][j][k] for j in range(nu)) for k in range(nu))
                for i in range(nu)
            )
            results.append((tuple(tuple(map(tuple, plane)) for plane in t), c, denom))
            return
        i, j = cells[ci]
        rem_cols = colrem[j]

        def split(k, rem, denom2):
            if k == nu - 1:
                if rem <= rem_cols[k]:
                    t[i][j][k] = rem
                    rem_cols[k] -= rem
                    after_cell(ci + 1, denom2 * factorial(rem))
                    rem_cols[k] += rem
                    t[i][j][k] = 0
                return
            for v in range(min(rem, rem_cols[k]) + 1):
                t[i][j][k] = v
                rem_cols[k] -= v
                split(k + 1, rem - v, denom2 * factorial(v))
                rem_cols[k] += v
                t[i][j][k] = 0

        split(0, a[i][j], denom)

    after_cell(0, 1)
    return results


def reference_product_terms(a, b, n):
    """Finite structure constants {c: Fraction} of the pair (a, b) by the tensor walk."""
    pref = Fraction(
        prod(factorial(v) for row in a for v in row) * prod(factorial(v) for row in b for v in row),
        prod(factorial(x) for x in n),
    )
    acc = {}
    for _, c, denom in tensor_sums(a, b, len(n)):
        acc[c] = acc.get(c, Fraction(0)) + Fraction(1, denom)
    return {c: pref * v for c, v in acc.items() if v}


def reference_slice_terms(caps, cols, shift, fields):
    """``cosets._slice_terms`` read off every table of the full slice, cell by cell.

    Zero rows and zero columns are walked as well, and every cell, zero or
    not, enters the key through its field and the weight through its
    factorial.
    """
    from cosetalg.cosets import transport

    top = prod(map(factorial, caps))
    out = []
    for table in transport(caps, cols):
        cells = [v for row in table for v in row]
        key = sum(v << shift * f for v, f in zip(cells, fields) if f is not None)
        out.append((key, top // prod(map(factorial, cells))))
    return tuple(out)


# The symmetries of the finite structure constants, written out from their
# definitions: renaming blocks of equal size by a permutation p, and the
# inverse map g -> g^-1 of S_N, which transposes every coset matrix and
# reverses products.  The coefficient of c in a * b equals that of the image
# of c in the product of the images of (a, b), taken in reverse order under
# the inverse map.


def margin_symmetries(n):
    """(p, flip) for every permutation p of S_nu with n[p[i]] == n[i], and either flip."""
    return [
        (p, flip)
        for p in itertools.permutations(range(len(n)))
        if all(n[k] == n[i] for i, k in enumerate(p))
        for flip in (False, True)
    ]


def relabel(grid, p, flip):
    """The image of a coset matrix: transposed when ``flip``, then renamed by p."""
    if flip:
        grid = tuple(zip(*grid))
    return tuple(tuple(grid[i][k] for k in p) for i in p)


def relabel_pair(a, b, p, flip):
    """The image of the factor pair (a, b)."""
    if flip:
        a, b = b, a
    return relabel(a, p, flip), relabel(b, p, flip)


def relabel_terms(terms, p, flip):
    """The image of a product {c: coefficient}."""
    return {relabel(c, p, flip): v for c, v in terms.items()}


def _star(entries, j):
    return sum(entries[i][j] for i in range(len(entries)) if i != j)


def walk_tensors(a, b):
    """Return (t_entries, c_entries) over the admissible universal tensors.

    Free cells t_ijk (j != k) are placed under the column sums b_jk, t_ijj
    is derived from the row sums, and tensors whose c-slice is unbalanced
    are skipped.
    """
    nu = len(a)
    free_pairs = [(j, k) for j in range(nu) for k in range(nu) if j != k]
    t = [[[0] * nu for _ in range(nu)] for _ in range(nu)]
    row_used = [[0] * nu for _ in range(nu)]  # sum over k != j of t[i][j][k]
    results = []

    def finish():
        for i in range(nu):
            for j in range(nu):
                if i != j:
                    v = a[i][j] - row_used[i][j]
                    if v < 0:
                        return
                    t[i][j][j] = v
        c = tuple(
            tuple(
                sum(t[i][m][k] for m in range(nu)) if i != k else 0
                for k in range(nu)
            )
            for i in range(nu)
        )
        for j in range(nu):
            if _star(c, j) != sum(c[j][i] for i in range(nu) if i != j):
                return
        snapshot = tuple(tuple(tuple(col) for col in plane) for plane in t)
        results.append((snapshot, c))

    def place(pi):
        if pi == len(free_pairs):
            finish()
            return
        j, k = free_pairs[pi]

        def split(i, rem):
            if i == nu:
                if rem == 0:
                    place(pi + 1)
                return
            if i == j:
                cap = rem
            else:
                cap = min(rem, a[i][j] - row_used[i][j])
            for v in range(cap + 1):
                t[i][j][k] = v
                if i != j:
                    row_used[i][j] += v
                split(i + 1, rem - v)
                if i != j:
                    row_used[i][j] -= v
                t[i][j][k] = 0

        split(0, b[j][k])

    place(0)
    return results


def reference_universal_terms(a, b):
    """Universal constants {c: EpsRingElement} of the pair (a, b) by the tensor walk.

    Weights are summed as one Fraction per tensor; the polynomial part uses
    the package's per-profile bracket products, which carry the monomial.
    """
    from cosetalg.universal import _profile_poly

    nu = len(a)
    pref = prod(factorial(a[i][j]) * factorial(b[i][j]) for i in range(nu) for j in range(nu))
    a_stars = tuple(_star(a, j) for j in range(nu))
    b_stars = tuple(_star(b, j) for j in range(nu))
    common_den = {
        (j, m): 1 for j in range(nu) for m in range(1, min(a_stars[j], b_stars[j]))
    }
    weights = {}
    for t, c in walk_tensors(a, b):
        denom = prod(factorial(v) for plane in t for col in plane for v in col)
        t_stars = tuple(
            a_stars[j] + sum(t[j][j][k] for k in range(nu) if k != j) for j in range(nu)
        )
        weights[(c, t_stars)] = weights.get((c, t_stars), Fraction(0)) + Fraction(pref, denom)
    numerators = {}
    for (c, t_stars), w in weights.items():
        num = w * _profile_poly(a_stars, b_stars, t_stars)
        numerators[c] = numerators[c] + num if c in numerators else num
    return {
        c: EpsRingElement(nu, num, dict(common_den))
        for c, num in numerators.items()
        if not num.is_zero()
    }


# Reference route for the cancellation in ``universal._product_terms``: the raw
# numerator of every target over the pair's common denominator, cancelled by the
# generic trial division of ``EpsRingElement``, which tries every factor.


def raw_universal_numerators(a, b):
    """(common_den, {c: numerator}) summed from the package's profile weights and polynomials."""
    from cosetalg.universal import _profile_poly, _profile_weights

    nu = len(a)
    a_stars = tuple(_star(a, j) for j in range(nu))
    b_stars = tuple(_star(b, j) for j in range(nu))
    common_den = {
        (j, m): 1 for j in range(nu) for m in range(1, min(a_stars[j], b_stars[j]))
    }
    numerators = {}
    for c, group in _profile_weights(a, b).items():
        for exps, w in group.items():
            t_stars = tuple(a_stars[j] + b_stars[j] - exps[j] for j in range(nu))
            num = w * _profile_poly(a_stars, b_stars, t_stars)
            numerators[c] = numerators[c] + num if c in numerators else num
    return common_den, numerators


def generic_universal_terms(a, b):
    """Universal constants {c: EpsRingElement} of the pair (a, b), each raw
    numerator cancelled against the whole common denominator."""
    common_den, numerators = raw_universal_numerators(a, b)
    return {
        c: EpsRingElement(len(a), num, dict(common_den))
        for c, num in numerators.items()
        if not num.is_zero()
    }


# Test-only constructors and readings of the package's types; production
# builds its ring elements and values through other routes.


def grid_keyed(terms):
    """A product mapping {key: value} re-keyed by each key's entries, with every
    value kept; the reference routes key their targets by grids."""
    out = {c.entries: v for c, v in terms.items()}
    assert len(out) == len(terms)
    return out


def mass(x):
    """The sum of the coefficients of a combination."""
    return sum(x.terms.values(), x._coefficient(0))


def from_polynomial(num):
    """The ring element num / 1."""
    return EpsRingElement(num.nu, num)


def div_by_bracket(x, p, q, j):
    """x divided by the factor product (1 - m*eps_j) for m = p, ..., q-1."""
    den = dict(x.den)
    for m in range(max(p, 1), q):
        den[(j, m)] = den.get((j, m), 0) + 1
    return EpsRingElement(x.nu, x.num, den)


def evaluate(poly, point):
    """The value of poly at a rational point, through the package's ``_evaluate_over``."""
    if len(point) != poly.nu:
        raise ValueError("point dimension mismatch")
    xs = [Fraction(x) for x in point]
    return Fraction(*poly._evaluate_over([(x.numerator, x.denominator) for x in xs]))


# Reference route for ``evaluate`` and ``EpsRingElement.specialize``: one
# Fraction power per term and variable, and one division per denominator factor.


def reference_evaluate(poly, point):
    total = Fraction(0)
    for deg, coeff in poly.terms.items():
        v = Fraction(coeff)
        for x, e in zip(point, deg):
            if e:
                v *= Fraction(x) ** e
        total += v
    return total


def reference_specialize(x, margins):
    n = margins.n
    value = reference_evaluate(x.num, tuple(Fraction(1, k) for k in n))
    for (j, m), mult in x.den.items():
        value /= (1 - Fraction(m, n[j])) ** mult
    return value


# Reference route for ``EpsRingElement.expand``: the numerator times one explicit
# geometric polynomial sum_k m^k eps_j^k per factor and multiplicity, multiplied
# out in full and truncated once at the end.


def truncate(poly, order):
    """The terms of poly of total degree at most order."""
    return EpsPolynomial(poly.nu, {d: c for d, c in poly.terms.items() if sum(d) <= order})


def reference_expand(x, order):
    nu = x.nu
    series = x.num
    for (j, m), mult in x.den.items():
        geometric = EpsPolynomial(
            nu, {tuple(k if i == j else 0 for i in range(nu)): m**k for k in range(order + 1)}
        )
        for _ in range(mult):
            series = series * geometric
    return truncate(series, order)


def lemma3_checks(a, b):
    """Walk the admissible tensors of the pair of grids (a, b) and check Lemma 3.

    At every j the eps_j exponent a*_jj + b*_jj - t*_jjj must equal the
    cross-slice sum of t_ijk over i, k != j, hence be nonnegative, and all
    exponents may vanish only on the target a + b.  Returns the number of
    tensors walked and the list of (tensor, c) that fail.
    """
    nu = len(a)
    a_stars = [_star(a, j) for j in range(nu)]
    b_stars = [_star(b, j) for j in range(nu)]
    target = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    walked = walk_tensors(a, b)
    failures = []
    for t, c in walked:
        exps, cross = [], []
        for j in range(nu):
            t_star = a_stars[j] + sum(t[j][j]) - t[j][j][j]
            exps.append(a_stars[j] + b_stars[j] - t_star)
            cross.append(sum(t[i][j][k] for i in range(nu) for k in range(nu) if i != j != k))
        if exps != cross or min(exps) < 0 or (not any(exps) and c != target):
            failures.append((t, c))
    return len(walked), failures


def finite_constant_via_embedding(a, b, c, margins):
    """Reference value for ``specialize_constant``: embed and use the finite algebra."""
    try:
        mc = embed_offdiagonal(c, margins)
    except MarginOverflow:
        return Fraction(0)
    return structure_constant(embed_offdiagonal(a, margins), embed_offdiagonal(b, margins), mc)


def universal_s(a, b, c):
    """The margin-free two-block structure constant as a ring element.

    Each (sigma, tau) term carries the monomial eps_1^tau eps_2^sigma and the
    bracket ratio with upper cut a+b-tau on the first variable and a+b-sigma
    on the second.  Reduces to (a!)^2 eps_1^a eps_2^a / (((0,a)) ((0,a)))
    at b = a, c = 0.
    """
    total = EpsRingElement.zero(2)
    for sigma in range(0, min(a, b) + 1):
        tau = a + b - c - sigma
        if not 0 <= tau <= min(a, b):
            continue
        coeff = Fraction(
            factorial(a) ** 2 * factorial(b) ** 2,
            factorial(sigma) * factorial(tau) * factorial(a - sigma) * factorial(a - tau)
            * factorial(b - sigma) * factorial(b - tau),
        )
        cut1 = a + b - tau
        cut2 = a + b - sigma
        num = EpsPolynomial.monomial(2, (tau, sigma), coeff)
        num = num * bracket(a, cut1, 0, 2) * bracket(b, cut1, 0, 2)
        num = num * bracket(a, cut2, 1, 2) * bracket(b, cut2, 1, 2)
        den = {(0, m): 1 for m in range(1, cut1)}
        den.update(((1, m), 1) for m in range(1, cut2))
        total = total + EpsRingElement(2, num, den)
    return total


# Reference route for the Poisson bracket: the polynomial ring in the
# off-diagonal coordinates x_ij of gl_nu, with every diagonal x_jj set to 1.
# A polynomial is a {monomial: int} dict and a monomial a frozenset of
# ((i, j), exponent) pairs; no types and no packed keys.


def _monomial(exponents):
    return frozenset((u, e) for u, e in exponents.items() if e)


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exponents = dict(m1)
            for u, e in m2:
                exponents[u] = exponents.get(u, 0) + e
            m = _monomial(exponents)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _coordinate(i, j):
    """x_ij as a polynomial; a diagonal x_jj is the constant 1."""
    return {frozenset(): 1} if i == j else {frozenset({((i, j), 1)}): 1}


def _generator_bracket(u, v):
    """{x_ij, x_kl} = delta_jk x_il - delta_li x_kj."""
    (i, j), (k, l) = u, v
    out = {}
    for sign, hit, (r, s) in ((1, j == k, (i, l)), (-1, l == i, (k, j))):
        if hit:
            for m, c in _coordinate(r, s).items():
                out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _partials(p):
    """{u: the derivative of p by x_u} over the coordinates p holds."""
    out = {}
    for m, c in p.items():
        for u, e in m:
            exponents = dict(m)
            exponents[u] -= 1
            part = out.setdefault(u, {})
            key = _monomial(exponents)
            part[key] = part.get(key, 0) + e * c
    return out


def reference_bracket(p, q):
    """{p, q} from the generator brackets by Leibniz in each slot:
    the sum over coordinates u, v of (dp/dx_u) (dq/dx_v) {x_u, x_v}."""
    out = {}
    dq = _partials(q)
    for u, pu in _partials(p).items():
        for v, qv in dq.items():
            if u[1] == v[0] or v[1] == u[0]:  # else {x_u, x_v} = 0
                for m, c in _poly_mul(_poly_mul(pu, qv), _generator_bracket(u, v)).items():
                    out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def type_monomial(entries):
    """The monomial prod x_ij^(a_ij) of an off-diagonal grid."""
    nu = len(entries)
    return _monomial({(i, j): entries[i][j] for i in range(nu) for j in range(nu) if i != j})


# Reference route for the oracle: the group algebra of S_N, in which the
# coset averages multiply by convolution.


class GroupAlgebraVector(Combination):
    """Sparse exact-rational vector in the group algebra of S_N; the space is N."""

    __slots__ = ()

    @staticmethod
    def _space_of(g):
        return len(g)

    @classmethod
    def delta(cls, g):
        return cls.basis(tuple(g))


def convolve(x, y):
    """Group algebra product: mass of x at g and of y at h lands on h o g."""
    return bilinear(x, y, lambda g, h: {compose(h, g): 1})


def young_average(margins):
    """Uniform average over the Young subgroup; an idempotent."""
    blocks, start = [], 0
    for size in margins.n:
        blocks.append(range(start, start + size))
        start += size
    weight = Fraction(1, prod(factorial(size) for size in margins.n))
    terms = {}
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        img = [0] * margins.N
        for block, perm in zip(blocks, parts):
            for src, dst in zip(block, perm):
                img[src] = dst
        terms[tuple(img)] = weight
    return GroupAlgebraVector(margins.N, terms)


def coset_average(m):
    """The normalized coset sum: weight 1/coset_size on every member."""
    perms = coset_partition(m.margins)[m]
    w = Fraction(1, len(perms))
    return GroupAlgebraVector(m.margins.N, {g: w for g in perms})


def whole_coset_product(a, b):
    """The oracle's product by sweeping the whole b-coset: for the first g0 of
    the a-coset, the share of h in the b-coset with h o g0 in each c-coset.
    Built on ``coset_partition``'s whole-group enumeration, so it shares no
    orbit representative with the oracle."""
    part = coset_partition(a.margins)
    g0 = part[a][0]
    members = part[b]
    counts = {}
    for h in members:
        c = classify(compose(h, g0), a.margins)
        counts[c] = counts.get(c, 0) + 1
    return {c: Fraction(k, len(members)) for c, k in counts.items()}


# The displayed products of transposition averages (braid relations).


def moved_matrix(margins, moves):
    """The diagonal matrix of the margins with, for each 1-based (i, j) in
    ``moves``, one point of block i moved into block j."""
    nu = margins.nu
    grid = [[margins.n[i] if i == j else 0 for j in range(nu)] for i in range(nu)]
    for i, j in moves:
        grid[i - 1][i - 1] -= 1
        grid[i - 1][j - 1] += 1
    return CosetMatrix(tuple(map(tuple, grid)), margins)


def cycle_matrices(i, j, k, margins):
    """The two opposite 3-cycle completions through blocks i, j, k (1-based)."""
    return (
        moved_matrix(margins, [(i, j), (j, k), (k, i)]),
        moved_matrix(margins, [(i, k), (k, j), (j, i)]),
    )


def displayed_product_targets(i, j, k, margins):
    """The product r_jk * r_ij together with its two predicted basis targets.

    The product is supported on exactly two matrices: the chain matrix, with
    off-diagonal units at (i, j), (j, i), (j, k), (k, j), carrying coefficient
    (n_j - 1)/n_j, and the forward 3-cycle matrix, with units at (i, j),
    (j, k), (k, i), carrying 1/n_j.  Returns (product, chain, cycle); the
    chain is None when n_j = 1 (its coefficient vanishes and its matrix
    would need two points in block j).
    """
    product = multiply(r_element(j, k, margins), r_element(i, j, margins))
    chain = None
    if margins.n[j - 1] >= 2:
        chain = moved_matrix(margins, [(i, j), (j, i), (j, k), (k, j)])
    return product, chain, cycle_matrices(i, j, k, margins)[0]


def commutator_witness(i, j, k, margins):
    """The commutator of the (j, k) and (i, j) transposition averages.

    For pairwise distinct indices this is a difference of two basis elements,
    each weighted 1/n_j: the two targets are the diagonal-minus-one matrix
    completed by the two opposite 3-cycles through blocks i, j, k.
    """
    return commutator(r_element(j, k, margins), r_element(i, j, margins))
