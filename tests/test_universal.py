import itertools
import random
import sys
from fractions import Fraction
from math import factorial

import pytest

from cosetalg import (
    AlgebraElement,
    EpsPolynomial,
    EpsRingElement,
    Margins,
    MarginOverflow,
    OffDiagonalType,
    UniversalElement,
    candidate_outputs,
    embed_offdiagonal,
    multiply,
    specialize_constant,
    strip_diagonal,
    universal_multiply,
    universal_product,
    universal_structure_constant,
)
from cosetalg import epsring, universal
from cosetalg.errors import InvariantViolation

from helpers import (
    balanced_types,
    evaluate_over,
    finite_constant_via_embedding,
    generic_universal_terms,
    grid_keyed,
    lemma3_checks,
    margin_symmetries,
    raw_universal_numerators,
    reference_expand,
    reference_specialize,
    reference_universal_terms,
    relabel,
    relabel_pair,
    universal_profiles,
    walk_tensors,
)


def two_block(a):
    return OffDiagonalType(((0, a), (a, 0)))


def walked(a, b, c):
    """The tensors of the reference walk over the pair (a, b) that land on c."""
    return {t for t, got in walk_tensors(a.entries, b.entries) if got == c.entries}


def brute_tensor_scan(a, b, c):
    """Independent enumeration: scan all bounded tensors, test every condition.

    Per-cell caps just restate nonnegativity plus the sum condition the scan
    itself checks, so they prune nothing admissible.
    """
    nu = a.nu
    cells = [
        (i, j, k)
        for i in range(nu)
        for j in range(nu)
        for k in range(nu)
        if not (i == j == k)
    ]
    caps = [
        b.entries[j][k] if j != k else a.entries[i][j]
        for (i, j, k) in cells
    ]
    found = set()
    for values in itertools.product(*(range(cap + 1) for cap in caps)):
        t = [[[0] * nu for _ in range(nu)] for _ in range(nu)]
        for (i, j, k), v in zip(cells, values):
            t[i][j][k] = v
        ok = True
        for j in range(nu):
            for k in range(nu):
                if j != k and sum(t[i][j][k] for i in range(nu)) != b.entries[j][k]:
                    ok = False
        for i in range(nu):
            for j in range(nu):
                if i != j and sum(t[i][j][k] for k in range(nu)) != a.entries[i][j]:
                    ok = False
        for i in range(nu):
            for k in range(nu):
                if i != k and sum(t[i][j][k] for j in range(nu)) != c.entries[i][k]:
                    ok = False
        if not ok:
            continue
        # coupled diagonal condition at every index
        for j in range(nu):
            a_side = a.star(j) + sum(t[j][j][k] for k in range(nu) if k != j)
            b_side = b.star(j) + sum(t[i][j][j] for i in range(nu) if i != j)
            c_side = c.star(j) + sum(t[j][m][j] for m in range(nu) if m != j)
            if not (a_side == b_side == c_side):
                ok = False
        if ok:
            found.add(tuple(tuple(tuple(col) for col in plane) for plane in t))
    return found


def test_enumerate_tensors_zero_pair():
    zero = OffDiagonalType.zero(2)
    (only,) = walked(zero, zero, zero)
    assert all(v == 0 for plane in only for row in plane for v in row)
    assert walked(zero, zero, two_block(1)) == set()


@pytest.mark.parametrize("nu,entry_max", [(2, 2), (3, 1)])
def test_sum_target_contains_standard_tensor(nu, entry_max):
    for a in balanced_types(nu, entry_max):
        for b in balanced_types(nu, entry_max):
            expected = [
                [[0] * nu for _ in range(nu)] for _ in range(nu)
            ]
            for i in range(nu):
                for j in range(nu):
                    if i != j:
                        expected[i][j][j] = a.entries[i][j]
                        expected[i][i][j] = b.entries[i][j]
            expected = tuple(tuple(tuple(col) for col in plane) for plane in expected)
            assert expected in walked(a, b, a + b)


def test_enumerate_tensors_vs_brute_force():
    a = two_block(1)
    b = two_block(1)
    for c in [two_block(0), two_block(1), two_block(2)]:
        assert walked(a, b, c) == brute_tensor_scan(a, b, c)


def test_enumerate_tensors_vs_brute_force_nu3():
    types = balanced_types(3, 1)
    cycle = types[1]  # some nonzero type
    assert cycle.entries != OffDiagonalType.zero(3).entries
    for c in candidate_outputs(cycle, cycle):
        assert walked(cycle, cycle, c) == brute_tensor_scan(cycle, cycle, c)


def test_candidate_outputs_zero():
    zero = OffDiagonalType.zero(3)
    assert candidate_outputs(zero, zero) == [zero]


def test_candidate_outputs_two_block():
    a = two_block(1)
    outs = candidate_outputs(a, a)
    assert two_block(0) in outs
    assert two_block(2) in outs
    # exhaustive: a 2x2 type is determined by one value; scan values up to 4
    want = [v for v in range(5) if walked(a, a, two_block(v))]
    assert [t.entries[0][1] for t in outs] == want


def test_candidate_outputs_reuse_the_cached_product(monkeypatch):
    # the targets are read off the cached product, so listing them and then
    # asking for the product runs the convolution once
    universal._product_terms.cache_clear()
    calls = []
    convolve = universal._convolve

    def counted(slices):
        calls.append(len(slices))
        return convolve(slices)

    monkeypatch.setattr(universal, "_convolve", counted)
    a, b = balanced_types(3, 2)[7], balanced_types(3, 2)[12]
    outs = candidate_outputs(a, b)
    assert len(outs) > 1 and sorted(universal_product(a, b)) == outs
    assert calls == [3]


def test_equal_targets_of_universal_products_are_one_object():
    # products and brackets at one nu share the interned target types: equal
    # targets of two products, or of a product and a bracket, are one object
    from cosetalg import cosets, poisson

    universal._product_terms.cache_clear()
    poisson._bracket_basis.cache_clear()
    cosets._intern_tables.cache_clear()
    types = balanced_types(3, 1)
    rng = random.Random(37)
    seen = {}
    shared = 0
    for _ in range(30):
        a, b = rng.choice(types), rng.choice(types)
        for c in universal_product(a, b):
            if c in seen:
                assert c is seen[c]
                shared += 1
            seen.setdefault(c, c)
    assert shared > 30
    met = 0
    for x, y in itertools.product(types[:8], repeat=2):
        for c in poisson._bracket_basis(x, y):
            if c in seen:
                assert c is seen[c]
                met += 1
    assert met


@pytest.mark.parametrize("nu,entry_max", [(2, 2), (3, 1)])
def test_candidate_outputs_contain_sum(nu, entry_max):
    for a in balanced_types(nu, entry_max):
        for b in balanced_types(nu, entry_max):
            assert (a + b) in candidate_outputs(a, b)


def test_diagonal_free_constant_closed_form():
    # s^0_{a,a} = (a!)^2 eps1^a eps2^a / (((0,a;eps1)) ((0,a;eps2)))
    from cosetalg import bracket

    for a in range(0, 6):
        got = universal_structure_constant(two_block(a), two_block(a), two_block(0))
        want_num = EpsPolynomial.monomial(2, (a, a), factorial(a) ** 2)
        want_den = {}
        for m in range(1, a):
            want_den[(0, m)] = 1
            want_den[(1, m)] = 1
        want = EpsRingElement(2, want_num, want_den)
        assert got == want
        assert dict(got.den) == want_den  # canonical: no hidden cancellation left


def test_constant_term_is_graded_product():
    for a in balanced_types(2, 2):
        for b in balanced_types(2, 2):
            for c, coeff in universal_product(a, b).items():
                const = coeff.expand(0).coefficient((0, 0))
                assert const == (1 if c == a + b else 0)


def test_simple_cross_constant():
    got = universal_structure_constant(two_block(1), two_block(1), two_block(0))
    assert got == EpsRingElement(2, EpsPolynomial.monomial(2, (1, 1), 1))


def test_universal_constant_builds_zero_only_on_a_miss(monkeypatch):
    r = two_block(1)
    hit = universal_structure_constant(r, r, two_block(0))
    assert hit == EpsRingElement(2, EpsPolynomial.monomial(2, (1, 1), 1))
    built = []
    zero = EpsRingElement.zero

    def counting(nu):
        built.append(nu)
        return zero(nu)

    monkeypatch.setattr(EpsRingElement, "zero", counting)
    assert universal_structure_constant(r, r, two_block(0)) is hit and not built
    miss = universal_structure_constant(r, r, two_block(3))
    assert miss == zero(2) and type(miss) is EpsRingElement and miss.num.is_zero()
    assert built == [2]


def test_unit_element():
    for nu, entry_max in [(2, 2), (3, 1)]:
        unit = UniversalElement.unit(nu)
        for t in balanced_types(nu, entry_max):
            x = UniversalElement.basis(t)
            assert universal_multiply(unit, x) == x
            assert universal_multiply(x, unit) == x


def test_associativity_sampled():
    import random

    rng = random.Random(7)
    pool3 = balanced_types(3, 2)
    pool2 = balanced_types(2, 2)
    triples = [tuple(rng.choice(pool3) for _ in range(3)) for _ in range(4)]
    triples += [tuple(rng.choice(pool2) for _ in range(3)) for _ in range(4)]
    for a, b, c in triples:
        x, y, z = map(UniversalElement.basis, (a, b, c))
        assert universal_multiply(universal_multiply(x, y), z) == universal_multiply(
            x, universal_multiply(y, z)
        )


def test_commutator_divisible_by_eps():
    for a in balanced_types(2, 2):
        for b in balanced_types(2, 2):
            fwd = universal_product(a, b)
            bwd = universal_product(b, a)
            for c in set(fwd) | set(bwd):
                diff = fwd.get(c, EpsRingElement.zero(2)) - bwd.get(c, EpsRingElement.zero(2))
                assert diff.expand(0).coefficient((0, 0)) == 0


@pytest.mark.parametrize("n", [(2, 2), (1, 2, 2)])
def test_specialization_matches_finite_algebra(n):
    margins = Margins(n)
    types = balanced_types(margins.nu, max(n), star_caps=n)
    for a in types:
        for b in types:
            fin_targets = set()
            for c, coeff in universal_product(a, b).items():
                value = coeff.specialize(margins)
                want = finite_constant_via_embedding(a, b, c, margins)
                assert value == want
                if any(c.star(j) > n[j] for j in range(margins.nu)):
                    assert value == 0
                else:
                    fin_targets.add(c)
            # every finite product target is covered by a universal candidate
            fin = multiply(
                AlgebraElement.basis(embed_offdiagonal(a, margins)),
                AlgebraElement.basis(embed_offdiagonal(b, margins)),
            )
            assert {strip_diagonal(m) for m in fin.terms} <= set(
                universal_product(a, b)
            )


def test_finite_product_matches_universal_at_large_diagonal():
    # near n = 10**6 the finite weights are binomial products whose cost does not
    # grow with the diagonal; the universal constants, built at the star margins
    # and specialised, are the independent route.  Every pair of the nu=3,
    # entries <= 1 grid and a seeded sample of the entries <= 2 grid.
    margins = Margins((10**6, 10**6 + 1, 10**6 + 3))
    ones, twos = balanced_types(3, 1), balanced_types(3, 2)
    pairs = list(itertools.product(ones, repeat=2))
    pairs += random.Random(16).sample(list(itertools.product(twos, repeat=2)), 200)
    for a, b in pairs:
        fin = multiply(
            AlgebraElement.basis(embed_offdiagonal(a, margins)),
            AlgebraElement.basis(embed_offdiagonal(b, margins)),
        )
        want = {c: v for c, coeff in universal_product(a, b).items()
                if (v := coeff.specialize(margins))}
        assert {strip_diagonal(m): v for m, v in fin.terms.items()} == want


@pytest.mark.parametrize("nu,entry_max", [(2, 3), (3, 1)])
def test_universal_tensors_are_finite_tensors_at_star_margins(nu, entry_max):
    # at margins n_j = a*_j + b*_j every universal tensor of (a, b) is a finite
    # tensor of the embedded pair, so the finite product reaches exactly the
    # candidate types, with the universal constants specialised at n
    for a, b in itertools.product(balanced_types(nu, entry_max), repeat=2):
        margins = Margins(tuple(max(1, a.star(j) + b.star(j)) for j in range(nu)))
        fin = multiply(
            AlgebraElement.basis(embed_offdiagonal(a, margins)),
            AlgebraElement.basis(embed_offdiagonal(b, margins)),
        )
        stripped = {strip_diagonal(m): v for m, v in fin.terms.items()}
        assert sorted(stripped) == candidate_outputs(a, b), (a, b)
        for c, value in stripped.items():
            assert specialize_constant(a, b, c, margins) == value, (a, b, c)


def test_specialize_constant_zero_on_overflowing_target():
    margins = Margins((2, 2))
    a = two_block(2)
    b = two_block(2)
    c = two_block(3)  # star 3 > 2
    assert c in candidate_outputs(a, b)
    assert specialize_constant(a, b, c, margins) == 0


def test_specialize_constant_precondition():
    margins = Margins((2, 4))
    with pytest.raises(MarginOverflow) as err:
        specialize_constant(two_block(3), two_block(1), two_block(2), margins)
    assert err.value.j == 1


def test_lemma3_trivial_pair():
    zero = OffDiagonalType.zero(2).entries
    assert lemma3_checks(zero, zero) == (1, [])


@pytest.mark.parametrize("nu,entry_max", [(2, 2), (3, 1)])
def test_lemma3_exhaustive(nu, entry_max):
    for a in balanced_types(nu, entry_max):
        for b in balanced_types(nu, entry_max):
            assert lemma3_checks(a.entries, b.entries)[1] == []


def test_universal_element_equality_and_sum():
    a = two_block(1)
    x = UniversalElement.basis(a)
    two_x = x + x
    assert two_x.coefficient(a) == EpsRingElement.from_rational(2, 2)
    assert (two_x - x) == x


def _canonical_forms(terms):
    return {c: (v.num.terms, v.den) for c, v in terms.items()}


def _check_against_tensor_walk(pairs):
    product_terms = universal._product_terms.__wrapped__
    for a, b in pairs:
        got = grid_keyed(product_terms(a.entries, b.entries))
        want = reference_universal_terms(a.entries, b.entries)
        assert _canonical_forms(got) == _canonical_forms(want), (a, b)


def test_constants_match_tensor_walk_nu3():
    types = balanced_types(3, 1)
    _check_against_tensor_walk(itertools.product(types, repeat=2))


def test_constants_match_tensor_walk_nu4_sampled():
    types = balanced_types(4, 1)
    rng = random.Random(0)
    _check_against_tensor_walk([(rng.choice(types), rng.choice(types)) for _ in range(100)])


@pytest.mark.parametrize(
    "a,b",
    [
        (((0, 255), (255, 0)), ((0, 2), (2, 0))),
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), ((0, 0, 255), (255, 0, 0), (0, 255, 0))),
    ],
)
def test_constants_match_tensor_walk_with_two_byte_fields(a, b):
    # a*_j + b*_j = 257 does not fit a byte, so every packed field of the pair,
    # those of the degree rows too, is two bytes wide; both orders of the pair
    a, b = OffDiagonalType(a), OffDiagonalType(b)
    assert max(a.star(j) + b.star(j) for j in range(a.nu)) == 257
    _check_against_tensor_walk([(a, b), (b, a)])


def _check_against_generic(pairs):
    product_terms = universal._product_terms.__wrapped__
    for a, b in pairs:
        got = grid_keyed(product_terms(a.entries, b.entries))
        want = generic_universal_terms(a.entries, b.entries)
        assert _canonical_forms(got) == _canonical_forms(want), (a, b)


def test_cancellation_matches_generic_nu2():
    _check_against_generic(itertools.product(balanced_types(2, 5), repeat=2))


def test_cancellation_matches_generic_nu3_sampled():
    # a seeded third of the 2,025 pairs; the whole grid takes about 20 s
    pairs = list(itertools.product(balanced_types(3, 2), repeat=2))
    _check_against_generic(random.Random(0).sample(pairs, 675))


def test_cancellation_matches_generic_nu4_first():
    _check_against_generic(itertools.islice(itertools.product(balanced_types(4, 1), repeat=2), 1500))


def test_numerators_build_one_polynomial_per_target(monkeypatch):
    # the costliest nu=4 pair of the benchmark's universal round at seed 1
    # (1,911 tensors): every target's numerator is summed in place and built
    # once, with no intermediate polynomial per profile or per addition; the
    # only other polynomials are the quotients of ``divide_out``
    a = ((0, 0, 1, 1), (1, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0))
    b = ((0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0))
    callers = []
    make = EpsPolynomial._make.__func__

    def counted(cls, space, terms):
        callers.append(sys._getframe(1).f_code.co_name)
        return make(cls, space, terms)

    monkeypatch.setattr(EpsPolynomial, "_make", classmethod(counted))
    terms = universal._product_terms.__wrapped__(a, b)
    assert len(terms) == 1156
    assert callers.count("_product_terms") == len(terms)
    assert set(callers) == {"_product_terms", "_unchain"}


def _candidates(a, b):
    """The factors (j, m) of the common denominator of the pair of grids (a, b),
    m in [1, min(a*_j, b*_j)), in candidate order."""
    a, b = OffDiagonalType(a), OffDiagonalType(b)
    return [(j, m) for j in range(a.nu) for m in range(1, min(a.star(j), b.star(j)))]


def _sampled_pairs(nu, entry_max, sample):
    types = balanced_types(nu, entry_max)
    pairs = [(a.entries, b.entries) for a in types for b in types]
    pairs = [(a, b) for a, b in pairs if _candidates(a, b)]
    return random.Random(nu).sample(pairs, min(len(pairs), sample))


@pytest.mark.parametrize("nu,entry_max,sample", [(2, 5, 60), (3, 2, 60), (4, 1, 60)])
def test_divisors_are_the_candidates_that_cancel(nu, entry_max, sample):
    # the divisors read off the profile weights are exactly the candidates that
    # the generic route's trial division removes, and every denominator lists
    # the candidates it keeps in candidate order
    cancelled = 0
    for a, b in _sampled_pairs(nu, entry_max, sample):
        got = grid_keyed(universal._product_terms.__wrapped__(a, b))
        candidates = _candidates(a, b)
        want = generic_universal_terms(a, b)
        assert got.keys() == want.keys()
        for c, value in got.items():
            assert list(value.den) == [f for f in candidates if f in want[c].den], (a, b, c)
            cancelled += len(candidates) - len(value.den)
    assert cancelled or nu == 2  # no pair of the nu=2 grid has a divisor


@pytest.mark.parametrize("nu,entry_max,sample", [(3, 2, 60), (4, 1, 60)])
def test_one_profile_targets_keep_every_candidate(nu, entry_max, sample):
    # a lone profile's sum w * g_j(m, e_j) is never 0, so a target of one profile
    # has no divisor: its constant is the profile over the whole common
    # denominator, in candidate order
    single = 0
    for a, b in _sampled_pairs(nu, entry_max, sample):
        candidates = _candidates(a, b)
        got = grid_keyed(universal._product_terms.__wrapped__(a, b))
        want = generic_universal_terms(a, b)
        for c, group in universal_profiles(a, b).items():
            if len(group) > 1:
                continue
            assert _canonical_forms({c: got[c]}) == _canonical_forms({c: want[c]}), (a, b, c)
            assert list(got[c].den) == candidates, (a, b, c)
            single += 1
    assert single


def test_false_zero_pair_lists_no_divisor():
    # one target of this pair vanishes at eps = (2, 3, 1), a point of the
    # hyperplane eps_3 = 1, yet (1 - eps_3) does not divide it: the rule lists
    # no divisor for any target
    a = ((0, 0, 2), (0, 0, 0), (2, 0, 0))
    b = ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    common_den, numerators = raw_universal_numerators(a, b)
    candidates = list(common_den)
    assert (2, 1) in candidates
    assert evaluate_over(numerators[b], [(2, 1), (3, 1), (1, 1)])[0] == 0
    got = grid_keyed(universal._product_terms.__wrapped__(a, b))
    assert _canonical_forms(got) == _canonical_forms(generic_universal_terms(a, b))
    assert all(list(v.den) == candidates for v in got.values())


def test_a_listed_divisor_that_does_not_divide_raises(monkeypatch):
    # the rule is exact, so a failed division is a bug: it raises, also under -O.
    # The pair's target c below has the divisors (1 - 2*eps_2) and (1 - 2*eps_3);
    # with a division that divides nothing, the smallest is named
    a = ((0, 1, 1), (1, 0, 2), (1, 2, 0))
    b = ((0, 2, 2), (2, 0, 1), (2, 1, 0))
    c = ((0, 1, 1), (1, 0, 3), (1, 3, 0))
    got = universal._product_terms.__wrapped__(a, b)
    assert list(got[OffDiagonalType(c)].den) == [(0, 1), (1, 1), (2, 1)]
    monkeypatch.setattr(EpsPolynomial, "divide_out", lambda self, factors: (self, dict(factors)))
    with pytest.raises(InvariantViolation, match=r"\(1 - 2\*eps_2\) does not divide N_"):
        universal._product_terms.__wrapped__(a, b)


def _fitted(a, b):
    return Margins(tuple(max(1, a.star(j), b.star(j)) for j in range(a.nu)))


def test_specialize_matches_reference_nu3():
    for a, b in itertools.product(balanced_types(3, 1), repeat=2):
        margins = _fitted(a, b)
        for c, coeff in universal_product(a, b).items():
            assert coeff.specialize(margins) == reference_specialize(coeff, margins), (a, b, c)


def _tops(poly):
    return tuple(map(max, zip(*poly.terms)))


@pytest.mark.parametrize("nu,entry_max,sample", [(3, 2, 40), (4, 1, 40)])
def test_specialize_weight_table_matches_reference(nu, entry_max, sample):
    # one weight table per margins, met at the fitted margins and at margins
    # raised by 0-2 per block, so that the tables are both hit and missed and
    # grow as constants of higher degree arrive; some constants had a factor
    # divided out, which lowers their top degrees below their raw numerator's
    epsring._weight_table.cache_clear()
    types = balanced_types(nu, entry_max)
    rng = random.Random(nu)
    lowered = 0
    met = set()
    for _ in range(sample):
        a, b = rng.choice(types), rng.choice(types)
        _, raw = raw_universal_numerators(a.entries, b.entries)
        fitted = _fitted(a, b).n
        raised = tuple(n + rng.randrange(3) for n in fitted)
        for c, coeff in universal_product(a, b).items():
            lowered += _tops(coeff.num) != _tops(raw[c.entries])
            for margins in (Margins(fitted), Margins(raised)):
                met.add(margins.n)
                assert coeff.specialize(margins) == reference_specialize(coeff, margins), (a, b, c)
    info = epsring._weight_table.cache_info()
    assert info.hits and info.misses and lowered
    assert info.misses == len(met)


def _relabel_constant(x, p):
    # variable i of the image is variable p[i] of x
    back = {k: i for i, k in enumerate(p)}
    num = EpsPolynomial(x.nu, {tuple(d[k] for k in p): v for d, v in x.num.terms.items()})
    return EpsRingElement(x.nu, num, {(back[j], m): mult for (j, m), mult in x.den.items()})


def test_universal_product_equivariant_sampled():
    # the image of a product under S_3 and the flip (a, b, c) -> (b^T, a^T, c^T)
    # is the product of the images, its constants with their variables renamed
    pairs = list(itertools.product(balanced_types(3, 2), repeat=2))
    symmetries = margin_symmetries((1, 1, 1))
    for a, b in random.Random(9).sample(pairs, 30):
        terms = grid_keyed(universal_product(a, b))
        for p, flip in symmetries:
            image = relabel_pair(a.entries, b.entries, p, flip)
            got = grid_keyed(universal_product(*map(OffDiagonalType, image)))
            want = {relabel(c, p, flip): _relabel_constant(v, p) for c, v in terms.items()}
            assert got == want, (a, b, p, flip)


def test_coefficients_are_exact_nu3():
    # no float anywhere; numerators and their series are integral by construction
    for a, b in itertools.product(balanced_types(3, 1), repeat=2):
        margins = _fitted(a, b)
        for coeff in universal_product(a, b).values():
            assert all(type(v) is int for v in coeff.num.terms.values()), (a, b)
            assert all(type(v) is int for v in coeff.expand(1).terms.values()), (a, b)
            assert type(coeff.specialize(margins)) in (int, Fraction), (a, b)


def test_expand_matches_reference_nu3():
    # chain-by-chain series division against the multiplied-out geometric series
    for a, b in itertools.product(balanced_types(3, 1), repeat=2):
        for c, coeff in universal_product(a, b).items():
            for order in range(4):
                assert coeff.expand(order) == reference_expand(coeff, order), (a, b, c, order)


def test_rebuild_over_cubed_denominator_nu3():
    # num * D^2 over D^3 cancels every factor twice, back to the same canonical form
    for a, b in itertools.product(balanced_types(3, 1), repeat=2):
        for coeff in universal_product(a, b).values():
            d = coeff.den_polynomial()
            tripled = {key: 3 * mult for key, mult in coeff.den.items()}
            rebuilt = EpsRingElement(3, coeff.num * d * d, tripled)
            assert (rebuilt.num.terms, rebuilt.den) == (coeff.num.terms, coeff.den), (a, b)
