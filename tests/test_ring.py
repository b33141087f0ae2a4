"""Rewrite arithmetic: reduction, confluence, bases, integration.

Frozen values are checked against hand reductions spelled out in the
assertions; the change-of-basis block substitutes one generator basis into
the other and demands zero residuals.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    RING_IDS,
    RING_REFS,
    all_monomials,
    generator_class,
    random_class,
    random_rules,
    ref_basis_sizes,
    ref_check_confluence,
    ref_first_rule,
    ref_rows,
    ref_table_mul,
    ring_for,
)
from splitcheck.cases import builtin_case, list_builtin_cases
from splitcheck.ring import (
    KERNEL_CACHE_SIZE,
    ConfluenceError,
    DegreeError,
    DivergenceError,
    GradedClass,
    PresentationError,
    RewriteRule,
    RingPresentation,
    basis,
    check_confluence,
    compile_kernels,
    integrate,
    monomials_of_degree,
    normal_form,
    parse_presentation,
    ring_add,
    ring_mul,
    ring_scale,
    ring_sub,
)


def cls(*pairs) -> GradedClass:
    return GradedClass.from_terms(pairs)


# -- frozen reductions ---------------------------------------------------------


def test_su3_cubed_generator_reduction():
    ring = ring_for("su3-t2")
    # y^3 = y*(x^2 - x*y) = x^2*y - x*(x^2 - x*y) = 2*x^2*y
    assert ring.reduce_monomial((0, 3)) == cls(((2, 1), 2))


def test_family_axis_cube_reduction():
    ring = ring_for("r-p", 2)
    # v3^3 = v3*(2*q^2*v1^2) with q = 2
    assert ring.reduce_monomial((0, 0, 3)) == cls(((2, 0, 1), 8))


def test_su3_integration():
    ring = ring_for("su3-t2")
    c = cls(((2, 1), 1), ((1, 2), 3))
    # x*y^2 = x^3 - x^2*y = -x^2*y, so the integrand is (1 - 3)*x^2*y
    assert integrate(ring, c) == -2


def test_integrate_rejects_wrong_degree():
    ring = ring_for("cp2-connect-sum")
    with pytest.raises(DegreeError):
        integrate(ring, cls(((1, 0), 1)))
    with pytest.raises(DegreeError):
        integrate(ring, cls(((0, 0), 1), ((2, 0), 1)))


def test_integrate_zero_class():
    ring = ring_for("cp2-connect-sum")
    assert integrate(ring, GradedClass.zero()) == 0
    # u*v reduces to zero, a legal degree-4 integrand with integral 0
    assert integrate(ring, cls(((1, 1), 5))) == 0


def _basis_sizes(ring: RingPresentation) -> dict[int, int]:
    return {d: len(basis(ring, d)) for d in range(0, ring.top_degree + 1, 2)}


def test_connect_sum_basis_sizes():
    assert _basis_sizes(ring_for("cp2-connect-sum")) == {0: 1, 2: 2, 4: 1}


def test_family_basis_sizes_both_presentations():
    for name in ("r-p", "r-p-u-variant"):
        assert _basis_sizes(ring_for(name, 2)) == {0: 1, 2: 3, 4: 3, 6: 1}


def test_su3_degree4_basis():
    ring = ring_for("su3-t2")
    assert set(basis(ring, 4)) == {(2, 0), (1, 1)}  # x^2 and x*y
    assert basis(ring, 4) == [(1, 1), (2, 0)]  # ascending lex
    # computed once per ring, and no caller can change what the next one gets
    basis(ring, 4).append((0, 2))
    assert basis(ring, 4) == [(1, 1), (2, 0)]


def test_sp2_degree4_basis():
    ring = ring_for("sp2-t2")
    assert basis(ring, 4) == [(0, 2), (1, 1)]  # z^2, u*z


def test_basis_rejects_bad_degree():
    ring = ring_for("cp2-connect-sum")
    with pytest.raises(DegreeError):
        basis(ring, 3)
    with pytest.raises(DegreeError):
        basis(ring, 6)


# frozen: each built-in's fundamental monomial, which fixes its orientation
FUNDAMENTALS = {
    ("cp2-connect-sum", None): (2, 0),  # u^2
    ("su3-t2", None): (2, 1),  # x^2*y
    ("r-p", 2): (2, 0, 1),  # v1^2*v3
    ("r-p-u-variant", 2): (1, 1, 1),  # u1*u2*u3
    ("sp2-t2", None): (1, 3),  # u*z^3
    ("cpn-split", 3): (3,),  # h^n
    ("s2xs2", None): (1, 1),  # u*v
}


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_top_basis_is_fundamental_alone(name, par):
    ring = ring_for(name, par)
    assert ring.fundamental == FUNDAMENTALS[(name, par)]
    assert basis(ring, ring.top_degree) == [ring.fundamental]


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_poincare_symmetric_basis_sizes(name, par):
    ring = ring_for(name, par)
    sizes = [len(basis(ring, d)) for d in range(0, ring.top_degree + 1, 2)]
    assert sizes == sizes[::-1]


# -- presentation validation ---------------------------------------------------


def test_rule_degree_mismatch_rejected():
    with pytest.raises(PresentationError):
        RewriteRule(lhs=(2, 0), rhs=cls(((1, 0), 1)))


def test_rule_lhs_in_rhs_rejected():
    with pytest.raises(PresentationError):
        RewriteRule(lhs=(2, 0), rhs=cls(((2, 0), 1), ((0, 2), 1)))


def test_rule_with_a_fractional_coefficient_rejected():
    """Rule coefficients are integers, so every product of basis monomials is."""
    with pytest.raises(PresentationError, match="not an integer"):
        RewriteRule((2, 0), cls(((0, 2), Fraction(1, 2))))


def _with_constant_rule(doc: dict, at: int) -> dict:
    doc["relations"].insert(at, {"lhs": [0] * len(doc["generators"]), "rhs": []})
    return doc


@pytest.mark.parametrize("doc, where", [
    (_with_constant_rule(builtin_case("cp2-connect-sum")["ring"], 1), "ring.relations[1]"),
    (_with_constant_rule({"generators": ["h"], "relations": [], "top_degree": 2}, 0),
     "ring.relations[0]"),
], ids=["two-generators", "one-generator"])
def test_parse_rejects_a_rule_for_the_constant_monomial(doc, where):
    """A rule 1 -> 0 is refused by the rule itself, named by its index, not
    reported later as a top degree with no fundamental monomial."""
    with pytest.raises(PresentationError) as info:
        parse_presentation(doc)
    assert str(info.value).startswith(f"{where}: rule lhs ("), str(info.value)
    assert "is the constant monomial 1" in str(info.value)


def test_parse_rejects_missing_field():
    with pytest.raises(PresentationError, match=r"^ring is missing field 'top_degree'$"):
        parse_presentation({"generators": ["u"], "relations": []})


def test_parse_rejects_reducible_fundamental():
    """u^2 reduces to 0, so it cannot be the fundamental monomial; u*v and
    v^2 survive in its place and neither is alone."""
    doc = {
        "generators": ["u", "v"],
        "relations": [{"lhs": [2, 0], "rhs": []}],
        "top_degree": 4,
    }
    with pytest.raises(PresentationError) as info:
        parse_presentation(doc)
    assert str(info.value) == "ring.relations: top-degree basis ['v^2', 'u*v'] is not a single monomial"


def test_parse_rejects_fat_top_degree():
    """The fundamental monomial is the top degree's one basis monomial, so
    a top degree with two or none has no fundamental class."""
    for relations, names in [
        # u^2 and v^2 both survive in degree 4
        ([{"lhs": [1, 1], "rhs": []}], "['v^2', 'u^2']"),
        # u^2 = 0 leaves nothing in degree 4
        ([{"lhs": [2], "rhs": []}], "[]"),
    ]:
        generators = ["u", "v"][:len(relations[0]["lhs"])]
        doc = {"generators": generators, "relations": relations, "top_degree": 4}
        with pytest.raises(PresentationError) as info:
            parse_presentation(doc)
        assert str(info.value) == f"ring.relations: top-degree basis {names} is not a single monomial"


def test_nonconfluent_pair_detected():
    # a*b rewrites to either square depending on the rule chosen
    rules = (
        RewriteRule((1, 1), cls(((2, 0), 1))),
        RewriteRule((1, 1), cls(((0, 2), 1))),
    )
    ring = RingPresentation(("a", "b"), rules, top_degree=4)
    with pytest.raises(ConfluenceError) as info:
        check_confluence(ring)
    assert info.value.witness == (1, 1)
    assert info.value.forms == (cls(((2, 0), 1)), cls(((0, 2), 1)))
    assert str(info.value) == (
        "ring.relations: presentation is not confluent: monomial a*b has normal forms a^2 and b^2"
    )


def test_nonconfluent_document_raises_on_parse():
    doc = {
        "generators": ["a", "b"],
        "relations": [
            {"lhs": [1, 1], "rhs": [[1, [2, 0]]]},
            {"lhs": [1, 1], "rhs": [[1, [0, 2]]]},
        ],
        "top_degree": 4,
    }
    with pytest.raises(ConfluenceError, match=r"^ring\.relations: presentation is not confluent: "):
        parse_presentation(doc)


def test_divergent_rules_reported():
    # a^2 -> b^2 -> a^2 + a*b re-enters a^2: reduction cannot terminate
    rules = (
        RewriteRule((2, 0), cls(((0, 2), 1))),
        RewriteRule((0, 2), cls(((2, 0), 1), ((1, 1), 1))),
    )
    ring = RingPresentation(("a", "b"), rules, top_degree=4)
    with pytest.raises(DivergenceError, match=r"^ring\.relations: reduction of .* cycles") as info:
        check_confluence(ring)
    assert info.value.witness in {(2, 0), (0, 2)}


def test_divergent_document_raises_on_parse():
    """A rule list that cycles has no pair of normal forms to report: it is a
    `DivergenceError` with its witness, not a `ConfluenceError`."""
    doc = {
        "generators": ["a", "b"],
        "relations": [
            {"lhs": [2, 0], "rhs": [[1, [0, 2]]]},
            {"lhs": [0, 2], "rhs": [[1, [2, 0]], [1, [1, 1]]]},
        ],
        "top_degree": 4,
    }
    with pytest.raises(DivergenceError, match=r"^ring\.relations: reduction of .* cycles") as info:
        parse_presentation(doc)
    assert not isinstance(info.value, ConfluenceError)
    assert info.value.witness in {(2, 0), (0, 2)}


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_builtin_presentations_confluent(name, par):
    assert check_confluence(ring_for(name, par)) is None


# -- the rule index against the scan of the rule list ----------------------------


_OUTCOMES = {type(None): "confluent", DivergenceError: "diverges", ConfluenceError: "two normal forms"}


def _check_outcome(check, ring: RingPresentation):
    """A confluence check's (type, witness, message, forms): its exception's,
    or None's when it returns None."""
    try:
        return type(check(ring)), None, "", None
    except Exception as exc:
        return type(exc), getattr(exc, "witness", None), str(exc), getattr(exc, "forms", None)


def _assert_index_matches_scan(generators, rules, top: int) -> str:
    """Same first rule at every monomial of degree <= top, the same
    confluence outcome as the scans, each check on a fresh ring, and on a
    confluent ring the same basis sizes; returns which outcome it was."""
    indexed, scanned = (RingPresentation(generators, rules, top) for _ in range(2))
    for mono in all_monomials(indexed):
        assert indexed._first_rule(mono) is ref_first_rule(indexed, mono), mono
    outcome = _check_outcome(check_confluence, indexed)
    assert outcome == _check_outcome(ref_check_confluence, scanned)
    if outcome[0] is type(None):
        assert _basis_sizes(indexed) == ref_basis_sizes(scanned)
    return _OUTCOMES.get(outcome[0], "raised")


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_rule_index_matches_the_scan_on_builtin_rings(name, par):
    ring = ring_for(name, par)
    outcome = _assert_index_matches_scan(ring.generators, ring.rules, ring.top_degree)
    assert outcome == "confluent"


def test_rule_index_matches_the_scan_on_random_rules():
    """240 seeded rule lists over 2-3 generators up to top degree 4-6, with
    repeated lhs and cycling rules among them: every outcome occurs."""
    outcomes = []
    for seed in range(240):
        rng = random.Random(seed)
        n, top = rng.choice((2, 3)), rng.choice((4, 6))
        outcomes.append(_assert_index_matches_scan(
            [f"g{i}" for i in range(n)], random_rules(rng, n, top), top
        ))
    counts = {outcome: outcomes.count(outcome) for outcome in set(outcomes)}
    assert set(counts) == {"confluent", "two normal forms", "diverges"}, counts
    assert min(counts.values()) >= 20, counts


@pytest.mark.parametrize(
    ("name", "par", "steps"),
    [
        ("r-p-u-variant", 2, 9),
        ("r-p", 2, 1),
        ("su3-t2", None, 0),
        ("sp2-t2", None, 0),
        ("s2xs2", None, 0),
        ("cp2-connect-sum", None, 0),
    ],
)
def test_confluence_check_steps_only_later_rules(monkeypatch, name, par, steps):
    """`check_confluence` steps a monomial only by the second and later rules
    that apply there: the first rule's step is the reduction's own."""
    calls = []
    one_step = RingPresentation.one_step

    def counting(self, mono, rule):
        calls.append(mono)
        return one_step(self, mono, rule)

    monkeypatch.setattr(RingPresentation, "one_step", counting)
    parse_presentation(builtin_case(name, par)["ring"])
    assert len(calls) == steps


# -- relation cross-checks for the two family presentations --------------------


def gen(ring: RingPresentation, index: int) -> GradedClass:
    return generator_class(ring, index)


def _cube(ring: RingPresentation, a: GradedClass) -> GradedClass:
    out = ring.one()
    for _ in range(3):
        out = ring_mul(ring, out, a)
    return out


def test_family_alternate_basis_rules_cover_all_cubics():
    """Every degree-6 monomial of the alternate basis reduces to a multiple
    of the fundamental class in one rule application or is already it."""
    ring = ring_for("r-p-u-variant", 2)
    for mono in monomials_of_degree(3, 3):
        nf = ring.reduce_monomial(mono)
        assert nf.is_zero() or set(nf.terms) == {(1, 1, 1)}


def test_family_alternate_basis_square_relations():
    ring = ring_for("r-p-u-variant", 3)  # q = 3, p = 6
    u1, u2, u3 = (gen(ring, i) for i in range(3))
    p = 6
    assert normal_form(ring, ring_mul(ring, u1, u1)) == cls(((1, 1, 0), -2))
    assert normal_form(ring, ring_mul(ring, u2, u2)) == cls(((1, 1, 0), -1))
    assert normal_form(ring, ring_mul(ring, u3, u3)) == cls(((1, 0, 1), -p))
    # u2*(u1 + u2) = 0 and u2^2 = (u1 + u2)^2
    v1 = ring_add(u1, u2)
    assert ring_mul(ring, u2, v1).is_zero()
    assert ring_mul(ring, v1, v1) == normal_form(ring, ring_mul(ring, u2, u2))
    # u3^3 = -2*p^2*u1*u2*u3
    u3_cubed = _cube(ring, u3)
    assert u3_cubed == cls(((1, 1, 1), -2 * p * p))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_family_primary_basis_relations(q):
    ring = ring_for("r-p", q)
    v1, v2, v3 = (gen(ring, i) for i in range(3))
    zero_products = [
        (v1, v2),
    ]
    for a, b in zero_products:
        assert ring_mul(ring, a, b).is_zero()
    assert ring_mul(ring, v2, v2) == cls(((2, 0, 0), 1))
    assert ring_mul(ring, v3, v3) == cls(((2, 0, 0), 2 * q * q))
    assert _cube(ring, v1).is_zero()
    # derived degree-6 consequences
    assert _cube(ring, v2).is_zero()
    assert ring_mul(ring, v1, ring_mul(ring, v2, v3)).is_zero()
    assert ring_mul(ring, v1, ring_mul(ring, v3, v3)).is_zero()
    assert ring_mul(ring, v2, ring_mul(ring, v3, v3)).is_zero()
    assert _cube(ring, v3) == cls(((2, 0, 1), 2 * q * q))
    assert ring_mul(ring, v2, ring_mul(ring, v2, v3)) == cls(((2, 0, 1), 1))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_family_change_of_basis_consistency(q):
    """The primary generators, written in the alternate basis, satisfy every
    primary relation; the fundamental classes disagree by orientation."""
    ring = ring_for("r-p-u-variant", q)
    u1, u2, u3 = (gen(ring, i) for i in range(3))
    v1 = ring_add(u1, u2)
    v2 = u2
    v3 = ring_add(ring_scale(Fraction(q), u1), u3)

    assert ring_mul(ring, v1, v2).is_zero()
    assert ring_sub(ring_mul(ring, v2, v2), ring_mul(ring, v1, v1)).is_zero()
    expected_axis_square = ring_scale(Fraction(2 * q * q), ring_mul(ring, v1, v1))
    assert ring_sub(ring_mul(ring, v3, v3), expected_axis_square).is_zero()
    assert _cube(ring, v1).is_zero()

    # v1^2*v3 integrates to -1: the two presentations orient the fundamental
    # class oppositely
    top = ring_mul(ring, ring_mul(ring, v1, v1), v3)
    assert top == cls(((1, 1, 1), -1))
    assert integrate(ring, top) == -1

    # p1 expressed either way is the same class
    p1_primary = ring_scale(Fraction(6 + 8 * q * q), ring_mul(ring, v1, v1))
    p1_alternate = cls(((1, 1, 0), -(6 + 8 * q * q)))
    assert p1_primary == p1_alternate


# -- algebra laws ---------------------------------------------------------------


def class_strategy(name: str, par):
    ring = ring_for(name, par)
    monos = all_monomials(ring)
    coeff = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    term = st.tuples(st.sampled_from(monos), coeff)
    return st.lists(term, max_size=4).map(GradedClass.from_terms)


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_ring_laws(name, par):
    ring = ring_for(name, par)
    strategy = class_strategy(name, par)

    @given(a=strategy, b=strategy, c=strategy)
    def run(a, b, c):
        assert ring_mul(ring, a, b) == ring_mul(ring, b, a)
        left = ring_mul(ring, ring_mul(ring, a, b), c)
        right = ring_mul(ring, a, ring_mul(ring, b, c))
        assert left == right
        distributed = ring_add(ring_mul(ring, a, c), ring_mul(ring, b, c))
        assert ring_mul(ring, ring_add(a, b), c) == distributed
        assert ring_mul(ring, ring.one(), a) == normal_form(ring, a)
        nf = normal_form(ring, a)
        assert normal_form(ring, nf) == nf

    run()


@pytest.mark.parametrize(("name", "par"), RING_REFS, ids=RING_IDS)
def test_reduction_reaches_basis(name, par):
    """Normal forms only mention irreducible monomials, on every input."""
    ring = ring_for(name, par)
    allowed = {m for d in range(0, ring.top_degree + 1, 2) for m in basis(ring, d)}
    rng = random.Random(20240817)
    for _ in range(200):
        nf = normal_form(ring, random_class(rng, ring))
        assert set(nf.terms) <= allowed


def test_scale_and_subtract_cancel():
    ring = ring_for("su3-t2")
    rng = random.Random(99)
    for _ in range(50):
        a = random_class(rng, ring)
        assert ring_sub(a, a).is_zero()
        tripled = ring_add(a, ring_add(a, a))
        assert ring_scale(Fraction(3), a) == tripled


def test_coefficients_are_ints_or_fractions():
    # a float would carry its binary rounding into the class
    with pytest.raises(TypeError, match="float"):
        cls(((0, 2), 0.5))
    with pytest.raises(TypeError, match="float"):
        ring_scale(0.1, cls(((0, 2), 1)))
    # halves that add up to an integer are stored as an int; cancelled terms leave
    summed = cls(((0, 2), Fraction(1, 2)), ((0, 2), Fraction(1, 2)), ((2, 0), 3), ((2, 0), -3))
    assert summed.terms == {(0, 2): 1} and type(summed.terms[(0, 2)]) is int
    assert summed == cls(((0, 2), Fraction(1)))


# -- compiled tables against the dense reference loops -----------------------------

PARAMETERS = {
    "r-p": (2, 3),
    "r-p-u-variant": (2, 3),
    "cpn-split": (2, 3, 4),
    "genus-cpn": (1, 2, 3, 4),
}
TABLE_RINGS = [
    (name, par)
    for name in list_builtin_cases()
    for par in PARAMETERS.get(name, (None,))
    if "ring" in builtin_case(name, par)
]


def _random_vector(rng: random.Random, size: int, fractions: bool) -> tuple:
    """Coordinates with about one zero in three, Fractions mixed in on request."""
    out = []
    for _ in range(size):
        x = rng.choice((0, rng.randint(-5, 5)))
        if fractions and rng.random() < 0.3:
            x = Fraction(x, rng.randint(2, 5))
        out.append(x)
    return tuple(out)


def cancelling_ring() -> RingPresentation:
    """x^2 = xy - y^2, top degree 6: x^3 = -y^3, the two xy^2 terms of x^2 * x
    cancelling, so two `mul` steps from nonzero entries give a zero one."""
    rule = RewriteRule((2, 0), cls(((1, 1), 1), ((0, 2), -1)))
    return RingPresentation(["x", "y"], [rule], 6)


def huge_ring() -> RingPresentation:
    """x^2 = N y^2 with N = 10^4400 + 7, top degree 6: `str` refuses N on
    Python 3.11 and later, so a kernel that wrote its coefficients into its
    source could not be built."""
    rule = RewriteRule((2, 0), cls(((0, 2), 10**4400 + 7)))
    return RingPresentation(["x", "y"], [rule], 6)


def wide_ring() -> RingPresentation:
    """60 generators, top degree 4, each square and product but the last
    generator's square a multiple of it: a product of two degree-2 classes
    sums 3,600 terms, past what the compiler takes in one expression."""
    n = 60
    fundamental = tuple(int(g == n - 1) * 2 for g in range(n))
    rules = [
        RewriteRule(mono, cls((fundamental, (1, -1, 2, -3)[index % 4])))
        for index, mono in enumerate(monomials_of_degree(n, 2))
        if mono != fundamental
    ]
    return RingPresentation([f"x{g}" for g in range(n)], rules, 4)


EXTRA_RINGS = {"cancel": cancelling_ring, "huge": huge_ring, "wide": wide_ring}


@pytest.mark.parametrize(
    ("name", "par"),
    TABLE_RINGS + [(name, None) for name in EXTRA_RINGS],
    ids=[name if par is None else f"{name}-{par}" for name, par in TABLE_RINGS] + list(EXTRA_RINGS),
)
def test_sparse_tables_match_dense_reference(name, par):
    """`terms` holds exactly the nonzero `ring_mul` entries, and each
    compiled kernel equals the dense loop at its degree."""
    if name in EXTRA_RINGS:
        ring = EXTRA_RINGS[name]()
    else:
        ring = parse_presentation(builtin_case(name, par)["ring"])
    tables = ring.tables
    bases, rows = tables.bases, ref_rows(ring)
    for k, terms in enumerate(tables.terms):
        assert all(z != 0 for _, _, _, z in terms)
        assert sorted(terms) == sorted(
            (i, j, t, z)
            for i, row in enumerate(rows[k])
            for j, entry in enumerate(row)
            for t, z in enumerate(entry)
            if z
        )
    rng = random.Random(sum(map(ord, f"sparse-{name}-{par}")))
    r = len(bases[1])
    assert len(tables.kernels) == len(tables.terms)
    for k, kernel in enumerate(tables.kernels):
        for trial in range(25):
            a = _random_vector(rng, len(bases[k]), fractions=trial % 2 == 1)
            b = _random_vector(rng, r, fractions=trial % 3 == 2)
            assert kernel(a, b) == ref_table_mul(bases, rows, k, a, b)


def _rp_tables(q: int):
    return parse_presentation(builtin_case("r-p", q)["ring"]).tables


def test_one_table_is_compiled_once_per_process():
    """Two parses of one document share one kernels tuple; r-p at q = 2
    and q = 3 have different tables, so different kernels."""
    assert _rp_tables(2).kernels is _rp_tables(2).kernels
    two, three = _rp_tables(2), _rp_tables(3)
    assert two.terms != three.terms
    assert two.kernels is not three.kernels
    a = tuple(range(1, len(two.bases[1]) + 1))
    assert two.kernels[1](a, a) != three.kernels[1](a, a)


def test_kernel_cache_is_bounded():
    """After KERNEL_CACHE_SIZE + 1 distinct tables, at most KERNEL_CACHE_SIZE are kept."""
    tables = [_rp_tables(q) for q in range(1, KERNEL_CACHE_SIZE + 2)]
    assert len({tuple(t.terms) for t in tables}) == KERNEL_CACHE_SIZE + 1
    for t in tables:
        t.kernels
    assert compile_kernels.cache_info().currsize <= KERNEL_CACHE_SIZE
