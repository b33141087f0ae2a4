"""Built-in case documents.

Each factory returns a plain JSON-able dict in the same shape `run_case`
accepts from a file: a ring presentation plus optional target classes, a
search section, a genus section, and an obstruction section.  Coefficient
vectors and class term lists are always expressed in exponent-vector form so
the documents round-trip through JSON without a parser for printed names.

Degree-2 coordinates are indexed by the ascending basis order of the ring,
e.g. the generators [v1, v2, v3] give the coordinate order [v3, v2, v1].
"""

from __future__ import annotations

from math import comb


def _check_positive(name: str, value: int) -> int:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def cp2_connect_sum() -> dict:
    """Connected sum of two complex projective planes, a 4-manifold."""
    return {
        "name": "cp2-connect-sum",
        "anchor": "connected sum of two complex projective planes",
        "ring": {
            "generators": ["u", "v"],
            "relations": [
                {"lhs": [1, 1], "rhs": []},
                {"lhs": [0, 2], "rhs": [[1, [2, 0]]]},
            ],
            "top_degree": 4,
            "fundamental": [2, 0],
        },
        "targets": {
            "p1": [[6, [2, 0]]],
            "euler": [[4, [2, 0]]],
            "euler_sign_flexible": True,
            "real_rank": 4,
        },
        "candidates": [
            [[1, 2], [0, 1]],
        ],
        "search": {
            "m": 2,
            "bound": {"type": "sum_of_squares", "multipliers": [1]},
        },
        "genus": {
            "congruence": {"chi": 4, "sigma": 2, "quarter_dim": 1},
        },
    }


def su3_t2() -> dict:
    """Quotient of SU(3) by a two-torus, a 6-manifold with chi = 6."""
    return {
        "name": "su3-t2",
        "anchor": "torus quotient of SU(3)",
        "ring": {
            "generators": ["x", "y"],
            "relations": [
                {"lhs": [0, 2], "rhs": [[1, [2, 0]], [-1, [1, 1]]]},
                {"lhs": [3, 0], "rhs": []},
            ],
            "top_degree": 6,
            "fundamental": [2, 1],
        },
        "targets": {
            "p1": [[8, [2, 0]]],
            "euler": [[6, [2, 1]]],
            "euler_sign_flexible": True,
            "real_rank": 6,
        },
        "search": {
            "m": 3,
            "bound": {"type": "sum_of_squares", "multipliers": [0, 1]},
        },
    }


def r_p(q: int = 2) -> dict:
    """Family of 6-manifolds parameterized by q (the even parameter p = 2q).

    The third generator squares to 2q^2 times the first, so the p1 form
    weighs that coordinate (index 0 in the ascending degree-2 basis) by 2q^2
    and bounds it by 2 for every q, while the other two grow with q.
    """
    _check_positive("q", q)
    return {
        "name": "r-p",
        "anchor": f"circle-bundle family member with q = {q}",
        "q": q,
        "ring": {
            "generators": ["v1", "v2", "v3"],
            "relations": [
                {"lhs": [1, 1, 0], "rhs": []},
                {"lhs": [0, 2, 0], "rhs": [[1, [2, 0, 0]]]},
                {"lhs": [0, 0, 2], "rhs": [[2 * q * q, [2, 0, 0]]]},
                {"lhs": [3, 0, 0], "rhs": []},
            ],
            "top_degree": 6,
            "fundamental": [2, 0, 1],
        },
        "targets": {
            "p1": [[6 + 8 * q * q, [2, 0, 0]]],
            "euler": [[8, [2, 0, 1]]],
            "euler_sign_flexible": True,
            "real_rank": 6,
        },
        "search": {
            "m": 3,
            "bound": {"type": "sum_of_squares", "multipliers": [0, 0, 1]},
        },
    }


def r_p_u_variant(q: int = 2) -> dict:
    """The same family presented on the alternate generator basis u1, u2, u3.

    The degree-6 rewrites must precede the degree-4 ones: reducing u1*u2^2
    by the degree-4 squares alone oscillates between u1*u2^2 and u1^2*u2,
    while the explicit degree-6 rules resolve every top-dimensional monomial
    in one step.  No search section: the p1 form is not diagonal in this
    basis, which is why the search runs on the primary presentation.
    """
    _check_positive("q", q)
    p = 2 * q
    return {
        "name": "r-p-u-variant",
        "anchor": f"alternate generator basis for the q = {q} family member",
        "q": q,
        "ring": {
            "generators": ["u1", "u2", "u3"],
            "relations": [
                {"lhs": [3, 0, 0], "rhs": []},
                {"lhs": [0, 3, 0], "rhs": []},
                {"lhs": [2, 1, 0], "rhs": []},
                {"lhs": [1, 2, 0], "rhs": []},
                {"lhs": [0, 0, 3], "rhs": [[-2 * p * p, [1, 1, 1]]]},
                {"lhs": [2, 0, 1], "rhs": [[-2, [1, 1, 1]]]},
                {"lhs": [1, 0, 2], "rhs": [[2 * p, [1, 1, 1]]]},
                {"lhs": [0, 2, 1], "rhs": [[-1, [1, 1, 1]]]},
                {"lhs": [0, 1, 2], "rhs": [[-p, [1, 1, 1]]]},
                {"lhs": [2, 0, 0], "rhs": [[-2, [1, 1, 0]]]},
                {"lhs": [0, 2, 0], "rhs": [[-1, [1, 1, 0]]]},
                {"lhs": [0, 0, 2], "rhs": [[-p, [1, 0, 1]]]},
            ],
            "top_degree": 6,
            "fundamental": [1, 1, 1],
        },
        "targets": {
            "p1": [[-(6 + 8 * q * q), [1, 1, 0]]],
            "euler": [[8, [1, 1, 1]]],
            "euler_sign_flexible": True,
            "real_rank": 6,
        },
    }


def sp2_t2() -> dict:
    """Torus quotient of Sp(2), an 8-manifold; four line bundles."""
    return {
        "name": "sp2-t2",
        "anchor": "inhomogeneous torus quotient of Sp(2)",
        "ring": {
            "generators": ["u", "z"],
            "relations": [
                {"lhs": [2, 0], "rhs": [[2, [0, 2]]]},
                {"lhs": [0, 4], "rhs": []},
            ],
            "top_degree": 8,
            "fundamental": [1, 3],
        },
        "targets": {
            "p1": [[12, [0, 2]]],
            "euler": [[8, [1, 3]]],
            "euler_sign_flexible": True,
            "real_rank": 8,
        },
        "search": {
            "m": 4,
            "bound": {"type": "sum_of_squares", "multipliers": [1, 0]},
        },
    }


def _cpn_ring(n: int) -> dict:
    return {
        "generators": ["h"],
        "relations": [{"lhs": [n + 1], "rhs": []}],
        "top_degree": 2 * n,
        "fundamental": [n],
    }


def cpn_split(n: int = 2) -> dict:
    """Complex projective n-space with the full Chern class as the target.

    A splitting into line bundles would have to reproduce every Chern
    component, so the Euler sign is rigid and the total Chern class is part
    of the target.
    """
    _check_positive("n", n)
    if n < 2:
        raise ValueError("need n >= 2 for a degree-4 class")
    chern = [[comb(n + 1, k), [k]] for k in range(0, n + 1)]
    return {
        "name": "cpn-split",
        "anchor": f"complex projective {n}-space, tangent bundle as a sum of lines",
        "n": n,
        "ring": _cpn_ring(n),
        "targets": {
            "p1": [[n + 1, [2]]],
            "euler": [[n + 1, [n]]],
            "euler_sign_flexible": False,
            "real_rank": 2 * n,
            "chern": chern,
        },
        "search": {
            "m": n,
            "bound": {"type": "sum_of_squares", "multipliers": [1]},
        },
    }


def s2xs2() -> dict:
    """Product of two 2-spheres; positive control, the tangent bundle splits.

    The p1 form 2*sum(a_i*b_i) is indefinite, so no multiplier vector
    certifies a box; the document supplies an explicit acknowledged bound.
    """
    return {
        "name": "s2xs2",
        "anchor": "product of two 2-spheres",
        "ring": {
            "generators": ["u", "v"],
            "relations": [
                {"lhs": [2, 0], "rhs": []},
                {"lhs": [0, 2], "rhs": []},
            ],
            "top_degree": 4,
            "fundamental": [1, 1],
        },
        "targets": {
            "p1": [],
            "euler": [[4, [1, 1]]],
            "euler_sign_flexible": True,
            "real_rank": 4,
        },
        "search": {
            "m": 2,
            "bound": {
                "type": "explicit",
                "per_variable": [3, 3],
                "acknowledged": True,
                "note": "p1 form is indefinite; box chosen to cover the known splitting",
            },
        },
    }


def hp1_presentation() -> dict:
    """Quaternionic projective line (the 4-sphere) as a two-factor quotient."""
    return {
        "name": "hp1-presentation",
        "anchor": "quaternionic projective line",
        "obstruction": {
            "factors": [
                {"family": "A", "rank": 1},
                {"family": "B", "rank": 3},
            ],
            "manifold_dim": 4,
            "euler_nonzero": True,
            "almost_complex_forbidden": True,
            "provenance": "chi = 2 forces a nonzero Euler class; Massey showed "
            "quaternionic projective spaces admit no almost complex structure",
        },
        "genus": {
            "congruence": {"chi": 2, "sigma": 0, "quarter_dim": 1},
        },
    }


def m20_eschenburg() -> dict:
    """A 20-manifold presented with SU(2) x Spin(11) acting; chi = 6, sigma = 0."""
    return {
        "name": "m20-eschenburg",
        "anchor": "20-dimensional two-factor quotient with chi = 6",
        "obstruction": {
            "factors": [
                {"family": "A", "rank": 1},
                {"family": "B", "rank": 5},
            ],
            "manifold_dim": 20,
            "euler_nonzero": True,
            "almost_complex_forbidden": True,
            "provenance": "chi = 6 and sigma = 0 fail the mod-4 congruence, "
            "so no almost complex structure exists",
        },
        "genus": {
            "congruence": {"chi": 6, "sigma": 0, "quarter_dim": 5},
        },
    }


def genus_cpn(n: int = 2) -> dict:
    """Chern-root data for complex projective n-space, n + 1 copies of h."""
    _check_positive("n", n)
    return {
        "name": "genus-cpn",
        "anchor": f"genus polynomial of complex projective {n}-space",
        "n": n,
        "ring": _cpn_ring(n),
        "genus": {
            "roots": [[[1, [1]]] for _ in range(n + 1)],
        },
    }


BUILTIN_CASES = {
    "cp2-connect-sum": cp2_connect_sum,
    "su3-t2": su3_t2,
    "r-p": r_p,
    "r-p-u-variant": r_p_u_variant,
    "sp2-t2": sp2_t2,
    "cpn-split": cpn_split,
    "s2xs2": s2xs2,
    "hp1-presentation": hp1_presentation,
    "m20-eschenburg": m20_eschenburg,
    "genus-cpn": genus_cpn,
}

PARAMETER_NAMES = {
    "r-p": "q",
    "r-p-u-variant": "q",
    "cpn-split": "n",
    "genus-cpn": "n",
}


def list_builtin_cases() -> list[str]:
    return sorted(BUILTIN_CASES)


def builtin_case(name: str, parameter: int | None = None) -> dict:
    if name not in BUILTIN_CASES:
        raise KeyError(f"unknown built-in case {name!r}; see list_builtin_cases()")
    factory = BUILTIN_CASES[name]
    if parameter is None:
        return factory()
    if name not in PARAMETER_NAMES:
        raise ValueError(f"case {name!r} takes no parameter")
    return factory(parameter)
