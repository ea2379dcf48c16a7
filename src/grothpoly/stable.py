"""Degree-truncated stable, symmetric, weak, and half-weak Grothendieck
functions, the conjugating involution on symmetric truncations, and the
Q-basis expansion pipeline."""

from __future__ import annotations

from functools import cache, lru_cache
from typing import NamedTuple

from .factorizations import _series
from .polynomials import (
    Polynomial,
    exchange_families,
    poly_sum,
    restrict_variables,
    truncate_degree,
    _check_degree,
)
from .tableaux import (
    conjugate,
    contains,
    genfun_svt,
    oft_count,
    partitions_inside,
    partitions_of,
    _f_tally,
    _hecke_shapes,
)

__all__ = [
    "TruncationSpec",
    "stable_single",
    "stable_double",
    "stable_double_via_tableaux",
    "schur",
    "omega",
    "weak_stable_double",
    "weak_symmetric",
    "halfweak_stable",
    "qschur_expansion",
    "stability_check",
]


class TruncationSpec(NamedTuple):
    """Working window for function-level objects: m variables per
    family, keeping terms of total degree at most D, which the degree
    cap of polynomials bounds."""

    m: int
    D: int


def _check_spec(t: TruncationSpec) -> None:
    if type(t.m) is not int or type(t.D) is not int or t.m < 1 or t.D < 0:
        raise ValueError(f"bad truncation window {t}")
    _check_degree(t.D)


def stable_single(w: tuple[int, ...], t: TruncationSpec) -> Polynomial:
    """
    Truncated stable polynomial of w: the generating polynomial of all
    factorizations of its Hecke words into t.m strictly decreasing
    factors using at most t.D letters, summed over their search graph
    (genfun of enumerate_plain_unbounded lists them).

    >>> from .polynomials import pretty
    >>> pretty(stable_single((2, 1), TruncationSpec(2, 2)))
    'x1 + x2 + x1*x2'
    >>> pretty(stable_single((1, 2, 3), TruncationSpec(3, 4)))
    '1'
    """
    _check_spec(t)
    return _series("plain", w, t.m, t.D)


def stable_double(w: tuple[int, ...], t: TruncationSpec) -> Polynomial:
    """
    Truncated two-sided stable polynomial of w, generated by the
    factorizations with t.m increasing factors left of center and t.m
    decreasing ones right of it, summed over their search graph (genfun
    of enumerate_double_unbounded lists them).

    >>> from .polynomials import pretty
    >>> pretty(stable_double((2, 1), TruncationSpec(1, 2)))
    'x1 + y1 + x1*y1'
    """
    _check_spec(t)
    return _series("double_unbounded", w, t.m, t.D)


def _one_box_per_line(mu: tuple[int, ...], rho: tuple[int, ...]) -> bool:
    """Whether mu/rho has no two boxes in a row or in a column."""
    pad = rho + (0,) * (len(mu) - len(rho))
    cols = []
    for wide, narrow in zip(mu, pad):
        if wide - narrow > 1:
            return False
        if wide > narrow:
            cols.append(narrow)
    return len(cols) == len(set(cols))


# The summand of stable_double_via_tableaux reads only the shape of its
# Hecke tableau, and a tableaux run meets the same few shapes over and
# over, for one permutation and across permutations.  Like the fills of
# genfun_svt, the keys carry the window, so the bound is fixed; a raise
# is never cached.
_SHAPE_CACHE_SIZE = 1024


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape_series(shape: tuple[int, ...], m: int, D: int) -> Polynomial:
    """The summand of one Hecke tableau of the given shape: the sum over
    nested partitions rho inside mu inside the shape, with mu/rho
    scattered, of the set-valued polynomial of shape/rho in x times that
    of the conjugate of mu in y, truncated at degree D."""
    products = (
        truncate_degree(genfun_svt(shape, m, D, inner=rho) * y_part, D)
        for mu in partitions_inside(shape)
        for y_part in [exchange_families(genfun_svt(conjugate(mu), m, D))]
        for rho in partitions_inside(mu)
        if _one_box_per_line(mu, rho)
    )
    return poly_sum(m, products)


def stable_double_via_tableaux(
    w: tuple[int, ...], t: TruncationSpec
) -> Polynomial:
    """
    The tableau model for stable_double: sum over Hecke tableaux T and
    nested partitions rho inside mu inside the shape of T, with mu/rho
    scattered, of the set-valued polynomial of shape(T)/rho in x times
    that of the conjugate of mu in y.
    """
    _check_spec(t)
    shapes = _hecke_shapes(w, t.D).items()
    return poly_sum(
        t.m, (_shape_series(shape, t.m, t.D) * count for shape, count in shapes)
    )


@cache
def schur(shape: tuple[int, ...], m: int) -> Polynomial:
    """
    Schur polynomial in m variables by column-strict fillings; zero
    when the shape has more rows than there are variables.  The value
    is cached, and every call returns the same immutable polynomial.

    >>> from .polynomials import pretty
    >>> pretty(schur((2,), 2))
    'x1^2 + x1*x2 + x2^2'
    >>> pretty(schur((1, 1, 1), 2))
    '0'
    """
    return genfun_svt(shape, m, sum(shape))


@cache
def _schur_items(shape: tuple[int, ...], m: int) -> tuple:
    """The (x_exponents, coefficient) items of schur(shape, m), which has
    no y part, unpacked once and kept next to the cached polynomial."""
    return tuple((xe, c) for (xe, _), c in schur(shape, m).terms.items())


def _eliminate(component: dict, m: int) -> dict:
    """Expand an exponent-vector-to-coefficient map of one homogeneous
    symmetric component into Schur coordinates by leading-term
    subtraction."""
    component = {k: c for k, c in component.items() if c}
    out: dict[tuple[int, ...], int] = {}
    while component:
        lead = max(component)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise ValueError(f"not symmetric: stray monomial {lead}")
        lam = lead[: next(
            (i for i, e in enumerate(lead) if e == 0), len(lead)
        )]
        c = component[lead]
        out[lam] = c
        for exps, sc in _schur_items(lam, m):
            left = component.get(exps, 0) - c * sc
            if left:
                component[exps] = left
            else:
                del component[exps]
    return out


def omega(p: Polynomial, family: str) -> Polynomial:
    """
    The linear involution on symmetric truncations that rewrites each
    homogeneous component of the chosen family in the Schur basis and
    conjugates every indexing partition.  The other family rides along
    as coefficients.

    >>> omega(schur((2,), 3), "x") == schur((1, 1), 3)
    True
    """
    if family not in ("x", "y"):
        raise ValueError(f"unknown family {family!r}")
    if family == "y":
        return exchange_families(omega(exchange_families(p), "x"))
    groups: dict = {}
    for (xe, ye), c in p.terms.items():
        groups.setdefault((ye, sum(xe)), {})[xe] = c
    # the y-part of each partition: its coefficient in every component
    y_parts: dict = {}
    zero = (0,) * p.m
    for (ye, _), component in groups.items():
        for lam, c in _eliminate(component, p.m).items():
            y_parts.setdefault(lam, {})[zero, ye] = c
    images = (
        schur(conjugate(lam), p.m) * Polynomial(p.m, terms)
        for lam, terms in y_parts.items()
    )
    return poly_sum(p.m, images)


def weak_stable_double(w: tuple[int, ...], t: TruncationSpec) -> Polynomial:
    """Image of stable_double under the conjugating involution applied
    to both families."""
    _check_spec(t)
    return omega(omega(stable_double(w, t), "x"), "y")


def weak_symmetric(shape: tuple[int, ...], t: TruncationSpec) -> Polynomial:
    """Image of the one-family set-valued polynomial of the shape under
    the conjugating involution."""
    _check_spec(t)
    return omega(genfun_svt(shape, t.m, t.D), "x")


def halfweak_stable(w: tuple[int, ...], t: TruncationSpec) -> Polynomial:
    """
    Truncated generating polynomial of the hook factorizations of w:
    each factor a circled decreasing set followed by an uncircled
    weakly increasing multiset, summed over their search graph (genfun
    of enumerate_hook lists them).

    >>> from .polynomials import pretty
    >>> pretty(halfweak_stable((1, 2, 3), TruncationSpec(2, 3)))
    '1'
    """
    _check_spec(t)
    return _series("hook", w, t.m, t.D)


def qschur_expansion(w: tuple[int, ...], t: TruncationSpec) -> dict:
    """
    Coefficients of the Q-basis expansion of halfweak_stable at y = x,
    by strict partition, for degrees up to t.D: the count of Hecke
    tableaux per shape, convolved with over flagged fillings and with
    lattice primed tableaux per weight.

    >>> qschur_expansion((1, 2), TruncationSpec(1, 2))
    {(): 1}
    """
    _check_spec(t)
    shape_counts = _hecke_shapes(w, t.D)
    out: dict[tuple[int, ...], int] = {}
    for d in range(t.D + 1):
        for mu in partitions_of(d):
            filled = sum(
                count * oft_count(mu, rho)
                for rho, count in shape_counts.items()
                if contains(mu, rho)
            )
            if not filled:
                continue
            # every nonzero lam, strict and of size d, in partitions_of order
            for lam, f in sorted(_f_tally(mu), reverse=True):
                out[lam] = out.get(lam, 0) + filled * f
    return out


_MODELS = {
    "stable_single": stable_single,
    "stable_double": stable_double,
    "stable_double_via_tableaux": stable_double_via_tableaux,
    "weak_stable_double": weak_stable_double,
    "weak_symmetric": weak_symmetric,
    "halfweak_stable": halfweak_stable,
}


def stability_check(model: str, arg, t: TruncationSpec) -> bool:
    """
    True when widening the window by one variable leaves every
    coefficient on the first t.m variables unchanged.

    >>> stability_check("stable_single", (2, 1), TruncationSpec(2, 2))
    True
    """
    _check_spec(t)
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    fn = _MODELS[model]
    wide = fn(arg, TruncationSpec(t.m + 1, t.D))
    return fn(arg, t) == restrict_variables(wide, t.m)
