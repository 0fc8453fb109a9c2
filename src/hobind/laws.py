"""Randomized and exhaustive sweeps of the binding laws.

Each runner checks one law family over an exhaustive small-term sweep
plus seeded random instances, returning a report with the failures
rendered in the canonical textual forms. The checks compare terms
through ``db_key`` so a deliberately broken key function (used by the
mutation smoke tests) surfaces as law violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .binder import (
    AppCase,
    ConstCon,
    ConstErr,
    ConstVar,
    Exotic,
    Identity,
    LAM,
    LamCase,
    abstr,
    abstr_2,
    classify,
    ground_samples,
)
from .expr import from_db, to_db
from .named_lambda import alpha_eq, decode, encode, gen_named_term, pretty
from .openterm import (
    Hole,
    OpenTerm,
    enumerate_db_terms,
    enumerate_open_terms,
    exotic_library,
    gen_open_term,
    reflect1,
    reflect2,
    reify1,
    to_text as ot_text,
)
from .terms import Abs, App, Con, DbTerm, Err, Var, proper, to_text
from .expr import NotProper


def db_key(t: DbTerm) -> str:
    """Canonical key used for term comparisons in the sweeps."""
    return to_text(t)


@dataclass
class LawReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


_EXHAUSTIVE_DEPTH_CAP = 3  # deeper exhaustive sweeps grow past millions of terms


def _open_terms(arity: int, depth: int, count: int, seed: int) -> Iterator[OpenTerm]:
    """Every open term up to the exhaustive depth cap, then ``count``
    draws of depth ``depth`` seeded ``seed``, ``seed + 1``, ...
    """
    yield from enumerate_open_terms(arity, min(depth, _EXHAUSTIVE_DEPTH_CAP))
    for i in range(count):
        yield gen_open_term(arity, depth, seed=seed + i)


def check_lam_injectivity(depth: int, seed: int, count: int) -> LawReport:
    """Distinct open terms have distinct binder images, and equal ones
    equal images, over exhaustive pairs plus random pairs.
    """
    report = LawReport("lam-injectivity")
    buckets: dict[str, OpenTerm] = {}
    for ot in _open_terms(1, depth, 0, 0):
        key = db_key(to_db(LAM(reflect1(ot))))
        report.checked += 1
        seen = buckets.get(key)
        if seen is None:
            buckets[key] = ot
        elif seen != ot:
            report.failures.append(
                f"equal binder images for distinct bodies: {ot_text(seen)} vs {ot_text(ot)}"
            )
    for i in range(count):
        a = gen_open_term(1, depth, seed=seed * 1_000_003 + 2 * i)
        b = gen_open_term(1, depth, seed=seed * 1_000_003 + 2 * i + 1)
        key_a = db_key(to_db(LAM(reflect1(a))))
        key_b = db_key(to_db(LAM(reflect1(b))))
        report.checked += 1
        if (key_a == key_b) != (a == b):
            report.failures.append(
                f"injectivity mismatch: {ot_text(a)} vs {ot_text(b)}"
            )
    return report


def _expected_shape(ot: OpenTerm):
    match ot.body:
        case Hole(_):
            return Identity
        case Con(_):
            return ConstCon
        case Var(_):
            return ConstVar
        case Err():
            return ConstErr
        case App(_, _):
            return AppCase
        case Abs(_):
            return LamCase
    raise AssertionError


def check_characterization(depth: int, seed: int, count: int) -> LawReport:
    """Classification picks exactly the disjunct the body head dictates,
    and the exotic variant appears exactly for non-syntactic closures.
    """
    report = LawReport("characterization")
    for ot in _open_terms(1, depth, count, seed * 999_983):
        fn = reflect1(ot)
        got = classify(fn)
        report.checked += 1
        if not isinstance(got, _expected_shape(ot)):
            report.failures.append(
                f"classified {ot_text(ot)} as {type(got).__name__}"
            )
        elif not abstr(fn):
            report.failures.append(f"syntactic body flagged exotic: {ot_text(ot)}")
    for name, fn in exotic_library(1):
        report.checked += 1
        if classify(fn) != Exotic() or abstr(fn):
            report.failures.append(f"exotic closure not flagged: {name}")
    return report


def check_abstr2_componentwise(depth: int, seed: int, count: int) -> LawReport:
    """The pair-binder check accepts every syntactic two-argument closure,
    and each exotic one in the library is rejected and has a rejected
    one-argument slice with the other argument fixed to a ground term.
    """
    report = LawReport("abstr-2-componentwise")
    for ot in _open_terms(2, depth, count, seed * 888_887):
        report.checked += 1
        if not abstr_2(reflect2(ot)):
            report.failures.append(f"syntactic pair closure rejected: {ot_text(ot)}")
    for name, fn in exotic_library(2):
        report.checked += 1
        if abstr_2(fn):
            report.failures.append(f"exotic pair closure accepted: {name}")
            continue
        slices = [lambda x, g=g: fn(x, g) for g in ground_samples()]
        slices += [lambda y, g=g: fn(g, y) for g in ground_samples()]
        if all(abstr(s) for s in slices):
            report.failures.append(f"exotic pair closure has no failing slice: {name}")
    return report


def check_round_trips(depth: int, seed: int, count: int) -> LawReport:
    """Reification, the proper-layer morphisms, and the object-language
    codec all invert as stated.
    """
    report = LawReport("round-trips")
    for ot in _open_terms(1, depth, count, seed * 777_743):
        report.checked += 1
        if reify1(reflect1(ot)) != ot:
            report.failures.append(f"reify/reflect mismatch: {ot_text(ot)}")
    for t in enumerate_db_terms(5):
        report.checked += 1
        if proper(t):
            if db_key(to_db(from_db(t))) != db_key(t):
                report.failures.append(f"morphism round trip broke: {to_text(t)}")
        else:
            try:
                from_db(t)
                report.failures.append(f"dangling term accepted: {to_text(t)}")
            except NotProper:
                pass
    for i in range(count):
        t = gen_named_term(12, seed=seed * 555_557 + i)
        report.checked += 1
        if not alpha_eq(decode(encode(t)), t):
            report.failures.append(f"codec round trip broke: {pretty(t)}")
    return report


def run_all(depth: int, seed: int, count: int) -> list[LawReport]:
    return [
        check_lam_injectivity(depth, seed, count),
        check_characterization(depth, seed, count),
        check_abstr2_componentwise(depth, seed, count),
        check_round_trips(depth, seed, count),
    ]
