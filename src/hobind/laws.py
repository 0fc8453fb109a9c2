"""Randomized and exhaustive sweeps of the binding laws.

Each runner checks one law family over an exhaustive small-term sweep
plus seeded random instances, returning a report with the failures
rendered in the canonical textual forms. The checks compare terms
through ``db_key`` so a deliberately broken key function (used by the
mutation smoke tests) surfaces as law violations.

Each law draws all its random cases, in order, from one stream
(``_stream``), so the first ``k`` do not depend on ``count``.
"""

from __future__ import annotations

import itertools
import random
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
    classify,
    ground_samples,
)
from .expr import NotProper, from_db, to_db
from .named_lambda import _draw_named_term, alpha_eq, decode, encode, pretty
from .openterm import (
    Hole,
    OpenTerm,
    _draw_open_term,
    enumerate_db_terms,
    enumerate_open_terms,
    exotic_library,
    reflect,
    reify,
    to_text as ot_text,
)
from .terms import Abs, App, Con, DbTerm, Err, Var, proper, to_text


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


def _stream(law: str, seed: int) -> random.Random:
    # string seeds go through SHA-512: the same cases in every process and
    # Python version, and different ones for each law
    return random.Random(f"{law}:{seed}")


def _open_terms(arity: int, depth: int, count: int = 0,
                rng: random.Random | None = None) -> Iterator[OpenTerm]:
    """Every open term up to the exhaustive depth cap, then ``count`` drawn from ``rng``."""
    yield from enumerate_open_terms(arity, min(depth, _EXHAUSTIVE_DEPTH_CAP))
    for _ in range(count):
        yield _draw_open_term(rng, arity, depth)


def check_lam_injectivity(depth: int, seed: int, count: int) -> LawReport:
    """Distinct open terms have distinct binder images, and equal ones
    equal images, over exhaustive pairs plus random pairs.
    """
    report = LawReport("lam-injectivity")
    buckets: dict[str, OpenTerm] = {}
    for ot in _open_terms(1, depth):
        key = db_key(to_db(LAM(reflect(ot))))
        report.checked += 1
        seen = buckets.get(key)
        if seen is None:
            buckets[key] = ot
        elif seen != ot:
            report.failures.append(
                f"equal binder images for distinct bodies: {ot_text(seen)} vs {ot_text(ot)}"
            )
    rng = _stream(report.name, seed)
    for _ in range(count):
        a, b = _draw_open_term(rng, 1, depth), _draw_open_term(rng, 1, depth)
        key_a = db_key(to_db(LAM(reflect(a))))
        key_b = db_key(to_db(LAM(reflect(b))))
        report.checked += 1
        if (key_a == key_b) != (a == b):
            report.failures.append(
                f"injectivity mismatch: {ot_text(a)} vs {ot_text(b)}"
            )
    return report


# the classification each open-term body's head constructor dictates
_EXPECTED_SHAPE = {Hole: Identity, Con: ConstCon, Var: ConstVar, Err: ConstErr,
                   App: AppCase, Abs: LamCase}


def check_characterization(depth: int, seed: int, count: int) -> LawReport:
    """Classification picks exactly the disjunct the body head dictates,
    and the exotic variant appears exactly for non-syntactic closures.
    """
    report = LawReport("characterization")
    for ot in _open_terms(1, depth, count, _stream(report.name, seed)):
        fn = reflect(ot)
        got = classify(fn)
        report.checked += 1
        if not isinstance(got, _EXPECTED_SHAPE[type(ot.body)]):
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
    for ot in _open_terms(2, depth, count, _stream(report.name, seed)):
        report.checked += 1
        if not abstr(reflect(ot), 2):
            report.failures.append(f"syntactic pair closure rejected: {ot_text(ot)}")
    for name, fn in exotic_library(2):
        report.checked += 1
        if abstr(fn, 2):
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
    rng = _stream(report.name, seed)
    # a random case is an open term and a named term, drawn in that order
    drawn = [(_draw_open_term(rng, 1, depth), _draw_named_term(rng, 12)) for _ in range(count)]
    for ot in itertools.chain(_open_terms(1, depth), (ot for ot, _ in drawn)):
        report.checked += 1
        if reify(reflect(ot)) != ot:
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
    for _, t in drawn:
        report.checked += 1
        if not alpha_eq(decode(encode(t)), t):
            report.failures.append(f"codec round trip broke: {pretty(t)}")
    return report


def run_all(depth: int, seed: int, count: int) -> list[LawReport]:
    checks = (check_lam_injectivity, check_characterization,
              check_abstr2_componentwise, check_round_trips)
    return [check(depth, seed, count) for check in checks]
