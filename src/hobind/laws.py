"""Randomized and exhaustive sweeps of the binding laws.

Each law checks one law family over an exhaustive small-term sweep plus
seeded random instances. ``LAWS`` maps its name to its case generator,
which yields one verdict per check: the failure rendered in the canonical
textual forms, or None. One runner, ``run_law``, builds a law's report:
it counts the checks and collects the failures. The checks compare terms
through ``db_key`` so a deliberately broken key function (used by the
mutation smoke tests) surfaces as law violations.

The runner hands each law one stream (``_stream``), from which the law
draws all its random cases in order, so the first ``k`` do not depend on
``count``.
"""

from __future__ import annotations

import itertools
import random
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


class LawReport:
    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[str] = []

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


def lam_injectivity(depth: int, rng: random.Random, count: int) -> Iterator[str | None]:
    """Distinct open terms have distinct binder images, and equal ones
    equal images, over exhaustive pairs plus random pairs.
    """
    buckets: dict[str, OpenTerm] = {}
    for ot in _open_terms(1, depth):
        seen = buckets.setdefault(db_key(to_db(LAM(reflect(ot)))), ot)
        yield None if seen == ot else (
            f"equal binder images for distinct bodies: {ot_text(seen)} vs {ot_text(ot)}")
    for _ in range(count):
        a, b = _draw_open_term(rng, 1, depth), _draw_open_term(rng, 1, depth)
        same = db_key(to_db(LAM(reflect(a)))) == db_key(to_db(LAM(reflect(b))))
        yield None if same == (a == b) else f"injectivity mismatch: {ot_text(a)} vs {ot_text(b)}"


# the classification each open-term body's head constructor dictates
_EXPECTED_SHAPE = {Hole: Identity, Con: ConstCon, Var: ConstVar, Err: ConstErr,
                   App: AppCase, Abs: LamCase}


def characterization(depth: int, rng: random.Random, count: int) -> Iterator[str | None]:
    """Classification picks exactly the disjunct the body head dictates,
    and the exotic variant appears exactly for non-syntactic closures.
    """
    for ot in _open_terms(1, depth, count, rng):
        fn = reflect(ot)
        got = classify(fn)
        if not isinstance(got, _EXPECTED_SHAPE[type(ot.body)]):
            yield f"classified {ot_text(ot)} as {type(got).__name__}"
        else:
            yield None if abstr(fn) else f"syntactic body flagged exotic: {ot_text(ot)}"
    for name, fn in exotic_library(1):
        exotic = classify(fn) == Exotic() and not abstr(fn)
        yield None if exotic else f"exotic closure not flagged: {name}"


def abstr2_componentwise(depth: int, rng: random.Random, count: int) -> Iterator[str | None]:
    """The pair-binder check accepts every syntactic two-argument closure,
    and each exotic one in the library is rejected and has a rejected
    one-argument slice with the other argument fixed to a ground term.
    """
    for ot in _open_terms(2, depth, count, rng):
        yield None if abstr(reflect(ot), 2) else f"syntactic pair closure rejected: {ot_text(ot)}"
    for name, fn in exotic_library(2):
        if abstr(fn, 2):
            yield f"exotic pair closure accepted: {name}"
            continue
        slices = [lambda x, g=g: fn(x, g) for g in ground_samples()]
        slices += [lambda y, g=g: fn(g, y) for g in ground_samples()]
        failing = not all(abstr(s) for s in slices)
        yield None if failing else f"exotic pair closure has no failing slice: {name}"


def round_trips(depth: int, rng: random.Random, count: int) -> Iterator[str | None]:
    """Reification, the proper-layer morphisms, and the object-language
    codec all invert as stated.
    """
    # a random case is an open term and a named term, drawn in that order
    drawn = [(_draw_open_term(rng, 1, depth), _draw_named_term(rng, 12)) for _ in range(count)]
    for ot in itertools.chain(_open_terms(1, depth), (ot for ot, _ in drawn)):
        yield None if reify(reflect(ot)) == ot else f"reify/reflect mismatch: {ot_text(ot)}"
    for t in enumerate_db_terms(5):
        if proper(t):
            same = db_key(to_db(from_db(t))) == db_key(t)
            yield None if same else f"morphism round trip broke: {to_text(t)}"
            continue
        try:
            from_db(t)
        except NotProper:
            yield None
        else:
            yield f"dangling term accepted: {to_text(t)}"
    for _, t in drawn:
        yield None if alpha_eq(decode(encode(t)), t) else f"codec round trip broke: {pretty(t)}"


# each law's case generator, in the order the sweep prints them
LAWS = {"lam-injectivity": lam_injectivity, "characterization": characterization,
        "abstr-2-componentwise": abstr2_componentwise, "round-trips": round_trips}


def run_law(name: str, depth: int, seed: int, count: int) -> LawReport:
    """Law ``name``'s report: one check per verdict of its generator,
    whose random cases come from ``_stream(name, seed)``.
    """
    report = LawReport(name)
    for failure in LAWS[name](depth, _stream(name, seed), count):
        report.checked += 1
        if failure is not None:
            report.failures.append(failure)
    return report


def run_all(depth: int, seed: int, count: int) -> list[LawReport]:
    return [run_law(name, depth, seed, count) for name in LAWS]
