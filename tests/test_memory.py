"""Library calls leave no reference cycles.

Everything a call allocates is freed by reference counting, so the cycle
collector finds nothing to do. A nested function that calls itself, a
cached closure, or two nested functions that call each other would each
leave a cycle behind on every call (``tests/test_structure.py`` keeps
them out of the source). Each case runs once to fill the caches and
finish any lazy set-up, then once more with the collector off, after
which ``gc.collect()`` must find no unreachable object.
"""

import gc

import pytest

from hobind import APP, LAM, VAR, cases, from_db, laws, terms, to_db
from hobind.named_lambda import (apply_binder, decode, encode, enumerate_named_terms, parse,
                                 pretty)
from hobind.openterm import enumerate_db_terms, enumerate_open_terms


def cyclic_garbage(call) -> int:
    """The unreachable objects ``gc.collect()`` finds after a warm ``call()``."""
    call()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def sweep(depth):
    def run():
        assert all(report.ok for report in laws.run_all(depth, 0, 20))
    return run


def codec_round_trip():
    text = terms.to_text(to_db(encode(parse("fn x. fn y. (x y) #3 (fn z. z x)"))))
    assert pretty(decode(from_db(terms.from_text(text)))) == "fn x1. fn x2. ((x1 x2) #3) (fn x3. x3 x1)"


def binder_application():
    assert str(apply_binder(encode(parse("fn x. x (fn y. y x)")), VAR(0))) == (
        "CON c_app $$ VAR 0 $$ (CON c_lam $$ (LAM x1. CON c_app $$ x1 $$ VAR 0))")


def view_binder():
    assert cases(LAM(lambda x: APP(x, VAR(1)))).binder(VAR(0)) == APP(VAR(0), VAR(1))


@pytest.mark.parametrize("call", [
    sweep(2),
    sweep(5),
    codec_round_trip,
    binder_application,
    view_binder,
    lambda: sum(1 for _ in enumerate_open_terms(2, 2)),
    lambda: sum(1 for _ in enumerate_db_terms(4)),
    lambda: sum(1 for _ in enumerate_named_terms(4)),
], ids=["run_all-depth-2", "run_all-depth-5", "codec-round-trip", "apply_binder",
        "cases-binder", "enumerate_open_terms", "enumerate_db_terms", "enumerate_named_terms"])
def test_leaves_no_cyclic_garbage(call):
    assert cyclic_garbage(call) == 0
