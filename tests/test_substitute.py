"""The kernel behind ``instantiate``, ``bind_probe`` and ``replace_probe``.

Its results are checked against the fold-based references in
``oracles``: equal terms, and the same subtrees of the input shared. Its
work is checked without timing: on a balanced tree it builds new nodes
exactly along the path to its one target.
"""

import pytest
from hypothesis import given, strategies as st

from hobind.openterm import enumerate_db_terms, enumerate_open_terms
from hobind.terms import (
    Abs,
    App,
    Bnd,
    Con,
    PreconditionViolated,
    Probe,
    Var,
    bind_probe,
    fresh_probe,
    instantiate,
    replace_probe,
    walk,
)
from oracles import bind_probe_fold, fill_recursive, instantiate_fold, replace_probe_fold
from test_cache import TERMS

# proper replacements: a leaf and a tree
REPLACEMENTS = [Var(7), App(Con("c"), Abs(Bnd(0)))]


def shared(out, t):
    """The ids of the nodes of ``t`` that ``out`` holds."""
    inside = {id(node) for node, _ in walk(t)}
    return {id(node) for node, _ in walk(out) if id(node) in inside}


def assert_same(got, want, t):
    assert got == want
    assert (got is t) is (want is t)
    assert shared(got, t) == shared(want, t)


def check_instantiate(t):
    # every j at which t is at level j + 1, and two past the last that
    # replaces anything
    for j in range(max(t.lvl - 1, 0), t.lvl + 2):
        for u in REPLACEMENTS:
            assert_same(instantiate(t, j, u), instantiate_fold(t, j, u), t)


def check_probes(t, p):
    absent = fresh_probe()
    for q in (p, absent):
        for i in range(3):
            assert_same(bind_probe(t, q, i), bind_probe_fold(t, q, i), t)
        for u in REPLACEMENTS + [Probe(absent)]:
            assert_same(replace_probe(t, q, u), replace_probe_fold(t, q, u), t)


def test_enumerated_terms():
    for t in enumerate_db_terms(5):
        check_instantiate(t)


def test_probes_placed_in_open_terms():
    p, q = fresh_probe(), fresh_probe()
    for ot in enumerate_open_terms(1, 3):
        for arg in (Probe(p), App(Probe(p), Probe(q))):
            t = fill_recursive(ot.body, (arg,))
            check_probes(t, p)
            check_instantiate(t)


@given(TERMS, st.integers(0, 3))
def test_terms_with_probes_and_holes(t, p):
    check_probes(t, p)
    check_instantiate(t)


def test_instantiate_needs_a_natural_index():
    # at j = -1 the kernel's test for a subtree holding a target does not
    # hold, so the index is refused after the two level checks
    with pytest.raises(PreconditionViolated, match="negative index"):
        instantiate(Abs(Bnd(0)), -1, Var(0))
    with pytest.raises(PreconditionViolated, match="level -1"):
        instantiate(Con("c"), -2, Var(0))


def test_instantiate_refuses_a_non_natural_index():
    # after the two level checks, which these pass; None and "0" fail
    # the first one, at ``j + 1``
    t = App(Bnd(0), Bnd(1))
    for j in (1.5, 1.0, True):
        with pytest.raises(PreconditionViolated) as exc:
            instantiate(t, j, Con("u"))
        assert str(exc.value) == f"instantiate: index {j!r} is not a natural number"
    for j in (None, "0"):
        with pytest.raises(TypeError, match="unsupported operand|concatenate"):
            instantiate(t, j, Con("u"))


LEAVES = 2**12


def balanced(leaves):
    """The balanced App tree over ``leaves``, a power of two of them."""
    while len(leaves) > 1:
        leaves = [App(leaves[k], leaves[k + 1]) for k in range(0, len(leaves), 2)]
    return leaves[0]


def new_paths(t, out):
    """The paths (0 left, 1 right, 2 body) of the nodes of ``out`` that are
    not the node of ``t`` at the same position; a node that is the input's
    is not entered.
    """
    paths = []
    stack = [(t, out, ())]
    while stack:
        a, b, path = stack.pop()
        if a is b:
            continue
        paths.append(path)
        if type(a) is App:
            assert type(b) is App
            stack += [(a.left, b.left, path + (0,)), (a.right, b.right, path + (1,))]
        elif type(a) is Abs:
            assert type(b) is Abs
            stack.append((a.body, b.body, path + (2,)))
    return sorted(paths)


@pytest.mark.parametrize("k", [0, 1, 1234, LEAVES // 2, LEAVES - 1])
def test_only_the_path_to_the_target_is_rebuilt(k):
    p = fresh_probe()
    # the target's path under the Abs: the bits of k, most significant first
    path = tuple(int(bit) for bit in format(k, "012b"))
    want = [(2,) + path[:n] for n in range(len(path) + 1)]
    u = REPLACEMENTS[1]
    filler = [Con("c"), Var(0), Abs(Bnd(0)), Probe(fresh_probe())]
    for target, substitute, leaf in [
        (Bnd(1), lambda t: instantiate(t, 0, u), u),
        (Probe(p), lambda t: bind_probe(t, p, 3), Bnd(4)),
        (Probe(p), lambda t: replace_probe(t, p, u), u),
    ]:
        leaves = [filler[n % len(filler)] for n in range(LEAVES)]
        leaves[k] = target
        t = Abs(balanced(leaves))
        out = substitute(t)
        assert new_paths(t, out) == [()] + want
        node = out
        for step in want[-1]:
            node = node.body if step == 2 else (node.left, node.right)[step]
        assert node == leaf
