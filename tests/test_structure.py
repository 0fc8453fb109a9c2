"""Structural guards over ``src/hobind``: one binding session calls
closures on probes and catches the opacity signal, one runner reports
every law, ``encode``'s closures restore no state, no nested function
names itself or a sibling, no module imports a name it does not use,
open terms are walked only to place a parse error, one function finds
the k-th match of a pattern, each input rule is checked in one place,
only ``expr`` reads a term's tree, the public names are pinned so that
any addition or removal shows up as a change to this file, and the
package exports none of the de Bruijn kernel but its two exceptions.
"""

import ast
import pathlib
import types

import hobind
import hobind.terms

SRC = pathlib.Path(hobind.__file__).resolve().parent


def top_level_uses(predicate):
    """``(module, top-level function or None, node)`` for every node of
    ``src/hobind/*.py`` that satisfies ``predicate``.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            found += [(path.stem, owner, node) for node in ast.walk(top) if predicate(node)]
    return found


def names_in(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_only_the_session_catches_exotic_use():
    handlers = top_level_uses(
        lambda n: isinstance(n, ast.ExceptHandler)
        and n.type is not None and "ExoticUse" in names_in(n.type)
    )
    # ``except ExoticUse`` alone decides a verdict; the command line's
    # handler only maps it, with the other domain errors, to exit code 3
    assert [(module, owner, isinstance(node.type, ast.Tuple))
            for module, owner, node in handlers] == [
        ("binder", "_session", False),
        ("cli", "main", True),
    ]


def test_only_the_session_calls_closures_on_probes():
    # a closure is called on probes only where a probe is wrapped as an
    # Expr, ``Expr(Probe(...))``; every binding operation, lbind included,
    # reaches one through the session
    probed = top_level_uses(
        lambda n: isinstance(n, ast.Call) and "Expr" in names_in(n.func)
        and any(isinstance(a, ast.Call) and "Probe" in names_in(a.func) for a in n.args)
    )
    assert sorted({(module, owner) for module, owner, _ in probed}) == [("binder", "_session")]


def test_only_the_law_runner_reports_and_seeds():
    # each law yields its verdicts; one runner builds the report, seeds
    # the law's stream and counts the checks
    for name in ("LawReport", "_stream"):
        calls = top_level_uses(
            lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == name
        )
        assert [(module, owner) for module, owner, _ in calls] == [("laws", "run_law")]


def test_encode_keeps_no_state_to_restore():
    # each binder closure of encode gets an environment of its own
    tree = ast.parse((SRC / "named_lambda.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Try) and n.finalbody]


def nested_functions(scope):
    """The functions, ``def`` and ``lambda``, defined in ``scope``'s body
    and not inside another of them.
    """
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            yield node
        else:
            todo += ast.iter_child_nodes(node)


def self_naming_nested_functions():
    """``(module, name)`` of every function nested in a function of
    ``src/hobind`` that names itself or a sibling nested function.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # a lambda's name is the one it is assigned to
        assigned = {id(n.value): n.targets[0].id for n in ast.walk(tree)
                    if isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda)
                    and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name)}
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.Lambda)):
                continue
            nested = {f: getattr(f, "name", None) or assigned.get(id(f), "<lambda>")
                      for f in nested_functions(scope)}
            siblings = set(nested.values())
            found += [(path.stem, name) for f, name in nested.items()
                      if siblings & {n.id for n in ast.walk(f) if isinstance(n, ast.Name)}]
    return sorted(found)


def test_no_nested_function_names_itself_or_a_sibling():
    # such a function is a reference cycle (function -> closure cell ->
    # function), which every call that defines it leaves to the cycle
    # collector; the recursive helpers live at module level instead
    # (tests/test_memory.py checks the calls themselves)
    assert self_naming_nested_functions() == []


def test_every_imported_name_is_used():
    # ``from m import X as X`` re-exports X on purpose; ``__init__`` only
    # re-exports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [(path.stem, a.name) for a in node.names
                           if a.asname != a.name
                           and (a.asname or a.name).split(".")[0] not in used]
    assert unused == []


def test_open_terms_are_walked_only_to_place_a_parse_error():
    # an open term's checks read its body's cached fields; only the error
    # path of ``from_text`` looks for the offending leaf
    walks = [(module, owner) for module, owner, node in top_level_uses(
        lambda n: isinstance(n, ast.Call) and "walk" in names_in(n.func))
        if module == "openterm"]
    assert walks == [("openterm", "_culprit_offset")]


def test_one_function_finds_the_kth_match():
    # ``terms._offset`` finds the k-th match of whatever pattern it is
    # given; the readers' error paths pass their own and keep no copy
    locators = top_level_uses(
        lambda n: isinstance(n, ast.Call) and "islice" in names_in(n.func)
        and any(isinstance(a, ast.Call) and "finditer" in names_in(a.func) for a in n.args))
    assert [(module, owner) for module, owner, _ in locators] == [("terms", "_offset")]


def test_each_input_rule_is_checked_in_one_place():
    # every index, variable number and arity goes through ``terms._natural``
    # (an operation's index through ``terms._index``), every constant name
    # through ``Con``, every binder name through ``NLam`` and every raw
    # tree from outside through ``terms._is_term``; no copy of any of these
    # checks is left elsewhere
    below_zero = top_level_uses(
        lambda n: isinstance(n, ast.Compare) and any(
            isinstance(op, ast.Lt) and isinstance(right, ast.Constant) and right.value == 0
            for op, right in zip(n.ops, n.comparators)))
    assert [(module, owner) for module, owner, _ in below_zero] == [("terms", "_natural")]
    atom_checks = top_level_uses(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "fullmatch"
        and isinstance(n.value, ast.Name) and n.value.id == "_ATOM")
    assert [(module, owner) for module, owner, _ in atom_checks] == [("terms", "Con")]
    name_checks = top_level_uses(
        lambda n: isinstance(n, ast.Attribute) and n.attr == "fullmatch"
        and isinstance(n.value, ast.Name) and n.value.id == "_NAME")
    assert [(module, owner) for module, owner, _ in name_checks] == [("named_lambda", "NLam")]
    term_checks = top_level_uses(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "isinstance" and "_Leaf" in names_in(n.args[1]))
    assert [(module, owner) for module, owner, _ in term_checks] == [("terms", "_is_term")]


def test_only_expr_reads_a_term_tree():
    # an Expr is its tree: no module keeps a copy of its probe set, only
    # ``expr`` reads the tree, and one check tells an Expr from anything else
    assert not top_level_uses(lambda n: isinstance(n, ast.Attribute) and n.attr == "_pids")
    tree_reads = top_level_uses(lambda n: isinstance(n, ast.Attribute) and n.attr == "_t")
    assert {module for module, _, _ in tree_reads} == {"expr"}
    expr_checks = top_level_uses(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "isinstance" and "Expr" in names_in(n.args[1]))
    assert [(module, owner) for module, owner, _ in expr_checks] == [
        ("expr", "Expr"), ("expr", "_not_expr")]


PUBLIC = {
    "APP", "AbstrClassification", "AppCase", "Binder1", "Binder2", "CON",
    "ConstCon", "ConstErr", "ConstVar", "ERR", "Exotic", "ExoticUse", "Expr",
    "ExprView", "Identity", "LAM", "LamCase", "NotProper", "ParseError",
    "PreconditionViolated", "PremiseViolated", "PurityError", "VAR", "VApp",
    "VCon", "VErr", "VLam", "VVar", "abstr", "abstr_lam_check", "cases",
    "classify", "expr_equal", "expr_size", "from_db", "lbind", "ordinary",
    "pretty", "to_db",
}

# the de Bruijn kernel names, reachable as ``hobind.terms.<name>`` only
KERNEL = {
    "Abs", "App", "Bnd", "Con", "DbTerm", "Err", "Var", "bind_probe",
    "fresh_probe", "from_text", "instantiate", "level", "proper", "size",
    "to_text",
}


def exported() -> dict:
    return {
        name: value for name, value in vars(hobind).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_public_names_are_pinned():
    assert set(exported()) == PUBLIC


def test_the_kernel_stays_behind_hobind_terms():
    # the package is the HOAS level: of the kernel it re-exports only the
    # two exceptions HOAS-level calls raise, and every kernel name is
    # still reachable as ``hobind.terms.<name>``
    kernel = vars(hobind.terms).values()
    assert sorted(name for name, value in exported().items()
                  if any(value is v for v in kernel)) == ["ParseError", "PreconditionViolated"]
    assert [name for name in sorted(KERNEL) if not hasattr(hobind.terms, name)] == []
