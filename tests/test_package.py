"""The package's public names: u6n.__all__ lists exactly what
src/u6n/__init__.py imports, so neither list can drift from the other,
and the package or its scripts read each of them; and its modules check
integer arguments one way only."""

import ast
from pathlib import Path

import u6n

INIT = Path(u6n.__file__)
#: the package's modules but its __init__, and the scripts
SOURCES = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)
SOURCES += sorted((INIT.parents[2] / "scripts").glob("*.py"))


def test_all_is_exactly_the_imported_names():
    imported = [
        alias.asname or alias.name
        for node in ast.parse(INIT.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert len(u6n.__all__) == len(set(u6n.__all__))
    assert sorted(u6n.__all__) == sorted(imported)
    for name in u6n.__all__:
        assert hasattr(u6n, name), name


def test_every_public_name_is_read_outside_the_package_init():
    # a public name that only tests or the benchmark read is API kept for
    # its own tests; they import it from its module
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [name for name in u6n.__all__ if name not in read] == []


def test_one_integer_argument_rule():
    # every scalar integer argument goes through group.exact_int, so no
    # module tests isinstance(x, int), which True and int subclasses pass,
    # and the message is spelled once
    bare_int_tests = []
    text = ""
    for path in INIT.parent.glob("*.py"):
        source = path.read_text()
        text += source
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Name)
                    and node.args[1].id == "int"):
                bare_int_tests.append(f"{path.name}:{node.lineno}")
    assert bare_int_tests == []
    assert text.count("must be an int >= ") == 1
    assert "positive integer" not in text


def test_the_catalog_is_one_function_of_the_mode():
    # one enumerate_subgroups(params, mode); the mode rule lives in group.py,
    # which every module imports, and lattice.py neither owns nor passes it on
    import u6n.subgroups

    assert not hasattr(u6n.subgroups, "enumerate_normal_subgroups")
    tree = ast.parse((INIT.parent / "lattice.py").read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            named.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.asname or alias.name for alias in node.names)
    assert named & {"MODES", "check_mode"} == set()


def test_membership_is_one_closed_form():
    # subgroup_elements is the catalog's one membership rule; verify's
    # membership-closed-form holds it to each descriptor's generators
    import u6n.subgroups

    assert not hasattr(u6n, "contains_element")
    assert not hasattr(u6n.subgroups, "contains_element")


def test_one_descriptor_constructor_and_one_counting_entry_point():
    # SubgroupDescriptor(kind, t, s) is the one way to build a descriptor,
    # and batch counts through count_chains as count and chains do
    import u6n.subgroups

    for module in (u6n, u6n.subgroups):
        assert [name for name in ("cyclic", "full", "twisted")
                if hasattr(module, name)] == []
    tree = ast.parse((INIT.parent / "cli.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"ChainCounts", "shape_chain_counts"} == set()


def test_every_parameter_is_read():
    # a parameter no statement reads is an argument every caller must pass
    # for nothing; self and cls are exempt
    unread = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p})"
                       for p in params if p not in read and p not in ("self", "cls")]
    assert unread == []


def test_a_descriptor_has_one_text():
    # str(d) is the one text of a descriptor
    import u6n.subgroups

    for module in (u6n, u6n.subgroups):
        assert not hasattr(module, "format_descriptor")
