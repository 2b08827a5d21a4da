"""Guard: ``src/`` holds no API and no parameter default that only the tests use.

Reference rule: every module-level function, class and assigned name of
``src/hybridnet``, and every public method, must be referenced somewhere
in ``src/hybridnet`` outside its own definition. A reference is a name or an attribute of that name,
so a same-named local also counts: the check catches what nothing in
``src/`` could be calling, not every unused definition. Reference
oracles belong in ``tests/oracles.py``.

Default rule: a function's parameter default must be left out by at least
one ``src/`` call of that function. A default that every call passes is a
second default path that only the tests take, and a caller that forgot
the argument would silently run on it instead of the configured value.
Calls are matched by bare name, as references are. A parameter counts as
passed when a call gives it positionally or by keyword; a call that
unpacks ``*args`` or ``**kwargs`` counts as passing every parameter, so
only a call that leaves the argument out keeps a default. The first
parameter of a method (``self`` or ``cls``) is not counted. A function that ``src/`` never calls
is left to the reference rule. A frozen dataclass that ``src/`` constructs
itself counts as a function whose parameters are its fields, in order. The
sections of ``config.SECTIONS`` are left out: ``config.build`` passes each
of their fields, and ``DEFAULT_CONFIG`` comes from their defaults.

Key rule: every key field of a ``config.SECTIONS`` dataclass is read as an
attribute somewhere in ``src/`` outside a ``__post_init__``, so no config
key is accepted and then ignored.

Option rule, the default rule's mirror: a function's parameter default
must be passed by at least one call in ``src/`` or ``scripts/``. A
default that no call passes makes the parameter an option that only the
tests set. Calls, unpacking and uncalled functions count as above.
"""

import ast
import json
import textwrap
from collections import defaultdict
from pathlib import Path

from hybridnet.config import SECTIONS, _key_fields

SRC = Path(__file__).resolve().parents[1] / "src" / "hybridnet"
SCRIPTS = SRC.parents[1] / "scripts"

CONFIGURED = {cls.__name__ for cls in SECTIONS.values()}  # config.build passes all their fields

EXEMPT = {
    # ROADMAP item 21 writes fig18's closed_form column from it; until then the acceptance suite calls it.
    "lifi_crossing_success_exact",
}


def _parse(src: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _definitions(tree: ast.Module):
    """(name, defining node) of each definition the reference rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):  # X = ..., X: T = ... and A, B = ...
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_definition_is_referenced_in_src():
    trees = _parse(SRC)
    references = defaultdict(set)  # name -> ids of the Name and Attribute nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                references[node.attr].add(id(node))
    unreferenced = []
    for module, tree in trees.items():
        for name, definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if name not in EXEMPT and not references[name] - own:
                unreferenced.append(f"{module}:{name}")
    assert not unreferenced, f"nothing in src/ references: {unreferenced}"


def test_every_key_field_is_read_outside_its_rules():
    # A key that no code reads changes nothing but the config digest, so each key field of each section's dataclass
    # is read as an attribute somewhere in src/ outside the __post_init__ rules that check it.
    read = set()
    for tree in _parse(SRC).values():
        rules = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                 for node in ast.walk(fn)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in rules}
    unread = [f"{path}.{f.name}" for path, cls in SECTIONS.items() for f in _key_fields(cls) if f.name not in read]
    assert not unread, f"no src/ code reads these keys: {unread}"


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", getattr(d.func, "attr", None)) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
               for d in node.decorator_list)


def _signatures(tree: ast.Module):
    """(name, positional parameter names, defaulted parameter names) of every function, a method's
    ``self``/``cls`` dropped, and of every frozen dataclass not in ``CONFIGURED``, its fields as parameters."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][id(node) in methods:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield node.name, positional, defaulted
        elif isinstance(node, ast.ClassDef) and _frozen_dataclass(node) and node.name not in CONFIGURED:
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            yield node.name, [f.target.id for f in fields], [f.target.id for f in fields if f.value is not None]


def _passes(call: ast.Call, positional: list[str], param: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return param in positional[:len(call.args)] or any(k.arg == param for k in call.keywords)


def _defaults_passed(src: Path, callers: tuple[Path, ...], rule) -> list[str]:
    """``module:function(parameter)`` of each default of a ``src`` function whose calls in ``src`` and
    ``callers`` satisfy ``rule``, a predicate over the calls' "passes it" flags."""
    trees = _parse(src)
    calls = defaultdict(list)  # bare called name -> its call nodes
    for tree in [*trees.values(), *(tree for caller in callers for tree in _parse(caller).values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)].append(node)
    found = []
    for module, tree in trees.items():
        for name, positional, defaulted in _signatures(tree):
            sites = calls[name]
            found += [f"{module}:{name}({param})" for param in defaulted
                      if sites and rule(_passes(call, positional, param) for call in sites)]
    return found


def always_passed_defaults(src: Path) -> list[str]:
    """``module:function(parameter)`` of each default that every call in ``src`` passes."""
    return _defaults_passed(src, (), all)


def never_passed_defaults(src: Path, *callers: Path) -> list[str]:
    """``module:function(parameter)`` of each default of ``src`` that no call in ``src`` or ``callers`` passes."""
    return _defaults_passed(src, callers, lambda passed: not any(passed))


def test_no_default_is_passed_by_every_src_call():
    found = always_passed_defaults(SRC)
    assert not found, f"every src/ call passes these defaults, so make the parameters required: {found}"


def test_every_default_is_left_out_by_some_call():
    found = never_passed_defaults(SRC, SCRIPTS)
    assert not found, f"no call in src/ or scripts/ passes these defaults, so they are test-only options: {found}"


def test_default_rule_on_small_modules(tmp_path):
    (tmp_path / "lib.py").write_text(textwrap.dedent("""
        def omitted(x, y=1):
            return x + y

        def passed(x, y=1, *, z=2):
            return x + y + z

        class Box:
            def method(self, a=0):
                return a

        def unpacked(a=0, b=0):
            return a + b

        def unpacked_and_omitted(a=0):
            return a

        def uncalled(a=0):
            return a
    """))
    (tmp_path / "app.py").write_text(textwrap.dedent("""
        from lib import Box, omitted, passed, unpacked, unpacked_and_omitted

        def run(args, options):
            omitted(1, 2)
            omitted(3)
            passed(1, 2, z=3)
            passed(1, y=2, z=3)
            Box().method(5)
            unpacked(*args)
            unpacked(**options)
            unpacked_and_omitted(*args)
            unpacked_and_omitted()
    """))
    assert sorted(always_passed_defaults(tmp_path)) == [
        "lib.py:method(a)", "lib.py:passed(y)", "lib.py:passed(z)", "lib.py:unpacked(a)", "lib.py:unpacked(b)",
    ]


def test_option_rule_on_small_modules(tmp_path):
    (tmp_path / "lib.py").write_text(textwrap.dedent("""
        def omitted(x, y=1):
            return x + y

        def option(x, y=1, *, z=2):
            return x + y + z

        class Box:
            def method(self, a=0):
                return a

        def unpacked(a=0):
            return a

        def passed_by_a_caller(a=0):
            return a

        def uncalled(a=0):
            return a
    """))
    (tmp_path / "app.py").write_text(textwrap.dedent("""
        from lib import Box, omitted, option, passed_by_a_caller, unpacked

        def run(args):
            omitted(1, 2)
            omitted(3)
            option(1)
            option(1, z=3)
            Box().method()
            unpacked(*args)
            passed_by_a_caller()
    """))
    callers = tmp_path / "callers"
    callers.mkdir()
    (callers / "script.py").write_text("from lib import passed_by_a_caller\n\npassed_by_a_caller(a=1)\n")
    assert sorted(never_passed_defaults(tmp_path, callers)) == ["lib.py:method(a)", "lib.py:option(y)"]
    assert sorted(never_passed_defaults(tmp_path)) == [
        "lib.py:method(a)", "lib.py:option(y)", "lib.py:passed_by_a_caller(a)",
    ]


def test_frozen_dataclass_fields_on_small_modules(tmp_path):
    (tmp_path / "lib.py").write_text(textwrap.dedent("""
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Plan:
            steps: tuple
            drops: dict = field(default_factory=dict)
            budget: dict = field(default_factory=dict)
            label: str = ""

        @dataclass(frozen=True)
        class RoomConfig:  # a config section: config.build passes every field
            side_m: float = 1.0

        @dataclass
        class Tally:  # not frozen
            count: int = 0
    """))
    (tmp_path / "app.py").write_text(textwrap.dedent("""
        from lib import Plan, RoomConfig, Tally

        def run(steps):
            Plan(steps, {1: 1})
            Plan(steps, label="x")
            Plan(steps, {}, {}, "y")
            RoomConfig()
            Tally()
    """))
    assert sorted(never_passed_defaults(tmp_path)) == []
    assert sorted(always_passed_defaults(tmp_path)) == []
    (tmp_path / "app.py").write_text("from lib import Plan, RoomConfig\n\nPlan((), {1: 1})\nPlan(())\nRoomConfig()\n")
    assert sorted(never_passed_defaults(tmp_path)) == ["lib.py:Plan(budget)", "lib.py:Plan(label)"]
    (tmp_path / "app.py").write_text("from lib import Plan\n\nPlan((), drops={1: 1}, budget={}, label='z')\n")
    assert sorted(always_passed_defaults(tmp_path)) == ["lib.py:Plan(budget)", "lib.py:Plan(drops)", "lib.py:Plan(label)"]


def test_traced_benchmark_functions_stay_public_module_functions():
    # The benchmark's per-layer metrics name src functions as module.function.quantity, and
    # its traced run reads each one's span by that name, so a rename would break the run.
    spec = json.loads((SRC.parents[1] / "BENCHMARK.json").read_text())
    named = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].count(".") == 2}
    public = {f"{module.removesuffix('.py')}.{node.name}" for module, tree in _parse(SRC).items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert len(named) >= 10 and not named - public, f"BENCHMARK.json traces what src/ does not define: {named - public}"
