"""The production modules hold only what `qcorr run` reaches.

A name-level call graph walks from the functions of `qcorr.cli` (all but
`_cmd_verify`) through every module except `qcorr.verify`: a function or
class reaches each module-level name it mentions, bare or as an attribute
of an imported module, and a class reaches everything its body mentions.
The names that `bench/` uses are roots too, read from the bench files
themselves: the `SPANNED` list of `bench/layers.py`, every `from qcorr.<m>
import <name>`, and every `<m>.<name>` of a module bound by `from qcorr
import <m>`.  Every module-level function and class outside `qcorr.verify`
must be reached; code that only the checks, the tests or the demos call
belongs in `qcorr.verify`.

The graph follows names, not objects, so it may count a name as reached
that no run calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcorr"
BENCH = ROOT / "bench"


class _Module:
    def __init__(self, path: Path):
        tree = ast.parse(path.read_text())
        self.defs = {}  # module-level name -> the statement that binds it
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            self.defs[n.id] = node
        # local name -> (module, name), name None for a module; relative
        # imports anywhere in the file, function-level ones included
        self.imports = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (alias.name, None) if node.module is None else (
                        node.module, alias.name)
                    self.imports[alias.asname or alias.name] = target


MODULES = {p.stem: _Module(p) for p in sorted(SRC.glob("*.py"))}


def _edges(module: str, node: ast.AST):
    """The (module, name) pairs that node mentions."""
    mod = MODULES[module]
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            if n.id in mod.defs:
                yield module, n.id
            elif n.id in mod.imports and mod.imports[n.id][1] is not None:
                yield mod.imports[n.id]
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            target = mod.imports.get(n.value.id)
            if target is not None and target[1] is None:
                yield target[0], n.attr


def _reached(roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        module, name = key
        if key in seen or module == "verify" or name not in MODULES[module].defs:
            continue
        seen.add(key)
        todo.extend(_edges(module, MODULES[module].defs[name]))
    return seen


def _bench_pins() -> set:
    pins = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and (n.module or "").startswith("qcorr."):
                pins.update((n.module.split(".")[1], a.name) for a in n.names)
            elif isinstance(n, ast.ImportFrom) and n.module == "qcorr":
                modules.update(a.asname or a.name for a in n.names)
            elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in n.targets
            ):
                pins.update(map(tuple, ast.literal_eval(n.value)))
        for n in ast.walk(tree):
            if (
                isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)
                and n.value.id in modules
            ):
                pins.add((n.value.id, n.attr))
    return pins


def _run_roots():
    return [
        ("cli", name)
        for name, node in MODULES["cli"].defs.items()
        if isinstance(node, ast.FunctionDef) and name != "_cmd_verify"
    ]


def test_the_pins_are_read():
    pins = _bench_pins()
    assert {("cli", "load_scenario"), ("cumulants", "cumulant_apply")} <= pins
    assert ("hierarchy", "solve_via_density_oracle") in pins  # bench/checks.py
    assert ("presets", "random_hermitian") in pins  # bench/workloads.py
    assert ("bbgky", "_embedded_group_conj") in pins  # an attribute in bench/layers.py
    for module, name in pins:
        assert name in MODULES[module].defs, f"bench/ uses qcorr.{module}.{name}"


def test_every_production_function_is_reached_by_a_run_or_pinned():
    reached = _reached(_run_roots() + sorted(_bench_pins()))
    stray = [
        f"qcorr.{module}.{name}"
        for module, mod in MODULES.items()
        if module != "verify"
        for name, node in mod.defs.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (module, name) not in reached
    ]
    assert not stray, f"only verify, tests or demos reach {stray}"


def test_the_walk_sees_through_modules_and_classes():
    # solve_hierarchy -> evolve_density_sequence crosses a module, and the
    # state classes reach OperatorSequence through their annotations; the
    # density oracle only the benchmark's checks call
    reached = _reached(_run_roots())
    assert {
        ("hierarchy", "solve_hierarchy"),
        ("evolution", "evolve_density_sequence"),
        ("star_algebra", "OperatorSequence"),
        ("serialize", "_conforms"),
    } <= reached
    assert ("hierarchy", "solve_via_density_oracle") not in reached

