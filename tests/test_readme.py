"""README.md stays true to the code: every name it puts in backticks is
real, and every python block in it runs."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import riemvisc
from riemvisc.cli import COMMANDS, SCHEMAS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

FENCED = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`]+)`")
# an identifier or dotted path (a command name may hold hyphens), optionally
# called: ``name(args)`` checks ``name``
NAME = re.compile(r"([A-Za-z_][\w-]*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?", re.S)
FILE = re.compile(r"\.(csv|json|md|py|toml|yml)$")

# math symbols, argument names and literals that README writes in backticks;
# no riemvisc name belongs here (a test checks)
ALLOWED = {"L", "rs", "zetas", "amats", "ctx", "None", "NaN", "Infinity"}


def _modules():
    names = [info.name for info in pkgutil.iter_modules(riemvisc.__path__)]
    return {"riemvisc": riemvisc} | {
        name: importlib.import_module(f"riemvisc.{name}") for name in names}


def _own(value) -> bool:
    """Whether a module-level value belongs to riemvisc: its classes and
    functions, and every plain value; not an imported module or a foreign
    class or function."""
    if inspect.ismodule(value):
        return value.__name__.startswith("riemvisc")
    if inspect.isclass(value) or callable(value):
        return getattr(value, "__module__", "").startswith("riemvisc")
    return True


def _attributes(obj) -> set:
    """The names reachable on obj: its attributes and, for a dataclass, its
    fields (a field without a default is not a class attribute)."""
    names = set(dir(obj))
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)}
    return names


def _schema_words(node, out: set) -> set:
    """Every key under a ``properties`` and every ``enum`` value of a JSON
    schema: the config keys and the model and operator kinds."""
    if isinstance(node, dict):
        out |= set(node.get("properties", {}))
        out |= {v for v in node.get("enum", []) if isinstance(v, str)}
        for value in node.values():
            _schema_words(value, out)
    elif isinstance(node, list):
        for value in node:
            _schema_words(value, out)
    return out


def _index():
    """``(modules, globals, class attributes, CLI words)``: ``globals`` maps
    each riemvisc module-level name to its objects."""
    modules = _modules()
    objects, attributes = {}, set()
    for module in modules.values():
        for name, value in vars(module).items():
            if not _own(value):
                continue
            objects.setdefault(name, []).append(value)
            if inspect.isclass(value):
                attributes |= _attributes(value)
    cli_words = set(COMMANDS) | _schema_words(SCHEMAS, set())
    return modules, objects, attributes, cli_words


INDEX = _index()
_FIELD = object()


def resolves(name: str) -> bool:
    """Whether a backticked name is a riemvisc module, a name or class
    attribute in one, or a key, kind or command of the CLI."""
    modules, objects, attributes, cli_words = INDEX
    head, *rest = name.split(".")
    if not rest:
        return head in modules or head in objects or head in attributes or head in cli_words
    if head in modules:
        candidates = [modules[head]]
    else:
        candidates = objects.get(head, [])
    for part in rest:
        # a dataclass field without a default has no value on the class
        candidates = [getattr(obj, part, _FIELD) for obj in candidates if part in _attributes(obj)]
    return bool(candidates)


def backticked_names(text: str) -> list[str]:
    """The identifiers and dotted paths of text's inline code spans, fenced
    blocks left out; file names and spans that are not names are skipped."""
    names = []
    for span in SPAN.findall(FENCED.sub("", text)):
        match = NAME.fullmatch(span.strip())
        if match and not FILE.search(match.group(1)):
            names.append(match.group(1))
    return names


def unresolved(text: str) -> list[str]:
    return sorted({name for name in backticked_names(text)
                   if name not in ALLOWED and not resolves(name)})


def test_every_backticked_name_in_readme_is_real():
    assert backticked_names(README)
    assert unresolved(README) == []


def test_the_name_check_refuses_deleted_names():
    text = README + (
        "\nThe proxies came from `derivative_proxies`, the step from"
        " `Grid.mean_edge_length` and `riemvisc.solver.discretize(F, grid)`.\n"
    )
    assert unresolved(text) == [
        "Grid.mean_edge_length", "derivative_proxies", "riemvisc.solver.discretize"]


def test_the_name_check_reads_modules_attributes_and_cli_words():
    for name in ("riemvisc.cli.SCHEMAS", "multigrid.VCycle", "Grid.distance_rows",
                 "OperatorSpec.batch", "batch", "geometry-check", "flat_torus",
                 "n_samples", "INFINITE_RADIUS", "transport_matrix(x, y)"):
        match = NAME.fullmatch(name)
        assert match and resolves(match.group(1)), name
    for name in ("np", "scipy.sparse", "Grid.np", "geometry-checks", "jsonschema"):
        assert not resolves(name), name


def test_the_allowlist_holds_no_riemvisc_name():
    assert [name for name in sorted(ALLOWED) if resolves(name)] == []


BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    # each block runs as a script of its own; a RuntimeWarning is an error,
    # as everywhere in the tier-1 tests
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "__main__"})
