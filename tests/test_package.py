"""The package namespace and the README's library map agree."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import slabpricing
from slabpricing import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_map() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library map", 1)[1]
    return re.split(r"^## ", section, maxsplit=1, flags=re.MULTILINE)[0]


def test_every_exported_name_resolves_once():
    assert len(slabpricing.__all__) == len(set(slabpricing.__all__))
    for name in slabpricing.__all__:
        assert hasattr(slabpricing, name), name


def test_every_exported_function_is_in_the_library_map():
    mapped = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", library_map()))
    functions = [
        name for name in slabpricing.__all__ if inspect.isfunction(getattr(slabpricing, name))
    ]
    assert functions
    assert [name for name in functions if name not in mapped] == []


def resolves(name: str) -> bool:
    """Whether a dotted name is an attribute path that starts at the package
    or at a name of the package or of one of its modules."""
    modules = [
        importlib.import_module(f"slabpricing.{info.name}")
        for info in pkgutil.iter_modules(slabpricing.__path__)
    ]
    roots = [{"slabpricing": slabpricing}] + [vars(m) for m in (slabpricing, *modules)]
    head, *rest = name.split(".")
    owner = next((root for root in roots if head in root), None)
    if owner is None:
        return False
    obj = owner[head]
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_code_name_in_the_library_map_resolves():
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", library_map()))
    commands = set(cli._COMMANDS) | {cli.build_parser().prog}
    code_names = {name for name in names if not name.endswith(".csv")} - commands
    assert code_names
    assert sorted(name for name in code_names if not resolves(name)) == []


def test_library_map_example_runs():
    example = re.search(r"```python\n(.*?)```", library_map(), flags=re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, "README.md", "exec"), {})
    assert printed.getvalue().strip()
