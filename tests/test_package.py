"""The package namespace and the README's library map agree."""

import inspect
import re
from pathlib import Path

import slabpricing

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
