"""Named reference operations used by tests, demos, and documentation.

The tables live in ``data/figures.tables`` in the standard text format, one
block per catalog entry with a leading comment line that names it.
"""
from __future__ import annotations

from functools import cache
from importlib import resources

from .core import BinaryOperation, parse_table


@cache
def _load() -> dict[str, BinaryOperation]:
    text = (resources.files("uninorms") / "data" / "figures.tables").read_text()
    catalog: dict[str, BinaryOperation] = {}
    block: list[str] = []
    name: str | None = None
    for line in text.splitlines() + [""]:
        stripped = line.strip()
        if stripped.startswith("#"):
            head = stripped.lstrip("#").strip()
            if ":" in head:
                candidate = head.split(":", 1)[0].strip()
                if candidate and " " not in candidate:
                    name = candidate
            continue
        if stripped:
            block.append(stripped)
            continue
        if block:
            if name is None:
                raise ValueError("fixture block without a name comment")
            catalog[name] = parse_table("\n".join(block))
            block = []
            name = None
    return catalog


def fixture(name: str) -> BinaryOperation:
    """Look up a catalog operation by name (e.g. ``fig13``)."""
    catalog = _load()
    if name not in catalog:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(catalog)}"
        )
    return catalog[name]


def fixture_names() -> list[str]:
    """Catalog names in file order."""
    return list(_load())
