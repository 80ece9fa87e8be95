"""Every module in ``src/repro`` is reached from a command.

The import graph is built from source with :mod:`ast` (nothing is
imported, so this runs without numpy too).  Every ``import`` and
``from ... import`` statement counts, at any depth, function-local ones
included; importing ``a.b.c`` reaches the packages ``a`` and ``a.b``
as well, because Python runs their ``__init__`` first.  A module no
entry point reaches is code that only tests or scripts outside the
package can run: delete it, or give a command a use for it.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"

#: What users run: ``python -m repro``, the ``repro-mis`` console
#: script and ``python -m repro.service.client``.
ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.service.client")

#: Modules kept on purpose with no command reaching them.  The oracle is
#: the specification the engine tests compare against.
ALLOWED_UNREACHED = {"repro.radio._engine_reference"}


def _package_modules():
    """Map each module name under ``repro`` to its parsed source."""
    modules = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = ("repro",) + path.relative_to(PACKAGE_DIR).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = (path, ast.parse(path.read_text(), str(path)))
    return modules


def _with_parents(name):
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _imported_names(name, path, tree):
    """Every module name one module's import statements can load."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                source = ".".join(base)
            else:
                source = node.module
            yield from _with_parents(source)
            # ``from pkg import sub`` loads the submodule ``pkg.sub``.
            for alias in node.names:
                yield f"{source}.{alias.name}"


def _reached(modules):
    seen, stack = set(), list(ENTRY_POINTS)
    while stack:
        name = stack.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        path, tree = modules[name]
        stack.extend(_imported_names(name, path, tree))
    return seen


def test_entry_points_exist():
    modules = _package_modules()
    assert set(ENTRY_POINTS) <= set(modules)
    assert ALLOWED_UNREACHED <= set(modules)


def test_every_module_is_reached_from_an_entry_point():
    modules = _package_modules()
    unreached = sorted(set(modules) - _reached(modules) - ALLOWED_UNREACHED)
    assert unreached == [], (
        f"modules no entry point imports: {unreached}; delete them or "
        "reach them from a command"
    )

