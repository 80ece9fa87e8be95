"""Every module and every top-level name in ``src/repro`` is used.

Both walks read source with :mod:`ast` (nothing is imported, so this
runs without numpy too).

The module walk follows every ``import`` and ``from ... import``
statement, at any depth, function-local ones included; importing
``a.b.c`` reaches the packages ``a`` and ``a.b`` as well, because
Python runs their ``__init__`` first.  A module no entry point reaches
is code that only tests or scripts outside the package can run.

The name walk starts from the module-level code of every reached
module and follows references to top-level functions and classes until
nothing new is found, so a name that only dead names use is dead too.
A bare name resolves through its module's own definitions and its
``from ... import`` bindings; an attribute counts when it is read off
a module (``module.name``), not off any other object.  A
package ``__init__`` re-export and an ``__all__`` string are not uses.
Three more kinds of use start the walk:

* a registration decorator (``@register_table``) makes its definition
  live, because the registry finds it;
* a name, an attribute read off an imported module, or an identifier
  inside a string, in a script under ``benchmarks/`` or ``examples/``
  (tests and ``conftest.py`` excluded): the bench scripts still rewrite
  their tables, and the e2e tracer names graph generators as trace
  targets.  An attribute of anything else (``counts.local_maxima``, a
  dataclass field) is not a use;
* the instruments in :data:`ALLOWED_UNREACHED`.

Delete what either walk finds, or give a command a use for it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "repro"

#: What users run: ``python -m repro``, the ``repro-mis`` console
#: script and ``python -m repro.service.client``.
ENTRY_POINTS = ("repro.__main__", "repro.cli", "repro.service.client")

#: Modules and top-level names kept on purpose with no command reaching
#: them, each with its reason.
ALLOWED_UNREACHED = {
    "repro.radio._engine_reference": "the spec oracle module",
    "repro.radio._engine_reference.run_protocol_reference": (
        "the specification the engine tests compare against"
    ),
    "repro.radio.trace.TraceRecorder": (
        "records full traces for the engine-equivalence tests"
    ),
    "repro.radio.batch.table.as_table_protocol": (
        "runs a protocol's batch table on the scalar engine, the "
        "table-versus-coroutine equivalence check"
    ),
    "repro.radio.batch.table.TableProtocolAdapter": (
        "the protocol as_table_protocol returns"
    ),
}

#: Scripts that count as callers: what ``benchmarks/`` and ``examples/``
#: run, not their tests.
SCRIPT_DIRS = (ROOT / "benchmarks", ROOT / "examples")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def _import_source(name, path, node):
    """The absolute module a ``from ... import`` statement reads."""
    if not node.level:
        return node.module
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    base = package.split(".")
    base = base[: len(base) - node.level + 1]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _imported_names(name, path, tree):
    """Every module name one module's import statements can load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            source = _import_source(name, path, node)
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


def _import_bindings(module, path, tree):
    """Each name one module's imports bind: ``(source, name)`` for a
    ``from`` import, ``(module, None)`` for a plain ``import``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                bound[alias.asname or target] = (target, None)
        elif isinstance(node, ast.ImportFrom):
            source = _import_source(module, path, node)
            for alias in node.names:
                bound[alias.asname or alias.name] = (source, alias.name)
    return bound


def _dotted(node):
    """``a.b.c`` as ``["a", "b", "c"]``; None for any other expression."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        parts = _dotted(node.value)
        return parts and parts + [node.attr]
    return None


def _is_registration(definition):
    for decorator in definition.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _dotted(target)[-1].startswith("register"):
            return True
    return False


def _script_identifiers(modules):
    identifiers = set()
    for directory in SCRIPT_DIRS:
        for path in directory.rglob("*.py"):
            if path.name.startswith("test_") or path.name == "conftest.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            # Local names bound to a module: a plain ``import``, or a
            # ``from pkg import sub`` of a package submodule.
            imported = {
                local
                for local, (source, name) in _import_bindings("", path, tree).items()
                if name is None or f"{source}.{name}" in modules
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    identifiers.add(node.id)
                elif isinstance(node, ast.Attribute):
                    # ``module.name`` is a use; ``record.field`` is not.
                    parts = _dotted(node)
                    if parts and parts[0] in imported:
                        identifiers.add(node.attr)
                elif isinstance(node, ast.alias):
                    identifiers.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    identifiers.update(_IDENTIFIER.findall(node.value))
    return identifiers


def _unused_names(modules):
    """Qualified top-level functions and classes nothing uses."""
    definitions = {}  # (module, name) -> def or class node
    bindings = {}  # module -> {local name: (source, name or None)}
    for module, (path, tree) in modules.items():
        bindings[module] = _import_bindings(module, path, tree)
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("__"):
                definitions[(module, node.name)] = node

    def lookup(scope, name, depth=0):
        """What ``name`` means in module ``scope``: a definition key
        ``(module, name)``, a module name, or None."""
        if (scope, name) in definitions:
            return (scope, name)
        source, original = bindings.get(scope, {}).get(name, (None, None))
        if source in modules and depth < 8:
            if original is None:
                return source
            found = lookup(source, original, depth + 1)
            if found is not None:
                return found
        if f"{scope}.{name}" in modules:
            return f"{scope}.{name}"
        return None

    def uses(module, node):
        """The definitions ``node``'s names and ``module.name`` reads use."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                found = lookup(module, child.id)
            elif isinstance(child, ast.Attribute):
                parts = _dotted(child.value)
                found = parts and lookup(module, parts[0])
                for part in (parts or [])[1:] + [child.attr]:
                    found = lookup(found, part) if isinstance(found, str) else None
            else:
                continue
            if isinstance(found, tuple):
                yield found

    stack = []
    for module in _reached(modules):
        for node in modules[module][1].body:
            if (module, getattr(node, "name", None)) not in definitions:
                stack.extend(uses(module, node))
    scripts = _script_identifiers(modules)
    allowed = {tuple(qualified.rsplit(".", 1)) for qualified in ALLOWED_UNREACHED}
    stack.extend(
        key
        for key, node in definitions.items()
        if _is_registration(node) or key[1] in scripts or key in allowed
    )

    live = set()
    while stack:
        key = stack.pop()
        if key not in live:
            live.add(key)
            stack.extend(uses(key[0], definitions[key]))
    return sorted(".".join(key) for key in set(definitions) - live)


def test_entry_points_exist():
    modules = _package_modules()
    assert set(ENTRY_POINTS) <= set(modules)
    for qualified in ALLOWED_UNREACHED:
        module, _, name = qualified.rpartition(".")
        assert qualified in modules or name in {
            node.name for node in modules[module][1].body if hasattr(node, "name")
        }, qualified


def test_every_module_is_reached_from_an_entry_point():
    modules = _package_modules()
    unreached = sorted(set(modules) - _reached(modules) - set(ALLOWED_UNREACHED))
    assert unreached == [], (
        f"modules no entry point imports: {unreached}; delete them or "
        "reach them from a command"
    )


def test_every_top_level_name_is_used():
    unused = _unused_names(_package_modules())
    assert unused == [], (
        f"top-level functions and classes nothing uses: {unused}; delete "
        "them or give a command a use for them"
    )
