"""Registry mapping protocol classes to transition-table builders.

A builder has signature ``(protocol, n, delta) -> Optional[TableProgram]``
and compiles one protocol *instance* for one ``(n, Delta)`` cell.  The
registry is keyed by the **exact** class (no subclass lookup): a
subclass that overrides ``run`` would silently diverge from its
parent's table, so it must opt in with its own registration.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Type

from ..node import Protocol
from .table import TableProgram

__all__ = ["register_table", "compile_table_for"]

Builder = Callable[[Protocol, int, int], Optional[TableProgram]]

_BUILDERS: Dict[Type[Protocol], Builder] = {}


def register_table(protocol_class: Type[Protocol]):
    """Class decorator-factory: register ``builder`` for ``protocol_class``."""

    def decorator(builder: Builder) -> Builder:
        _BUILDERS[protocol_class] = builder
        return builder

    return decorator


def _ensure_builtin_builders() -> None:
    # Import for the registration side effect; late to avoid a cycle
    # (tables.py imports register_table from here).
    from . import tables  # noqa: F401


def compile_table_for(
    protocol: Protocol, n: int, delta: int
) -> Optional[TableProgram]:
    """Compile ``protocol`` for an ``(n, delta)`` cell, or ``None``.

    ``None`` means either no builder is registered for the exact class
    or the builder declined this instance; both cases fall back to the
    scalar engine.
    """
    _ensure_builtin_builders()
    builder = _BUILDERS.get(type(protocol))
    if builder is None:
        return None
    return builder(protocol, n, delta)
