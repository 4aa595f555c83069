"""Built-in rule plugins.

Importing this package registers every built-in rule with
:mod:`repro.lint.registry`.  Add a module here (or import your own
anywhere before calling :func:`repro.lint.run_lint`) to extend the
linter — the framework discovers whatever the registry holds.
"""

from . import determinism, handlers, private, snapshot, telemetry

__all__ = [
    "determinism",
    "handlers",
    "private",
    "snapshot",
    "telemetry",
]
