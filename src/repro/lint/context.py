"""Per-module parse context shared by every rule.

One :class:`ModuleContext` is built per linted file: the parsed AST, a
parent map (rules walk *up* to find enclosing guards/functions), the
source lines, the import alias table, and the ``# repro: noqa[...]``
suppression map.  Building these once keeps an N-rule run at one parse
per file.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: ``# repro: noqa[DET001]`` or ``# repro: noqa[DET001,TEL001] - reason``.
NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s*]+)\]\s*(?:[-:]\s*(?P<reason>\S.*))?"
)


class Suppression:
    """One parsed noqa comment: the rule ids it covers and its reason."""

    __slots__ = ("rules", "reason", "line")

    def __init__(self, rules: Set[str], reason: Optional[str], line: int) -> None:
        self.rules = rules
        self.reason = reason
        self.line = line

    def covers(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


class ModuleContext:
    """Everything rules need to know about one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        #: Normalized path components ("src", "repro", "flowsim", ...)
        #: with the trailing filename included minus extension.
        parts = re.split(r"[\\/]", path)
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        self.path_parts: Tuple[str, ...] = tuple(p for p in parts if p)
        self._parent: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parent[child] = node
        self.suppressions: Dict[int, Suppression] = self._parse_noqa()
        self.imports = ImportTable(tree)

    # ------------------------------------------------------------------
    # Tree navigation
    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parent.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain from ``node``'s parent up to the module."""
        current = self._parent.get(node)
        while current is not None:
            yield current
            current = self._parent.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef | ast.AsyncFunctionDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def _parse_noqa(self) -> Dict[int, Suppression]:
        table: Dict[int, Suppression] = {}
        for index, text in enumerate(self.lines, start=1):
            match = NOQA_PATTERN.search(text)
            if match is None:
                continue
            rules = {
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            }
            table[index] = Suppression(rules, match.group("reason"), index)
        return table

    def suppression_at(self, line: int) -> Optional[Suppression]:
        return self.suppressions.get(line)


class ImportTable:
    """Resolved import aliases of one module.

    Maps local names to the dotted origin they refer to, so rules can
    recognize ``import time as _time`` / ``from datetime import
    datetime`` without hard-coding alias spellings.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> dotted module path ("_time" -> "time")
        self.modules: Dict[str, str] = {}
        #: local name -> "module.attr" ("perf_counter" -> "time.perf_counter")
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
                    # ``from numpy import random`` binds a module too.
                    self.modules.setdefault(
                        alias.asname or alias.name,
                        f"{node.module}.{alias.name}",
                    )

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Dotted origin of a called expression, or None.

        ``_time.perf_counter`` -> ``time.perf_counter`` under
        ``import time as _time``; ``perf_counter`` -> same under
        ``from time import perf_counter``; ``np.random.rand`` ->
        ``numpy.random.rand`` under ``import numpy as np``.
        """
        chain: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            root = node.id
            if chain:
                base = self.modules.get(root)
                if base is None and root in self.names:
                    base = self.names[root]
                if base is None:
                    return None
                return ".".join([base] + list(reversed(chain)))
            return self.names.get(root)
        return None
