"""Pluggable AST repo-lint enforcing DESIGN.md §7 conventions.

Every rule is a :class:`LintRule` subclass carrying its own id,
description, and path scope, registered in :data:`RULE_REGISTRY`; one
AST walk per file dispatches nodes to every in-scope rule.

Rules (stable ids, never renumbered):

* ``SC100`` — file does not parse (reported under its own id, not SC101).
* ``SC101`` — ``np.random`` / ``numpy.random`` access outside
  ``repro/utils/rng.py``: randomness must flow through named seeded
  streams or a caller-supplied ``Generator``.  In ``repro`` paths it also
  flags ``.bit_generator`` access, so only that module knows PCG64's word
  layout (tests may still read ``bit_generator.state`` to compare streams).
* ``SC102`` — mutable default arguments.
* ``SC103`` — float64 literals in NN compute paths (``nn``/``core``/
  ``simhw``): the substrate is pure float32.
* ``SC104`` — ``time`` module in simulated-measurement paths (``simhw``).
* ``SC105`` — iteration over ``set`` values in ``repro`` compute paths:
  hash-randomized order silently breaks bit-reproducibility (iterate
  ``sorted(...)`` or ``dict.fromkeys(...)`` instead).
* ``SC106`` — bare ``except:`` / ``except Exception: pass`` swallowing.
* ``SC107`` — ``os.environ`` / ``os.getenv`` reads outside ``utils``:
  configuration enters through explicit parameters, not ambient state.
* ``SC199`` — a suppression comment that suppressed nothing (stale
  suppressions must not accumulate).

Suppressions are real comments (string literals never count): a comment
containing the token ``selfcheck: allow`` suppresses every rule on that
line, and the rule-scoped form ``allow[SC103]`` (or ``allow[SC101,SC103]``)
suppresses only the named rules.

Runnable as ``python -m repro.analysis.lint [--format json] [paths...]``
(defaults to ``src/``; exit 1 on violations, 2 on a missing path).
"""

from __future__ import annotations

import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Path suffix (POSIX) of the one blessed home of ``np.random``.
RNG_MODULE_SUFFIX = "repro/utils/rng.py"

#: The suppression comment token.  Kept as two concatenated halves so the
#: lint's own source does not read as a (stale) suppression comment.
SUPPRESS_TOKEN = "selfcheck: " + "allow"

_SUPPRESS_RE = re.compile(re.escape(SUPPRESS_TOKEN) + r"(?:\[([A-Z0-9, ]+)\])?")

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "OrderedDict", "Counter"})


@dataclass(frozen=True)
class LintViolation:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}


@dataclass(frozen=True)
class PathScope:
    """Which files a rule applies to, by path structure.

    ``any_parts`` — at least one path component must match (``None`` =
    everywhere); ``not_parts`` — no component may match; ``only_suffix``
    — restrict to one module (POSIX ``endswith``); ``skip_suffix`` —
    exempt one module.
    """

    any_parts: frozenset[str] | None = None
    not_parts: frozenset[str] = frozenset()
    only_suffix: str = ""
    skip_suffix: str = ""

    def matches(self, path: str) -> bool:
        posix = Path(path).as_posix()
        parts = set(Path(posix).parts)
        if self.only_suffix and not posix.endswith(self.only_suffix):
            return False
        if self.skip_suffix and posix.endswith(self.skip_suffix):
            return False
        if self.any_parts is not None and not (self.any_parts & parts):
            return False
        return not (self.not_parts & parts)


class FileContext:
    """Per-file state shared by all rules during one walk."""

    def __init__(self, path: str):
        self.path = path
        self.numpy_aliases: set[str] = set()
        self.os_aliases: set[str] = set()

    def track_imports(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    self.numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "os":
                    self.os_aliases.add(alias.asname or "os")


class LintRule:
    """One lint rule: id, description, path scope, and a node check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding ``(node, message)`` findings for nodes whose type is in
    ``node_types``.  The framework handles scoping, suppression, and
    ordering.
    """

    id: str = ""
    description: str = ""
    scope: PathScope = PathScope()
    node_types: tuple[type, ...] = ()

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
        raise NotImplementedError
        yield  # pragma: no cover


# -- the rules ---------------------------------------------------------------


class ParseErrorRule(LintRule):
    """SC100 is framework-level (no AST to walk); registered for the
    inventory and the JSON report only."""

    id = "SC100"
    description = "file does not parse (SyntaxError)"

    def check(self, node, ctx):
        return iter(())


class NoGlobalNumpyRandom(LintRule):
    id = "SC101"
    description = ("np.random access outside repro.utils.rng (use named seeded streams), "
                   "or bit_generator access in repro")
    scope = PathScope(skip_suffix=RNG_MODULE_SUFFIX)
    node_types = (ast.Import, ast.ImportFrom, ast.Call, ast.Attribute)

    _REPRO = PathScope(any_parts=frozenset({"repro"}))

    def check(self, node, ctx):
        if isinstance(node, ast.Attribute):
            if node.attr == "bit_generator" and self._REPRO.matches(ctx.path):
                yield node, "bit_generator access (draw through repro.utils.rng)"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.random"):
                    yield node, f"import of {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.random"):
                yield node, f"import from {module}"
            elif module == "numpy" and any(a.name == "random" for a in node.names):
                yield node, "import of numpy.random"
        else:
            # Flag np.random.<fn>(...) calls; a bare np.random.Generator
            # type hint is fine — only invoking the global RNG violates.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ctx.numpy_aliases
            ):
                yield node, f"call to np.random.{func.attr}"


class NoMutableDefaults(LintRule):
    id = "SC102"
    description = "mutable default argument"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def check(self, node, ctx):
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                yield default, f"in signature of {node.name}()"
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            ):
                yield default, f"{default.func.id}() call in signature of {node.name}()"


class NoFloat64InComputePaths(LintRule):
    id = "SC103"
    description = "float64 literal in an NN compute path (float32 only)"
    scope = PathScope(any_parts=frozenset({"nn", "core", "simhw"}))
    node_types = (ast.Attribute, ast.Constant)

    def check(self, node, ctx):
        if isinstance(node, ast.Attribute):
            if node.attr == "float64":
                yield node, "np.float64 reference"
        elif node.value == "float64":
            yield node, '"float64" literal'


class NoWallClockInSimhw(LintRule):
    id = "SC104"
    description = "time module in a simhw measurement path (simulated latency must be wall-clock-free)"
    scope = PathScope(any_parts=frozenset({"simhw"}))
    node_types = (ast.Import, ast.ImportFrom)

    def check(self, node, ctx):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time" or alias.name.startswith("time."):
                    yield node, f"import of {alias.name}"
        else:
            module = node.module or ""
            if module == "time" or module.startswith("time."):
                yield node, f"import from {module}"


class NoSetIteration(LintRule):
    id = "SC105"
    description = "iteration over set values in a repro compute path (hash order breaks bit-reproducibility)"
    scope = PathScope(any_parts=frozenset({"repro"}), not_parts=frozenset({"utils"}))
    node_types = (ast.For, ast.AsyncFor, ast.comprehension)

    _SET_CALLS = frozenset({"set", "frozenset"})

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._SET_CALLS
        )

    def check(self, node, ctx):
        iter_expr = node.iter
        if self._is_set_expr(iter_expr):
            yield iter_expr, "iterating a set (use sorted(...) or dict.fromkeys(...))"
        elif (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Name)
            and iter_expr.func.id == "enumerate"
            and iter_expr.args
            and self._is_set_expr(iter_expr.args[0])
        ):
            yield iter_expr, "enumerating a set (use sorted(...) or dict.fromkeys(...))"


class NoExceptionSwallowing(LintRule):
    id = "SC106"
    description = "bare except or except-and-pass swallowing"
    node_types = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, type_node: ast.expr | None) -> bool:
        if isinstance(type_node, ast.Name):
            return type_node.id in self._BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(e) for e in type_node.elts)
        return False

    def check(self, node, ctx):
        if node.type is None:
            yield node, "bare except: (name the exception type)"
            return
        body_is_noop = all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in node.body
        )
        if body_is_noop and self._is_broad(node.type):
            yield node, "except Exception: pass swallows errors silently"


class NoAmbientEnviron(LintRule):
    id = "SC107"
    description = "os.environ read outside utils (configuration must be explicit)"
    scope = PathScope(any_parts=frozenset({"repro"}), not_parts=frozenset({"utils"}))
    node_types = (ast.Attribute, ast.Call, ast.ImportFrom)

    def check(self, node, ctx):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "") == "os":
                for alias in node.names:
                    if alias.name in ("environ", "getenv"):
                        yield node, f"import of os.{alias.name}"
        elif isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id in ctx.os_aliases
            ):
                yield node, "os.environ access"
        else:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "getenv"
                and isinstance(func.value, ast.Name)
                and func.value.id in ctx.os_aliases
            ):
                yield node, "os.getenv() call"


class UnusedSuppressionRule(LintRule):
    """SC199 is framework-level (computed after the walk); registered for
    the inventory and the JSON report only."""

    id = "SC199"
    description = "suppression comment that suppressed nothing"

    def check(self, node, ctx):
        return iter(())


#: The registry, in reporting order.  Adding a rule = adding a class here.
RULE_REGISTRY: tuple[LintRule, ...] = (
    ParseErrorRule(),
    NoGlobalNumpyRandom(),
    NoMutableDefaults(),
    NoFloat64InComputePaths(),
    NoWallClockInSimhw(),
    NoSetIteration(),
    NoExceptionSwallowing(),
    NoAmbientEnviron(),
    UnusedSuppressionRule(),
)

#: id -> description, for docs and the CLI.
RULES: dict[str, str] = {rule.id: rule.description for rule in RULE_REGISTRY}


# -- suppression handling ----------------------------------------------------


def _comment_suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """line -> suppressed rule ids (``None`` = all rules), from *comments*
    only — the token inside a string literal never suppresses anything."""
    suppressions: dict[int, frozenset[str] | None] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if not match:
            continue
        scoped = match.group(1)
        line = tok.start[0]
        if scoped is None:
            suppressions[line] = None
        else:
            ids = frozenset(s.strip() for s in scoped.split(",") if s.strip())
            prev = suppressions.get(line)
            if prev is None and line in suppressions:
                continue  # an all-rule token on the same line wins
            suppressions[line] = ids | (prev or frozenset())
    return suppressions


# -- the driver --------------------------------------------------------------


class _Walker(ast.NodeVisitor):
    """One document-order walk dispatching nodes to the in-scope rules."""

    def __init__(self, path: str, rules: "list[LintRule]"):
        self.ctx = FileContext(path)
        self.findings: list[tuple[str, int, str]] = []  # (rule id, line, message)
        self._dispatch: dict[type, list[LintRule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)
        # ast.comprehension is not visited by generic_visit's class-name
        # dispatch, so comprehension-interested rules hook the parents.
        self._comp_rules = self._dispatch.get(ast.comprehension, [])

    def generic_visit(self, node: ast.AST) -> None:
        self.ctx.track_imports(node)
        for rule in self._dispatch.get(type(node), ()):
            for found, message in rule.check(node, self.ctx):
                line = getattr(found, "lineno", getattr(node, "lineno", 0))
                self.findings.append((rule.id, line, message))
        if self._comp_rules and isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                for rule in self._comp_rules:
                    for found, message in rule.check(comp, self.ctx):
                        line = getattr(found, "lineno", getattr(node, "lineno", 0))
                        self.findings.append((rule.id, line, message))
        super().generic_visit(node)


def check_source(source: str, path: str) -> list[LintViolation]:
    """Lint one module's source text; ``path`` scopes the path-based rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(path, exc.lineno or 0, "SC100", f"unparseable: {exc.msg}")]
    rules = [r for r in RULE_REGISTRY if r.node_types and r.scope.matches(path)]
    walker = _Walker(path, rules)
    walker.visit(tree)

    suppressions = _comment_suppressions(source)
    used_lines: set[int] = set()
    violations: list[LintViolation] = []
    for rule_id, line, message in walker.findings:
        if line in suppressions:
            scope = suppressions[line]
            if scope is None or rule_id in scope:
                used_lines.add(line)
                continue
        violations.append(LintViolation(path, line, rule_id, message))
    for line in suppressions:
        if line not in used_lines:
            violations.append(
                LintViolation(path, line, "SC199", "unused suppression comment")
            )
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def check_file(path: Path, display_path: str | None = None) -> list[LintViolation]:
    # Explicit utf-8: the platform default (cp1252 on Windows, or any
    # POSIX locale override) would mis-read non-ASCII comments.
    return check_source(path.read_text(encoding="utf-8"), display_path or str(path))


def check_tree(root: Path) -> list[LintViolation]:
    """Lint every ``*.py`` file under ``root`` (or ``root`` itself)."""
    root = Path(root)
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    violations: list[LintViolation] = []
    for f in files:
        violations.extend(check_file(f))
    return violations


def main(argv: "list[str] | None" = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    fmt = "text"
    if "--format" in args:
        at = args.index("--format")
        try:
            fmt = args[at + 1]
        except IndexError:
            print("lint: --format needs an argument (text|json)", file=sys.stderr)
            return 2
        del args[at : at + 2]
    if fmt not in ("text", "json"):
        print(f"lint: unknown format {fmt!r} (text|json)", file=sys.stderr)
        return 2
    roots = [Path(a) for a in args] or [Path("src")]
    violations: list[LintViolation] = []
    for root in roots:
        if not root.exists():
            print(f"lint: path {root} does not exist", file=sys.stderr)
            return 2
        violations.extend(check_tree(root))
    if fmt == "json":
        print(json.dumps({
            "rules": RULES,
            "checked": [str(r) for r in roots],
            "violations": [v.to_json() for v in violations],
        }, indent=2))
        return 1 if violations else 0
    for v in violations:
        print(v)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    checked = ", ".join(str(r) for r in roots)
    print(f"lint: clean ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = [
    "FileContext",
    "LintRule",
    "LintViolation",
    "PathScope",
    "RNG_MODULE_SUFFIX",
    "RULES",
    "RULE_REGISTRY",
    "SUPPRESS_TOKEN",
    "check_file",
    "check_source",
    "check_tree",
    "main",
]
