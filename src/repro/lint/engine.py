"""The lint engine: file discovery, parsing, suppression, rule dispatch.

The engine is deliberately dumb: collect ``.py`` files, parse each once,
hand the tree to every enabled rule, drop findings the source suppresses
inline, and return the rest sorted.  All cleverness lives in the rules.

Inline suppression::

    rng = np.random.default_rng(seed)  # repro-lint: disable=rng-discipline

``disable=all`` silences every rule on that line.  Suppressions are
line-scoped by default — file-wide opt-outs hide new violations.

File-level suppression is the narrow exception, for modules that *are*
the pattern (rule fixtures, golden race reproductions)::

    # repro-lint: disable-file=same-time-schedule

The directive must be a comment in the first five lines and must name
explicit rule ids — ``disable-file=all`` is deliberately rejected, so a
file can opt out of the rules it exists to violate without silencing
everything else.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, Rule, default_rules

# Importing the module registers the event-ordering race rules; every
# entry point (CLI, tests, replay) reaches the registry through the
# engine, so this is the one place that has to know they exist.
import repro.lint.races  # noqa: E402,F401  (registration side effect)

#: Marker introducing an inline suppression comment.
SUPPRESS_MARKER = "repro-lint:"

#: How many leading lines may carry a ``disable-file=`` directive.
FILE_SUPPRESS_WINDOW = 5


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through as-is)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids suppressed on that line.

    Uses the tokenizer (not a regex) so the marker inside string literals
    does not suppress anything.  ``{"all"}`` means every rule.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if not text.startswith(SUPPRESS_MARKER):
                continue
            directive = text[len(SUPPRESS_MARKER):].strip()
            if not directive.startswith("disable="):
                continue
            rules = {r.strip() for r in directive[len("disable="):].split(",") if r.strip()}
            if rules:
                suppressions.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    return suppressions


def parse_file_suppressions(source: str) -> Set[str]:
    """Rule ids suppressed for the whole file.

    A ``# repro-lint: disable-file=<rule>[,<rule>...]`` comment within the
    first :data:`FILE_SUPPRESS_WINDOW` lines suppresses those rules
    everywhere in the file — the escape hatch for fixture-heavy modules
    whose *purpose* is to contain violations.  Uses the tokenizer, so the
    marker inside a docstring never suppresses anything, and ``all`` is
    rejected: a file may only opt out of named rules.
    """
    suppressed: Set[str] = set()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.start[0] > FILE_SUPPRESS_WINDOW:
                break
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if not text.startswith(SUPPRESS_MARKER):
                continue
            directive = text[len(SUPPRESS_MARKER):].strip()
            if not directive.startswith("disable-file="):
                continue
            rules = {r.strip() for r in
                     directive[len("disable-file="):].split(",") if r.strip()}
            suppressed.update(rules - {"all"})
    except tokenize.TokenError:
        pass
    return suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[Rule]] = None,
) -> List[Finding]:
    """Lint one source string; the unit the tests drive directly."""
    if rules is None:
        rules = default_rules()
    posix_path = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="parse-error",
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"cannot parse: {exc.msg}",
                severity=Severity.ERROR,
            )
        ]
    ctx = FileContext(path=path, posix_path=posix_path, source=source, tree=tree)
    suppressions = parse_suppressions(source)
    file_suppressions = parse_file_suppressions(source)
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if finding.rule in file_suppressions:
                continue
            suppressed = suppressions.get(finding.line, set())
            if "all" in suppressed or finding.rule in suppressed:
                continue
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[Rule]] = None,
) -> List[Finding]:
    """Lint every python file under ``paths`` and return sorted findings."""
    if rules is None:
        rules = default_rules()
    else:
        rules = list(rules)
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    rule="read-error",
                    path=str(path),
                    line=0,
                    col=0,
                    message=f"cannot read: {exc}",
                    severity=Severity.ERROR,
                )
            )
            continue
        findings.extend(lint_source(source, path=str(path), rules=rules))
    findings.sort(key=Finding.sort_key)
    return findings
