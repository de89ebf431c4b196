"""File collection, rule execution and reporting for ``repro lint``.

The runner walks the given paths, parses every ``.py`` file once, hands
each :class:`~repro.lint.base.LintModule` to every registered rule,
filters findings through the file's ``# repro: allow[...]`` suppressions
and renders the survivors as text (``path:line:col: CODE message``) or
JSON.  Exit codes follow the usual contract: 0 clean, 1 findings,
2 usage error (unknown rule code, unreadable path, syntax error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional, Sequence

from repro.lint.base import LintModule, Rule
from repro.lint.findings import Finding, parse_suppressions
from repro.lint.rules_layering import LayerViolation, UndeclaredLayer
from repro.lint.rules_parity import BuiltinSum, ParityMathBackendMix, ParityParameterDrift
from repro.lint.rules_purity import TelemetryPurity
from repro.lint.rules_rng import GlobalRngCall, SeedlessRng, WallClockEntropy

__all__ = ["all_rules", "lint_paths", "run_lint", "main"]

_RULE_CLASSES = (
    GlobalRngCall,
    SeedlessRng,
    WallClockEntropy,
    LayerViolation,
    UndeclaredLayer,
    ParityParameterDrift,
    ParityMathBackendMix,
    BuiltinSum,
    TelemetryPurity,
)

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in reporting order."""
    return [rule_class() for rule_class in _RULE_CLASSES]


def _select_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> list[Rule]:
    rules = all_rules()
    known = {rule.code for rule in rules}
    for requested in list(select or []) + list(ignore or []):
        if requested not in known:
            raise ValueError(
                f"unknown rule code {requested!r} (known: {sorted(known)})"
            )
    if select:
        rules = [rule for rule in rules if rule.code in set(select)]
    if ignore:
        rules = [rule for rule in rules if rule.code not in set(ignore)]
    return rules


def _collect_files(paths: Sequence[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(path)
    return files


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> tuple[list[Finding], list[str]]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(findings, errors)`` — findings already suppression-filtered
    and sorted, errors being files the runner could not parse (those are
    usage errors, not findings: broken syntax never passes silently).
    """
    active = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    errors: list[str] = []
    for path in _collect_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            module = LintModule.parse(path, source)
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{path}: {exc}")
            continue
        suppressions = parse_suppressions(module.lines)
        for rule in active:
            for finding in rule.check(module):
                if not suppressions.silences(finding):
                    findings.append(finding)
    return sorted(findings), errors


def _render_text(findings: Sequence[Finding], out: Callable[[str], None]) -> None:
    for finding in findings:
        out(finding.render())
    noun = "finding" if len(findings) == 1 else "findings"
    out(f"{len(findings)} {noun}")


def _render_json(findings: Sequence[Finding], out: Callable[[str], None]) -> None:
    out(
        json.dumps(
            {
                "findings": [finding.to_dict() for finding in findings],
                "count": len(findings),
            },
            indent=2,
            sort_keys=True,
        )
    )


def _render_rules(out: Callable[[str], None]) -> None:
    for rule in all_rules():
        out(f"{rule.code}  {rule.name}")
        out(f"    {rule.description}")


def run_lint(
    paths: Sequence[str],
    output_format: str = "text",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    list_rules: bool = False,
    out: Callable[[str], None] = print,
) -> int:
    """Programmatic entry point; returns the process exit code."""
    if list_rules:
        _render_rules(out)
        return 0
    try:
        rules = _select_rules(select, ignore)
        findings, errors = lint_paths(paths, rules)
    except (ValueError, FileNotFoundError) as exc:
        out(f"error: {exc}")
        return 2
    if errors:
        for error in errors:
            out(f"error: {error}")
        return 2
    if output_format == "json":
        _render_json(findings, out)
    else:
        _render_text(findings, out)
    return 1 if findings else 0


def _split_codes(value: Optional[str]) -> Optional[list[str]]:
    if not value:
        return None
    return [code.strip() for code in value.split(",") if code.strip()]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint CLI surface to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. RNG101,LAY001)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its description and exit",
    )


def lint_command(args: argparse.Namespace) -> int:
    """Run lint from parsed CLI arguments (shared by repro.cli)."""
    return run_lint(
        args.paths,
        output_format=args.format,
        select=_split_codes(args.select),
        ignore=_split_codes(args.ignore),
        list_rules=args.list_rules,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=__doc__.splitlines()[0],
    )
    add_lint_arguments(parser)
    return lint_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
