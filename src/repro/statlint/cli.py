"""Command-line interface: ``python -m repro.statlint``.

Configuration precedence is CLI > ``[tool.statlint]`` in the nearest
pyproject.toml above the linted tree > built-in defaults, resolved
per field (a CLI ``--select`` overrides a pyproject ``select`` list;
severity overrides merge with the CLI winning per rule code).

Exit codes: 0 = clean (or all findings baselined / sub-error severity),
1 = new error-severity findings, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.resilience.atomicio import atomic_write_text
from repro.statlint.baseline import Baseline, apply_baseline
from repro.statlint.config import (
    LintConfig,
    config_from_settings,
    find_pyproject,
    load_pyproject_settings,
)
from repro.statlint.engine import LintResult, lint_paths
from repro.statlint.output import render_json, render_sarif, render_text
from repro.statlint.rules import all_rules, rule_codes

_FORMATS = ("text", "json", "sarif")


def build_parser() -> argparse.ArgumentParser:
    """The dclint argument parser (exposed for --help documentation tests)."""
    p = argparse.ArgumentParser(
        prog="python -m repro.statlint",
        description=(
            "dclint: repo-specific static analysis for numerical-kernel "
            "discipline (per-module rules DCL001-DCL011 and DCL016 plus the "
            "project-wide dataflow rules DCL012-DCL015)"
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument("--baseline", help="baseline JSON; matching findings pass")
    p.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write all current findings to FILE as the new baseline "
        "(justifications of surviving entries are preserved; entries for "
        "rules excluded by --select/--ignore are kept verbatim) and exit 0",
    )
    p.add_argument(
        "--format", choices=_FORMATS, default="text", help="report format"
    )
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--ignore", default=None, help="comma-separated rule codes to skip"
    )
    p.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="DCLnnn=LEVEL",
        help="override a rule's severity (error|warning|note); repeatable",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parse/lint files with N worker processes (0 = one per CPU; "
        "default 1 = serial); output is byte-identical to a serial run",
    )
    p.add_argument(
        "--cache",
        metavar="FILE",
        default=None,
        help="incremental-cache JSON keyed by content fingerprints; "
        "unchanged files (and an unchanged project) skip re-analysis",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore any cache configured in pyproject.toml",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    return p


def _parse_codes(raw: str) -> Tuple[str, ...]:
    return tuple(c.strip().upper() for c in raw.split(",") if c.strip())


def _list_rules() -> str:
    lines = ["dclint rule set:"]
    for r in all_rules():
        scope = getattr(r, "scope_attr", None) or "all files"
        kind = "project-wide" if getattr(r, "project", False) else "per-module"
        lines.append(f"  {r.code}  {r.name:<22} {r.summary}")
        lines.append(
            f"          kind: {kind}; scope: {scope}; protects: {r.paper_ref}"
        )
    return "\n".join(lines)


def _resolve_config(
    ns: argparse.Namespace, parser: argparse.ArgumentParser
) -> LintConfig:
    """Merge CLI flags over pyproject settings over defaults, per field."""
    settings: Dict[str, object] = {}
    pyproject = find_pyproject(ns.paths)
    if pyproject is not None:
        try:
            settings = config_from_settings(load_pyproject_settings(pyproject))
        except ValueError as exc:
            parser.error(str(exc))

    known = set(rule_codes())
    select = (
        _parse_codes(ns.select)
        if ns.select is not None
        else tuple(settings.get("select", ()))  # type: ignore[arg-type]
    )
    ignore = (
        _parse_codes(ns.ignore)
        if ns.ignore is not None
        else tuple(settings.get("ignore", ()))  # type: ignore[arg-type]
    )
    for code in (*select, *ignore):
        if code not in known:
            parser.error(
                f"unknown rule {code}; known: {', '.join(sorted(known))}"
            )

    severities: Dict[str, str] = dict(settings.get("severities", {}))  # type: ignore[arg-type]
    try:
        severities.update(LintConfig.parse_severity_overrides(ns.severity))
    except ValueError as exc:
        parser.error(str(exc))
    for code in severities:
        if code not in known:
            parser.error(f"unknown rule {code} in severity overrides")

    jobs = ns.jobs if ns.jobs is not None else int(settings.get("jobs", 1))  # type: ignore[arg-type]
    if jobs < 0:
        parser.error("--jobs must be >= 0")
    cache = ns.cache if ns.cache is not None else settings.get("cache")
    if ns.no_cache:
        cache = None
    baseline = (
        ns.baseline if ns.baseline is not None else settings.get("baseline")
    )

    return LintConfig(
        select=select,
        ignore=ignore,
        severities=severities,
        jobs=jobs,
        cache=str(cache) if cache is not None else None,
        baseline=str(baseline) if baseline is not None else None,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run dclint over the given argv; returns the process exit code."""
    parser = build_parser()
    ns = parser.parse_args(argv)

    if ns.list_rules:
        print(_list_rules())
        return 0

    config = _resolve_config(ns, parser)

    missing = [p for p in ns.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(missing)}")

    result: LintResult = lint_paths(
        ns.paths, config, jobs=config.jobs, cache_path=config.cache
    )

    if ns.write_baseline:
        previous = None
        prev_path = Path(ns.write_baseline)
        if prev_path.exists():
            previous = Baseline.load(prev_path)
        elif config.baseline and Path(config.baseline).exists():
            previous = Baseline.load(config.baseline)
        covered = {r.code for r in all_rules() if config.rule_enabled(r.code)}
        Baseline.from_findings(
            result.findings, previous, covered_rules=covered
        ).save(ns.write_baseline)
        print(
            f"dclint: wrote {len(result.findings)} finding(s) to "
            f"{ns.write_baseline}"
        )
        return 0

    baseline = None
    if config.baseline:
        try:
            baseline = Baseline.load(config.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"dclint: cannot load baseline {config.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        apply_baseline(result, baseline)

    renderers = {
        "text": render_text,
        "json": render_json,
        "sarif": render_sarif,
    }
    report = renderers[ns.format](result, baseline)
    if ns.output:
        # Plain text, no digest: a SARIF report has no place for one.
        atomic_write_text(ns.output, report + "\n")
    else:
        print(report)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
