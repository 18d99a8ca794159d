"""Committed finding baseline: legacy/intentional findings don't fail CI.

The baseline is a JSON document keyed by content fingerprints (rule +
path + enclosing function + normalized source line) rather than line
numbers, so unrelated edits above a finding do not invalidate it.  Each
entry may carry a human ``justification`` explaining why the finding is
intentionally kept -- re-baselining preserves justifications of entries
that survive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro.resilience.atomicio import atomic_write_text
from repro.statlint.engine import Finding, LintResult

BASELINE_VERSION = 1


@dataclass
class BaselineEntry:
    """One accepted finding, addressed by fingerprint + occurrence."""

    fingerprint: str
    rule: str
    path: str
    context: str
    snippet: str
    occurrence: int = 0
    line: int = 0                # informational; not used for matching
    justification: str = ""

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.fingerprint, self.rule, self.occurrence)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form of this entry."""
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "path": self.path,
            "context": self.context,
            "snippet": self.snippet,
            "occurrence": self.occurrence,
            "line": self.line,
            "justification": self.justification,
        }


@dataclass
class Baseline:
    """The full set of accepted findings."""

    entries: List[BaselineEntry] = field(default_factory=list)

    def __contains__(self, finding: Finding) -> bool:
        return finding.key in self._index()

    def _index(self) -> Dict[Tuple[str, str, int], BaselineEntry]:
        return {e.key: e for e in self.entries}

    def justification_for(self, finding: Finding) -> str:
        """The stored justification for a baselined finding ("" if none)."""
        entry = self._index().get(finding.key)
        return entry.justification if entry else ""

    @classmethod
    def from_findings(
        cls,
        findings: Iterable[Finding],
        previous: "Baseline" | None = None,
        covered_rules: Iterable[str] | None = None,
    ) -> "Baseline":
        """Baseline the given findings, keeping surviving justifications.

        ``covered_rules`` names the rule codes this run actually
        executed.  Previous entries for rules *outside* that set are
        preserved verbatim: re-baselining with ``--select DCL012`` (the
        new-rule adoption path) must not silently drop the DCL001-011
        entries -- and their justifications -- that the selective run
        never re-checked.  ``None`` means every rule ran (the
        historical behavior: the new findings replace everything).

        Justifications match by exact key first, then fall back to
        (rule, path, snippet) so a finding whose enclosing function was
        renamed keeps its explanation instead of silently losing it.
        """
        prev_just: Dict[Tuple[str, str, int], str] = {}
        prev_fuzzy: Dict[Tuple[str, str, str], str] = {}
        if previous is not None:
            prev_just = {e.key: e.justification for e in previous.entries}
            for e in previous.entries:
                if e.justification:
                    prev_fuzzy.setdefault(
                        (e.rule, e.path, e.snippet), e.justification
                    )
        entries = [
            BaselineEntry(
                fingerprint=f.fingerprint,
                rule=f.rule,
                path=f.path,
                context=f.context,
                snippet=f.snippet,
                occurrence=f.occurrence,
                line=f.line,
                justification=prev_just.get(f.key)
                or prev_fuzzy.get((f.rule, f.path, f.snippet), ""),
            )
            for f in findings
        ]
        if previous is not None and covered_rules is not None:
            covered = {c.strip().upper() for c in covered_rules}
            current_keys = {e.key for e in entries}
            for e in previous.entries:
                if e.rule.upper() not in covered and e.key not in current_keys:
                    entries.append(e)
        entries.sort(key=lambda e: (e.path, e.line, e.rule, e.occurrence))
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read and validate a baseline JSON document."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        version = doc.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {version!r} in {path} "
                f"(expected {BASELINE_VERSION})"
            )
        entries = []
        for raw in doc.get("findings", []):
            entries.append(
                BaselineEntry(
                    fingerprint=str(raw["fingerprint"]),
                    rule=str(raw["rule"]),
                    path=str(raw.get("path", "")),
                    context=str(raw.get("context", "")),
                    snippet=str(raw.get("snippet", "")),
                    occurrence=int(raw.get("occurrence", 0)),
                    line=int(raw.get("line", 0)),
                    justification=str(raw.get("justification", "")),
                )
            )
        return cls(entries)

    def save(self, path: str | Path) -> None:
        """Atomically write the baseline (version, tool, findings) as JSON.

        No digest is embedded: the file is committed, and people edit
        its justifications by hand.
        """
        doc = {
            "version": BASELINE_VERSION,
            "tool": "dclint",
            "findings": [e.to_dict() for e in self.entries],
        }
        atomic_write_text(
            path, json.dumps(doc, indent=2, sort_keys=False) + "\n"
        )


def apply_baseline(result: LintResult, baseline: Baseline) -> LintResult:
    """Split a result's findings into new vs baselined; note stale entries."""
    seen_keys = {f.key for f in result.findings}
    result.new_findings = [f for f in result.findings if f not in baseline]
    result.baselined = [f for f in result.findings if f in baseline]
    result.stale_baseline = [
        e.fingerprint for e in baseline.entries if e.key not in seen_keys
    ]
    return result
