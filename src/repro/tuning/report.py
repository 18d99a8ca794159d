"""Human- and machine-readable reports of a tuning session.

``repro tune`` prints :func:`format_report` and optionally writes
:func:`write_report_json`, a verified document (schema
``repro-tuning-report/1``) -- the artifact the CI ``tune-smoke`` job
uploads.  The text report states, per
tunable, whether the winner came from cache or search, whether it is
non-default, its probe speedup over the defaults and how many candidates
the correctness gate rejected -- so "defaults are already optimal" is a
visible, positive result, never silence.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.resilience.atomicio import write_document
from repro.tuning.session import SessionResult

#: Schema of the machine-readable session report.
REPORT_SCHEMA = "repro-tuning-report/1"


def format_report(result: SessionResult) -> str:
    """Multi-line text summary of one tuning session."""
    lines: List[str] = []
    lines.append("tuning report")
    lines.append(f"  machine fingerprint : {result.machine}")
    lines.append(f"  cache               : {result.cache_path}")
    lines.append(f"  cache hits          : {result.cache_hits}")
    lines.append(f"  tuned fresh         : {result.tuned}")
    lines.append(f"  trials executed     : {result.total_trials}")
    for rec in result.records:
        lines.append(f"  {rec.tunable_id}:")
        lines.append(f"    action     : {rec.action}")
        params = ", ".join(f"{k}={v}" for k, v in sorted(rec.params.items()))
        lines.append(f"    winner     : {params}")
        if rec.non_default:
            lines.append(f"    speedup    : {rec.speedup:.3f}x over defaults")
        else:
            lines.append("    speedup    : defaults already optimal "
                         f"(best {rec.speedup:.3f}x)")
        if rec.outcome is not None:
            lines.append(f"    strategy   : {rec.outcome.strategy}")
            lines.append(f"    trials     : {rec.outcome.measured_trials} "
                         f"measured, {rec.outcome.gate_rejected} "
                         f"gate-rejected (tol {rec.outcome.gate_tol:g})")
    return "\n".join(lines)


def write_report_json(result: SessionResult, path: Path) -> Path:
    """Publish the machine-readable report; returns the path."""
    return write_document(path, result.to_dict(), REPORT_SCHEMA)
