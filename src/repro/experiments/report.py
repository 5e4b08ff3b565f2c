"""One way to show an experiment: titled tables and one formatter.

Every result that ``repro run`` prints has ``tables() -> list[Table]``.
The CLI and the figure benchmarks both print those tables through
:func:`format_table`, so a figure reads the same wherever it is shown.
Standard library only, so importing :mod:`repro.experiments` stays cheap.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence


@dataclass(frozen=True)
class Table:
    """A titled block of rows, with free-text notes printed under it."""

    title: str
    rows: Sequence[Sequence[object]] = ()
    notes: Sequence[str] = ()


def format_table(table: Table) -> str:
    """``== title``, then every row's cells left-aligned in columns.

    Rows may have different lengths: a column is as wide as its widest
    cell in any row, and no cell is ever dropped.
    """
    columns = max((len(row) for row in table.rows), default=0)
    widths = [max(len(str(row[col])) for row in table.rows if col < len(row))
              for col in range(columns)]
    lines = [f"== {table.title}"]
    for row in table.rows:
        cells = [str(cell).ljust(width) for cell, width in zip(row, widths)]
        lines.append("   " + "  ".join(cells).rstrip())
    lines += [f"   {note}" for note in table.notes]
    return "\n".join(lines)


def print_tables(*tables: Table) -> None:
    """Print each table after a blank line."""
    for table in tables:
        print(f"\n{format_table(table)}")


def optional(value: object, template: str) -> str:
    """``template.format(value)``, or ``"never"`` when there is no value."""
    return "never" if value is None else template.format(value)


def precision_recall_notes(label: str, scores: dict | None) -> list[str]:
    """The ground-truth score line of a workload-driven run, if scored."""
    if scores is None:
        return []
    return [f"{label} vs ground truth: precision {scores['precision']:.2f}  "
            f"recall {scores['recall']:.2f}  "
            f"(tp {scores['true_positives']}, fp {scores['false_positives']}, "
            f"fn {scores['false_negatives']})"]


def export_json(result: object, path: str | Path | None, env_var: str,
                default: Path, **derived: object) -> Path:
    """Write a dataclass result, plus ``derived`` fields, as JSON.

    The target is ``path``, else the ``env_var`` environment variable,
    else ``default``; missing parent directories are created.
    """
    target = Path(path or os.environ.get(env_var, default))
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {**asdict(result), **derived}
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target
