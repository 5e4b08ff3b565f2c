"""Tests for the one experiment-table formatter and the JSON export."""

import json
from dataclasses import dataclass

from repro.experiments.report import (
    Table,
    export_json,
    format_table,
    optional,
    precision_recall_notes,
)


def test_columns_align_across_rows():
    text = format_table(Table("t", [("a", "bb"), ("ccc", "d")], ["note"]))
    assert text.splitlines() == [
        "== t",
        "   a    bb",
        "   ccc  d",
        "   note",
    ]


def test_a_longer_later_row_keeps_every_cell():
    text = format_table(Table("t", [("a",), ("b", "c")]))
    assert text.splitlines() == ["== t", "   a", "   b  c"]


def test_a_shorter_later_row_is_padded():
    text = format_table(Table("t", [("a", "x"), ("bb",)]))
    assert text.splitlines() == ["== t", "   a   x", "   bb"]


def test_an_empty_table_is_its_title_and_notes():
    assert format_table(Table("t")) == "== t"
    assert format_table(Table("t", notes=["n"])) == "== t\n   n"


def test_optional_marks_a_missing_value():
    assert optional(1.234, "{:.1f} s") == "1.2 s"
    assert optional(None, "{:.1f} s") == "never"


def test_precision_recall_notes_only_when_scored():
    assert precision_recall_notes("hh", None) == []
    scores = {"precision": 0.5, "recall": 1.0, "true_positives": 1,
              "false_positives": 1, "false_negatives": 0}
    assert precision_recall_notes("hh", scores) == [
        "hh vs ground truth: precision 0.50  recall 1.00  (tp 1, fp 1, fn 0)"
    ]


@dataclass
class _Record:
    value: int


def test_export_json_prefers_path_then_env_then_default(tmp_path,
                                                        monkeypatch):
    default = tmp_path / "default" / "record.json"
    monkeypatch.delenv("BENCH_FLEET_JSON", raising=False)
    assert export_json(_Record(1), None, "BENCH_FLEET_JSON", default,
                       doubled=2) == default
    assert json.loads(default.read_text()) == {"value": 1, "doubled": 2}

    from_env = tmp_path / "env" / "record.json"
    monkeypatch.setenv("BENCH_FLEET_JSON", str(from_env))
    assert export_json(_Record(1), None, "BENCH_FLEET_JSON",
                       default) == from_env

    explicit = tmp_path / "explicit.json"
    assert export_json(_Record(1), explicit, "BENCH_FLEET_JSON",
                       default) == explicit
