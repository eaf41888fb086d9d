"""Report rendering: machine JSON, aligned text tables, CSV for plots."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Sequence

from .experiment import EvalReport, write_json


def _fmt(value: float | None, width: int = 8) -> str:
    return f"{value:{width}.4f}" if value is not None else " " * (width - 3) + "n/a"


def render_text(report: EvalReport) -> str:
    lines = []
    id_width = max(len("video"), max(len(r.video_id) for r in report.per_video))
    header = (
        f"{'video':<{id_width}}  {'fake%':>6}  {'IoU':>8}  {'IoU+sm':>8}  "
        f"{'acc':>8}  {'acc+sm':>8}  {'AUC':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.per_video:
        lines.append(
            f"{r.video_id:<{id_width}}  {100 * r.fake_ratio:>6.1f}  {_fmt(r.iou_raw)}  "
            f"{_fmt(r.iou_smoothed)}  {_fmt(r.accuracy_raw)}  {_fmt(r.accuracy_smoothed)}  "
            f"{_fmt(r.auc)}"
        )
    lines.append("-" * len(header))
    agg = report.aggregate
    lines.append(
        f"{'mean':<{id_width}}  {100 * report.baseline['mean_fake_ratio']:>6.1f}  "
        f"{_fmt(agg['iou_raw'])}  {_fmt(agg['iou_smoothed'])}  {_fmt(agg['accuracy_raw'])}  "
        f"{_fmt(agg['accuracy_smoothed'])}  {_fmt(agg['auc'])}"
    )
    lines.append("")
    lines.append(f"random-guess IoU baseline (p=0.5): {report.baseline['expected_random_iou']:.4f}")
    lines.append(
        f"video-level: accuracy {_fmt(report.video_level['accuracy'], 6).strip()}"
        f", AUC {_fmt(report.video_level['auc'], 6).strip()}"
    )
    lines.append(f"threshold {report.threshold}, smoothing offset k={report.smooth_k}")
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, rows: Sequence[dict[str, Any]]) -> None:
    """One row per dict; the columns are the keys in first-seen order."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(rows)


def write_report_files(report: EvalReport, prefix: str | Path) -> None:
    """Write <prefix>.json, <prefix>.txt and <prefix>.csv; a dotted prefix keeps its dots.

    The CSV has one row per video with `VideoEval`'s fields as its columns.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    data = report.to_dict()
    write_json(prefix.with_name(prefix.name + ".json"), data, indent=2)
    prefix.with_name(prefix.name + ".txt").write_text(render_text(report), encoding="utf-8")
    _write_csv(prefix.with_name(prefix.name + ".csv"), data["per_video"])


def write_rows(rows: list[dict[str, Any]], prefix: str | Path) -> None:
    """Write a sweep result table as <prefix>.json and <prefix>.csv (suffixes appended)."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_json(prefix.with_name(prefix.name + ".json"), rows, indent=2)
    _write_csv(prefix.with_name(prefix.name + ".csv"), rows)
