"""Experiment report rows and CSV / Markdown emission.

The CSV header is fixed so downstream tooling can rely on it; Markdown
renders one table per language block. Wall-clock columns vary run to run
and are excluded from determinism comparisons by consumers.
"""

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .embeddings import InputFormatError, open_text
from .metrics import MetricReport

CSV_HEADER = [
    "experiment_id",
    "lang",
    "steps",
    "beam",
    "defense",
    "bleu",
    "rouge1",
    "token_f1",
    "exact",
    "cos",
    "ndcg",
    "queries",
    "wall_ms",
]


@dataclass(eq=False)
class ReportRow:
    experiment_id: str
    lang: str
    steps: int
    beam: int
    defense: str
    metrics: MetricReport
    queries: int
    wall_ms: float
    ndcg: float | None = None


@dataclass(eq=False)
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list)

    def add(self, row: ReportRow) -> None:
        self.rows.append(row)

    def extend(self, other: "ExperimentReport") -> None:
        self.rows.extend(other.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _row_values(row: ReportRow) -> list[str]:
    m = row.metrics
    return [
        row.experiment_id,
        row.lang,
        str(row.steps),
        str(row.beam),
        row.defense,
        f"{m.bleu:.6f}",
        f"{m.rouge1_recall:.6f}",
        f"{m.token_f1:.6f}",
        f"{m.exact_match:.6f}",
        f"{m.cos:.6f}",
        "" if row.ndcg is None else f"{row.ndcg:.6f}",
        str(row.queries),
        f"{row.wall_ms:.3f}",
    ]


def emit_report(report: ExperimentReport, path: str | Path, fmt: str = "csv") -> Path:
    """Write the report to ``path``; refuses to emit an empty report."""
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for row in report.rows:
                writer.writerow(_row_values(row))
    elif fmt == "markdown":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def render_markdown(report: ExperimentReport) -> str:
    if not report.rows:
        raise ValueError("cannot render an empty report")
    groups: dict[str, list[ReportRow]] = {}
    for row in report.rows:
        groups.setdefault(row.lang, []).append(row)
    lines = []
    for lang, rows in groups.items():
        lines.append(f"## {lang}")
        lines.append("")
        lines.append("| " + " | ".join(CSV_HEADER[:1] + CSV_HEADER[2:]) + " |")
        lines.append("|" + "---|" * (len(CSV_HEADER) - 1))
        for row in rows:
            values = _row_values(row)
            lines.append("| " + " | ".join(values[:1] + values[2:]) + " |")
        lines.append("")
    return "\n".join(lines)


def _parse_row(row: list[str]) -> ReportRow:
    rec = dict(zip(CSV_HEADER, row))
    metrics = MetricReport(
        bleu=float(rec["bleu"]),
        rouge1_recall=float(rec["rouge1"]),
        token_f1=float(rec["token_f1"]),
        exact_match=float(rec["exact"]),
        cos=float(rec["cos"]),
    )
    return ReportRow(
        experiment_id=rec["experiment_id"],
        lang=rec["lang"],
        steps=int(rec["steps"]),
        beam=int(rec["beam"]),
        defense=rec["defense"],
        metrics=metrics,
        queries=int(rec["queries"]),
        wall_ms=float(rec["wall_ms"]),
        ndcg=float(rec["ndcg"]) if rec["ndcg"] != "" else None,
    )


def read_report_csv(path: str | Path) -> ExperimentReport:
    """Parse a previously emitted CSV back into a report. Undecodable bytes,
    malformed CSV, another header, a row with another number of fields or a
    field that is not its column's number raise InputFormatError citing the
    path and line."""
    report = ExperimentReport()
    reader = csv.reader(open_text(path, newline=""))
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise InputFormatError(f"{path}:1: unexpected CSV header: {header}")
        for row in reader:
            if not row:
                continue  # a blank line
            if len(row) != len(CSV_HEADER):
                count = f"{len(row)} fields, not {len(CSV_HEADER)}"
                raise InputFormatError(f"{path}:{reader.line_num}: {count}")
            try:
                report.add(_parse_row(row))
            except ValueError as exc:
                raise InputFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    except csv.Error as exc:
        raise InputFormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return report
