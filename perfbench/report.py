"""Parsing of the `fleet_sweep` stdout report.

The report is the program's user-facing output: a header, a
`triples ... simulated ... s` line and a metric table whose rows end in
six numbers (mean, min, p50, p90, p99, max). A worst-triples table and
a `telemetry:` counter block may follow; neither is parsed here.
"""

import math
import re

HEADER = re.compile(
    r"^fleet sweep: (\d+) users x (\d+) scenarios, seed (\d+), governor (\S+)$"
)
TOTALS = re.compile(r"^triples\s+(\d+)\s+simulated\s+(\S+) s$")
COLUMNS = ["mean", "min", "p50", "p90", "p99", "max"]


class ReportError(ValueError):
    """The text is not a well-formed fleet_sweep report."""


def parse(text):
    """Returns the report's header fields, totals and metric rows.

    Rows map the metric name to a dict keyed by `COLUMNS`. Numbers are
    parsed as printed, so a `NaN` or `inf` cell parses to a non-finite
    float rather than failing; `non_finite` reports those.
    """
    lines = text.splitlines()
    header = HEADER.match(lines[0]) if lines else None
    if header is None:
        raise ReportError("missing 'fleet sweep:' header line")
    totals_at = next((i for i, line in enumerate(lines) if TOTALS.match(line)), None)
    if totals_at is None:
        raise ReportError("missing 'triples ... simulated ... s' line")
    totals = TOTALS.match(lines[totals_at])
    table_header = lines[totals_at + 1] if totals_at + 1 < len(lines) else ""
    if table_header.split() != ["metric"] + COLUMNS:
        raise ReportError("missing metric table header")
    rows = {}
    for line in lines[totals_at + 2 :]:
        if not line.strip() or line.startswith("worst triples") or line == "telemetry:":
            break
        tokens = line.split()
        if len(tokens) < 7:
            raise ReportError(f"short metric row: {line!r}")
        try:
            values = [float(t) for t in tokens[-6:]]
        except ValueError as err:
            raise ReportError(f"non-numeric metric row: {line!r}") from err
        rows[" ".join(tokens[:-6])] = dict(zip(COLUMNS, values))
    if not rows:
        raise ReportError("empty metric table")
    return {
        "users": int(header.group(1)),
        "scenarios": int(header.group(2)),
        "seed": int(header.group(3)),
        "governor": header.group(4),
        "triples": int(totals.group(1)),
        "sim_seconds": float(totals.group(2)),
        "rows": rows,
    }


def non_finite(report):
    """Names of rows holding a NaN or infinite cell (plus the totals)."""
    bad = [
        name
        for name, row in report["rows"].items()
        if not all(map(math.isfinite, row.values()))
    ]
    if not math.isfinite(report["sim_seconds"]):
        bad.append("simulated")
    return bad


def quantile_above_max(report):
    """Rows whose printed p90 or p99 exceeds the printed max.

    A known defect of the fleet histogram (quantiles are bin upper
    edges, never clamped to the observed range); reported, never gated.
    """
    return sum(
        1
        for row in report["rows"].values()
        if row["p90"] > row["max"] or row["p99"] > row["max"]
    )
