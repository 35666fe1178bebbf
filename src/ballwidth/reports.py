"""Stable text renderings of tables and sweep results.

Counts are emitted as decimal strings in every structured format, since
they outgrow doubles quickly.  Emitters are pure functions of their
input, so identical runs produce byte-identical documents.
"""

from __future__ import annotations

import json
from collections import Counter

from .combinatorics import Ball, GroundParams, layer_profile, profile_from_sizes
from .poset import quotient_dag

SWEEP_COLUMNS = [
    "p",
    "q",
    "r",
    "ball_size",
    "largest_layer_height",
    "largest_layer_size",
    "tie",
    "width",
    "unique",
    "certificate",
    "klym_sphere",
    "theorem_bound_ok",
    "status",
]

# the benchmark's tracer still measures the layer profile under this name
ball_profile = layer_profile


def emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _aligned(names: list[str], rows: list[list[str]]) -> list[str]:
    """A header and its rows as right-justified columns, two spaces apart."""
    widths = [max([len(k), *(len(row[c]) for row in rows)]) for c, k in enumerate(names)]
    lines = []
    for row in [names, *rows]:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return lines


def table_report(params: GroundParams) -> dict:
    dag = quotient_dag(params, Ball())
    profile = layer_profile(dag)
    rows = [
        {
            "i": c[0],
            "j": c[1],
            "height": dag.height_of[c],
            "size": str(dag.table.sizes[c]),
        }
        for c in dag.coords
    ]
    return {
        "p": params.p,
        "q": params.q,
        "r": params.r,
        "ball_size": str(dag.table.total),
        "largest_layer_height": profile.argmax[0],
        "largest_layer_size": str(profile.max_size),
        "tie": profile.tie,
        "rows": rows,
    }


def emit_table_csv(report: dict) -> str:
    lines = ["i,j,size,height"]
    for row in report["rows"]:
        lines.append(f"{row['i']},{row['j']},{row['size']},{row['height']}")
    return "\n".join(lines) + "\n"


def emit_table_text(report: dict) -> str:
    head = (
        f"ball p={report['p']} q={report['q']} r={report['r']}: "
        f"{report['ball_size']} elements, largest layer "
        f"{report['largest_layer_size']} at height {report['largest_layer_height']}"
    )
    if report["tie"]:
        head += " (tied)"
    names = ["i", "j", "size", "height"]
    rows = [[str(row[k]) for k in names] for row in report["rows"]]
    return "\n".join([head, "", *_aligned(names, rows)]) + "\n"


def emit_table_tikz(report: dict) -> str:
    """Diagram with one node per sublayer at (i+j, j-i).

    Dotted guides trace constant i and constant j; the largest layer
    (every tied height) is set in red.
    """
    rows = report["rows"]
    by_height: dict[int, int] = {}
    for row in rows:
        by_height[row["height"]] = by_height.get(row["height"], 0) + int(row["size"])
    argmax = set(profile_from_sizes(by_height).argmax)
    lines = [r"\begin{tikzpicture}[x=1.1cm, y=0.9cm]"]
    for axis in (0, 1):  # the guides of constant i, then of constant j
        guides: dict[int, list[tuple[int, int]]] = {}
        for row in rows:
            cell = (row["i"], row["j"])
            guides.setdefault(cell[axis], []).append(cell)
        for key in sorted(guides):
            if len(guides[key]) > 1:
                (i0, j0), (i1, j1) = min(guides[key]), max(guides[key])
                lines.append(
                    f"  \\draw[dotted] ({i0 + j0},{j0 - i0}) -- ({i1 + j1},{j1 - i1});"
                )
    for row in sorted(rows, key=lambda r: (r["i"] + r["j"], r["j"] - r["i"])):
        x, y = row["i"] + row["j"], row["j"] - row["i"]
        style = "[red] " if row["height"] in argmax else ""
        lines.append(f"  \\node {style}at ({x},{y}) {{{row['size']}}};")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def record_row(record) -> dict:
    """Canonical record fields; timing deliberately left out."""
    return {k: getattr(record, k) for k in SWEEP_COLUMNS}


def status_tally(records) -> dict[str, int]:
    """Number of records per status, statuses in sorted order."""
    return dict(sorted(Counter(record.status for record in records).items()))


def emit_sweep_csv(records) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for record in records:
        row = record_row(record)
        lines.append(",".join(_cell(row[k]) for k in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_sweep_json(records) -> str:
    payload = {
        "records": [record_row(r) for r in records],
        "summary": {"total": len(records), "by_status": status_tally(records)},
    }
    return emit_json(payload)


def emit_sweep_text(records) -> str:
    rows = [[_cell(record_row(r)[k]) for k in SWEEP_COLUMNS] for r in records]
    lines = _aligned(SWEEP_COLUMNS, rows)
    lines.append("")
    lines.append(
        ", ".join(f"{k}: {v}" for k, v in status_tally(records).items())
        or "no records"
    )
    return "\n".join(lines) + "\n"
