"""Stable text renderings of tables and sweep results.

Counts are emitted as decimal strings in every structured format, since
they outgrow doubles quickly.  Emitters are pure functions of their
input, so identical runs produce byte-identical documents.
"""

from __future__ import annotations

import json
from collections import Counter

from .combinatorics import Ball, GroundParams, layer_profile
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


def emit_table_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def emit_table_text(report: dict) -> str:
    head = (
        f"ball p={report['p']} q={report['q']} r={report['r']}: "
        f"{report['ball_size']} elements, largest layer "
        f"{report['largest_layer_size']} at height {report['largest_layer_height']}"
    )
    if report["tie"]:
        head += " (tied)"
    widths = [
        max(len(str(row[k])) for row in report["rows"] + [{k: k}])
        for k in ("i", "j", "size", "height")
    ]
    lines = [head, ""]
    lines.append(
        "  ".join(
            k.rjust(w) for k, w in zip(("i", "j", "size", "height"), widths)
        )
    )
    for row in report["rows"]:
        lines.append(
            "  ".join(
                str(row[k]).rjust(w)
                for k, w in zip(("i", "j", "size", "height"), widths)
            )
        )
    return "\n".join(lines) + "\n"


def emit_table_tikz(report: dict) -> str:
    """Diagram with one node per sublayer at (i+j, j-i).

    Dotted guides trace constant i and constant j; the largest layer
    (every tied height) is set in red.
    """
    rows = report["rows"]
    argmax = {report["largest_layer_height"]}
    if report["tie"]:
        by_height: dict[int, int] = {}
        for row in rows:
            by_height[row["height"]] = by_height.get(row["height"], 0) + int(
                row["size"]
            )
        best = max(by_height.values())
        argmax = {h for h, v in by_height.items() if v == best}
    lines = [r"\begin{tikzpicture}[x=1.1cm, y=0.9cm]"]
    by_i: dict[int, list[tuple[int, int]]] = {}
    by_j: dict[int, list[tuple[int, int]]] = {}
    for row in rows:
        by_i.setdefault(row["i"], []).append((row["i"], row["j"]))
        by_j.setdefault(row["j"], []).append((row["i"], row["j"]))
    for i in sorted(by_i):
        pts = sorted(by_i[i])
        if len(pts) > 1:
            (_, j0), (_, j1) = pts[0], pts[-1]
            lines.append(
                f"  \\draw[dotted] ({i + j0},{j0 - i}) -- ({i + j1},{j1 - i});"
            )
    for j in sorted(by_j):
        pts = sorted(by_j[j])
        if len(pts) > 1:
            (i0, _), (i1, _) = pts[0], pts[-1]
            lines.append(
                f"  \\draw[dotted] ({i0 + j},{j - i0}) -- ({i1 + j},{j - i1});"
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
    return json.dumps(payload, indent=2) + "\n"


def emit_sweep_text(records) -> str:
    rows = [[_cell(record_row(r)[k]) for k in SWEEP_COLUMNS] for r in records]
    widths = [
        max(len(k), *(len(row[c]) for row in rows)) if rows else len(k)
        for c, k in enumerate(SWEEP_COLUMNS)
    ]
    lines = ["  ".join(k.rjust(w) for k, w in zip(SWEEP_COLUMNS, widths))]
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    lines.append("")
    lines.append(
        ", ".join(f"{k}: {v}" for k, v in status_tally(records).items())
        or "no records"
    )
    return "\n".join(lines) + "\n"


def emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
