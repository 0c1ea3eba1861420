"""Reduction of sweep result rows into summary statistics.

The reducer answers the Section-V question the sweep exists for: how does
accuracy degrade as the analog error model scales?  Rows are grouped by
configuration (model, cell bits) and, within each group, by noise scale
and stuck fraction; every (configuration, scale) cell reduces to mean / p95 / max
relative error plus the per-layer mean errors (error attribution — which
layer's analog chains contribute the degradation).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

#: the fields that identify one sweep configuration group
GROUP_FIELDS = ("model", "cell_bits")


def summarize(rows: Iterable[dict]) -> List[dict]:
    """Reduce result rows into per-(configuration, noise-scale) statistics.

    Returns one entry per (model, cell_bits, noise_scale, stuck_fraction),
    sorted canonically, each carrying ``trials``,
    ``mean_rel_error``, ``p95_rel_error``, ``max_rel_error``,
    ``std_rel_error`` and a ``layers`` dict of per-layer mean relative
    errors.  Structured error rows (a ``--keep-going`` sweep records failed
    trials with an ``"error"`` field instead of results) are excluded from
    the statistics; cells containing any add a ``failed`` count, and a cell
    whose trials *all* failed reports NaN errors rather than vanishing.
    """
    cells: Dict[Tuple, List[dict]] = {}
    for row in rows:
        group = tuple(row[field] for field in GROUP_FIELDS) + (
            row["noise_scale"],
            row.get("stuck_fraction", 0.0),
        )
        cells.setdefault(group, []).append(row)

    summary: List[dict] = []
    # model sorts as a string; cell_bits, noise_scale and stuck_fraction
    # numerically
    for group in sorted(cells, key=lambda g: (str(g[0]), g[1], g[2], g[3])):
        bucket = cells[group]
        failed = [row for row in bucket if "error" in row]
        ok = [row for row in bucket if "error" not in row]
        errors = np.array([row["rel_error"] for row in ok], dtype=float)
        layer_names = list(ok[0].get("layers", {})) if ok else []
        layers = {
            name: float(np.mean([row["layers"][name] for row in ok]))
            for name in layer_names
        }
        entry = dict(zip(GROUP_FIELDS, group[:-2]))
        entry.update(
            {
                "noise_scale": group[-2],
                "stuck_fraction": group[-1],
                "trials": len(ok),
                "mean_rel_error": float(errors.mean()) if ok else float("nan"),
                "p95_rel_error": float(np.percentile(errors, 95)) if ok else float("nan"),
                "max_rel_error": float(errors.max()) if ok else float("nan"),
                "std_rel_error": float(errors.std()) if ok else float("nan"),
                "layers": layers,
            }
        )
        if failed:
            entry["failed"] = len(failed)
        summary.append(entry)
    return summary


def format_summary(summary: List[dict], per_layer: bool = False) -> str:
    """Human-readable table of :func:`summarize` output."""
    lines: List[str] = []
    header = (
        f"{'model':<12} {'cells':>5} {'noise':>6} {'stuck':>6} "
        f"{'trials':>6} {'mean err':>11} {'p95 err':>11} {'max err':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in summary:
        line = (
            f"{entry['model']:<12} {entry['cell_bits']:>5} "
            f"{entry['noise_scale']:>6g} {entry.get('stuck_fraction', 0.0):>6g} "
            f"{entry['trials']:>6} "
            f"{entry['mean_rel_error']:>11.3e} {entry['p95_rel_error']:>11.3e} "
            f"{entry['max_rel_error']:>11.3e}"
        )
        if entry.get("failed"):
            line += f"  [{entry['failed']} failed]"
        lines.append(line)
        if per_layer and entry["layers"]:
            worst = sorted(entry["layers"].items(), key=lambda kv: -kv[1])
            for name, err in worst:
                lines.append(f"{'':<12} {'':>5} {'':>6} {name:>20}: {err:.3e}")
    return "\n".join(lines)
