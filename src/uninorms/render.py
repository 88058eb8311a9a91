"""Plain-text and DOT renderings of contour plots and ordering profiles.

Grids are printed the way the plots are drawn: the top line is the row
y = n and the bottom line is y = 1. Every cell shows the value of its level
set; isolated points carry a trailing ``*`` and witness points, when given,
are bracketed. Output is deterministic: the same input always renders to the
same bytes.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .core import BinaryOperation, LinearOrder, contour_partition
from .single_peaked import is_single_peaked_via_profile, local_maxima, profile_heights


def render_contour_text(
    op: BinaryOperation,
    witness: Optional[Iterable[tuple[int, int]]] = None,
) -> str:
    """Character grid of the level sets, one cell per point of the square."""
    marked = set(witness) if witness is not None else set()
    isolated = set(contour_partition(op).isolated())
    cells = []  # cells[x-1][y-1]: the text of (x, y)
    for x, row in enumerate(op.table, 1):
        texts = []
        for y, v in enumerate(row, 1):
            text = str(v)
            if (x, y) in isolated:
                text += "*"
            if (x, y) in marked:
                text = f"[{text}]"
            texts.append(text)
        cells.append(texts)
    width = max(len(text) for texts in cells for text in texts)
    # line y holds the texts of (1, y) .. (n, y); the top line is y = n
    lines = [" ".join(text.rjust(width) for text in line) for line in zip(*cells)]
    return "\n".join(reversed(lines)) + "\n"


def render_contour_dot(op: BinaryOperation) -> str:
    """Undirected DOT graph: one positioned node per point, and a spanning
    path inside every level set (edges implied by transitivity are omitted,
    like in the plots)."""
    part = contour_partition(op)
    lines = ["graph contour {", "  node [shape=circle];"]
    for cls, value in zip(part.classes, part.values):
        for (x, y) in cls:
            lines.append(
                f'  "p{x}_{y}" [label="{value}", pos="{x},{y}!"];'
            )
    for cls in part.classes:
        for (x1, y1), (x2, y2) in zip(cls, cls[1:]):
            lines.append(f'  "p{x1}_{y1}" -- "p{x2}_{y2}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_profile(order: LinearOrder) -> str:
    """Height chart of an ordering over the chain, with local maxima marked
    ``X`` and other chart points ``o``; the caption states whether the
    ordering is single-peaked."""
    n = order.n
    heights = profile_heights(order)
    maxima = set(local_maxima(heights))
    lines = []
    for level in range(n, 0, -1):
        row = []
        for x in range(1, n + 1):
            if heights[x - 1] == level:
                row.append("X" if x in maxima else "o")
            else:
                row.append(".")
        lines.append(" ".join(row))
    verdict = "single-peaked" if is_single_peaked_via_profile(order) else "not single-peaked"
    lines.append(f"order: {' '.join(str(v) for v in order.seq)}  [{verdict}]")
    return "\n".join(lines) + "\n"
