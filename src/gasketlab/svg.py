"""Minimal deterministic SVG output for circle families."""

from __future__ import annotations

import math

SIZE = 800  # square canvas, in px
STROKE = "#1a1a1a"
MARGIN = 0.03  # blank border on each side, as a fraction of the circles' span


def circles_svg(circles, stroke_width: float = 1.0) -> str:
    """SVG document drawing (cx, cy, r) circles on a ``SIZE`` px square canvas.

    The circles are scaled to fit it with a ``MARGIN`` border and drawn in
    ``STROKE``.  Output is deterministic for a fixed input list (17
    significant digit coordinates, no timestamps).
    """
    if not 0.0 <= stroke_width < math.inf:
        raise ValueError(f"stroke width must be finite and nonnegative, got {stroke_width!r}")
    circles = list(circles)
    if circles:
        lo_x = min(c[0] - c[2] for c in circles)
        hi_x = max(c[0] + c[2] for c in circles)
        lo_y = min(c[1] - c[2] for c in circles)
        hi_y = max(c[1] + c[2] for c in circles)
        span = max(hi_x - lo_x, hi_y - lo_y, 1e-300)
        pad = MARGIN * span
        lo_x, lo_y, span = lo_x - pad, lo_y - pad, span + 2 * pad
    else:
        lo_x = lo_y = 0.0
        span = 1.0
    scale = SIZE / span

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<g fill="none" stroke="{STROKE}" stroke-width="{stroke_width:.17g}">',
    ]
    for cx, cy, r in circles:
        px = (cx - lo_x) * scale
        py = SIZE - (cy - lo_y) * scale  # flip y so the plane is upright
        lines.append(f'<circle cx="{px:.17g}" cy="{py:.17g}" r="{r * scale:.17g}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
