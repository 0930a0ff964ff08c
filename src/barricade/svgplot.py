"""Phase-portrait SVG emission: initial set, unsafe region, sample
trajectories and the certified level set.  Pure string construction, so
output is byte-stable for fixed inputs.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640.0
HEIGHT = 480.0
MARGIN = 40.0


def _fmt(v):
    return "%.3f" % v


class _Mapper:
    def __init__(self, xlim, ylim):
        self.xlim = xlim
        self.ylim = ylim
        self.sx = (WIDTH - 2 * MARGIN) / (xlim[1] - xlim[0])
        self.sy = (HEIGHT - 2 * MARGIN) / (ylim[1] - ylim[0])

    def x(self, v):
        return MARGIN + (v - self.xlim[0]) * self.sx

    def y(self, v):
        return HEIGHT - MARGIN - (v - self.ylim[0]) * self.sy

    def pt(self, x, y):
        return "%s,%s" % (_fmt(self.x(x)), _fmt(self.y(y)))


def render(spec, batch=None, candidate=None, level=None):
    """Return the SVG document as a string.

    Green rectangle: X0.  Red frame: the unsafe complement region.  Blue
    polylines: the traces of `batch` (star at start, circle at end).  One
    polyline of class "levelset" when a candidate and level are given:
    the candidate's level_points in 256 directions, which raise as they do.
    """
    r = spec.safe_rect.bounds[:2]
    (rx0, rx1), (ry0, ry1) = r.tolist()
    # the safe rectangle and a quarter of its width on either side
    xlim, ylim = (r + 0.25 * np.diff(r) * (-1.0, 1.0)).tolist()
    m = _Mapper(xlim, ylim)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT)]
    out.append('<rect x="0" y="0" width="%d" height="%d" fill="white"/>'
               % (WIDTH, HEIGHT))

    # Unsafe region: everything between the viewport and the safe rectangle.
    out.append('<path class="unsafe" fill="#f5c6c6" fill-rule="evenodd" d="'
               'M %s L %s L %s L %s Z M %s L %s L %s L %s Z"/>' % (
                   m.pt(xlim[0], ylim[0]), m.pt(xlim[1], ylim[0]),
                   m.pt(xlim[1], ylim[1]), m.pt(xlim[0], ylim[1]),
                   m.pt(rx0, ry0), m.pt(rx1, ry0),
                   m.pt(rx1, ry1), m.pt(rx0, ry1)))

    (x0, x1), (y0, y1) = spec.x0.bounds[:2].tolist()
    out.append('<rect class="init" fill="#c8e6c9" stroke="#2e7d32" '
               'x="%s" y="%s" width="%s" height="%s"/>' % (
                   _fmt(m.x(x0)), _fmt(m.y(y1)),
                   _fmt((x1 - x0) * m.sx), _fmt((y1 - y0) * m.sy)))

    for states in () if batch is None else batch.states.transpose(2, 0, 1):
        pts = " ".join(m.pt(s[0], s[1]) for s in states)
        out.append('<polyline class="trace" fill="none" stroke="#1565c0" '
                   'stroke-width="1" points="%s"/>' % pts)
        s0, se = states[0], states[-1]
        out.append('<text class="start" x="%s" y="%s" font-size="12" '
                   'text-anchor="middle" fill="#1565c0">*</text>'
                   % (_fmt(m.x(s0[0])), _fmt(m.y(s0[1]) + 4)))
        out.append('<circle class="end" cx="%s" cy="%s" r="3" fill="none" '
                   'stroke="#1565c0"/>' % (_fmt(m.x(se[0])), _fmt(m.y(se[1]))))

    if candidate is not None and level is not None:
        phis = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=True)
        pts = candidate.level_points(level, np.vstack([np.cos(phis),
                                                       np.sin(phis)]))
        text = " ".join(m.pt(x, y) for x, y in pts.T)
        out.append('<polyline class="levelset" fill="none" stroke="#6a1b9a" '
                   'stroke-width="2" points="%s"/>' % text)

    out.append("</svg>")
    return "\n".join(out) + "\n"
