"""The Sutherland–Hodgman clip as it stood over ``Point`` tuples.

``reference_clip(poly, hp)`` is the ``ConvexPolygon.clip`` that the flat
kernel in :mod:`repro.geometry.polygon` replaced, kept verbatim with its
``_crossing``, ``_dedupe`` and ``_coordinate_scale`` helpers.  It shares
no clip code with the library: it builds its result through the public
``ConvexPolygon`` constructor, so the result's area and emptiness come
from ``polygon_area`` over its ``Point`` vertices.  The tests require the
kernel to match it bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry import EPS, ConvexPolygon, HalfPlane, Point
from repro.geometry.primitives import distance, interpolate

#: Vertices closer than this are merged after clipping.
_MERGE_TOL = 1e-9


def reference_clip(poly: ConvexPolygon, hp: HalfPlane) -> ConvexPolygon:
    """Intersection with a half-plane (Sutherland–Hodgman, one plane).

    New edges introduced along the half-plane boundary carry
    ``hp.label``; surviving edges keep their labels.
    """
    n = len(poly.vertices)
    if n == 0:
        return poly
    tol = EPS * hp.scale() * _coordinate_scale(poly.vertices)
    values = [hp.value(v) for v in poly.vertices]
    if all(v <= tol for v in values):
        return poly  # fully inside; nothing to do
    if all(v >= -tol for v in values):
        return ConvexPolygon.empty()  # fully outside

    out_vertices: list[Point] = []
    out_labels: list[object] = []
    for i in range(n):
        p, q = poly.vertices[i], poly.vertices[(i + 1) % n]
        vp, vq = values[i], values[(i + 1) % n]
        label = poly.edge_labels[i]
        p_in = vp <= tol
        q_in = vq <= tol
        if p_in:
            out_vertices.append(p)
            if q_in:
                out_labels.append(label)
            else:
                out_labels.append(label)
                x = _crossing(p, q, vp, vq)
                out_vertices.append(x)
                out_labels.append(hp.label)
        elif q_in:
            x = _crossing(p, q, vp, vq)
            out_vertices.append(x)
            out_labels.append(label)
    return _dedupe(out_vertices, out_labels)


def _crossing(p: Point, q: Point, vp: float, vq: float) -> Point:
    """Where segment ``pq`` crosses the clip line (``vp``/``vq`` are the
    signed slacks at the endpoints, of opposite signs)."""
    t = vp / (vp - vq)
    t = min(1.0, max(0.0, t))
    return interpolate(p, q, t)


def _coordinate_scale(vertices: Sequence[Point]) -> float:
    """Rough coordinate magnitude, to keep clipping tolerances scale-free."""
    m = 1.0
    for v in vertices:
        m = max(m, abs(v.x), abs(v.y))
    return m


def _dedupe(vertices: list[Point], labels: list[object]) -> ConvexPolygon:
    """Drop (near-)duplicate consecutive vertices produced by clipping.

    When the zero-length edge ``(v[i], v[i+1])`` collapses, ``v[i+1]`` is
    removed and ``v[i]`` inherits the *following* edge's label, preserving
    the label of every edge with positive length.
    """
    n = len(vertices)
    if n == 0:
        return ConvexPolygon.empty()
    scale = _coordinate_scale(vertices)
    tol = _MERGE_TOL * scale
    keep_v: list[Point] = []
    keep_l: list[object] = []
    for i in range(n):
        v = vertices[i]
        nxt = vertices[(i + 1) % n]
        if distance(v, nxt) <= tol:
            continue  # outgoing edge degenerate: drop this vertex
        keep_v.append(v)
        keep_l.append(labels[i])
    if len(keep_v) < 3:
        return ConvexPolygon.empty()
    return ConvexPolygon(keep_v, keep_l)
