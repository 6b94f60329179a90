"""Convex polygons with labeled edges and half-plane clipping.

The tentative Voronoi cell of a tuple is maintained as a
:class:`ConvexPolygon` and refined by clipping with perpendicular-bisector
half-planes (paper §3.1).  Each edge remembers the ``label`` of the
half-plane that created it, which lets the algorithms answer questions like

* "is this edge contributed by a Fast-Init fake corner?" (paper §3.2.1), and
* "which neighbouring subset does crossing this edge lead to?" (the subset
  BFS used for top-k cells, see :mod:`repro.geometry.arrangement`).

Vertices are stored counter-clockwise; ``edge_labels[i]`` tags the edge from
``vertices[i]`` to ``vertices[(i+1) % n]``.
"""

from __future__ import annotations

import math
from math import hypot
from typing import Iterable, Iterator, Optional, Sequence

from .halfplane import HalfPlane
from .primitives import (
    EPS,
    Point,
    Rect,
    distance,
    orientation,
    polygon_area,
    polygon_centroid,
)

__all__ = ["ConvexPolygon", "BBOX_LABEL"]

#: Label attached to edges inherited from the bounding rectangle.
BBOX_LABEL = "bbox"

#: Vertices closer than this are merged after clipping.
_MERGE_TOL = 1e-9


class ConvexPolygon:
    """An immutable convex polygon with per-edge labels.

    A polygon made by :meth:`clip` carries its coordinate scale and
    signed area out of the clip that made it; any other polygon works
    them out on first use.
    """

    __slots__ = ("vertices", "edge_labels", "_scale", "_area")

    def __init__(self, vertices: Sequence[Point], edge_labels: Optional[Sequence[object]] = None):
        vs = [Point(float(p[0]), float(p[1])) for p in vertices]
        if edge_labels is None:
            edge_labels = [None] * len(vs)
        if len(edge_labels) != len(vs):
            raise ValueError("edge_labels must match vertices 1:1")
        self.vertices: tuple[Point, ...] = tuple(vs)
        self.edge_labels: tuple[object, ...] = tuple(edge_labels)
        self._scale: Optional[float] = None
        self._area: Optional[float] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_rect(rect: Rect, label: object = BBOX_LABEL) -> "ConvexPolygon":
        """The rectangle as a CCW polygon; all edges share ``label``."""
        return ConvexPolygon(rect.corners(), [label] * 4)

    @staticmethod
    def empty() -> "ConvexPolygon":
        return ConvexPolygon([], [])

    @staticmethod
    def _from_flat(xs: Sequence[float], ys: Sequence[float], labels: Sequence[object],
                  scale: float, area: float) -> "ConvexPolygon":
        """The polygon of a :func:`clip_flat` result.  The result's scale
        and signed area are exactly what these vertices give, so the
        polygon keeps them instead of working them out again."""
        poly = object.__new__(ConvexPolygon)
        poly.vertices = tuple(map(Point, xs, ys))
        poly.edge_labels = tuple(labels)
        poly._scale = scale
        poly._area = area
        return poly

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vertices)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConvexPolygon({len(self.vertices)} vertices, area={self.area():.6g})"

    def is_empty(self, min_area: float = 0.0) -> bool:
        """True when the polygon has no interior (or area below ``min_area``)."""
        if len(self.vertices) < 3:
            return True
        return self.area() <= max(min_area, 0.0)

    def area(self) -> float:
        if self._area is None:
            self._area = polygon_area(self.vertices)
        return abs(self._area)

    def centroid(self) -> Point:
        return polygon_centroid(self.vertices)

    def perimeter(self) -> float:
        n = len(self.vertices)
        return sum(distance(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n))

    def edges(self) -> Iterator[tuple[Point, Point, object]]:
        """Yield ``(start, end, label)`` for every edge."""
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n], self.edge_labels[i]

    def bounding_rect(self) -> Rect:
        if not self.vertices:
            raise ValueError("empty polygon has no bounding rectangle")
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        """Point-in-convex-polygon test (boundary counts as inside)."""
        n = len(self.vertices)
        if n < 3:
            return False
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if orientation(a, b, p) < -tol * max(1.0, distance(a, b)):
                return False
        return True

    def labels(self) -> set:
        """Set of distinct edge labels."""
        return set(self.edge_labels)

    # ------------------------------------------------------------------
    # Clipping
    # ------------------------------------------------------------------
    def clip(self, hp: HalfPlane) -> "ConvexPolygon":
        """Intersection with a half-plane (Sutherland–Hodgman, one plane).

        New edges introduced along the half-plane boundary carry
        ``hp.label``; surviving edges keep their labels.  A polygon the
        plane does not cut is returned as is.
        """
        if not self.vertices:
            return self
        xs, ys = zip(*self.vertices)
        if self._scale is None:
            self._scale = coordinate_scale(xs, ys)
        tol = EPS * hp.scale() * self._scale
        a, b, c = hp.a, hp.b, hp.c
        for x, y in zip(xs, ys):
            if a * x + b * y - c > tol:
                break
        else:
            return self  # fully inside; nothing to do
        values = [a * x + b * y - c for x, y in zip(xs, ys)]
        return ConvexPolygon._from_flat(
            *clip_flat(xs, ys, self.edge_labels, values, tol, hp.label))

    def clip_many(self, half_planes: Iterable[HalfPlane]) -> "ConvexPolygon":
        """Clip by several half-planes, short-circuiting when empty."""
        poly: ConvexPolygon = self
        for hp in half_planes:
            poly = poly.clip(hp)
            if poly.is_empty():
                return ConvexPolygon.empty()
        return poly

    def clip_rect(self, rect: Rect, label: object = BBOX_LABEL) -> "ConvexPolygon":
        """Intersection with an axis-aligned rectangle."""
        planes = [
            HalfPlane(-1.0, 0.0, -rect.x0, label),
            HalfPlane(1.0, 0.0, rect.x1, label),
            HalfPlane(0.0, -1.0, -rect.y0, label),
            HalfPlane(0.0, 1.0, rect.y1, label),
        ]
        return self.clip_many(planes)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def triangles(self) -> list[tuple[Point, Point, Point]]:
        """Fan triangulation (valid for convex polygons)."""
        vs = self.vertices
        return [(vs[0], vs[i], vs[i + 1]) for i in range(1, len(vs) - 1)]

    def sample(self, rng) -> Point:
        """Uniform random interior point.

        Picks a fan triangle proportionally to area, then samples the
        triangle by the standard square-root warp.
        """
        tris = self.triangles()
        if not tris:
            raise ValueError("cannot sample from an empty polygon")
        areas = [abs(orientation(a, b, c)) / 2.0 for a, b, c in tris]
        total = sum(areas)
        if total <= 0.0:
            raise ValueError("cannot sample from a degenerate polygon")
        u = rng.random() * total
        acc = 0.0
        chosen = tris[-1]
        for tri, w in zip(tris, areas):
            acc += w
            if u <= acc:
                chosen = tri
                break
        return sample_triangle(chosen, rng)


def sample_triangle(tri: tuple[Point, Point, Point], rng) -> Point:
    """Uniform point in a triangle via the sqrt warp."""
    a, b, c = tri
    r1 = math.sqrt(rng.random())
    r2 = rng.random()
    x = (1 - r1) * a.x + r1 * (1 - r2) * b.x + r1 * r2 * c.x
    y = (1 - r1) * a.y + r1 * (1 - r2) * b.y + r1 * r2 * c.y
    return Point(x, y)


#: A :func:`clip_flat` result that leaves no polygon.
_NOTHING: tuple = ((), (), (), 1.0, 0.0)


def coordinate_scale(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rough coordinate magnitude, to keep clipping tolerances scale-free:
    the largest ``|x|`` or ``|y|``, and at least 1."""
    return max((1.0, *map(abs, xs), *map(abs, ys)))


def clip_flat(xs: Sequence[float], ys: Sequence[float], labels: Sequence[object],
              values: Sequence[float], tol: float, label: object) -> tuple:
    """Clip a convex polygon, given as flat coordinate and edge-label
    sequences, by a half-plane: the one clip behind
    :meth:`ConvexPolygon.clip` and the level-region kernel.

    ``values`` are the vertices' slacks ``a*x + b*y - c`` against the
    half-plane ``a*x + b*y <= c``; a vertex is inside when its slack is
    at most ``tol`` (``EPS * hp.scale()`` times the polygon's
    :func:`coordinate_scale`), and the caller has seen one that is not.

    Returns ``(xs, ys, labels, scale, area)``: the clipped polygon's
    vertices and edge labels (new edges carry ``label``), its coordinate
    scale and its signed shoelace area, with no vertices when nothing is
    left; three or more vertices may still have zero area.  A crossing
    is ``p + t*(q - p)`` with ``t = vp / (vp - vq)`` clamped to [0, 1].
    A vertex within ``_MERGE_TOL`` times the unmerged output's scale of
    the next one is dropped (the next keeps its own label), and fewer
    than three vertices leave nothing.
    """
    if min(values) >= -tol:
        return _NOTHING  # fully outside
    # Edge i runs from vertex i to vertex i + 1; the index i + 1 - n is
    # i + 1 counted from the end, which wraps the last edge to vertex 0.
    n = len(values)
    ox: list[float] = []
    oy: list[float] = []
    ol: list[object] = []
    for i in range(n):
        j = i + 1 - n
        vp = values[i]
        vq = values[j]
        if vp <= tol:
            px = xs[i]
            py = ys[i]
            ox.append(px)
            oy.append(py)
            ol.append(labels[i])
            if vq > tol:
                t = vp / (vp - vq)
                t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0  # min(1, max(0, t))
                ox.append(px + t * (xs[j] - px))
                oy.append(py + t * (ys[j] - py))
                ol.append(label)
        elif vq <= tol:
            px = xs[i]
            py = ys[i]
            t = vp / (vp - vq)
            t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0
            ox.append(px + t * (xs[j] - px))
            oy.append(py + t * (ys[j] - py))
            ol.append(labels[i])
    # Drop (near-)duplicate consecutive vertices.
    scale = coordinate_scale(ox, oy)
    merge = _MERGE_TOL * scale
    m = len(ox)
    kx: list[float] = []
    ky: list[float] = []
    kl: list[object] = []
    for i in range(m):
        j = i + 1 - m
        if hypot(ox[i] - ox[j], oy[i] - oy[j]) <= merge:
            continue  # outgoing edge degenerate: drop this vertex
        kx.append(ox[i])
        ky.append(oy[i])
        kl.append(ol[i])
    k = len(kx)
    if k < 3:
        return _NOTHING
    if k < m:
        scale = coordinate_scale(kx, ky)
    # polygon_area's shoelace, term for term.
    acc = 0.0
    for i in range(k):
        j = i + 1 - k
        acc += kx[i] * ky[j] - kx[j] * ky[i]
    return kx, ky, kl, scale, acc / 2.0
