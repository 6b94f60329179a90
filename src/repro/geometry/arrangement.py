"""Top-k Voronoi cells as level sets of half-plane arrangements.

Paper §2.2 defines the *top-k Voronoi cell* ``V_k(t)`` as the set of query
locations whose top-k answer contains ``t``.  Writing one constraint per
other site ``u`` — the bisector half-plane "``t`` is at least as close as
``u``" — a location belongs to ``V_k(t)`` iff it violates at most ``k - 1``
constraints.  ``V_k(t)`` is therefore the ``(k-1)``-level of the bisector
arrangement: generally *concave* for ``k > 1`` (paper Fig. 1) but always a
union of convex pieces, one per subset ``S`` of violated constraints.

:func:`build_level_region` materializes exactly the pieces that belong to
the cell by a breadth-first search over subsets: crossing an edge
contributed by constraint ``j`` toggles ``j``'s membership in ``S``.  The
search starts from a seed point known to lie in the cell; top-k cells are
star-shaped around their site, so the BFS reaches every piece.

The same machinery serves two masters:

* **LR-LBS** (§3): constraints are exact bisectors of known tuple
  locations; the region is the tentative cell whose boundary vertices are
  tested per Theorem 1.
* **LNR-LBS** (§4.2): constraints are *estimated* bisector lines recovered
  by binary search; the level construction handles the concave top-k case
  that a naive convex intersection would get wrong.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .halfplane import HalfPlane
from .polygon import BBOX_LABEL, ConvexPolygon, _coordinate_scale
from .primitives import EPS, Point

__all__ = ["LevelRegion", "build_level_region"]

#: Rounding quantum (relative to coordinate scale) for vertex dedup.
_VERTEX_GRID = 1e-7


@dataclass
class LevelRegion:
    """The set of points violating at most ``level`` of ``constraints``.

    ``pieces`` maps each violated-subset ``S`` (frozenset of constraint
    indices) to its convex piece.  Pieces have pairwise disjoint interiors
    and their union is the (connected, star-shaped) region.
    """

    constraints: tuple[HalfPlane, ...]
    level: int
    base: ConvexPolygon
    pieces: dict[frozenset, ConvexPolygon] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def area(self) -> float:
        return sum(p.area() for p in self.pieces.values())

    def is_empty(self) -> bool:
        return not self.pieces

    def num_pieces(self) -> int:
        return len(self.pieces)

    def contains(self, p: Point, tol: float = EPS) -> bool:
        """Membership by direct constraint counting (O(n))."""
        violated = 0
        for hp in self.constraints:
            if hp.value(p) > tol * hp.scale():
                violated += 1
                if violated > self.level:
                    return False
        return self.base.contains(p)

    def violated_subset(self, p: Point, tol: float = EPS) -> frozenset:
        return frozenset(
            j for j, hp in enumerate(self.constraints)
            if hp.value(p) > tol * hp.scale()
        )

    # ------------------------------------------------------------------
    def boundary_edges(self) -> list[tuple[Point, Point, object]]:
        """Outer-boundary edges as ``(start, end, label)``.

        An edge of piece ``S`` is on the outer boundary iff it comes from
        the bounding box, or from a constraint ``j not in S`` while ``S``
        is already at the maximum level (crossing it would exceed the
        budget of ``level`` violations).
        """
        out: list[tuple[Point, Point, object]] = []
        for subset, poly in self.pieces.items():
            at_top = len(subset) == self.level
            for a, b, label in poly.edges():
                if label == BBOX_LABEL or not isinstance(label, int):
                    out.append((a, b, label))
                elif label not in subset and at_top:
                    out.append((a, b, self.constraints[label].label))
        return out

    def boundary_vertices(self) -> list[Point]:
        """Deduplicated endpoints of outer-boundary edges.

        These are exactly the vertices Theorem 1 requires the algorithms
        to test with kNN queries.
        """
        scale = 1.0
        for poly in self.pieces.values():
            for v in poly.vertices:
                scale = max(scale, abs(v.x), abs(v.y))
        quantum = _VERTEX_GRID * scale
        seen: dict[tuple[int, int], Point] = {}
        for a, b, _label in self.boundary_edges():
            for v in (a, b):
                key = (round(v.x / quantum), round(v.y / quantum))
                seen.setdefault(key, v)
        return list(seen.values())

    def all_vertices(self) -> list[Point]:
        """Deduplicated vertices of every piece (boundary and interior)."""
        quantum = _VERTEX_GRID
        for poly in self.pieces.values():
            for v in poly.vertices:
                quantum = max(quantum, _VERTEX_GRID * max(abs(v.x), abs(v.y)))
        seen: dict[tuple[int, int], Point] = {}
        for poly in self.pieces.values():
            for v in poly.vertices:
                key = (round(v.x / quantum), round(v.y / quantum))
                seen.setdefault(key, v)
        return list(seen.values())

    # ------------------------------------------------------------------
    def sample(self, rng) -> Point:
        """Uniform random point in the region (piece chosen by area)."""
        items = [(s, p) for s, p in self.pieces.items() if not p.is_empty()]
        if not items:
            raise ValueError("cannot sample from an empty region")
        areas = [p.area() for _s, p in items]
        total = sum(areas)
        u = rng.random() * total
        acc = 0.0
        for (_s, poly), w in zip(items, areas):
            acc += w
            if u <= acc:
                return poly.sample(rng)
        return items[-1][1].sample(rng)

    def polygons(self) -> list[ConvexPolygon]:
        return list(self.pieces.values())


def build_level_region(
    constraints: Sequence[HalfPlane],
    level: int,
    base: ConvexPolygon,
    seed: Point,
    max_pieces: int = 100_000,
) -> LevelRegion:
    """Construct the connected ``level``-region containing ``seed``.

    Parameters
    ----------
    constraints:
        Bisector half-planes; ``hp.label`` is preserved on boundary edges.
    level:
        Maximum number of violated constraints (``h - 1`` for a top-h
        cell).
    base:
        Bounding polygon (usually the experiment's bounding box).
    seed:
        A point inside the region (the tuple location for LR, the sampled
        query point for LNR).
    """
    cons = tuple(constraints)
    region = LevelRegion(cons, level, base)
    if base.is_empty():
        return region

    if level >= len(cons):
        # Every subset allowed: the region is the whole base, one piece.
        region.pieces[frozenset(range(len(cons)))] = base
        return region

    seed_subset = region.violated_subset(seed)
    if len(seed_subset) > level:
        raise ValueError(
            f"seed violates {len(seed_subset)} constraints; level is {level}"
        )

    chain = _ClipChain(cons, base)
    start = chain.piece(seed_subset)
    if start.is_empty():
        start, seed_subset = _rescue_seed(region, seed, chain.piece, level)
        if start.is_empty():
            return region

    region.pieces[seed_subset] = start
    queue = [seed_subset]
    while queue:
        subset = queue.pop()
        poly = region.pieces[subset]
        for label in poly.labels():
            if not isinstance(label, int):
                continue
            neighbour = subset ^ {label}
            if len(neighbour) > level or neighbour in region.pieces:
                continue
            npoly = chain.piece(neighbour, subset, label)
            if npoly.is_empty():
                continue
            region.pieces[neighbour] = npoly
            queue.append(neighbour)
            if len(region.pieces) > max_pieces:
                raise RuntimeError("level region exceeded max_pieces")
    return region


class _ClipChain:
    """The convex piece of one violated subset ``S``: ``base`` clipped by
    every constraint in index order, flipped when its index is in ``S``.

    Two exact shortcuts over clipping by every plane:

    * A plane that keeps every vertex of the current polygon is skipped.
      The test is ``ConvexPolygon.clip``'s own: the same
      ``a*x + b*y - c`` per vertex, against the same per-polygon
      tolerance ``EPS * hp.scale() * _coordinate_scale(vertices)``, so
      ``clip`` would have returned the polygon unchanged.
    * Each piece keeps its checkpoints: the index of every plane that was
      clipped and the polygon after it.  The chains of ``S`` and of its
      BFS neighbour ``S ^ {j}`` agree on every plane before ``j``, so the
      neighbour resumes from ``S``'s last checkpoint before ``j``.

    Checkpoints, like the oriented planes, live for one region build.
    """

    def __init__(self, cons: tuple[HalfPlane, ...], base: ConvexPolygon):
        self.cons = cons
        self.base = base
        #: j -> (a, b, c, EPS * scale) of constraint j as given
        self.keep = [(hp.a, hp.b, hp.c, EPS * hp.scale()) for hp in cons]
        #: j -> the same for constraint j flipped, built on first use
        self.flip: dict[int, tuple[float, float, float, float]] = {}
        #: (j, flipped) -> the clip plane, labelled j, built on first use
        self.planes: dict[tuple[int, bool], HalfPlane] = {}
        #: subset -> (indices of the clipped planes, polygon after each)
        self.checkpoints: dict[frozenset, tuple[list[int], list[ConvexPolygon]]] = {}

    def piece(self, subset: frozenset, parent: Optional[frozenset] = None,
              toggled: int = 0) -> ConvexPolygon:
        """The piece of ``subset``; with ``parent``, resume the chain of
        the piece ``parent`` (``subset`` is ``parent ^ {toggled}``)."""
        if parent is None:
            indices, polys, start = [], [], 0
        else:
            parent_indices, parent_polys = self.checkpoints[parent]
            start = max(toggled, 0)  # a base edge may carry a negative int label
            cut = bisect_left(parent_indices, start)
            indices, polys = parent_indices[:cut], parent_polys[:cut]
        poly = polys[-1] if polys else self.base
        vertices = poly.vertices
        scale = _coordinate_scale(vertices)
        keep = self.keep
        for j in range(start, len(keep)):
            flipped = j in subset
            a, b, c, tol_factor = self._flipped(j) if flipped else keep[j]
            tol = tol_factor * scale
            for v in vertices:
                if a * v.x + b * v.y - c > tol:
                    break
            else:
                continue  # every vertex inside: clip would return poly
            poly = poly.clip(self._plane(j, flipped))
            if poly.is_empty():
                return ConvexPolygon.empty()
            vertices = poly.vertices
            scale = _coordinate_scale(vertices)
            indices.append(j)
            polys.append(poly)
        self.checkpoints[subset] = (indices, polys)
        return poly

    def _flipped(self, j: int) -> tuple[float, float, float, float]:
        coeffs = self.flip.get(j)
        if coeffs is None:
            hp = self._plane(j, True)
            coeffs = self.flip[j] = (hp.a, hp.b, hp.c, EPS * hp.scale())
        return coeffs

    def _plane(self, j: int, flipped: bool) -> HalfPlane:
        plane = self.planes.get((j, flipped))
        if plane is None:
            hp = self.cons[j].flipped() if flipped else self.cons[j]
            plane = self.planes[(j, flipped)] = hp.relabel(j)
        return plane


def _rescue_seed(region: LevelRegion, seed: Point, piece_for, level: int):
    """Seed sits on a piece boundary (degenerate clip).  Try flipping each
    near-active constraint to land in an adjacent non-empty piece."""
    near = [
        j for j, hp in enumerate(region.constraints)
        if abs(hp.value(seed)) <= 1e-6 * hp.scale()
    ]
    base_subset = region.violated_subset(seed)
    for j in near:
        candidate = base_subset ^ {j}
        if len(candidate) > level:
            continue
        poly = piece_for(candidate)
        if not poly.is_empty():
            return poly, candidate
    return ConvexPolygon.empty(), base_subset
