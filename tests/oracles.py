"""Point membership, the oracle the region tests check the engine against:
a point lies in a region when some cell of it contains the point."""

from cutgrids.plgeom import PLRegion, Seg, fr


def region_contains_point(a: PLRegion, point) -> bool:
    """point: a rational (line), ("circle", idx, theta), or an (x, y) pair."""
    if a.dim == 2:
        x, y = point
        return any(c.contains(fr(x), fr(y)) for c in a.cells)
    if isinstance(point, tuple) and point and point[0] == "circle":
        _, idx, theta = point
        return any(
            not isinstance(c, Seg) and c.circle == idx and c.contains(theta)
            for c in a.cells
        )
    x = fr(point)
    return any(isinstance(c, Seg) and c.contains(x) for c in a.cells)
