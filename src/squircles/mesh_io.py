"""Serialization of polylines and meshes, plus mesh diagnostics.

All writers are byte-deterministic: fixed 9-fractional-digit text formatting,
fixed attribute order, little-endian binary STL.

The text writers print every number of a block in one numpy pass, the same
bytes as `"%.9f" % v` and `"%d" % i`. A row is an array of little-endian
uint32 words. Each word holds one group of 3 decimal digits, looked up in a
1000-entry table, and a pad byte; every field of a block has as many groups
as the block's largest value needs. Leading zeros and unused pads are NUL; a
separator (space, newline, `,`, or the `.` after the integer part) rides in
the pad byte of a field's last word and a minus sign in a leading-zero byte
of its first. One `bytes.translate` that deletes NUL turns the rows into
text.

`%.9f` rounds the exact binary value half-to-even. The kernel rounds
`x * 1e9` with `np.rint`, which is right except where that product is
exactly a half-integer: then the sign of the product's rounding error, which
Dekker's error-free product gives exactly, says whether the exact value lies
above (round up), below (round down) or on the half (half-to-even). The sign
comes from the sign bit, so -0.0 and tiny negatives print `-0.000000000`.
Non-finite values and |x * 1e9| >= 2**52 are formatted by Python one by one
and spliced in.

`mesh_area`, `write_stl` and `write_obj` work in bands of at most
`MESH_BAND` rows, so their temporaries do not grow with the mesh; each row's
result does not depend on the band, so neither do the bits. (A band of OBJ
rows may reserve fewer digit groups or no sign byte, but those bytes are NUL
and deleted.) `mesh_area` gathers a band's triangle corners with
`np.take(vertices, ids, axis=0)`: the same values as `vertices[ids]`, in
less time. `write_stl` gathers them straight into the vertex fields of its
records and reads them as (corner, axis, row), so that each step of the
normal runs along the band's rows, not along 3-element rows: the float32
cross product one component at a time in `np.cross`'s order, and the
length as `np.linalg.norm` sums it, left to right, so the bits are theirs.

`area_below` decides `mesh_area(mesh) < floor` band by band, from a small
first band. Under round-to-nearest a sum of non-negative terms is never
below any one of its terms, in any order, and halving is monotone, so one
band whose largest `0.5 * norm` reaches the floor proves the whole area
does. The full sum is taken only when no band proves it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .contour2d import BAND_SAMPLES, Domain2D, Polyline
from .polygonize3d import TriangleMesh

_FMT = "{:.9f}"

# Most rows (triangles or vertices) one band of `mesh_area`, `write_stl` and
# `write_obj` handles. Each band's temporaries (a few MB) are freed and reused
# by the next, so a command faults in few fresh pages; whole-mesh OBJ blocks
# faulted in ~37 MB at grid 128. Measured on 2 cores, bands of BAND_SAMPLES / 8
# rows ran ~10% faster than bands of BAND_SAMPLES at grids 128 and 256.
MESH_BAND = BAND_SAMPLES // 8

# Rows of the first band of `area_below`. Almost any one triangle of a real
# mesh decides the answer, and a first band of MESH_BAND rows covers the
# whole of most small meshes; on a grid-256 sphube (2 cores, in-process, 7
# runs) the call went from 2.9 to 0.3 ms.
AREA_FIRST_BAND = 256


def _word(text: bytes) -> np.uint32:
    """The little-endian uint32 word holding up to 4 bytes of text."""
    return np.frombuffer(text.ljust(4, b"\0"), "<u4")[0]


def _digit_table(lead: bool) -> np.ndarray:
    """Words of 0..999 as 3 digits, with NUL for leading zeros if `lead`."""
    v = np.arange(1000)
    table = np.zeros(1000, "<u4")
    for shift, place in enumerate((100, 10, 1)):
        digit = 48 + v // place % 10
        table |= np.where(v >= place, digit, 0 if lead else digit).astype("<u4") << (8 * shift)
    return table


# A group is looked up at `group + 1000` once a higher group is nonzero, so
# that it keeps its zeros. The last group of a field prints 0 as "0".
_FULL = _digit_table(lead=False)
_LEAD = np.concatenate((_digit_table(lead=True), _FULL))
_UNITS = _LEAD.copy()
_UNITS[0] = _word(b"\0\0" + b"0")
_UNITS_DOT = _UNITS | _word(b"\0\0\0.")
_MINUS = _word(b"-")
_SPILL = _word(b"\x01")  # marks a field that Python formats


def _pad(sep: bytes) -> np.uint32:
    """`sep` in the pad byte of a field's last word."""
    return _word(b"\0\0\0" + sep)


_LINE_SEPS = np.array([_pad(b" "), _pad(b" "), _pad(b"\n")], "<u4")
_CSV_FLAGS = np.array([[_word(b"fals"), _word(b"e\n")], [_word(b"true"), _word(b"\n")]], "<u4")


def _groups(top: int, signed: bool) -> int:
    """Words a field of ints up to `top` needs, with a leading byte free for a
    minus sign if `signed`."""
    return (len(str(top)) + signed + 2) // 3


def _put_groups(n: np.ndarray, cols: np.ndarray, last: np.ndarray) -> None:
    """Base-1000 groups of the non-negative ints `n` into the word columns
    `cols[0]`, `cols[1]`, ..., most significant first; the last group is
    looked up in `last`."""
    for col in reversed(range(len(cols))):
        higher = n // 1000
        # the group, plus 1000 if a higher group is nonzero
        cols[col] = np.take(last if col == len(cols) - 1 else _LEAD, n - (higher - np.minimum(higher, 1)) * 1000)
        n = higher


def _int_words(a: np.ndarray) -> np.ndarray:
    """Words of `"%d" % i` for each int64 `i` of `a`, shaped `a.shape` +
    (groups,); the last pad byte is NUL."""
    neg = a < 0
    signed = bool(neg.any())
    # |int64 min| wraps to itself, which is 2**63 read as uint64
    mag = np.abs(a).view(np.uint64)
    top = int(mag.max()) if a.size else 0
    if top < 2**32:
        mag = mag.astype(np.uint32)  # narrower arithmetic is faster
    cols = np.empty((_groups(top, signed),) + a.shape, "<u4")
    _put_groups(mag, cols, _UNITS)
    if signed:
        cols[0][neg] |= _MINUS
    return np.moveaxis(cols, 0, -1)


def _fixed_words(x: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """Words of `"%.9f" % v` for each float64 `v` of `x`, shaped `x.shape` +
    (groups + 3,): the integer part (its last word ends in `.`), then 3 words
    of fraction whose last pad byte is NUL. Also returns the bytes of the
    values left to Python, in C order; their fields hold a lone `\x01`."""
    with np.errstate(over="ignore"):
        p = x * 1e9
    spill = ~(np.abs(p) < 2.0**52)  # NaN and inf included
    spilled = [("%.9f" % v).encode() for v in x[spill].tolist()]
    if spilled:
        p[spill] = 0.0
    r = np.rint(p)
    tie = np.abs(p - r) == 0.5
    if tie.any():
        # p is x * 1e9 rounded; Dekker's product gives its error x * 1e9 - p
        # exactly (1e9 has 21 significant bits, so only x is split)
        xt, pt = x[tie], p[tie]
        hi = xt * 134217729.0
        hi -= hi - xt
        err = (hi * 1e9 - pt) + (xt - hi) * 1e9
        r[tie] = np.where(err > 0, np.ceil(pt), np.where(err < 0, np.floor(pt), r[tie]))
    n = np.abs(r).astype(np.int64)
    whole = n // 10**9
    # both parts fit in uint32, whose arithmetic is faster
    frac = (n - whole * 10**9).astype(np.uint32)
    whole = whole.astype(np.uint32)
    sign = np.signbit(x)
    signed = bool(sign.any())
    groups = _groups(int(whole.max()) if x.size else 0, signed)
    cols = np.empty((groups + 3,) + x.shape, "<u4")
    _put_groups(whole, cols[:groups], _UNITS_DOT)
    for col in (groups + 2, groups + 1, groups):
        higher = frac // 1000
        cols[col] = np.take(_FULL, frac - higher * 1000)
        frac = higher
    if signed:
        cols[0][sign] |= _MINUS
    if spilled:
        cols[:, spill] = 0
        cols[0][spill] = _SPILL
    return np.moveaxis(cols, 0, -1), spilled


def _rows(prefix: np.uint32, fields: np.ndarray, seps) -> np.ndarray:
    """Word rows of `prefix` and the (n, k, width) `fields`, whose last pad
    bytes take `seps` (one per field, or (n, k))."""
    n, k, width = fields.shape
    rows = np.empty((n, 1 + k * width), "<u4")
    rows[:, 0] = prefix
    rows[:, 1:].reshape(n, k, width)[...] = fields
    rows[:, width::width] |= seps
    return rows


def _text(rows: np.ndarray, spilled: list[bytes]) -> bytes:
    """The text of word rows: NUL bytes deleted, spilled values spliced in."""
    text = rows.tobytes().translate(None, b"\0")
    if not spilled:
        return text
    parts = text.split(b"\x01")
    return b"".join(s for pair in zip(parts, spilled) for s in pair) + parts[-1]


@dataclass(frozen=True)
class MeshStats:
    vertex_count: int
    edge_count: int
    triangle_count: int
    euler_characteristic: int
    watertight: bool
    boundary_edge_count: int
    total_area: float


def _band_norms(mesh: TriangleMesh, lo: int, hi: int) -> np.ndarray:
    """Twice the area of each triangle in the band of rows `lo` to `hi`: the
    norm of its edges' cross product."""
    tri = np.take(mesh.vertices, mesh.triangles[lo:hi], axis=0)
    return np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)


def mesh_area(mesh: TriangleMesh) -> float:
    """Summed triangle area, without the edge counting of `mesh_stats`."""
    norms = np.empty(len(mesh.triangles))
    for lo in range(0, len(norms), MESH_BAND):
        norms[lo:lo + MESH_BAND] = _band_norms(mesh, lo, lo + MESH_BAND)
    return float(0.5 * norms.sum())


def area_below(mesh: TriangleMesh, floor: float) -> bool:
    """`mesh_area(mesh) < floor`, stopping at the first band whose largest
    triangle alone reaches `floor`. The first band is AREA_FIRST_BAND rows,
    the others MESH_BAND."""
    norms = np.empty(len(mesh.triangles))
    lo, hi = 0, AREA_FIRST_BAND
    while lo < len(norms):
        band = norms[lo:hi] = _band_norms(mesh, lo, hi)
        if 0.5 * band.max() >= floor:
            return False
        lo, hi = hi, hi + MESH_BAND
    return float(0.5 * norms.sum()) < floor


def mesh_stats(mesh: TriangleMesh) -> MeshStats:
    """Count vertices/undirected edges/faces and sum triangle areas."""
    v_count = len(mesh.vertices)
    t_count = len(mesh.triangles)
    if t_count == 0:
        return MeshStats(v_count, 0, 0, v_count, v_count == 0, 0, 0.0)
    a, b = mesh.triangles, mesh.triangles[:, [1, 2, 0]]
    # one int64 key lo * v_count + hi per undirected edge, counted by a 1-D sort
    _, counts = np.unique(np.minimum(a, b) * v_count + np.maximum(a, b), return_counts=True)
    boundary = int((counts == 1).sum())
    watertight = boundary == 0 and bool((counts == 2).all())
    return MeshStats(
        vertex_count=v_count,
        edge_count=len(counts),
        triangle_count=t_count,
        euler_characteristic=v_count - len(counts) + t_count,
        watertight=watertight,
        boundary_edge_count=boundary,
        total_area=mesh_area(mesh),
    )


def write_obj(mesh: TriangleMesh, sink, comment: str = "") -> None:
    """Plain-text OBJ: 9-digit vertex lines, 1-based face indices."""
    sink.write(f"# squircles mesh export\n# shape: {comment}\n".encode("utf-8"))
    for lo in range(0, len(mesh.vertices), MESH_BAND):
        words, spilled = _fixed_words(mesh.vertices[lo:lo + MESH_BAND])
        sink.write(_text(_rows(_word(b"v "), words, _LINE_SEPS), spilled))
    for lo in range(0, len(mesh.triangles), MESH_BAND):
        faces = _int_words(mesh.triangles[lo:lo + MESH_BAND] + 1)
        sink.write(_text(_rows(_word(b"f "), faces, _LINE_SEPS), []))


def write_stl(mesh: TriangleMesh, sink, comment: str = "") -> None:
    """Binary STL: 80-byte header, u32 count, 50 bytes per triangle.

    A vertex coordinate beyond float32's range raises ValueError before any
    byte is written. A normal whose float32 cross product overflows is taken
    in float64 from the same float32 corners instead."""
    # a float32 cast commutes with the gather, so the bands share one cast
    with np.errstate(over="ignore"):  # an overflow is an infinity, checked next
        vertices = mesh.vertices.astype("<f4")
    if len(vertices) and not (np.isfinite(vertices.min()) and np.isfinite(vertices.max())):
        bound = float(np.finfo(np.float32).max)
        raise ValueError(f"vertex coordinates outside the float32 range of STL, [{-bound:.8g}, {bound:.8g}]")
    header = f"squircles mesh export {comment}".encode("utf-8")[:80]
    sink.write(header.ljust(80, b"\0"))
    sink.write(struct.pack("<I", len(mesh.triangles)))
    if mesh.empty:
        return
    record = np.zeros(min(len(mesh.triangles), MESH_BAND),
                      dtype=np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")]))
    for lo in range(0, len(mesh.triangles), MESH_BAND):
        ids = mesh.triangles[lo:lo + MESH_BAND]
        band = record[:len(ids)]
        # gathered straight into the records (TriangleMesh checks the ids),
        # then read as (corner, axis, row) so each op runs along the rows
        np.take(vertices, ids, axis=0, out=band["v"], mode="clip")
        corner = band["v"].transpose(1, 2, 0)
        normals = np.empty((3, len(ids)))
        with np.errstate(over="ignore", invalid="ignore"):  # such rows are redone in float64
            a, b = corner[1] - corner[0], corner[2] - corner[0]
            # np.cross's float32 products and differences, in its order
            normals[0] = a[1] * b[2] - a[2] * b[1]
            normals[1] = a[2] * b[0] - a[0] * b[2]
            normals[2] = a[0] * b[1] - a[1] * b[0]
            # np.linalg.norm's sum, left to right
            lengths = np.sqrt((np.square(normals[0]) + np.square(normals[1])) + np.square(normals[2]))
        wide = np.flatnonzero(~np.isfinite(lengths))
        if len(wide):
            corners = band["v"][wide].astype("<f8")
            normals[:, wide] = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]).T
            lengths[wide] = np.linalg.norm(normals[:, wide], axis=0)
        lengths[lengths == 0] = 1.0
        np.divide(normals, lengths, out=band["n"].T)
        sink.write(memoryview(band).cast("B"))


def write_svg(polylines: list[Polyline], domain: Domain2D, sink, stroke_width: float | None = None) -> None:
    """SVG 1.1 subset: one stroked path per polyline, y flipped to screen space."""
    w = domain.xmax - domain.xmin
    h = domain.ymax - domain.ymin
    if stroke_width is None:
        stroke_width = max(w, h) / 400.0
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_FMT.format(domain.xmin)} {_FMT.format(domain.ymin)} {_FMT.format(w)} {_FMT.format(h)}" '
        f'width="640" height="{_FMT.format(640.0 * h / w)}">\n'
    )
    sink.write(head.encode("utf-8"))
    if polylines:
        # one row "L x y " per point; "M" starts a path and a newline ends it
        points = np.concatenate([pl.points for pl in polylines])
        counts = [len(pl.points) for pl in polylines]
        ends = np.cumsum(counts)
        words, spilled = _fixed_words(np.column_stack((points[:, 0], domain.ymin + domain.ymax - points[:, 1])))
        seps = np.full((len(points), 2), _pad(b" "))
        seps[ends - 1, 1] = _pad(b"\n")
        rows = _rows(_word(b"L "), words, seps)
        rows[ends - counts, 0] = _word(b"M ")
        tail = f'" fill="none" stroke="black" stroke-width="{_FMT.format(stroke_width)}"/>\n'.encode("utf-8")
        paths = _text(rows, spilled).split(b"\n")
        sink.write(b"".join(b'<path d="' + d + (b" Z" if pl.closed else b"") + tail
                            for pl, d in zip(polylines, paths)))
    sink.write(b"</svg>\n")


def write_csv(polylines: list[Polyline], sink) -> None:
    """CSV columns polyline_id, point_index, x, y, closed with a header row."""
    sink.write(b"polyline_id,point_index,x,y,closed\n")
    if not polylines:
        return
    counts = [len(pl.points) for pl in polylines]
    pid = np.repeat(np.arange(len(polylines)), counts)
    ids = _int_words(np.column_stack((pid, np.arange(len(pid)) - np.repeat(np.cumsum(counts) - counts, counts))))
    xy, spilled = _fixed_words(np.concatenate([pl.points for pl in polylines]))
    ids[..., -1] |= _pad(b",")
    xy[..., -1] |= _pad(b",")
    flags = _CSV_FLAGS[np.repeat([pl.closed for pl in polylines], counts).astype(np.intp)]
    sink.write(_text(np.hstack((ids.reshape(len(pid), -1), xy.reshape(len(pid), -1), flags)), spilled))
