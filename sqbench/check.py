"""Independent checker for the files and notices a benchmark run produced.

It never imports `squircles`: the file formats are parsed strictly from
their documented layout, and the shape equations are written out here again,
so that a defect in the program's own readers or fields cannot hide one in
its writers.

Usage: python3 check.py MANIFEST.json
MANIFEST lists jobs with their exit code, captured stdout and expected
output files (see jobs.Output.expectation). The last line printed is a JSON
object mapping each job id to its list of errors (empty when it passed).
"""

from __future__ import annotations

import json
import math
import re
import struct
import sys
import xml.etree.ElementTree as ET

import numpy as np

NOTICE = "empty level set"
# Where the notice is due, geometry of at most this share of a nominal cell
# (length) or cell face (area) may remain: no more than the floor below which
# the CLI itself reports the level set empty.
EMPTY_FLOOR = 1e-9
_NUM = r"-?\d+\.\d{9}"
_V_LINE = re.compile(rf"v ({_NUM}) ({_NUM}) ({_NUM})")
_F_LINE = re.compile(r"f ([1-9]\d*) ([1-9]\d*) ([1-9]\d*)")
_D_ATTR = re.compile(rf"M {_NUM} {_NUM}(?: L {_NUM} {_NUM})+(?: Z)?")
_CSV_ROW = re.compile(rf"(0|[1-9]\d*),(0|[1-9]\d*),({_NUM}),({_NUM}),(true|false)")
_VERIFY_LINE = re.compile(r"\S+\s+value=\S+ bound=\S.*\sPASS")
SVG_NS = "{http://www.w3.org/2000/svg}"


class FormatError(ValueError):
    pass


# ---------------------------------------------------------------- parsers


def parse_obj(data: bytes):
    """Vertices (n, 3) and 0-based triangles (m, 3) of a squircles OBJ."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise FormatError("OBJ does not end with a newline")
    lines.pop()
    if len(lines) < 2 or lines[0] != "# squircles mesh export" or not lines[1].startswith("# shape: "):
        raise FormatError("OBJ header lines missing")
    verts, faces, at = [], [], 2
    while at < len(lines) and lines[at].startswith("v "):
        m = _V_LINE.fullmatch(lines[at])
        if not m:
            raise FormatError(f"OBJ line {at + 1}: bad vertex {lines[at][:60]!r}")
        verts.append(m.groups())
        at += 1
    for line in lines[at:]:
        m = _F_LINE.fullmatch(line)
        if not m:
            raise FormatError(f"OBJ: bad face line {line[:60]!r}")
        faces.append(m.groups())
    v = np.array(verts, dtype=float).reshape(-1, 3)
    t = np.array(faces, dtype=np.int64).reshape(-1, 3) - 1
    if len(t) and t.max() >= len(v):
        raise FormatError("OBJ face index out of range")
    return v, t


def parse_stl(data: bytes):
    """Triangle corners (m, 3, 3) float32 and normals (m, 3) of a binary STL."""
    if len(data) < 84:
        raise FormatError("STL shorter than its 84-byte header")
    (count,) = struct.unpack("<I", data[80:84])
    if len(data) != 84 + 50 * count:
        raise FormatError(f"STL size {len(data)} does not match {count} triangles")
    rec = np.frombuffer(data, offset=84, dtype=np.dtype(
        [("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")]), count=count)
    if count and rec["attr"].any():
        raise FormatError("STL attribute bytes are not zero")
    return rec["v"], rec["n"]


def weld(corners):
    """Shared vertices and triangles from float32 corners, by exact bit pattern."""
    bits = np.ascontiguousarray(corners, dtype="<f4").reshape(-1, 3).view("<u4").astype(np.uint64)
    high, low = (bits[:, 0] << np.uint64(32)) | bits[:, 1], bits[:, 2]
    order = np.lexsort((low, high))
    step = np.ones(len(order), dtype=bool)
    step[1:] = (high[order][1:] != high[order][:-1]) | (low[order][1:] != low[order][:-1])
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(step) - 1
    verts = corners.reshape(-1, 3)[order[step]].astype(float)
    return verts, ids.reshape(-1, 3)


def _floats(text: str) -> list[float]:
    if not re.fullmatch(rf"{_NUM}(?: {_NUM})*", text):
        raise FormatError(f"malformed number list {text[:60]!r}")
    return [float(x) for x in text.split(" ")]


def parse_svg(data: bytes):
    """viewBox and polylines (points in field coordinates, closed flag)."""
    text = data.decode("utf-8")
    if not text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n') or not text.endswith("</svg>\n"):
        raise FormatError("SVG prologue or closing tag missing")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise FormatError(f"SVG is not well-formed XML: {exc}") from exc
    if root.tag != SVG_NS + "svg" or root.get("version") != "1.1" or root.get("width") != "640":
        raise FormatError("SVG root element is not an SVG 1.1 canvas 640 wide")
    xmin, ymin, w, h = _floats(root.get("viewBox", ""))
    if not (w > 0 and h > 0):
        raise FormatError("SVG viewBox has no area")
    if abs(float(root.get("height")) - 640.0 * h / w) > 1e-6:
        raise FormatError("SVG height does not keep the viewBox aspect ratio")
    flip = 2.0 * ymin + h
    polylines = []
    for el in root:
        if el.tag != SVG_NS + "path" or el.get("fill") != "none" or el.get("stroke") != "black":
            raise FormatError(f"unexpected SVG element {el.tag}")
        if not float(el.get("stroke-width", "0")) > 0:
            raise FormatError("SVG path without a stroke width")
        d = el.get("d", "")
        if not _D_ATTR.fullmatch(d):
            raise FormatError(f"SVG path data malformed: {d[:60]!r}")
        closed = d.endswith(" Z")
        nums = _floats(" ".join(tok for tok in d.split(" ") if tok not in ("M", "L", "Z")))
        pts = np.array(nums).reshape(-1, 2)
        pts[:, 1] = flip - pts[:, 1]
        polylines.append((pts, closed))
    return (xmin, ymin, w, h), polylines


def parse_csv(data: bytes):
    """Polylines of a squircles CSV, checking ids, indices and closed flags."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "" or lines[0] != "polyline_id,point_index,x,y,closed":
        raise FormatError("CSV header or final newline missing")
    polylines, pts, cur, flag = [], [], -1, None
    for line in lines[1:-1]:
        m = _CSV_ROW.fullmatch(line)
        if not m:
            raise FormatError(f"CSV row malformed: {line[:60]!r}")
        pid, idx = int(m.group(1)), int(m.group(2))
        if pid != cur:
            if pid != cur + 1 or idx != 0:
                raise FormatError(f"CSV polyline ids not consecutive at {line[:40]!r}")
            if pts:
                polylines.append((np.array(pts), flag == "true"))
            pts, cur, flag = [], pid, m.group(5)
        elif idx != len(pts) or m.group(5) != flag:
            raise FormatError(f"CSV point index or closed flag inconsistent at {line[:40]!r}")
        pts.append((float(m.group(3)), float(m.group(4))))
    if pts:
        polylines.append((np.array(pts), flag == "true"))
    return polylines


# ------------------------------------------------------ shape equations


def _pnorm(parts, p):
    m = np.max(parts, axis=0)
    if math.isinf(p):
        return m
    safe = np.where(m > 0, m, 1.0)
    return m * sum((a / safe) ** p for a in parts) ** (1.0 / p)


def field2d(family, q):
    s, r, p, h = q["s"], q["r"], q["p"], q["h"]
    if family == "lame":
        return lambda x, y: _pnorm([np.abs(x), np.abs(y)], p) - r
    if family == "fg":
        return lambda x, y: x * x + y * y - (s * s / (r * r)) * x * x * y * y - r * r
    if family == "phase_grid":
        return lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    if family in ("periodic", "oblique") and s == 0:
        return lambda x, y: x * x + y * y - r * r
    if family == "periodic":
        c = s * math.pi / (2 * r)
        return lambda x, y: math.cos(s * math.pi / 2) - np.cos(c * x) * np.cos(c * y)
    if family == "oblique":
        c = s * math.pi / r
        return lambda x, y: 1 + math.cos(s * math.pi) - math.floor(s) * h - np.cos(c * x) - np.cos(c * y)
    return None


def field3d(family, q):
    s, r, p, h, R = q["s"], q["r"], q["p"], q["h"], q["R"]
    if family == "lame3d":
        return lambda x, y, z: _pnorm([np.abs(x), np.abs(y), np.abs(z)], p) - r
    if family == "sphube":
        c2 = s * s / (r * r)

        def sphube(x, y, z):
            x2, y2, z2 = x * x, y * y, z * z
            raw = x2 + y2 + z2 - c2 * (x2 * y2 + y2 * z2 + x2 * z2) + c2 * c2 * x2 * y2 * z2 - r * r
            # the solid is the part of the quartic body inside the cube |.| <= r
            return np.maximum.reduce([raw, np.abs(x) - r, np.abs(y) - r, np.abs(z) - r])

        return sphube
    if family == "toroid":
        def toroid(x, y, z):
            u2, z2 = (np.hypot(x, y) - R) ** 2, z * z
            return np.maximum(u2 + z2 - (s * s / (r * r)) * z2 * u2 - r * r, np.abs(z) - r)

        return toroid
    if family in ("periodic3d", "oblique3d") and s == 0:
        return lambda x, y, z: x * x + y * y + z * z - r * r
    if family == "periodic3d":
        c = s * math.pi / (2 * r)
        return lambda x, y, z: math.cos(s * math.pi / 2) - np.cos(c * x) * np.cos(c * y) * np.cos(c * z)
    if family == "oblique3d":
        c = s * math.pi / r
        return lambda x, y, z: (2 + math.cos(s * math.pi) - math.floor(s) * h
                                - np.cos(c * x) - np.cos(c * y) - np.cos(c * z))
    return None


def _off_surface(f, pts, delta):
    """Points with no sign change of f within `delta` along any axis.

    Each vertex was interpolated on a grid edge whose two samples have
    opposite signs, so the zero set passes within one cell of it."""
    dim = pts.shape[1]
    lo = hi = f(*pts.T)
    for axis in range(dim):
        for frac in (-1.0, -0.5, 0.5, 1.0):
            moved = pts.copy()
            moved[:, axis] += frac * delta
            v = f(*moved.T)
            lo, hi = np.minimum(lo, v), np.maximum(hi, v)
    return int(((lo > 0) | (hi < 0)).sum())


# ---------------------------------------------------------------- checks


def edge_topology(tris: np.ndarray, n_verts: int) -> dict:
    """Edge counts of an indexed triangle mesh, and the vertices on its boundary."""
    if len(tris) == 0:
        return {"V": n_verts, "E": 0, "F": 0, "boundary": 0, "nonmanifold": 0, "reversed_dup": 0,
                "degenerate": 0, "ends": np.zeros(0, dtype=np.int64)}
    degenerate = int(((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                      | (tris[:, 0] == tris[:, 2])).sum())
    a = tris.reshape(-1)
    b = tris[:, [1, 2, 0]].reshape(-1)
    directed = a * n_verts + b
    undirected = np.minimum(a, b) * n_verts + np.maximum(a, b)
    ukeys, ucount = np.unique(undirected, return_counts=True)
    _, dcount = np.unique(directed, return_counts=True)
    used = len(np.unique(tris))
    return {"V": used, "E": len(ucount), "F": len(tris),
            "boundary": int((ucount == 1).sum()), "nonmanifold": int((ucount > 2).sum()),
            "reversed_dup": int((dcount > 1).sum()), "degenerate": degenerate,
            "ends": np.unique(np.concatenate(divmod(ukeys[ucount == 1], n_verts)))}


def _cell(exp):
    """Nominal grid cell: the shape scale over the samples per tile."""
    return exp["params"]["r"] * exp["params"]["tiles"] / exp["grid"]


def _area(verts, tris):
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    return float(0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


def _signed_volume(verts, tris):
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def check_mesh(verts, tris, exp, errors):
    topo = edge_topology(tris, len(verts))
    if exp["empty"]:
        # a set receded to isolated points may leave slivers of no extent
        area = _area(verts, tris)
        if area > EMPTY_FLOOR * _cell(exp) ** 2:
            errors.append(f"{exp['path']}: area {area:.3e} where the level set is empty")
        return
    if topo["F"] == 0:
        errors.append(f"{exp['path']}: no triangles")
        return
    if topo["reversed_dup"] or topo["degenerate"]:
        errors.append(f"{exp['path']}: inconsistent orientation ({topo['reversed_dup']} repeated "
                      f"directed edges, {topo['degenerate']} degenerate triangles)")
    if topo["nonmanifold"]:
        errors.append(f"{exp['path']}: {topo['nonmanifold']} edges shared by more than two faces")
    used = verts[np.unique(tris)]
    lo, hi = used.min(axis=0), used.max(axis=0)
    if exp["chi"] is not None:
        chi = topo["V"] - topo["E"] + topo["F"]
        if topo["boundary"] or chi != exp["chi"]:
            errors.append(f"{exp['path']}: not a closed surface of chi={exp['chi']} "
                          f"(boundary edges {topo['boundary']}, chi {chi})")
        if not _signed_volume(verts, tris) > 0:
            errors.append(f"{exp['path']}: closed mesh is not oriented outward")
    elif topo["boundary"]:
        # an open sheet may only end where the sampled domain ends
        tol = 1e-5 * float(np.max(hi - lo))
        p = verts[topo["ends"]]
        on_box = ((np.abs(p - lo) <= tol) | (np.abs(p - hi) <= tol)).any(axis=1)
        if not on_box.all():
            errors.append(f"{exp['path']}: {int((~on_box).sum())} boundary vertices inside the domain")
    f = field3d(exp["family"], exp["params"])
    if f is not None:
        delta = 2.5 * float(np.max(hi - lo)) / exp["grid"]
        off = _off_surface(f, used, delta)
        if off:
            errors.append(f"{exp['path']}: {off} vertices farther than a cell from the surface")


def check_stl_normals(corners, normals, exp, errors):
    if not len(corners):
        return
    e1, e2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    n = np.cross(e1, e2)
    length = np.linalg.norm(n, axis=1)
    unit = np.linalg.norm(normals, axis=1)
    if not (np.isclose(unit, 1.0, atol=1e-6) | (unit == 0)).all():
        errors.append(f"{exp['path']}: facet normals that are neither unit nor zero")
    want = n / np.where(length > 0, length, 1.0)[:, None]
    # a sliver's normal is ill-conditioned in single precision: allow an
    # error that grows with its edge lengths over its area
    spread = np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    tol = 1e-5 + 1e-6 * spread / np.maximum(length, 1e-300)
    bad = int((np.abs(normals - want).max(axis=1) > tol).sum())
    if bad:
        errors.append(f"{exp['path']}: {bad} facet normals disagree with the vertex winding")


def check_curves(polylines, exp, view, errors):
    if exp["empty"]:
        length = sum(float(np.linalg.norm(np.diff(p, axis=0), axis=1).sum()) for p, _ in polylines)
        if length > EMPTY_FLOOR * _cell(exp):
            errors.append(f"{exp['path']}: curve length {length:.3e} where the level set is empty")
        return
    if not polylines:
        errors.append(f"{exp['path']}: no polylines")
        return
    for pts, closed in polylines:
        if len(pts) < (3 if closed else 2):
            errors.append(f"{exp['path']}: polyline with {len(pts)} points")
            return
    family = exp["family"]
    if family in ("fg", "lame", "frantz") and not (len(polylines) == 1 and polylines[0][1]):
        errors.append(f"{exp['path']}: expected one closed curve, got {len(polylines)} polylines")
    pts = np.concatenate([p for p, _ in polylines])
    if view is not None:
        xmin, ymin, w, h = view
        tol = 1e-9 * max(w, h)
        inside = ((pts[:, 0] >= xmin - tol) & (pts[:, 0] <= xmin + w + tol)
                  & (pts[:, 1] >= ymin - tol) & (pts[:, 1] <= ymin + h + tol))
        if not inside.all():
            errors.append(f"{exp['path']}: {int((~inside).sum())} points outside the viewBox")
        span = max(w, h)
    else:
        span = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    f = field2d(family, exp["params"])
    if f is not None:
        off = _off_surface(f, pts, 2.0 * span / exp["grid"])
        if off:
            errors.append(f"{exp['path']}: {off} points farther than a cell from the curve")


def check_file(exp: dict, errors: list) -> None:
    try:
        with open(exp["path"], "rb") as fh:
            data = fh.read()
    except OSError as exc:
        errors.append(f"{exp['path']}: cannot read: {exc}")
        return
    try:
        if exp["fmt"] == "obj":
            verts, tris = parse_obj(data)
            check_mesh(verts, tris, exp, errors)
        elif exp["fmt"] == "stl":
            corners, normals = parse_stl(data)
            check_stl_normals(corners.astype(float), normals.astype(float), exp, errors)
            verts, tris = weld(corners)
            # STL keeps single precision: crossings closer than its resolution
            # merge, and the slivers between them lose their area
            collapsed = (tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2]) | (tris[:, 0] == tris[:, 2])
            if collapsed.sum() > 1e-3 * len(tris):
                errors.append(f"{exp['path']}: {int(collapsed.sum())} of {len(tris)} triangles "
                              "collapse in single precision")
            check_mesh(verts, tris[~collapsed], exp, errors)
        elif exp["fmt"] == "svg":
            view, polylines = parse_svg(data)
            check_curves(polylines, exp, view, errors)
        elif exp["fmt"] == "csv":
            check_curves(parse_csv(data), exp, None, errors)
        else:
            errors.append(f"{exp['path']}: unknown format {exp['fmt']!r}")
    except (FormatError, UnicodeDecodeError, ValueError) as exc:
        errors.append(f"{exp['path']}: {exc}")


def check_job(job: dict) -> list[str]:
    errors = []
    if job["rc"] != 0:
        errors.append(f"exit code {job['rc']}")
    notices = job["stdout"].count(NOTICE)
    if notices != job["notices"]:
        errors.append(f"{notices} '{NOTICE}' notices, expected {job['notices']}")
    if job["verify"]:
        lines = job["stdout"].splitlines()
        if not lines or not all(_VERIFY_LINE.fullmatch(line) for line in lines):
            errors.append("verify printed a line that is not a PASS result")
    for exp in job["outputs"]:
        check_file(exp, errors)
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check.py MANIFEST.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(json.dumps({job["id"]: check_job(job) for job in manifest["jobs"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
