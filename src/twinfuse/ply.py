"""Minimal PLY point-cloud writer (binary little-endian) and reader (binary
little-endian and ASCII).

Vertices carry float32 x, y, z in meters and optional uchar red, green, blue.
"""

from __future__ import annotations

import numpy as np

from .errors import ManifestError
from .geometry import PointCloud


def save_ply(path, cloud: PointCloud) -> None:
    """Write ``cloud`` as binary little-endian PLY."""
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    header = ["ply",
              "format binary_little_endian 1.0",
              f"element vertex {len(cloud)}",
              "property float x",
              "property float y",
              "property float z"]
    if cloud.colors is not None:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header.append("end_header")
    rec = np.empty(len(cloud), dtype=fields)
    rec["x"], rec["y"], rec["z"] = cloud.points.T
    if cloud.colors is not None:
        rec["red"], rec["green"], rec["blue"] = cloud.colors.T
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(rec.tobytes())


def load_ply(path, frame: str = "world") -> PointCloud:
    """Cloud of the PLY file ``path`` in ``frame``. The first element must be
    ``vertex``, each of its properties declared once, with x, y, z and
    optional red, green, blue colors that are whole numbers in [0, 255];
    later elements are not read. A malformed file raises ManifestError
    naming it."""
    with open(path, "rb") as f:
        data = f.read()
    end = data.find(b"end_header\n")
    if end < 0:
        raise ManifestError(f"{path}: not a PLY file (no end_header)")
    header_lines = data[:end].decode("ascii", errors="replace").splitlines()
    body = data[end + len(b"end_header\n"):]
    if not header_lines or header_lines[0].strip() != "ply":
        raise ManifestError(f"{path}: missing 'ply' magic")

    fmt = None
    n_vertex = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    for line in header_lines[1:]:
        tok = line.split()
        if not tok or tok[0] == "comment":
            continue
        if len(tok) < {"format": 2, "element": 2, "property": 3}.get(tok[0], 1):
            raise ManifestError(f"{path}: header line lacks a token: {line!r}")
        if tok[0] == "format":
            fmt = tok[1]
        elif tok[0] == "element":
            # the vertex element comes first; later elements are not read
            if n_vertex is None and tok[1] != "vertex":
                raise ManifestError(f"{path}: element {tok[1]!r} comes before "
                                    f"the vertex element")
            in_vertex = n_vertex is None
            if in_vertex:
                if len(tok) < 3 or not tok[2].isdigit():
                    raise ManifestError(f"{path}: vertex count is not a "
                                        f"non-negative integer: {line!r}")
                n_vertex = int(tok[2])
        elif tok[0] == "property" and in_vertex:
            props.append((tok[1], tok[2]))
    if fmt not in ("ascii", "binary_little_endian"):
        raise ManifestError(f"{path}: unsupported PLY format {fmt!r}")
    if n_vertex is None:
        raise ManifestError(f"{path}: no vertex element")

    names = [name for _, name in props]
    for name in names:
        if names.count(name) > 1:
            raise ManifestError(f"{path}: vertex property {name!r} declared twice")
    for axis in ("x", "y", "z"):
        if axis not in names:
            raise ManifestError(f"{path}: vertex element lacks property {axis!r}")
    has_color = all(c in names for c in ("red", "green", "blue"))

    type_map = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
                "uchar": "u1", "uint8": "u1", "int": "<i4", "int32": "<i4",
                "ushort": "<u2", "uint16": "<u2", "short": "<i2", "int16": "<i2"}
    if fmt == "binary_little_endian":
        try:
            dtype = np.dtype([(name, type_map[t]) for t, name in props])
        except KeyError as exc:
            raise ManifestError(f"{path}: unsupported property type {exc}") from exc
        expected = n_vertex * dtype.itemsize
        if len(body) < expected:
            raise ManifestError(f"{path}: truncated binary body: {n_vertex} "
                                f"vertices need {expected} bytes, "
                                f"{len(body)} present")
        rec = np.frombuffer(body, dtype=dtype, count=n_vertex)
    else:
        rows = body.decode("ascii", errors="replace").split()
        ncol = len(props)
        if len(rows) < n_vertex * ncol:
            raise ManifestError(f"{path}: truncated ASCII body: {n_vertex} "
                                f"vertices need {n_vertex * ncol} values, "
                                f"{len(rows)} present")
        try:
            arr = np.array(rows[:n_vertex * ncol], dtype=float)
        except ValueError as exc:
            raise ManifestError(f"{path}: ASCII body: {exc}") from None
        rec = {name: arr[i::ncol] for i, (_, name) in enumerate(props)}
    # a signalling NaN raises the invalid flag in casts and compares; the
    # checks below reject it, so numpy need not warn about it first
    with np.errstate(invalid="ignore"):
        pts = np.column_stack([np.asarray(rec["x"], dtype=float),
                               np.asarray(rec["y"], dtype=float),
                               np.asarray(rec["z"], dtype=float)])
        if not np.isfinite(pts).all():
            raise ManifestError(f"{path}: vertex coordinates must be finite")
        colors = None
        if has_color:
            colors = np.column_stack([np.asarray(rec["red"]), np.asarray(rec["green"]),
                                      np.asarray(rec["blue"])])
            if not np.all((colors >= 0) & (colors <= 255)
                          & (np.floor(colors) == colors)):
                raise ManifestError(f"{path}: vertex colors must be whole numbers "
                                    f"in [0, 255]")
            colors = colors.astype(np.uint8)
    return PointCloud(pts, colors=colors, frame=frame)
