"""PLY point-cloud serialization."""

import warnings

import numpy as np
import pytest

from twinfuse.errors import ManifestError
from twinfuse.geometry import PointCloud
from twinfuse.ply import load_ply, save_ply


def _cloud(rng, n=50, color=False):
    pts = rng.uniform(-3, 3, size=(n, 3)).astype(np.float32).astype(float)
    colors = rng.integers(0, 256, size=(n, 3), dtype=np.uint8) if color else None
    return PointCloud(pts, colors=colors, frame="world")


def _ascii_ply(cloud):
    """``cloud`` as the text of an ASCII PLY, as other tools write it."""
    props = ["float x", "float y", "float z"]
    rows = cloud.points
    if cloud.colors is not None:
        props += ["uchar red", "uchar green", "uchar blue"]
        rows = np.column_stack([rows, cloud.colors])
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}",
              *(f"property {p}" for p in props), "end_header"]
    return "\n".join(header + [" ".join(f"{v:.9g}" for v in row)
                               for row in rows]) + "\n"


def test_binary_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    cloud = _cloud(rng)
    path = tmp_path / "c.ply"
    save_ply(path, cloud)
    back = load_ply(path)
    assert np.array_equal(back.points, cloud.points)
    assert back.colors is None


def test_binary_round_trip_with_color(tmp_path):
    rng = np.random.default_rng(1)
    cloud = _cloud(rng, color=True)
    path = tmp_path / "c.ply"
    save_ply(path, cloud)
    back = load_ply(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.colors, cloud.colors)


def test_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    cloud = _cloud(rng, color=True)
    path = tmp_path / "c.ply"
    path.write_text(_ascii_ply(cloud))
    back = load_ply(path)
    assert np.allclose(back.points, cloud.points, atol=1e-6)
    assert np.array_equal(back.colors, cloud.colors)


def test_float32_quantization(tmp_path):
    # coordinates not representable in float32 are stored rounded
    pts = np.array([[0.1, 0.2, 1e-10]])
    path = tmp_path / "c.ply"
    save_ply(path, PointCloud(pts))
    back = load_ply(path)
    assert np.array_equal(back.points[0],
                          pts[0].astype(np.float32).astype(float))


def test_empty_cloud_round_trip(tmp_path):
    path = tmp_path / "empty.ply"
    save_ply(path, PointCloud(np.zeros((0, 3))))
    back = load_ply(path)
    assert len(back) == 0


def test_load_assigns_frame(tmp_path):
    path = tmp_path / "c.ply"
    save_ply(path, _cloud(np.random.default_rng(3)))
    assert load_ply(path, frame="reference").frame == "reference"


def test_save_deterministic_bytes(tmp_path):
    cloud = _cloud(np.random.default_rng(4), color=True)
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    save_ply(p1, cloud)
    save_ply(p2, cloud)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_non_ply(tmp_path):
    path = tmp_path / "bogus.ply"
    path.write_bytes(b"not a point cloud\n")
    with pytest.raises(ManifestError):
        load_ply(path)


def test_load_rejects_missing_axis(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 1\n"
                     b"property float x\nproperty float y\nend_header\n1 2\n")
    with pytest.raises(ManifestError):
        load_ply(path)


def test_load_double_precision_ply(tmp_path):
    # other tools may write float64 vertices
    pts = np.array([[0.125, -2.5, 3.75]])
    header = (b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
              b"property double x\nproperty double y\nproperty double z\n"
              b"end_header\n")
    path = tmp_path / "d.ply"
    path.write_bytes(header + pts.astype("<f8").tobytes())
    back = load_ply(path)
    assert np.array_equal(back.points, pts)


@pytest.mark.parametrize("color", [False, True])
def test_load_rejects_truncated_binary_body(tmp_path, color):
    rng = np.random.default_rng(0)
    colors = rng.integers(0, 256, size=(10, 3)) if color else None
    path = tmp_path / "cloud.ply"
    save_ply(path, PointCloud(rng.normal(size=(10, 3)), colors=colors))
    record = 15 if color else 12
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(ManifestError) as exc_info:
        load_ply(path)
    assert str(exc_info.value) == (
        f"{path}: truncated binary body: 10 vertices need {10 * record} "
        f"bytes, {10 * record - 5} present")


def test_load_rejects_truncated_ascii_body(tmp_path):
    path = tmp_path / "cloud.ply"
    cloud = PointCloud(np.random.default_rng(0).normal(size=(10, 3)))
    path.write_text(_ascii_ply(cloud))
    path.write_bytes(path.read_bytes().rsplit(b" ", 1)[0])
    with pytest.raises(ManifestError) as exc_info:
        load_ply(path)
    assert str(exc_info.value) == (
        f"{path}: truncated ASCII body: 10 vertices need 30 values, 29 present")


@pytest.mark.parametrize("text, message", [
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n1 x 1\n",
     "ASCII body: could not convert string to float: 'x'"),
    ("ply\nformat ascii 1.0\nelement vertex two\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n1 2 3\n",
     "vertex count is not a non-negative integer: 'element vertex two'"),
], ids=["non-numeric-value", "non-integer-count"])
def test_load_rejects_malformed_ascii(tmp_path, text, message):
    path = tmp_path / "cloud.ply"
    path.write_text(text)
    with pytest.raises(ManifestError) as exc_info:
        load_ply(path)
    assert str(exc_info.value) == f"{path}: {message}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_load_rejects_non_finite_coordinates(tmp_path, value, fmt):
    pts = np.array([[0.5, 1.0, -1.0], [2.0, float(value), 0.0]])
    path = tmp_path / "cloud.ply"
    if fmt == "ascii":
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                        "property float y\nproperty float z\nend_header\n"
                        f"0.5 1 -1\n2 {value} 0\n")
    else:
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"end_header\n" + pts.astype("<f4").tobytes())
    with pytest.raises(ManifestError) as exc_info:
        load_ply(path)
    assert str(exc_info.value) == f"{path}: cloud points must be finite"


_SIGNALLING_NAN = np.array([0x7F800001], dtype="<u4").view("<f4")[0]


@pytest.mark.parametrize("column, message", [
    (1, "cloud points must be finite"),
    (4, "cloud colors must be finite"),
], ids=["coordinate", "color"])
def test_load_rejects_signalling_nan_without_a_warning(tmp_path, column, message):
    # a binary float32 signalling NaN raises the FPU invalid flag when cast
    # or compared; the error names the file and numpy warns about nothing
    rows = np.array([[0.5, 1.0, -1.0, 1, 2, 3], [2.0, 0.0, 0.0, 4, 5, 6]], dtype="<f4")
    rows[1, column] = _SIGNALLING_NAN
    path = tmp_path / "cloud.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                     + "".join(f"property float {name}\n" for name in
                               ("x", "y", "z", "red", "green", "blue")).encode()
                     + b"end_header\n" + rows.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ManifestError) as exc_info:
            load_ply(path)
    assert str(exc_info.value) == f"{path}: {message}"


_XYZ = "property float x\nproperty float y\nproperty float z\n"


@pytest.mark.parametrize("header, message", [
    ("format\nelement vertex 1\n" + _XYZ,
     "header line lacks a token: 'format'"),
    ("format ascii 1.0\nelement\n" + _XYZ,
     "header line lacks a token: 'element'"),
    ("format ascii 1.0\nelement vertex 1\nproperty float x\nproperty float\n"
     "property float z\n", "header line lacks a token: 'property float'"),
    ("format ascii 1.0\nelement vertex 1\n" + _XYZ + "property float x\n",
     "vertex property 'x' declared twice"),
    ("format ascii 1.0\nelement face 1\nproperty float a\nelement vertex 1\n" + _XYZ,
     "element 'face' comes before the vertex element"),
], ids=["format-no-token", "element-no-token", "property-no-name",
        "duplicate-property", "element-before-vertex"])
def test_load_rejects_malformed_ascii_header(tmp_path, header, message):
    path = tmp_path / "cloud.ply"
    path.write_text(f"ply\n{header}end_header\n1 2 3\n")
    with pytest.raises(ManifestError) as exc_info:
        load_ply(path)
    assert str(exc_info.value) == f"{path}: {message}"


@pytest.mark.parametrize("header, message", [
    ("element vertex 1\n" + _XYZ + "property float x\n",
     "vertex property 'x' declared twice"),
    ("element face 1\nproperty float a\nproperty float b\nproperty float c\n"
     "element vertex 1\n" + _XYZ,
     "element 'face' comes before the vertex element"),
], ids=["duplicate-property", "element-before-vertex"])
def test_load_rejects_malformed_binary_header(tmp_path, header, message):
    path = tmp_path / "cloud.ply"
    path.write_bytes(f"ply\nformat binary_little_endian 1.0\n{header}"
                     f"end_header\n".encode() + np.arange(8, dtype="<f4").tobytes())
    with pytest.raises(ManifestError) as exc_info:
        load_ply(path)
    assert str(exc_info.value) == f"{path}: {message}"


@pytest.mark.parametrize("fmt", ["ascii", "binary"])
def test_load_ignores_elements_after_vertex(tmp_path, fmt):
    cloud = PointCloud([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "cloud.ply"
    if fmt == "ascii":
        path.write_text(_ascii_ply(cloud).replace(
            "end_header", "element face 1\nproperty list uchar int vertex_indices\n"
                          "end_header") + "3 0 1 1\n")
    else:
        save_ply(path, cloud)
        path.write_bytes(path.read_bytes().replace(
            b"end_header", b"element face 1\nproperty list uchar int vertex_indices\n"
                           b"end_header") + b"\x03" + bytes(12))
    assert np.array_equal(load_ply(path).points, cloud.points)


@pytest.mark.parametrize("value, message", [
    *(pytest.param(v, "cloud colors must be whole numbers in [0, 255]", id=v)
      for v in ("300", "-5", "2.7")),
    pytest.param("nan", "cloud colors must be finite", id="nan"),
])
def test_load_rejects_ascii_colors_out_of_range_or_fractional(tmp_path, value, message):
    path = tmp_path / "cloud.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n" + _XYZ
                    + "property uchar red\nproperty uchar green\n"
                    f"property uchar blue\nend_header\n1 2 3 0 {value} 255\n")
    with pytest.raises(ManifestError) as exc_info:
        load_ply(path)
    assert str(exc_info.value) == f"{path}: {message}"
