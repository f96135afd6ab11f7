"""End-to-end command-line interface tests (run in process)."""

import functools
import json
import os
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfuse import synth
from twinfuse.cli import main
from twinfuse.fusion import MarkerSet
from twinfuse.geometry import PointCloud
from twinfuse.ply import load_ply, save_ply
from twinfuse.tracking import PoseTrack

from conftest import quat_angle_deg


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle")
    synth.export_bundle(synth.generate(synth.SynthConfig(seed=0, duration_s=0.2)),
                        d)
    return d


# ---------------------------------------------------------------------------
# usage errors

def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_missing_input_is_pipeline_error(tmp_path, capsys):
    rc = main(["fuse", "--scans-dir", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuse

def test_fuse_outputs(bundle_dir, tmp_path, capsys):
    out = tmp_path / "fused"
    rc = main(["fuse", "--scans-dir", str(bundle_dir / "scans"),
               "--out", str(out)])
    assert rc == 0
    assert (out / "fused.ply").exists()
    assert (out / "report.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "floor_transform.json").exists()
    table = capsys.readouterr().out
    assert "RMSE (mm)" in table
    fused = load_ply(out / "fused.ply")
    assert len(fused) > 0


def test_fuse_skip_floor(bundle_dir, tmp_path, capsys):
    out = tmp_path / "fused"
    rc = main(["fuse", "--scans-dir", str(bundle_dir / "scans"),
               "--out", str(out), "--skip-floor"])
    assert rc == 0
    assert not (out / "floor_transform.json").exists()
    capsys.readouterr()


def test_fuse_empty_scan_names_it(bundle_dir, tmp_path, capsys):
    scans = tmp_path / "scans"
    shutil.copytree(bundle_dir / "scans", scans)
    save_ply(scans / "scan3.ply", PointCloud(np.zeros((0, 3))))
    rc = main(["fuse", "--scans-dir", str(scans), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: scan 'scan3': chamfer requires non-empty clouds\n")


# ---------------------------------------------------------------------------
# register-cameras

def test_register_cameras_outputs(bundle_dir, tmp_path, capsys):
    out = tmp_path / "cams"
    rc = main(["register-cameras",
               "--markers", str(bundle_dir / "reference_markers.json"),
               "--cameras-dir", str(bundle_dir / "cameras"),
               "--out", str(out)])
    assert rc == 0
    cals = sorted(p for p in os.listdir(out) if p.endswith("_calibration.json"))
    assert len(cals) == 5
    stats = json.loads((out / "reprojection_stats.json").read_text())
    assert all(v["mean_px"] < 2.0 for v in stats.values())
    table = capsys.readouterr().out
    assert "Mean error (px)" in table
    # recovered poses close to the exporter's ground truth
    from twinfuse.cameras import CameraModel
    for name in cals:
        est = CameraModel.from_json((out / name).read_text())
        cam_id = name.replace("_calibration.json", "")
        truth = CameraModel.from_json(
            (bundle_dir / "cameras" / f"{cam_id}_truth.json").read_text())
        t_err = np.linalg.norm(est.world_from_camera.t
                               - truth.world_from_camera.t)
        assert t_err < 0.02
        assert quat_angle_deg(est.world_from_camera.q,
                              truth.world_from_camera.q) < 0.3


def test_register_cameras_missing_camera_id(bundle_dir, tmp_path, capsys):
    cams_dir = tmp_path / "cameras"
    cams_dir.mkdir()
    for name in ("cam1_intrinsics.json", "cam1_marker_pixels.json"):
        (cams_dir / name).write_text((bundle_dir / "cameras" / name).read_text())
    intr = json.loads((cams_dir / "cam1_intrinsics.json").read_text())
    del intr["id"]
    (cams_dir / "cam1_intrinsics.json").write_text(json.dumps(intr))
    rc = main(["register-cameras",
               "--markers", str(bundle_dir / "reference_markers.json"),
               "--cameras-dir", str(cams_dir), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'id'" in err and "cam1_intrinsics.json" in err


def _holder(obj, key):
    """``obj`` if it has ``key``, else the first entry of its first list
    value that has the key."""
    if key in obj:
        return obj
    for value in obj.values():
        if isinstance(value, list) and value and key in value[0]:
            return value[0]
    raise KeyError(key)


def _without_key(obj, key):
    """Copy of a JSON object with ``key`` deleted from ``_holder``."""
    obj = json.loads(json.dumps(obj))
    del _holder(obj, key)[key]
    return obj


def _with_value(obj, key, value):
    """Copy of a JSON object with ``key`` set to ``value`` in ``_holder``."""
    obj = json.loads(json.dumps(obj))
    _holder(obj, key)[key] = value
    return obj


def _missing(key, what):
    return pytest.param(functools.partial(_without_key, key=key),
                        f"{what} missing key '{key}'", id=key)


@pytest.mark.parametrize("corrupt, message", [
    _missing("fx", "camera intrinsics"),
    pytest.param(lambda o: _with_value(o, "fx", "900"),
                 "fx must be a finite number, got '900'", id="fx-string"),
    pytest.param(lambda o: _with_value(o, "dist", 5),
                 "distortion must be 5 finite numbers, got 5", id="dist-number"),
    pytest.param(lambda o: [o], "camera intrinsics is not a JSON object",
                 id="not-object"),
    pytest.param(lambda o: {**o, "id": 1}, "camera id must be a string, got 1",
                 id="id-number"),
])
def test_register_cameras_missing_intrinsics_key(bundle_dir, tmp_path, capsys,
                                                 corrupt, message):
    cams_dir = tmp_path / "cameras"
    cams_dir.mkdir()
    for name in ("cam1_intrinsics.json", "cam1_marker_pixels.json"):
        (cams_dir / name).write_text((bundle_dir / "cameras" / name).read_text())
    bad = cams_dir / "cam1_intrinsics.json"
    bad.write_text(json.dumps(corrupt(json.loads(bad.read_text()))))
    rc = main(["register-cameras",
               "--markers", str(bundle_dir / "reference_markers.json"),
               "--cameras-dir", str(cams_dir), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("corrupt, message", [
    *(_missing(key, "marker pixels") for key in ("pixels", "id", "uv")),
    pytest.param(lambda o: {**o, "pixels": 5},
                 "marker pixels is not an object with a list of pixel objects "
                 "under 'pixels'", id="pixels-number"),
    pytest.param(lambda o: {**o, "pixels": [5]},
                 "marker pixels is not an object with a list of pixel objects "
                 "under 'pixels'", id="pixel-number"),
    pytest.param(lambda o: _with_value(o, "uv", [1.0]),
                 "marker pixels: 'uv' of 'M", id="uv-one-number"),
    pytest.param(lambda o: _with_value(o, "uv", ["1", 2.0]),
                 "marker pixels: 'uv' of 'M", id="uv-not-numbers"),
])
def test_register_cameras_marker_pixels_missing_key(bundle_dir, tmp_path,
                                                    capsys, corrupt, message):
    cams_dir = tmp_path / "cameras"
    shutil.copytree(bundle_dir / "cameras", cams_dir)
    bad = cams_dir / "cam1_marker_pixels.json"
    bad.write_text(json.dumps(corrupt(json.loads(bad.read_text()))))
    rc = main(["register-cameras",
               "--markers", str(bundle_dir / "reference_markers.json"),
               "--cameras-dir", str(cams_dir), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("corrupt, message", [
    *(_missing(key, "marker set")
      for key in ("frame", "markers", "id", "position_m")),
    pytest.param(lambda o: _with_value(o, "position_m", [1.0, 2.0]),
                 "marker 'M01' position must be 3 finite numbers, "
                 "got [1.0, 2.0]", id="position_m-length"),
    pytest.param(lambda o: _with_value(o, "position_m", [1.0, float("nan"), 0]),
                 "marker 'M01' position must be 3 finite numbers, "
                 "got [1.0, nan, 0]", id="position_m-nan"),
    pytest.param(lambda o: _with_value(o, "markers", {"id": "M01"}),
                 "marker set is not an object with a list of marker objects "
                 "under 'markers'",
                 id="markers-not-list"),
])
def test_register_cameras_reference_markers_missing_key(bundle_dir, tmp_path,
                                                        capsys, corrupt,
                                                        message):
    bad = tmp_path / "reference_markers.json"
    obj = json.loads((bundle_dir / "reference_markers.json").read_text())
    bad.write_text(json.dumps(corrupt(obj)))
    rc = main(["register-cameras", "--markers", str(bad),
               "--cameras-dir", str(bundle_dir / "cameras"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("key, value", [("width", 1280.5), ("height", 720.0)])
def test_register_cameras_rejects_fractional_image_size(bundle_dir, tmp_path,
                                                        capsys, key, value):
    cams_dir = tmp_path / "cameras"
    shutil.copytree(bundle_dir / "cameras", cams_dir)
    bad = cams_dir / "cam1_intrinsics.json"
    bad.write_text(json.dumps({**json.loads(bad.read_text()), key: value}))
    out = tmp_path / "out"
    rc = main(["register-cameras",
               "--markers", str(bundle_dir / "reference_markers.json"),
               "--cameras-dir", str(cams_dir), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: {key} must be an integer, got {value!r}\n")
    assert not (out / "cam1_calibration.json").exists()


def test_register_cameras_reports_failed_pnp_and_keeps_others(bundle_dir, tmp_path,
                                                              capsys):
    cams_dir = tmp_path / "cameras"
    shutil.copytree(bundle_dir / "cameras", cams_dir)
    pix = json.loads((cams_dir / "cam2_marker_pixels.json").read_text())
    pix["pixels"] = pix["pixels"][:3]
    (cams_dir / "cam2_marker_pixels.json").write_text(json.dumps(pix))
    out = tmp_path / "out"
    rc = main(["register-cameras",
               "--markers", str(bundle_dir / "reference_markers.json"),
               "--cameras-dir", str(cams_dir), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: PnP failed for cam2: PnP needs >= 6 correspondences, got 3\n")
    assert sorted(p.name for p in out.glob("*_calibration.json")) == [
        f"cam{i}_calibration.json" for i in (1, 3, 4, 5)]
    assert "cam2" not in json.loads((out / "reprojection_stats.json").read_text())


# ---------------------------------------------------------------------------
# mocap

def test_mocap_outputs(bundle_dir, tmp_path, capsys):
    cams = tmp_path / "cams"
    assert main(["register-cameras",
                 "--markers", str(bundle_dir / "reference_markers.json"),
                 "--cameras-dir", str(bundle_dir / "cameras"),
                 "--out", str(cams)]) == 0
    out = tmp_path / "skeleton.csv"
    truth = json.loads((bundle_dir / "truth.json").read_text())
    rc = main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
               "--cameras-dir", str(cams),
               "--table-center", ",".join(str(v) for v in truth["table_center"]),
               "--window", "3", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("t_s,joint_id")
    assert "wrote" in capsys.readouterr().out


def test_mocap_unknown_camera_is_pipeline_error(bundle_dir, tmp_path, capsys):
    cams = tmp_path / "cams"
    assert main(["register-cameras",
                 "--markers", str(bundle_dir / "reference_markers.json"),
                 "--cameras-dir", str(bundle_dir / "cameras"),
                 "--out", str(cams)]) == 0
    (cams / "cam3_calibration.json").unlink()
    capsys.readouterr()
    rc = main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(tmp_path / "skeleton.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "cam3" in err
    assert "Traceback" not in err


def _with_pose(key, value):
    def corrupt(cal):
        cal["world_from_camera"][key] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda cal: cal.pop("world_from_camera"),
                 "camera model missing key 'world_from_camera'",
                 id="world_from_camera"),
    pytest.param(lambda cal: cal.update(world_from_camera=5),
                 "camera model 'world_from_camera': 'int' object is not "
                 "subscriptable", id="pose-number"),
    pytest.param(_with_pose("q_wxyz", [0, 0, 0, 0]),
                 "camera model 'world_from_camera': cannot normalize "
                 "zero/non-finite quaternion", id="zero-quat"),
    pytest.param(_with_pose("t_m", [0.5, 0]),
                 "camera model 'world_from_camera': cannot reshape array of "
                 "size 2 into shape (3,)", id="short-translation"),
    pytest.param(lambda cal: cal.update(id=[]),
                 "camera id must be a string, got []", id="id-list"),
])
def test_mocap_missing_camera_pose(bundle_dir, tmp_path, capsys, corrupt,
                                   message):
    cams = tmp_path / "cams"
    assert main(["register-cameras",
                 "--markers", str(bundle_dir / "reference_markers.json"),
                 "--cameras-dir", str(bundle_dir / "cameras"),
                 "--out", str(cams)]) == 0
    bad = cams / "cam2_calibration.json"
    cal = json.loads(bad.read_text())
    corrupt(cal)
    bad.write_text(json.dumps(cal))
    capsys.readouterr()
    rc = main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(tmp_path / "skeleton.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def _true_calibrations(bundle_dir, out):
    """The bundle's true camera models, written as *_calibration.json."""
    out.mkdir()
    for p in (bundle_dir / "cameras").glob("*_truth.json"):
        (out / p.name.replace("_truth", "_calibration")).write_text(p.read_text())
    return out


def test_mocap_keypoint_missing_key(bundle_dir, tmp_path, capsys):
    cams = _true_calibrations(bundle_dir, tmp_path / "cams")
    keypoints = tmp_path / "keypoints"
    shutil.copytree(bundle_dir / "keypoints", keypoints)
    bad = sorted(keypoints.glob("*.json"))[0]
    frame = json.loads(bad.read_text())
    del frame["t_s"]
    bad.write_text(json.dumps(frame))
    rc = main(["mocap", "--keypoints-dir", str(keypoints),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(tmp_path / "skeleton.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{bad.name}: keypoint frame missing key 't_s'" in err


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda fr: fr.update(persons=5),
                 "'int' object is not iterable", id="persons-number"),
    pytest.param(lambda fr: fr.update(t_s="a"),
                 "could not convert string to float: 'a'", id="t_s-string"),
    pytest.param(lambda fr: fr["persons"][0].update(body="x"),
                 "could not convert string to float: 'x'", id="body-string"),
])
def test_mocap_keypoint_wrong_type(bundle_dir, tmp_path, capsys, corrupt,
                                   message):
    cams = _true_calibrations(bundle_dir, tmp_path / "cams")
    keypoints = tmp_path / "keypoints"
    shutil.copytree(bundle_dir / "keypoints", keypoints)
    bad = sorted(keypoints.glob("*.json"))[0]
    frame = json.loads(bad.read_text())
    corrupt(frame)
    bad.write_text(json.dumps(frame))
    rc = main(["mocap", "--keypoints-dir", str(keypoints),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(tmp_path / "skeleton.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: keypoint frame: {message}\n"


def test_mocap_malformed_calibration_json(bundle_dir, tmp_path, capsys):
    cams = _true_calibrations(bundle_dir, tmp_path / "cams")
    (cams / "cam2_calibration.json").write_text("{not json")
    rc = main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(tmp_path / "skeleton.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cam2_calibration.json: malformed JSON at line 1, column 2" in err


def test_mocap_non_finite_keypoint_time(bundle_dir, tmp_path, capsys):
    cams = _true_calibrations(bundle_dir, tmp_path / "cams")
    keypoints = tmp_path / "keypoints"
    shutil.copytree(bundle_dir / "keypoints", keypoints)
    bad = sorted(keypoints.glob("*.json"))[0]
    frame = json.loads(bad.read_text())
    frame["t_s"] = float("nan")
    bad.write_text(json.dumps(frame))
    out = tmp_path / "skeleton.csv"
    rc = main(["mocap", "--keypoints-dir", str(keypoints),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: keypoint frame t_s must be a finite number, got nan\n")
    assert not out.exists()


@pytest.mark.parametrize("window", ["0", "-3", "2"])
def test_mocap_bad_window(bundle_dir, tmp_path, capsys, window):
    cams = _true_calibrations(bundle_dir, tmp_path / "cams")
    out = tmp_path / "skeleton.csv"
    rc = main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--window", window, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: window must be an odd integer >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["a,b,c", "0.5,0", "0.5,0,nan", "0.5,0,0.9,1"])
def test_mocap_bad_table_center_is_usage_error(bundle_dir, tmp_path, capsys,
                                               value):
    cams = _true_calibrations(bundle_dir, tmp_path / "cams")
    with pytest.raises(SystemExit) as exc_info:
        main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
              "--cameras-dir", str(cams), "--table-center", value,
              "--out", str(tmp_path / "skeleton.csv")])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --table-center: expected x,y,z as three finite numbers, " \
           f"got {value!r}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# track

def test_track_smoothing(bundle_dir, tmp_path, capsys):
    out = tmp_path / "smoothed.csv"
    rc = main(["track", "--input", str(bundle_dir / "instrument_track.csv"),
               "--window", "5", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    raw = PoseTrack.from_csv((bundle_dir / "instrument_track.csv").read_text())
    smo = PoseTrack.from_csv(out.read_text())
    true = PoseTrack.from_csv(
        (bundle_dir / "instrument_track_true.csv").read_text())
    raw_err = np.linalg.norm(raw.translations - true.translations, axis=1)
    smo_err = np.linalg.norm(smo.translations - true.translations, axis=1)
    assert smo_err[2:-2].mean() < raw_err[2:-2].mean()


def test_track_bad_window(bundle_dir, tmp_path, capsys):
    rc = main(["track", "--input", str(bundle_dir / "instrument_track.csv"),
               "--window", "4", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    capsys.readouterr()


def _nan_qw(text):
    lines = text.splitlines()
    row = lines[3].split(",")
    row[4] = "nan"
    lines[3] = ",".join(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt, message", [
    (_nan_qw, "track quaternions must be finite"),
    (lambda text: "t_s,tx_m\n0.0,1.0\n",
     "pose track CSV line 2: expected 8 columns, got 2"),
])
def test_track_bad_csv(bundle_dir, tmp_path, capsys, corrupt, message):
    bad = tmp_path / "track.csv"
    bad.write_text(corrupt((bundle_dir / "instrument_track.csv").read_text()))
    rc = main(["track", "--input", str(bad), "--window", "5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert f"track.csv: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# metrics

def test_metrics_clouds_and_markers(bundle_dir, tmp_path, capsys):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(50, 3))
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    save_ply(a, PointCloud(pts))
    save_ply(b, PointCloud(pts + [0.002, 0, 0]))
    ma = tmp_path / "ma.json"
    mb = tmp_path / "mb.json"
    ma.write_text(MarkerSet("ref", {"A": np.zeros(3)}).to_json())
    mb.write_text(MarkerSet("ref", {"A": np.array([0.003, 0, 0])}).to_json())
    out = tmp_path / "metrics.json"
    rc = main(["metrics", "--cloud-a", str(a), "--cloud-b", str(b),
               "--markers-a", str(ma), "--markers-b", str(mb),
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "cd_mm: 2.00" in text
    assert "rmse_mm: 3.00" in text
    saved = json.loads(out.read_text())
    # PLY stores float32 coordinates, so allow quantization error
    assert saved["cd_mm"] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("max_dist, expected", [
    ("0.1", "cd_one_sided_mm: 2.00"),   # every neighbour is 2 mm away
    ("0.001", None),                    # the cutoff filters all of them
    ("0", "cd_one_sided_mm: 2.00"),     # <= 0 disables the cutoff
    ("-1", "cd_one_sided_mm: 2.00"),
])
def test_metrics_one_sided(tmp_path, capsys, max_dist, expected):
    pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    save_ply(a, PointCloud(pts))
    save_ply(b, PointCloud(pts + [0.002, 0, 0]))
    rc = main(["metrics", "--cloud-a", str(a), "--cloud-b", str(b),
               "--one-sided", "--max-dist", max_dist])
    out, err = capsys.readouterr()
    if expected is None:
        assert rc == 1
        assert err == "error: all nearest-neighbor correspondences filtered out\n"
    else:
        assert rc == 0
        assert out == f"{expected}\n"


def test_metrics_markers_missing_frame(bundle_dir, tmp_path, capsys):
    ref = bundle_dir / "reference_markers.json"
    bad = tmp_path / "markers.json"
    bad.write_text(json.dumps(_without_key(json.loads(ref.read_text()), "frame")))
    rc = main(["metrics", "--markers-a", str(bad), "--markers-b", str(ref)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: marker set missing key 'frame'" in err


def test_metrics_signalling_nan_is_one_error_line(tmp_path, capsys):
    rows = np.array([[0.5, 1.0, -1.0], [2.0, 0.0, 0.0]], dtype="<f4")
    rows[1, 1] = np.array([0x7F800001], dtype="<u4").view("<f4")[0]
    path = tmp_path / "cloud.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                     b"property float x\nproperty float y\nproperty float z\n"
                     b"end_header\n" + rows.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["metrics", "--cloud-a", str(path), "--cloud-b", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {path}: vertex coordinates "
                                       f"must be finite\n")


def test_metrics_nothing_to_compute(capsys):
    assert main(["metrics"]) == 1
    assert "nothing to compute" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scene

def test_scene_validates_saved_scene(tmp_path, capsys):
    from twinfuse import scene as scene_mod
    from twinfuse.geometry import RigidTransform
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(-1, 1, (20, 3)).astype(np.float32)
                       .astype(float), frame="reference")
    pose = RigidTransform([1.0, 0, 0, 0], [0.0, 0, 0], "room", "reference")
    s = scene_mod.assemble([scene_mod.StaticNode("room", cloud, pose)])
    d = tmp_path / "scene"
    scene_mod.save(s, d)
    assert main(["scene", str(d)]) == 0
    assert "scene OK" in capsys.readouterr().out


def test_scene_rejects_short_skeleton_row(tmp_path, capsys):
    from twinfuse import scene as scene_mod
    from twinfuse.mocap import N_JOINTS, Skeleton3DFrame
    rng = np.random.default_rng(0)
    frames = tuple(Skeleton3DFrame(0.1 * (k + 1), rng.normal(size=(N_JOINTS, 3)),
                                   np.zeros(N_JOINTS), np.ones(N_JOINTS, bool))
                   for k in range(2))
    d = tmp_path / "scene"
    scene_mod.save(scene_mod.assemble(
        skeleton_nodes=[scene_mod.SkeletonNode("surgeon", frames)]), d)
    csv = d / "surgeon_skeleton.csv"
    n_lines = len(csv.read_text().splitlines())
    csv.write_text(csv.read_text() + "0.0,1\n")
    assert main(["scene", str(d)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {csv}: skeleton CSV line {n_lines + 1}: "
                   f"expected 7 columns, got 2\n")


def test_scene_reports_missing_opaque_asset(tmp_path, capsys):
    from twinfuse import scene as scene_mod
    from twinfuse.geometry import RigidTransform
    pose = RigidTransform([1.0, 0, 0, 0], [0.0, 0, 0], "room", "reference")
    d = tmp_path / "scene"
    scene_mod.save(scene_mod.assemble(
        [scene_mod.StaticNode("room", "meshes/room.obj", pose)]), d)
    assert main(["scene", str(d)]) == 1
    assert capsys.readouterr().err == (
        "violation: static node 'room': missing asset 'meshes/room.obj'\n")


def test_scene_rejects_corrupt_manifest(tmp_path, capsys):
    d = tmp_path / "scene"
    d.mkdir()
    (d / "scene.json").write_text("{not json")
    assert main(["scene", str(d)]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# unreadable files

def _saved_scene(d):
    """A saved scene with a room cloud, a drill with a track and its cloud."""
    from twinfuse import scene as scene_mod
    from twinfuse.geometry import RigidTransform
    cloud = PointCloud(np.zeros((3, 3)), frame="reference")
    pose = RigidTransform([1.0, 0, 0, 0], [0.0, 0, 0], "room", "reference")
    track = PoseTrack("reference", [0.0, 1.0], np.tile([1.0, 0, 0, 0], (2, 1)),
                      np.zeros((2, 3)))
    scene_mod.save(scene_mod.assemble([scene_mod.StaticNode("room", cloud, pose)],
                                      [scene_mod.DynamicNode("drill", cloud, track)]),
                   d)
    return d


def _edited_scene(tmp_path, edit):
    d = _saved_scene(tmp_path / "scene")
    manifest = json.loads((d / "scene.json").read_text())
    edit(d, manifest)
    (d / "scene.json").write_text(json.dumps(manifest))
    return d


def _track_dir(bundle_dir, tmp_path):
    return (["track", "--input", str(tmp_path), "--window", "5",
             "--out", str(tmp_path / "x.csv")], f"{tmp_path}: Is a directory")


def _markers_dir(bundle_dir, tmp_path):
    return (["metrics", "--markers-a", str(tmp_path), "--markers-b",
             str(tmp_path)], f"{tmp_path}: Is a directory")


def _scene_asset_dir(bundle_dir, tmp_path):
    def edit(d, m):
        (d / "sub").mkdir()
        m["static"][0]["asset"] = "sub"
    d = _edited_scene(tmp_path, edit)
    return ["scene", str(d)], f"{d / 'sub'}: Is a directory"


def _scene_track_dir(bundle_dir, tmp_path):
    def edit(d, m):
        (d / "sub").mkdir()
        m["dynamic"][0]["track"] = "sub"
    d = _edited_scene(tmp_path, edit)
    return ["scene", str(d)], f"{d / 'sub'}: Is a directory"


def _track_latin1(bundle_dir, tmp_path):
    bad = tmp_path / "track.csv"
    bad.write_bytes((bundle_dir / "instrument_track.csv").read_bytes() + b"\xff\n")
    return (["track", "--input", str(bad), "--window", "5",
             "--out", str(tmp_path / "x.csv")], f"{bad}: not UTF-8 text")


def _scene_manifest_latin1(bundle_dir, tmp_path):
    d = _saved_scene(tmp_path / "scene")
    (d / "scene.json").write_bytes(b'{"version": "\xff"}')
    return ["scene", str(d)], f"{d / 'scene.json'}: not UTF-8 text"


def _scene_track_latin1(bundle_dir, tmp_path):
    d = _saved_scene(tmp_path / "scene")
    (d / "drill_track.csv").write_bytes(b"t_s,\xff\n")
    return ["scene", str(d)], f"{d / 'drill_track.csv'}: not UTF-8 text"


def _scene_int_name(bundle_dir, tmp_path):
    d = _edited_scene(tmp_path, lambda d, m: m["dynamic"][0].update(name=5))
    return (["scene", str(d)],
            f"{d / 'scene.json'}: dynamic node field 'name' is not a str")


@pytest.mark.parametrize("case", [
    _track_dir, _markers_dir, _scene_asset_dir, _scene_track_dir,
    _track_latin1, _scene_manifest_latin1, _scene_track_latin1, _scene_int_name,
], ids=lambda case: case.__name__[1:])
def test_unreadable_input_is_one_error_line(bundle_dir, tmp_path, capsys, case):
    argv, message = case(bundle_dir, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_NAN_PLY = (b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
            b"property float y\nproperty float z\nend_header\n0 0 0\n1 nan 0\n")


def _metrics_nan_ply(bundle_dir, tmp_path):
    bad = tmp_path / "a.ply"
    bad.write_bytes(_NAN_PLY)
    return ["metrics", "--cloud-a", str(bad), "--cloud-b", str(bad)], bad


def _fuse_nan_ply(bundle_dir, tmp_path):
    scans = tmp_path / "scans"
    shutil.copytree(bundle_dir / "scans", scans)
    (scans / "scan2.ply").write_bytes(_NAN_PLY)
    return ["fuse", "--scans-dir", str(scans), "--out", str(tmp_path / "out")], \
        scans / "scan2.ply"


def _scene_nan_ply(bundle_dir, tmp_path):
    d = _saved_scene(tmp_path / "scene")
    (d / "room.ply").write_bytes(_NAN_PLY)
    return ["scene", str(d)], d / "room.ply"


@pytest.mark.parametrize("case", [_metrics_nan_ply, _fuse_nan_ply, _scene_nan_ply],
                         ids=lambda case: case.__name__[1:])
def test_non_finite_ply_is_one_error_line(bundle_dir, tmp_path, capsys, case):
    argv, bad = case(bundle_dir, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: vertex coordinates must be finite\n")


def test_fuse_malformed_ply_header_is_one_error_line(bundle_dir, tmp_path, capsys):
    scans = tmp_path / "scans"
    shutil.copytree(bundle_dir / "scans", scans)
    bad = scans / "scan2.ply"
    bad.write_bytes(bad.read_bytes().replace(b"format binary_little_endian 1.0",
                                             b"format", 1))
    rc = main(["fuse", "--scans-dir", str(scans), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: header line lacks a token: 'format'\n")


# ---------------------------------------------------------------------------
# synth

def test_synth_export_and_seed_flag(tmp_path, capsys):
    cfg = synth.SynthConfig(seed=0, duration_s=0.2)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "gen"
    rc = main(["synth", "--config", str(cfg_path), "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    assert "seed 7" in capsys.readouterr().out
    exported = synth.SynthConfig.from_json((out / "config.json").read_text())
    assert exported.seed == 7 and exported.duration_s == 0.2
    assert (out / "scans" / "scan0.ply").exists()


def test_synth_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"seed": 0, "bogus": 1}))
    rc = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "gen")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg_path}: unknown synth config key(s): 'bogus'\n"
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("config, message", [
    ({"seed": "zero"}, "seed must be an int, got 'zero'"),
    ({"marker_count": "5"}, "marker_count must be an int, got '5'"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"room_extent_m": 5}, "room_extent_m must be 3 positive numbers, got 5"),
    ({"room_extent_m": None},
     "room_extent_m must be 3 positive numbers, got None"),
])
def test_synth_rejects_wrong_config_type(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "gen")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
    assert not (tmp_path / "gen").exists()


# ---------------------------------------------------------------------------
# pipeline

@pytest.mark.parametrize("message", [
    "Unable to allocate 224. GiB for an array with shape (6720000001, 3) "
    "and data type float64", ""], ids=["numpy", "bare"])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    def generate(config):
        raise MemoryError(message)
    monkeypatch.setattr(synth, "generate", generate)
    rc = main(["pipeline", "--duration", "1e9", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"


def _tree_bytes(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_pipeline_writes_a_valid_deterministic_scene(tmp_path, capsys):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["pipeline", "--duration", "0.1", "--out", str(out)]) == 0
        assert main(["scene", str(out)]) == 0
    text = capsys.readouterr().out
    assert "skeleton: median joint error" in text
    assert "cam5: PnP from" in text
    assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])
    assert sorted(str(p) for p in _tree_bytes(outs[0])) == [
        "instrument.ply", "instrument_track.csv", "room.ply", "scene.json",
        "surgeon_skeleton.csv"]


# ---------------------------------------------------------------------------
# fuzzed JSON inputs

# 1e400 is read as infinity, and json.dumps writes that back as Infinity
FUZZ_VALUES = (None, 1, float("inf"), True, "x", [], [1], {})


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Each JSON file of a tiny bundle, of its register-cameras output and of
    one saved scene, mapped to the subcommand that reads it."""
    d = tmp_path_factory.mktemp("fuzz")
    bundle, cams, saved, out = d / "bundle", d / "cams", d / "scene", d / "out"
    synth.export_bundle(synth.generate(synth.SynthConfig(duration_s=0.034)),
                        bundle)
    register = ["register-cameras", "--markers",
                str(bundle / "reference_markers.json"),
                "--cameras-dir", str(bundle / "cameras"), "--out", str(out)]
    assert main(register[:-1] + [str(cams)]) == 0
    assert main(["pipeline", "--duration", "0.034", "--out", str(saved)]) == 0
    out.mkdir()
    mocap = ["mocap", "--keypoints-dir", str(bundle / "keypoints"),
             "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
             "--out", str(out / "skeleton.csv")]
    return {
        bundle / "scans" / "scan0_markers.json":
            ["fuse", "--scans-dir", str(bundle / "scans"), "--out", str(out)],
        bundle / "reference_markers.json": register,
        bundle / "cameras" / "cam1_intrinsics.json": register,
        bundle / "cameras" / "cam1_marker_pixels.json": register,
        cams / "cam1_calibration.json": mocap,
        bundle / "keypoints" / "frame_00000_cam1.json": mocap,
        bundle / "config.json": ["synth", "--config", str(bundle / "config.json"),
                                 "--out", str(out / "synth")],
        saved / "scene.json": ["scene", str(saved)],
    }


def _put(data, node, value):
    """``node`` with ``value`` put at a drawn JSON path inside it; an empty
    path replaces ``node`` itself."""
    keys = (list(node) if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else [])
    if not keys or not data.draw(st.booleans()):
        return value
    key = data.draw(st.sampled_from(keys))
    node[key] = _put(data, node[key], value)
    return node


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_json_input_exits_0_or_1(fuzz_inputs, data):
    path = data.draw(st.sampled_from(sorted(fuzz_inputs)))
    original = path.read_text()
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    try:
        path.write_text(json.dumps(_put(data, json.loads(original), value)))
        assert main(fuzz_inputs[path]) in (0, 1)
    finally:
        path.write_text(original)


# An int JSON reads exactly but a float cannot hold.
HUGE = 10 ** 400


def _set(*keys):
    """An edit that puts HUGE at the path ``keys`` of a JSON object."""
    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = HUGE
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("reference_markers.json", _set("markers", 0, "position_m", 0),
     "marker 'M01' position must be 3 finite numbers, got [1"),
    ("frame_00000_cam1.json", _set("t_s"),
     "keypoint frame: int too large to convert to float"),
    ("frame_00000_cam1.json", _set("persons", 0, "body", 0, 0),
     "keypoint frame: int too large to convert to float"),
    ("cam1_intrinsics.json", _set("fx"), "fx must be a finite number, got 1"),
    ("cam1_calibration.json", _set("world_from_camera", "t_m", 0),
     "camera model 'world_from_camera': int too large to convert to float"),
    ("config.json", _set("duration_s"), "duration_s must be a number, got 1"),
    ("cam1_marker_pixels.json", _set("pixels", 0, "uv", 1),
     "marker pixels: 'uv' of 'M"),
    ("scene.json", _set("static", 0, "pose", "t_m", 2),
     "static node 'room' pose: int too large to convert to float"),
], ids=["marker-set", "keypoint-time", "keypoint", "intrinsics", "calibration",
        "synth-config", "marker-pixels", "scene-static-pose"])
def test_int_too_large_for_a_float_is_one_error_line(fuzz_inputs, capsys, name,
                                                     edit, message):
    path = next(p for p in fuzz_inputs if p.name == name)
    original = path.read_text()
    obj = json.loads(original)
    edit(obj)
    try:
        path.write_text(json.dumps(obj))
        assert main(fuzz_inputs[path]) == 1
    finally:
        path.write_text(original)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


# ---------------------------------------------------------------------------
# fuzzed input bytes

@pytest.fixture(scope="module")
def byte_fuzz_inputs(fuzz_inputs):
    """``fuzz_inputs`` plus each PLY and CSV file of its tiny bundle and saved
    scene, mapped to the subcommand that reads it."""
    by_name = {p.name: p for p in fuzz_inputs}
    bundle, saved = by_name["config.json"].parent, by_name["scene.json"].parent
    out = fuzz_inputs[by_name["scan0_markers.json"]][-1]
    scan1 = str(bundle / "scans" / "scan1.ply")
    inputs = {
        **fuzz_inputs,
        bundle / "scans" / "scan0.ply": fuzz_inputs[by_name["scan0_markers.json"]],
        bundle / "scans" / "scan1.ply": ["metrics", "--cloud-a", scan1,
                                         "--cloud-b", scan1],
        bundle / "instrument_track.csv": [
            "track", "--input", str(bundle / "instrument_track.csv"),
            "--window", "3", "--out", os.path.join(out, "smooth.csv")],
    }
    for name in ("room.ply", "instrument.ply", "instrument_track.csv",
                 "surgeon_skeleton.csv"):
        inputs[saved / name] = ["scene", str(saved)]
    return inputs


def _mutated(data, original: bytes) -> bytes:
    """``original`` truncated, with one byte flipped, or with a few bytes
    deleted or inserted, at a drawn position."""
    at = data.draw(st.integers(0, len(original) - 1))
    edit = data.draw(st.sampled_from(["truncate", "flip", "delete", "insert"]))
    if edit == "truncate":
        return original[:at]
    if edit == "flip":
        flipped = original[at] ^ data.draw(st.integers(1, 255))
        return original[:at] + bytes([flipped]) + original[at + 1:]
    if edit == "delete":
        return original[:at] + original[at + data.draw(st.integers(1, 16)):]
    return original[:at] + data.draw(st.binary(min_size=1, max_size=16)) + original[at:]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_input_bytes_exit_0_or_1(byte_fuzz_inputs, data):
    path = data.draw(st.sampled_from(sorted(byte_fuzz_inputs)))
    original = path.read_bytes()
    try:
        path.write_bytes(_mutated(data, original))
        assert main(byte_fuzz_inputs[path]) in (0, 1)
    finally:
        path.write_bytes(original)
