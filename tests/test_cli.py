"""End-to-end command-line interface tests (run in process)."""

import json
import os
import shutil

import numpy as np
import pytest

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


def test_register_cameras_missing_intrinsics_key(bundle_dir, tmp_path, capsys):
    cams_dir = tmp_path / "cameras"
    cams_dir.mkdir()
    for name in ("cam1_intrinsics.json", "cam1_marker_pixels.json"):
        (cams_dir / name).write_text((bundle_dir / "cameras" / name).read_text())
    intr = json.loads((cams_dir / "cam1_intrinsics.json").read_text())
    del intr["fx"]
    (cams_dir / "cam1_intrinsics.json").write_text(json.dumps(intr))
    rc = main(["register-cameras",
               "--markers", str(bundle_dir / "reference_markers.json"),
               "--cameras-dir", str(cams_dir), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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


def test_mocap_missing_camera_pose(bundle_dir, tmp_path, capsys):
    cams = tmp_path / "cams"
    assert main(["register-cameras",
                 "--markers", str(bundle_dir / "reference_markers.json"),
                 "--cameras-dir", str(bundle_dir / "cameras"),
                 "--out", str(cams)]) == 0
    cal = json.loads((cams / "cam2_calibration.json").read_text())
    del cal["world_from_camera"]
    (cams / "cam2_calibration.json").write_text(json.dumps(cal))
    capsys.readouterr()
    rc = main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(tmp_path / "skeleton.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'world_from_camera'" in err
    assert "cam2_calibration.json" in err


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


def test_mocap_malformed_calibration_json(bundle_dir, tmp_path, capsys):
    cams = _true_calibrations(bundle_dir, tmp_path / "cams")
    (cams / "cam2_calibration.json").write_text("{not json")
    rc = main(["mocap", "--keypoints-dir", str(bundle_dir / "keypoints"),
               "--cameras-dir", str(cams), "--table-center", "0.5,0,0.9",
               "--out", str(tmp_path / "skeleton.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cam2_calibration.json: malformed JSON at line 1, column 2" in err


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


def test_scene_rejects_corrupt_manifest(tmp_path, capsys):
    d = tmp_path / "scene"
    d.mkdir()
    (d / "scene.json").write_text("{not json")
    assert main(["scene", str(d)]) == 1
    capsys.readouterr()


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
