"""Checks of the benchmark itself, run in smoke mode:

    python3 -m pytest -q perfbench

Every metric BENCHMARK.json names is printed with its unit, untraced and
traced; the counts listed as exact repeat from run to run; the workload
reasons agree with workloads.json; without the program sources the command
fails without printing a result; and the pose checks accept the least-squares
optimum where noise alone puts it outside a tolerance, but not a worse pose.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads  # noqa: E402
from twinfuse import fusion, geometry, synth  # noqa: E402
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, seed=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@functools.lru_cache(maxsize=None)
def _result(workload, trace, seed=0):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, f"end-to-end metric {name} reads 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    names = SPEC["exact_counts"]["names"]
    first = _result(workload, 1)["metrics"]
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {n: first[n]["value"] for n in names} == \
        {n: second[n]["value"] for n in names}


def test_workload_reasons_agree():
    for w in BENCH["workloads"]:
        assert w["why"] == SPEC[w["name"]]["why"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("room", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _checked(check, *args):
    checks = workloads.Checks()
    check(checks, *args)
    return checks


def test_scan_check_accepts_noise_limited_optimum():
    # input seed 110: the least-squares fit of scan2 is 6.8 mm from the truth
    bundle = synth.generate(synth.SynthConfig(seed=110, duration_s=0.034))
    _, report = fusion.fuse_scans(bundle.scans)
    worst = max(synth.pose_error(row.transform, synth.true_relative_scan_pose(
        bundle, row.name, report.reference_name))[0] for row in report.rows)
    assert worst > workloads.SCAN_ERR_MAX_MM
    assert _checked(workloads._check_scans, bundle, bundle.scans, report).correct
    # 1% further from the truth than the optimum: rejected
    row = max(report.rows, key=lambda r: synth.pose_error(
        r.transform, synth.true_relative_scan_pose(bundle, r.name,
                                                   report.reference_name))[0])
    truth = synth.true_relative_scan_pose(bundle, row.name, report.reference_name)
    row.transform = geometry.RigidTransform(
        row.transform.q, truth.t + 1.01 * (row.transform.t - truth.t),
        row.transform.from_frame, row.transform.to_frame)
    assert not _checked(workloads._check_scans, bundle, bundle.scans,
                        report).correct


def test_pnp_check_accepts_noise_limited_optimum():
    # input seed 497: the reprojection optimum of cam1 is 0.34 deg off
    bundle = synth.generate(synth.SynthConfig(seed=497, duration_s=0.034))
    inputs = workloads._pnp_inputs(bundle)
    solved = workloads._solve_cameras(inputs)
    rot = [synth.pose_error(pose, cam.world_from_camera)[1]
           for (cam, _, _), (pose, _) in zip(inputs, solved)]
    assert max(rot) > workloads.PNP_ROT_MAX_DEG
    assert _checked(workloads._check_pnp, inputs, solved).correct
    # 5% further from the true rotation than the optimum: rejected
    k = int(np.argmax(rot))
    cam = inputs[k][0]
    pose, mean_px = solved[k]
    true_rot = Rotation.from_quat(cam.world_from_camera.q, scalar_first=True)
    error = Rotation.from_quat(pose.q, scalar_first=True) * true_rot.inv()
    worse = (error ** 1.05 * true_rot).as_quat(scalar_first=True)
    solved[k] = (geometry.RigidTransform(worse, pose.t, pose.from_frame,
                                         pose.to_frame), mean_px)
    assert not _checked(workloads._check_pnp, inputs, solved).correct


def test_floor_frame_within_slack_of_optimum():
    # input seed 18: the floor frame farthest from the truth on seeds 0-599
    bundle = synth.generate(synth.SynthConfig(seed=18, duration_s=0.034))
    fused, report = fusion.fuse_scans(bundle.scans)
    final, floor_t = fusion.finalize_reference(fused)
    assert _checked(workloads._check_floor, bundle, report, fused, final,
                    floor_t).correct
    room = bundle.room_cloud.points
    floor_points = room[room[:, 2] == 0.0]
    to_final = workloads._final_from_world(bundle, report, floor_t)
    program = workloads._plane_errors(geometry.invert(to_final).t,
                                      to_final.rotation[2], floor_points)
    best = workloads._floor_optimum(bundle, report, fused, floor_points)
    assert program[0] < best[0] + workloads.FLOOR_SLACK_DEG
    assert program[1] < best[1] + workloads.FLOOR_SLACK_MM
