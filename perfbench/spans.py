"""Span tracing from outside the program.

A ``Tracer`` replaces module attributes of ``twinfuse`` with wrappers that
record one span per call: name, start, end, parent span and whether the call
raised. Each attribute is patched under the name its caller looks up (for
example ``twinfuse.mocap.triangulate`` for the calls mocap makes into
cameras), so intra-package calls are caught without touching the package.
Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


def targets(tf) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every call the traced run wraps.

    ``tf`` is the imported ``twinfuse`` package. Entries name the layer that
    owns the function, whichever module the call goes through.
    """
    return [
        # cross-module calls inside the package, under the caller's name
        (tf.mocap, "triangulate", "cameras.triangulate"),
        (tf.mocap, "unproject", "cameras.unproject"),
        (tf.fusion, "ransac_plane_inliers", "geometry.ransac_plane_inliers"),
        (tf.fusion, "kabsch", "geometry.kabsch"),
        (tf.fusion, "chamfer", "metrics.chamfer"),
        (tf.tracking, "kabsch", "geometry.kabsch"),
        (tf.scene, "save_ply", "ply.save_ply"),
        (tf.scene, "load_ply", "ply.load_ply"),
        # public entry points the workloads call
        (tf.synth, "generate", "synth.generate"),
        (tf.mocap, "select_surgeon", "mocap.select_surgeon"),
        (tf.mocap, "triangulate_skeleton", "mocap.triangulate_skeleton"),
        (tf.mocap, "smooth_skeleton", "mocap.smooth_skeleton"),
        (tf.fusion, "fuse_scans", "fusion.fuse_scans"),
        (tf.fusion, "finalize_reference", "fusion.finalize_reference"),
        (tf.fusion, "voxel_downsample", "fusion.voxel_downsample"),
        (tf.fusion, "remove_statistical_outliers",
         "fusion.remove_statistical_outliers"),
        (tf.metrics, "chamfer", "metrics.chamfer"),
        (tf.ply, "save_ply", "ply.save_ply"),
        (tf.ply, "load_ply", "ply.load_ply"),
        (tf.cameras, "solve_pnp", "cameras.solve_pnp"),
        (tf.tracking, "fit_sphere_fixed_radius", "tracking.fit_sphere_fixed_radius"),
        (tf.tracking, "register_marker_array", "tracking.register_marker_array"),
        (tf.tracking, "icp", "tracking.icp"),
        (tf.tracking, "smooth_track", "tracking.smooth_track"),
        (tf.scene, "assemble", "scene.assemble"),
        (tf.scene, "save", "scene.save"),
        (tf.scene, "load", "scene.load"),
        (tf.scene, "sample_at", "scene.sample_at"),
        (tf.scene, "validate", "scene.validate"),
    ]


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, raised];
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, False]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    @contextmanager
    def installed(self, patch_targets):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, name in patch_targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name: calls, failed, total s and self s over spans[first:last].

        Self time is a span's duration minus the durations of its direct
        children.
        """
        spans = self.spans[first:last]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child_s[parent - first] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, raised), kids in zip(spans, child_s):
            entry = out.setdefault(name, {"calls": 0, "failed": 0, "s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["failed"] += int(raised)
            entry["s"] += end - start
            entry["self_s"] += end - start - kids
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "span_fields": ["name", "start_s", "end_s",
                                                "parent", "raised"],
                       "spans": self.spans}, f)
