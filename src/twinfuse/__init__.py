"""twinfuse: scan fusion, camera registration, tracking, and digital-twin
scene assembly with a built-in synthetic ground-truth oracle."""

from .geometry import (PlaneFrame, PointCloud, RigidTransform, apply,
                       build_floor_frame, compose, fit_plane_pca, identity,
                       invert, kabsch)
from .fusion import (FusionReport, MarkerSet, ScanRecord, crop_aabb,
                     finalize_reference, fuse_scans, match_markers,
                     register_scan, remove_statistical_outliers,
                     voxel_downsample)
from .metrics import (chamfer, chamfer_one_sided, marker_rmse,
                      reprojection_stats)
from .cameras import (CameraIntrinsics, CameraModel, PixelObservation,
                      estimate_time_offset, project, solve_pnp, triangulate,
                      unproject)
from .tracking import (IcpResult, MarkerArrayGeometry, PoseTrack,
                       fit_sphere_fixed_radius, icp, register_marker_array,
                       smooth_track)
from .mocap import (Keypoint2DFrame, PersonDetection, Skeleton3DFrame,
                    select_surgeon, smooth_skeleton, triangulate_skeleton)
from .scene import (DynamicNode, SkeletonNode, StaticNode, TwinScene, assemble,
                    sample_at, scenes_equal, validate)
from .scene import load as load_scene
from .scene import save as save_scene
from .synth import GroundTruthBundle, SynthConfig, generate
from .ply import load_ply, save_ply

__version__ = "0.1.0"
