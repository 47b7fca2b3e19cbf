"""Workload and dataset generators.

The paper's datasets (application file sets with measured overlaps,
compile traces of Thrift/Git/Linux, OS-image namespaces scaled by
duplication, PostMark) are not shippable, so this subpackage generates
synthetic equivalents whose *statistics* match what the paper reports —
Table I's pairwise overlap counts exactly, Table II's graph shapes
approximately (vertex counts exact, edges/weights close), and PostMark's
published parameters (50 000 files, 200 subdirectories).
"""

from repro.workloads.apps import (
    GIT_SPEC,
    LINUX_SPEC,
    THRIFT_SPEC,
    CompileApplication,
    CompileAppSpec,
    scaled_spec,
    table1_file_sets,
    table1_overlap_matrix,
)
from repro.workloads.datasets import populate_app_tree, populate_namespace
from repro.workloads.mixed import MixedWorkloadConfig, mixed_stream
from repro.workloads.postmark import PostMarkConfig, PostMarkReport, run_postmark
from repro.workloads.replay import ReplayStats, replay_trace
from repro.workloads.tracegen import (
    grouped_update_requests,
    partition_files,
    random_update_requests,
)
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "GIT_SPEC",
    "LINUX_SPEC",
    "THRIFT_SPEC",
    "CompileApplication",
    "CompileAppSpec",
    "scaled_spec",
    "table1_file_sets",
    "table1_overlap_matrix",
    "populate_app_tree",
    "populate_namespace",
    "MixedWorkloadConfig",
    "mixed_stream",
    "PostMarkConfig",
    "PostMarkReport",
    "run_postmark",
    "grouped_update_requests",
    "partition_files",
    "random_update_requests",
    "ReplayStats",
    "replay_trace",
    "ZipfSampler",
]
