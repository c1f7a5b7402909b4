"""The benchmark's input generator writes the same bytes for a given
(seed, part, rows); a faster or streaming generator must keep them."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "flowgen", Path(__file__).parents[1] / "perfbench" / "flowgen.py")
flowgen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(flowgen)


@pytest.mark.parametrize("rows, sha256", [
    (1200, "8ab56875c58222c3d7d646f1dfa062fe3f88b304cb9c527f596a2ac4c294d32f"),
    (30000, "d500866fa00d3e039e994d164e44124a68274f2e161432127c8b76d554ea1a3b"),
], ids=["1200-rows", "30000-rows"])
def test_seed_one_part_zero_bytes_are_pinned(tmp_path, rows, sha256):
    path, digest = flowgen.cached_csv(tmp_path, rows, 1, 0)
    assert flowgen.GENERATOR_VERSION == 2
    assert digest == sha256
    assert path.name == f"flows-v2-s1-p0-n{rows}.csv"
