"""``tests/regen_golden.py`` rewrites only the golden values a result moves."""

import json
import math

from regen_golden import regenerate
from test_golden import GOLDEN_PATH, RTOL, golden_mismatches


def _dump(values: dict) -> str:
    return json.dumps(values, indent=1, sort_keys=True) + "\n"


def _within_rtol(tmp_path):
    """A copy of the golden file, and the golden values each moved by 0.9 RTOL."""
    path = tmp_path / "golden.json"
    path.write_bytes(GOLDEN_PATH.read_bytes())
    got = json.loads(GOLDEN_PATH.read_text())
    for tensors in (got["pretrain_checkpoint"], got["align_checkpoint"], got["aligned_table"]):
        for moments in tensors.values():  # a sum is read relative to its tensor's norm
            moments["sum"] += 0.9 * RTOL * math.sqrt(moments["sumsq"])
            moments["sumsq"] *= 1 + 0.9 * RTOL
    for line in got["pretrain_metrics"] + got["align_metrics"]:
        for key, value in line.items():
            if isinstance(value, float):
                line[key] = value * (1 - 0.9 * RTOL)
    assert not golden_mismatches(json.loads(GOLDEN_PATH.read_text()), got)
    return path, got


def test_a_result_within_rtol_leaves_the_file_unchanged(tmp_path):
    path, got = _within_rtol(tmp_path)
    assert regenerate(path, got) == []
    assert path.read_bytes() == GOLDEN_PATH.read_bytes()


def test_only_moved_added_and_dropped_values_are_rewritten(tmp_path):
    path, got = _within_rtol(tmp_path)
    want = json.loads(GOLDEN_PATH.read_text())
    old_sum = want["aligned_table"]["slide"]["sum"]
    moved = got["aligned_table"]["slide"]
    moved["sum"] = old_sum + 2 * RTOL * math.sqrt(moved["sumsq"])
    got["align_metrics"][0]["new_metric"] = 1.5
    dropped = want["pretrain_checkpoint"]["student.cls"]
    del got["pretrain_checkpoint"]["student.cls"]
    assert regenerate(path, got) == [
        "/align_metrics/0/new_metric: absent -> 1.5",
        f"/aligned_table/slide/sum: {old_sum!r} -> {moved['sum']!r}",
        f"/pretrain_checkpoint/student.cls/sum: {dropped['sum']!r} -> absent",
        f"/pretrain_checkpoint/student.cls/sumsq: {dropped['sumsq']!r} -> absent",
    ]
    # every other leaf is the golden file's, byte for byte: the file is
    # written as regenerate writes it, and only the three edits differ
    assert _dump(want) == GOLDEN_PATH.read_text()
    want["aligned_table"]["slide"]["sum"] = moved["sum"]
    want["align_metrics"][0]["new_metric"] = 1.5
    del want["pretrain_checkpoint"]["student.cls"]
    assert path.read_text() == _dump(want)
    assert regenerate(path, got) == []
