"""The byte-identity matrix (`tests/byte_matrix.py`): a rerun of the CLI
matrix on the working tree writes the same bytes, so do a run with BLAS at
two threads and a run with glibc's allocation thresholds at their defaults,
the comparison sees a changed seed, and `describe` tells a change of
encoding from a change of value."""

import base64
import json

import numpy as np

import byte_matrix as bm


def test_byte_matrix_rerun_equal_and_seed_change_detected(tmp_path):
    src = bm.ROOT / "src"
    first = bm.run_matrix(src, tmp_path / "a")
    # Every subcommand wrote its outputs.
    assert {rel.split("/")[0] for rel in first} >= {
        "corpus", "finetune", "retrain", "unlearn_ga", "unlearn_graddiff",
        "unlearn_bss_npo", "eval", "dynamics", "dynamics_ga", "dynamics_npo",
        "dynamics_bss", "squeeze", "sweep"}
    assert "sweep/combo_001/manifest.json" in first
    rerun = bm.compare(first, bm.run_matrix(src, tmp_path / "b"))
    assert set(rerun.values()) == {"equal"}
    reseeded = bm.compare(first, bm.run_matrix(src, tmp_path / "c",
                                               seed=bm.SEED + 1))
    assert "changed" in reseeded.values()
    assert reseeded["finetune/ckpt_final.json"] == "changed"


def test_blas_thread_count_does_not_change_the_bytes(tmp_path):
    """The matrix's finetune and bst unlearning (with its retain term)
    write the same bytes with BLAS at 1 and at 2 threads."""
    src = bm.ROOT / "src"
    steps = ("corpus", "finetune", "unlearn_bst")
    one = bm.run_matrix(src, tmp_path / "t1", threads=1, steps=steps)
    two = bm.run_matrix(src, tmp_path / "t2", threads=2, steps=steps)
    assert {rel.split("/")[0] for rel in one} == set(steps)
    assert "unlearn_bst/ckpt_final.json" in one
    assert set(bm.compare(one, two).values()) == {"equal"}


def test_freed_block_thresholds_do_not_change_the_bytes(tmp_path):
    """The matrix's finetune and bst unlearning write the same bytes with
    `runner._keep_freed_blocks` a no-op, so glibc's allocation thresholds
    move addresses only, never values."""
    src = bm.ROOT / "src"
    steps = ("corpus", "finetune", "unlearn_bst")
    kept = bm.run_matrix(src, tmp_path / "kept", steps=steps)
    default = bm.run_matrix(src, tmp_path / "default", steps=steps,
                            keep_freed=False)
    assert "unlearn_bst/ckpt_final.json" in kept
    assert set(bm.compare(kept, default).values()) == {"equal"}


def _checkpoint_bytes(values, encode):
    values = np.asarray(values, dtype=np.float64)
    doc = {"arch": {"d_model": 2}, "seed": 0,
           "params": {"head": {"shape": list(values.shape),
                               "data": encode(values)}}}
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _b64(values):
    return base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")


def _decimal(values):
    return values.ravel().tolist()


def test_describe_decodes_checkpoint_data_in_either_form():
    values = [[0.1 + 0.2, -0.0], [5e-324, -1.7976931348623157e308]]
    moved = [[0.1 + 0.2, -0.0], [5e-324 + 1e-12, -1.7976931348623157e308]]
    rel = "finetune/ckpt_final.json"
    old, new = _checkpoint_bytes(values, _decimal), _checkpoint_bytes(
        values, _b64)
    assert old != new
    assert (bm.describe(rel, old, new)
            == "changed: encoding only, parameters equal bit for bit")
    assert (bm.describe(rel, old, _checkpoint_bytes(moved, _b64))
            == "changed: numbers only, max |d| = 1e-12")
    # The sign of zero is a change of bits, though not of |d|.
    flipped = [[0.1 + 0.2, 0.0], [5e-324, -1.7976931348623157e308]]
    assert (bm.describe(rel, new, _checkpoint_bytes(flipped, _b64))
            == "changed: numbers only, max |d| = 0")
    assert (bm.describe(rel, new, _checkpoint_bytes([1.0, 2.0, 3.0], _b64))
            == "changed: $.params.head.data, $.params.head.shape")


def test_describe_of_other_documents():
    assert (bm.describe("eval/metrics.json", b'{"a": 1.0, "b": "x"}',
                        b'{"a": 1.5, "b": "x"}')
            == "changed: numbers only, max |d| = 0.5")
    assert (bm.describe("eval/metrics.json", b'{"a": 1.0}', b'{"a": 1}')
            == "changed: encoding only, values equal")
    assert (bm.describe("ft/losses.csv", b"step,total\n0,1.5\n",
                        b"step,loss\n0,1.5\n")
            == "changed: $[0][1]")
    # A changed string does not hide the numbers that moved with it.
    assert (bm.describe("dynamics/dynamics_report.json",
                        b'{"G": [0.25, 1.0], "loss_kind": "ga"}',
                        b'{"G": [0.25, 1.75], "loss_kind": "bss"}')
            == "changed: $.loss_kind; numbers, max |d| = 0.75")
