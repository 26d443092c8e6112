"""The byte-identity matrix (`tests/byte_matrix.py`): a rerun of the CLI
matrix on the working tree writes the same bytes, and the comparison sees a
changed seed."""

import byte_matrix as bm


def test_byte_matrix_rerun_equal_and_seed_change_detected(tmp_path):
    src = bm.ROOT / "src"
    first = bm.run_matrix(src, tmp_path / "a")
    # Every subcommand wrote its outputs.
    assert {rel.split("/")[0] for rel in first} >= {
        "corpus", "finetune", "retrain", "unlearn_ga", "unlearn_graddiff",
        "unlearn_bss_npo", "eval", "dynamics", "squeeze", "sweep"}
    assert "sweep/combo_001/manifest.json" in first
    rerun = bm.compare(first, bm.run_matrix(src, tmp_path / "b"))
    assert set(rerun.values()) == {"equal"}
    reseeded = bm.compare(first, bm.run_matrix(src, tmp_path / "c",
                                               seed=bm.SEED + 1))
    assert "changed" in reseeded.values()
    assert reseeded["finetune/ckpt_final.json"] == "changed"
