"""Evaluation-report generator tests."""

import hashlib

import pytest

from repro.reporting.report import REPORT_ORDER, generate_report

#: sha256 of ``repro report --seed S``'s stdout: the markdown plus the
#: newline ``print`` adds.  A change that moves any number moves these.
GOLDEN_REPORT_SHA256 = {
    0: "9671af5208138a3a00ebc16354f6af7b327c6a9da1779e11e55706e63ecc3b1f",
    3: "d2abad6c9857582b8b22188bfc94837f90a8f05727d7c5f1508abefa5022c42a",
}


def _stdout_sha256(text: str) -> str:
    return hashlib.sha256((text + "\n").encode()).hexdigest()


@pytest.fixture(scope="module")
def report_text():
    # Default iterations (5 per point): the B-vs-Azure GPU tie in Figure 4
    # needs the paper's iteration count to resolve reliably.
    return generate_report(seed=0)


def test_report_matches_golden_digest(report_text):
    assert _stdout_sha256(report_text) == GOLDEN_REPORT_SHA256[0]


def test_report_matches_golden_digest_at_seed_3():
    assert _stdout_sha256(generate_report(seed=3)) == GOLDEN_REPORT_SHA256[3]


def test_report_covers_every_experiment(report_text):
    for eid in REPORT_ORDER:
        assert f"## {eid}:" in report_text


def test_report_claim_summary(report_text):
    # The header states the aggregate; all claims hold at seed 0.
    assert "reproduced" in report_text
    assert "❌" not in report_text
    assert report_text.count("✅") >= 60


def test_report_contains_markdown_tables(report_text):
    assert "| Environment |" in report_text
    assert "|---|" in report_text


def test_report_contains_series_grids(report_text):
    assert "| environment |" in report_text  # figure series rendering
    assert "cpu-onprem-a" in report_text


def test_cli_report_to_file(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "EVALUATION.md"
    assert main(["report", "--iterations", "1", "-o", str(out)]) == 0
    assert out.exists()
    assert out.read_text().startswith("# Regenerated evaluation")
