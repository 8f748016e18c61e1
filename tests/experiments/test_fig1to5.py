"""Tests for repro.experiments.fig1to5 — the exact schedule figures."""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig1to5 import (
    render_all_figures,
    render_dhb_schedule,
    render_figure,
)

FIGURE_1 = """\
Stream 1  S1 S1 S1 S1
Stream 2  S2 S3 S2 S3
Stream 3  S4 S5 S6 S7"""

FIGURE_2 = """\
Stream 1  S1 S1 S1 S1 S1 S1
Stream 2  S2 S4 S2 S5 S2 S4
Stream 3  S3 S6 S8 S3 S7 S9"""

FIGURE_3 = """\
Stream 1  S1 S1 S1 S1
Stream 2  S2 S3 S2 S3
Stream 3  S4 S5 S4 S5"""


def test_figure_1_exact():
    assert render_figure(1).splitlines()[1:] == FIGURE_1.splitlines()


def test_figure_2_exact():
    assert render_figure(2).splitlines()[1:] == FIGURE_2.splitlines()


def test_figure_3_exact():
    assert render_figure(3).splitlines()[1:] == FIGURE_3.splitlines()


def test_figure_4_schedule():
    """One request during slot 1: S_j in slot j+1 on a single stream."""
    text = render_dhb_schedule([1])
    lines = text.splitlines()
    assert len(lines) == 2  # header + one stream
    assert lines[1].split() == ["1st", "Stream", "S1", "S2", "S3", "S4", "S5", "S6"]


def test_figure_5_schedule():
    """Second request during slot 3: S1@4 and S2@5 on a second stream."""
    text = render_dhb_schedule([1, 3])
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[2].split() == ["2nd", "Stream", "S1", "S2"]
    # The second stream's entries sit under slots 4 and 5.
    header = lines[0]
    assert lines[2].index("S1") == header.index("4")
    assert lines[2].index("S2") == header.index("5")


def test_figure_titles_match_paper():
    assert "fast broadcasting" in render_figure(1)
    assert "NPB protocol" in render_figure(2)
    assert "skyscraper broadcasting" in render_figure(3)
    assert "idle system" in render_figure(4)
    assert "two overlapping requests" in render_figure(5)


def test_render_all_contains_every_figure():
    text = render_all_figures()
    for figure in range(1, 6):
        assert f"Figure {figure}." in text


def test_invalid_figure_number():
    with pytest.raises(ConfigurationError):
        render_figure(6)
    with pytest.raises(ConfigurationError):
        render_dhb_schedule([])


def test_render_all_matches_the_committed_figures():
    """Figures 1–5 byte for byte as committed under benchmarks/results."""
    committed = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    text = (committed / "figures_1_to_5.txt").read_text(encoding="utf-8")
    assert render_all_figures() + "\n" == text
