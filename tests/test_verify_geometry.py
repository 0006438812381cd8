"""The batched geometry checks against their former loops: every check of
the ``projspace`` and ``hermitian`` suites must give the same (name,
passed, detail) as the reference checks in ``geometry_reference``, and a
corrupted batched route must make its check fail."""

import tracemalloc

import numpy as np
import pytest

from geometry_reference import REFERENCE_CHECKS
from hermcodes import make_field, verify


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("suite,n", [("projspace", None), ("projspace", 3), ("hermitian", None)])
def test_suites_match_reference_loops(monkeypatch, p, suite, n):
    ctx = make_field(p, 1)
    got = verify.run_suite(suite, ctx, n=n, seed=5)
    for name, reference in REFERENCE_CHECKS.items():
        monkeypatch.setattr(verify, name, reference)
    want = verify.run_suite(suite, ctx, n=n, seed=5)
    assert got == want
    assert all(result.passed for result in got)


def test_sections_checks_fail_on_corrupted_counts(gf9, monkeypatch):
    sections = verify.hyperplane_sections

    def off_by_one(ctx, variety, duals):
        ranks, counts, kinds = sections(ctx, variety, duals)
        counts = counts.copy()
        counts[-1] += 1
        return ranks, counts, kinds

    monkeypatch.setattr(verify, "hyperplane_sections", off_by_one)
    assert not verify.check_vertex_avoiding_sections(gf9, 3).passed
    assert not verify.check_vertex_incident_sections(gf9, 3).passed
    assert not verify.check_section_dichotomy(gf9, 3).passed


def test_incidence_checks_fail_on_a_flipped_entry(gf9, monkeypatch):
    incidence = verify.incidence_matrix

    def flipped(ctx, points, duals):
        on = incidence(ctx, points, duals)
        on[0, 1] = ~on[0, 1]
        return on

    monkeypatch.setattr(verify, "incidence_matrix", flipped)
    assert not verify.check_incidence_duality(gf9, 3).passed
    assert not verify.check_tangent_hyperplanes(gf9, 3).passed


def test_incidence_checks_fail_on_a_corrupted_count(gf9, monkeypatch):
    counts = verify.hyperplane_point_counts

    def off_by_one(ctx, points, duals):
        out = counts(ctx, points, duals).copy()
        out[-1] += 1
        return out

    monkeypatch.setattr(verify, "hyperplane_point_counts", off_by_one)
    assert not verify.check_incidence_duality(gf9, 3).passed
    assert not verify.check_tangent_hyperplanes(gf9, 3).passed


def test_tangent_check_fails_off_its_own_polar(gf9, monkeypatch):
    tangents = verify.tangent_hyperplanes

    def moved(ctx, variety, points):
        duals = tangents(ctx, variety, points).copy()
        duals[-1] = duals[0]  # the last point's polar no longer passes through it
        return duals

    monkeypatch.setattr(verify, "tangent_hyperplanes", moved)
    assert not verify.check_tangent_hyperplanes(gf9, 3).passed


def test_line_trichotomy_reads_lines_in_bounded_blocks(gf9, monkeypatch):
    whole = verify.check_line_trichotomy(gf9, 3)
    monkeypatch.setattr(verify, "CHUNK_ELEMS", 100)
    blocks = list(verify.iter_all_lines(gf9, 3))
    assert max(len(b) for b in blocks) == 100 // 10 and len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks), verify.all_lines(gf9, 3))
    assert verify.check_line_trichotomy(gf9, 3) == whole


def test_incidence_duality_holds_no_full_incidence_matrix(gf9):
    # P^4(GF(9)) has 7381 points and as many hyperplanes: the full boolean
    # incidence matrix alone would take 54 MB
    tracemalloc.start()
    try:
        result = verify.check_incidence_duality(gf9, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 16 * 2**20


def test_line_trichotomy_fails_on_a_broken_line(gf9, monkeypatch):
    lines = verify.all_lines

    def broken(ctx, n):
        out = lines(ctx, n).copy()
        out[:, 0] = out[0, 0]  # every line now starts at one fixed point
        return out

    monkeypatch.setattr(verify, "all_lines", broken)
    assert not verify.check_line_trichotomy(gf9, 3).passed
