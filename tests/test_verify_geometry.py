"""The batched geometry checks against their former loops: every check of
the ``projspace`` and ``hermitian`` suites must give the same (name,
passed, detail) as the reference checks in ``geometry_reference``, and a
corrupted batched route must make its check fail."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geometry_reference import (
    REFERENCE_CHECKS,
    reference_check_congruence_reduction,
    reference_check_line_basics,
)
from hermcodes import hermitian, make_field, verify
from hermcodes.projspace import enumerate_hyperplanes, enumerate_points, normalize_rows


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
        # the last section of each kind counts one point too many
        ranks, counts, kinds = sections(ctx, variety, duals)
        counts = counts.copy()
        for kind in set(kinds.tolist()):
            counts[np.flatnonzero(kinds == kind)[-1]] += 1
        return ranks, counts, kinds

    monkeypatch.setattr(verify, "hyperplane_sections", off_by_one)
    assert not any(check.passed for check in verify.check_cone_sections(gf9, 3))
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


def test_line_basics_holds_one_block_of_codes(gf9):
    # the 20 pairs' lines of P^3(GF(9)) against its 820 hyperplanes: each
    # incidence block keeps its product within CHUNK_ELEMS int64 codes in
    # all (full CHUNK_ELEMS products took 5.5 MiB)
    tracemalloc.start()
    try:
        result = verify.check_line_basics(gf9, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 8 * verify.CHUNK_ELEMS


def test_line_trichotomy_fails_on_a_broken_line(gf9, monkeypatch):
    lines = verify.all_lines

    def broken(ctx, n):
        out = lines(ctx, n).copy()
        out[:, 0] = out[0, 0]  # every line now starts at one fixed point
        return out

    monkeypatch.setattr(verify, "all_lines", broken)
    assert not verify.check_line_trichotomy(gf9, 3).passed


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("p", [2, 3])
def test_stacked_sampled_checks_match_reference_loops(p, seed):
    ctx = make_field(p, 1)
    for n, trials in ((2, 25), (3, 10)):
        got = verify.check_congruence_reduction(ctx, n, trials, seed=seed)
        assert got.passed
        assert got == reference_check_congruence_reduction(ctx, n, trials, seed=seed)
    for n in (2, 3):
        got = verify.check_line_basics(ctx, n, seed=seed)
        assert got.passed and got == reference_check_line_basics(ctx, n, seed=seed)


@pytest.mark.parametrize("wrong", ["basis", "rank"])
@pytest.mark.parametrize("n,trials", [(2, 25), (3, 10)])
def test_congruence_check_fails_on_one_wrong_reduction(gf9, monkeypatch, wrong, n, trials):
    reduce = verify.canonical_congruence
    calls = []
    # scaling the first basis vector by c scales the first diagonal entry by N(c)
    c = next(c for c in range(2, gf9.q2) if gf9.norm(c) != 1)

    def corrupted(ctx, matrices):
        s, r = reduce(ctx, matrices)
        calls.append(len(matrices))
        k = trials // 2 - 1  # one trial in the middle of the stack
        s, r = s.copy(), r.copy()
        if wrong == "basis":
            s[k, :, 0] = ctx.vmul(c, s[k, :, 0])
        else:
            r[k] = r[k] + 1 if r[k] <= n else r[k] - 1
        return s, r

    monkeypatch.setattr(verify, "canonical_congruence", corrupted)
    assert not verify.check_congruence_reduction(gf9, n, trials).passed
    assert calls == [trials]  # every trial reduced in one stacked call


@pytest.mark.parametrize("corrupt", ["duplicate", "drop", "drop_everywhere"])
def test_line_basics_fails_on_one_corrupted_line(gf9, monkeypatch, corrupt):
    through = verify.line_through
    target = []

    def corrupted(ctx, a, b):
        lines = through(ctx, a, b).copy()
        if corrupt == "drop_everywhere":
            return lines[..., 1:, :]
        pairs = [
            {tuple(x), tuple(y)}
            for x, y in zip(normalize_rows(ctx, a).tolist(), normalize_rows(ctx, b).tolist())
        ]
        if not target:  # the first pair the check asks for
            target.append(pairs[0])
        for k, pair in enumerate(pairs):
            # the same line from either end, so the check's symmetry test passes
            if pair == target[0]:
                if corrupt == "duplicate":
                    lines[k, 3] = lines[k, 2]
                else:  # drop point 3, repeat the last point to keep the shape
                    lines[k, 3:-1] = lines[k, 4:].copy()
        return lines

    monkeypatch.setattr(verify, "line_through", corrupted)
    assert not verify.check_line_basics(gf9, 3).passed


def test_section_checks_fail_on_one_flipped_gram_entry(gf9, monkeypatch):
    gram = hermitian._section_gram_matrices

    def flipped_at(i):
        def flipped(ctx, matrix, duals):
            out = gram(ctx, matrix, duals).copy()
            out[i, 0, 0] = 0 if out[i, 0, 0] else 1
            return out

        return flipped

    # the first dual (0:0:0:1) avoids the cone's vertex (0:0:0:1); a dual
    # with last entry 0 passes through it
    through = int(np.flatnonzero(enumerate_hyperplanes(gf9, 3)[:, -1] == 0)[0])
    monkeypatch.setattr(hermitian, "_section_gram_matrices", flipped_at(0))
    assert not verify.check_section_dichotomy(gf9, 3).passed
    assert [check.passed for check in verify.check_cone_sections(gf9, 3)] == [False, True]
    monkeypatch.setattr(hermitian, "_section_gram_matrices", flipped_at(through))
    assert [check.passed for check in verify.check_cone_sections(gf9, 3)] == [True, False]


def test_congruence_check_evaluates_bounded_trial_blocks():
    # P^3(GF(64)) has 266,305 points, so every trial block holds one matrix;
    # ten matrices at once would hold about 90 MiB of form values.  The
    # check's own point array (8.1 MiB) is allowed on top of the bound.
    ctx = make_field(2, 3)
    space = enumerate_points(ctx, 3).nbytes
    tracemalloc.start()
    try:
        result = verify.check_congruence_reduction(ctx, 3, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 20 * 2**20 + space


def test_hermitian_suite_leaves_numpy_ma_unimported():
    # np.unique without return_counts and np.isin import numpy.ma on first
    # use; the suite does without them
    code = (
        "import contextlib, io, sys\n"
        "from hermcodes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['verify', '--p', '2', '--suite', 'hermitian', '--n', '3'])\n"
        "print(status, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["0", "False"]


def test_sampled_suites_leave_numpy_random_unimported():
    # the samples come from random.Random, which importing numpy already
    # loads; numpy.random would cost its own import
    code = (
        "import contextlib, io, sys\n"
        "from hermcodes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = [main(['verify', '--p', '2', '--suite', suite])\n"
        "              for suite in ('projspace', 'hermitian', 'bounds')]\n"
        "print(*status, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["0", "0", "0", "False"]
