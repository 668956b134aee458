import concurrent.futures
import os
import re
import sys
import tracemalloc
from collections import Counter

import pytest

from persym import census as C
from persym import formulas as F
from persym.builders import hankel, rank_profile, stacked
from persym.dyadic import DyadicRational
from persym.exceptions import BudgetExceeded, IncompleteDomain, NonIntegerResult
from persym.expsum import g_closed, h_closed
from persym.gf2 import rank
from persym.laurent import UnitSeries

from oracles import oracle_repcount


def naive_stacked_counts(n, m, k):
    """Per-tuple build-and-rank reference for the stacked census."""
    return merged_tally(naive_window_tallies("stacked", (n, m, k)))


def naive_window_tallies(kind, params):
    """Per-window build-and-rank tallies, one dict per window index.

    gamma (s, k) and quad (l, n, m) rank each window; stacked (n, m, k)
    ranks each window with every tuple of n free rows; sigma (m, k) ranks
    each window with every free row and keys the pair by whether the row
    raised the window's rank.
    """
    if kind == "gamma":
        s, k = params
        depth = k + s - 1
        return [{rank(hankel(UnitSeries(v, depth), 1, s, k)): 1}
                for v in range(1 << depth)]
    if kind == "quad":
        l, n, m = params
        precision = l + n + m - 2
        return [{tuple(rank_profile(UnitSeries(v << (l - 1), precision), l, n, m)): 1}
                for v in range(1 << (n + m - 1))]
    if kind == "sigma":
        m, k = params
        tallies = []
        for tv in range(1 << (k + m)):
            t = UnitSeries(tv, k + m)
            base = rank(hankel(t, 1, 1 + m, k))
            counts = {}
            for eta in range(1 << k):
                r = rank(stacked(t, [UnitSeries(eta, k)], m, k))
                key = ("same" if r == base else "up", r)
                counts[key] = counts.get(key, 0) + 1
            tallies.append(counts)
        return tallies
    n, m, k = params
    kmask = (1 << k) - 1
    tallies = []
    for tv in range(1 << (k + m)):
        t = UnitSeries(tv, k + m)
        counts = {}
        for word in range(1 << (n * k)):
            etas = [UnitSeries((word >> (j * k)) & kmask, k) for j in range(n)]
            r = rank(stacked(t, etas, m, k))
            counts[r] = counts.get(r, 0) + 1
        tallies.append(counts)
    return tallies


def merged_tally(tallies):
    out = {}
    for counts in tallies:
        for key, value in counts.items():
            out[key] = out.get(key, 0) + value
    return out


def run_census(kind, params, **opts):
    """Run one census kind, returning a single tally (sigma as same/up keys)."""
    if kind == "sigma":
        same, up = C.enum_sigma(*params, **opts)
        out = {("same", i): count for i, count in same.items()}
        out.update({("up", i): count for i, count in up.items()})
        return out
    enum = {"gamma": C.enum_gamma, "quad": C.enum_quadruple,
            "stacked": C.enum_stacked_gamma}[kind]
    return dict(enum(*params, **opts))


def parse_key(text):
    parts = [int(part) if part.isdigit() else part for part in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def checkpoint_chunks(path):
    """{(lo, hi): tally} from a checkpoint file's lines after its header."""
    chunks = {}
    header, *lines = open(path).read().splitlines()
    assert header.startswith("#census ")
    for line in lines:
        lo, hi, *fields = line.split()
        chunks[(int(lo), int(hi))] = {
            parse_key(field.rpartition(":")[0]): int(field.rpartition(":")[2])
            for field in fields
        }
    return chunks


CENSUS_NAMES = {"gamma": "gamma s=%d k=%d", "quad": "quad l=%d n=%d m=%d",
                "sigma": "sigma m=%d k=%d", "stacked": "stacked n=%d m=%d k=%d"}


def checkpoint_header(kind, params, points, chunk):
    """The documented header line: census name, domain points, chunk size."""
    return "#census %s points=%d chunk=%d\n" % (CENSUS_NAMES[kind] % params, points, chunk)


def checkpoint_line(lo, hi, counts):
    """One checkpoint line in the documented format: lo hi key:count ..."""
    def text(key):
        return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)
    fields = ["%s:%d" % (text(key), value) for key, value in sorted(counts.items())]
    return " ".join(["%d %d" % (lo, hi)] + fields) + "\n"


WALK_GRIDS = [
    ("gamma", (1, 3)), ("gamma", (3, 4)), ("gamma", (4, 3)), ("gamma", (5, 2)),
    ("quad", (1, 1, 3)), ("quad", (1, 3, 1)), ("quad", (1, 3, 3)), ("quad", (2, 2, 3)),
    ("quad", (4, 3, 2)),
    ("sigma", (0, 1)), ("sigma", (0, 2)), ("sigma", (1, 2)), ("sigma", (2, 2)),
    ("sigma", (1, 3)),
    ("stacked", (0, 0, 2)), ("stacked", (0, 2, 2)), ("stacked", (1, 1, 2)),
    ("stacked", (2, 1, 2)), ("stacked", (2, 0, 2)), ("stacked", (1, 2, 2)),
]


class TestWalkAgainstNaive:
    """Every census kind, chunk by chunk, against per-point build-and-rank."""

    @pytest.mark.parametrize("kind,params", WALK_GRIDS)
    @pytest.mark.parametrize("chunk_size", ["whole", 1, 3, 7, None])
    def test_each_chunk_matches_naive(self, tmp_path, kind, params, chunk_size):
        windows = naive_window_tallies(kind, params)
        size = len(windows) if chunk_size == "whole" else chunk_size
        path = str(tmp_path / "walk.ckpt")
        total = run_census(kind, params, checkpoint=path, chunk_size=size)
        assert total == merged_tally(windows)
        chunks = checkpoint_chunks(path)
        step = size or max(1, len(windows) >> 6)  # the documented default
        assert sorted(chunks) == [
            (lo, min(lo + step, len(windows))) for lo in range(0, len(windows), step)
        ]
        for (lo, hi), counts in chunks.items():
            assert counts == merged_tally(windows[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("kind,params", WALK_GRIDS)
    def test_two_workers_match_naive(self, tmp_path, kind, params):
        windows = naive_window_tallies(kind, params)
        path = str(tmp_path / "walk.ckpt")
        total = run_census(kind, params, threads=2, checkpoint=path, chunk_size=3)
        assert total == merged_tally(windows)
        for (lo, hi), counts in checkpoint_chunks(path).items():
            assert counts == merged_tally(windows[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("kind,params", [
        ("gamma", (3, 4)), ("quad", (1, 3, 3)), ("sigma", (1, 2)), ("stacked", (2, 1, 2)),
    ])
    def test_resume_from_checkpoint_in_line_format(self, tmp_path, kind, params):
        windows = naive_window_tallies(kind, params)
        path = tmp_path / "walk.ckpt"
        points = sum(merged_tally(windows).values())
        with open(path, "w") as handle:
            handle.write(checkpoint_header(kind, params, points, 3))
            for lo in range(0, len(windows), 6):
                hi = min(lo + 3, len(windows))
                handle.write(checkpoint_line(lo, hi, merged_tally(windows[lo:hi])))
        resumed = run_census(kind, params, checkpoint=str(path), chunk_size=3)
        assert resumed == merged_tally(windows)
        for (lo, hi), counts in checkpoint_chunks(str(path)).items():
            assert counts == merged_tally(windows[lo:hi]), (lo, hi)

    def test_all_matrices_census_is_a_stacked_census(self):
        for rows in range(1, 5):
            for k in range(1, 5):
                got = dict(C.enum_stacked_gamma(rows - 1, 0, k))
                assert got == F.landsberg_table(rows, k)


class TestEnumGamma:
    def test_known_tables(self):
        assert dict(C.enum_gamma(2, 3)) == {0: 1, 1: 3, 2: 12}
        assert dict(C.enum_gamma(4, 4)) == {0: 1, 1: 3, 2: 12, 3: 48, 4: 64}
        for k in (1, 2, 4):
            assert dict(C.enum_gamma(1, k)) == {0: 1, 1: (1 << k) - 1}

    def test_matches_closed_form(self):
        for s, k in [(2, 2), (3, 4), (4, 5)]:
            assert dict(C.enum_gamma(s, k)) == F.gamma_table(s, k)

    def test_transpose_symmetry(self):
        assert dict(C.enum_gamma(3, 2)) == dict(C.enum_gamma(2, 3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            C.enum_gamma(0, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            C.enum_gamma(4, 4, budget_bits=6)


class TestEnumQuadruple:
    def test_matches_closed_table_including_absent_zeros(self):
        for s, k in [(2, 2), (2, 3), (3, 3)]:
            census = dict(C.enum_quadruple(1, s, k))
            assert census == F.quad_table(s, k)

    def test_shifted_start_gives_same_distribution(self):
        base = dict(C.enum_quadruple(1, 3, 3))
        for l in (2, 3, 5):
            assert dict(C.enum_quadruple(l, 3, 3)) == base

    def test_spec_counts(self):
        table = C.enum_quadruple(1, 3, 4)
        assert table[(2, 2, 3, 3)] == 32
        assert table[(0, 0, 0, 0)] == 1
        assert C.enum_quadruple(1, 2, 2)[(0, 1, 1, 2)] == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            C.enum_quadruple(0, 2, 2)
        with pytest.raises(ValueError):
            C.enum_quadruple(1, 2, 0)

    def test_budget_boundary(self):
        # a 3 x 4 window has 2^6 coefficient choices
        assert sum(C.enum_quadruple(1, 3, 4, budget_bits=6).values()) == 1 << 6
        with pytest.raises(BudgetExceeded, match="census quad l=1 n=3 m=4 needs a 2"):
            C.enum_quadruple(1, 3, 4, budget_bits=5)


class TestEnumSigma:
    def test_smallest_case(self):
        same, up = C.enum_sigma(0, 1)
        assert dict(same) == {0: 1, 1: 2}
        assert dict(up) == {1: 1}

    def test_known_identities(self):
        for m, k in [(0, 2), (1, 2), (1, 3)]:
            same, up = C.enum_sigma(m, k)
            for i, count in same.items():
                assert count == (1 << i) * F.gamma_closed(1 + m, k, i)
            for i, count in up.items():
                assert count == ((1 << k) - (1 << (i - 1))) * F.gamma_closed(
                    1 + m, k, i - 1
                )
            assert dict(same + up) == F.stacked_gamma_table(1, m, k)

    def test_total_covers_grid(self):
        same, up = C.enum_sigma(2, 3)
        assert same.total() + up.total() == 1 << (3 + 2 + 3)

    def test_budget_boundary(self):
        # 2^(k+m) windows times 2^k free rows
        same, up = C.enum_sigma(2, 3, budget_bits=8)
        assert same.total() + up.total() == 1 << 8
        with pytest.raises(BudgetExceeded, match="census sigma m=2 k=3 needs a 2"):
            C.enum_sigma(2, 3, budget_bits=7)


class TestEnumStacked:
    def test_known_tables(self):
        assert dict(C.enum_stacked_gamma(1, 2, 3)) == {0: 1, 1: 13, 2: 66, 3: 176}
        assert dict(C.enum_stacked_gamma(0, 1, 2)) == dict(C.enum_gamma(2, 2))

    def test_engine_matches_naive_build_and_rank(self):
        for n, m, k in [(0, 0, 1), (0, 2, 2), (1, 1, 2), (2, 1, 2), (1, 2, 2),
                        (2, 0, 2), (1, 1, 3), (3, 1, 2), (2, 2, 3)]:
            assert dict(C.enum_stacked_gamma(n, m, k)) == naive_stacked_counts(n, m, k)

    def test_matches_closed_form(self):
        for n, m, k in [(2, 2, 2), (3, 0, 3), (2, 1, 4)]:
            assert dict(C.enum_stacked_gamma(n, m, k)) == F.stacked_gamma_table(n, m, k)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            C.enum_stacked_gamma(5, 2, 4, budget_bits=25)


class TestPartitioning:
    def test_chunk_size_does_not_change_results(self):
        base = dict(C.enum_stacked_gamma(2, 1, 3))
        for chunk_size in (1, 3, 7, 16):
            got = dict(C.enum_stacked_gamma(2, 1, 3, chunk_size=chunk_size))
            assert got == base

    def test_threads_do_not_change_results(self):
        assert dict(C.enum_gamma(3, 4, threads=3)) == F.gamma_table(3, 4)
        assert dict(C.enum_stacked_gamma(2, 1, 3, threads=2, chunk_size=4)) == dict(
            C.enum_stacked_gamma(2, 1, 3)
        )

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "gamma.ckpt")
        full = dict(C.enum_gamma(4, 4, checkpoint=path, chunk_size=16))
        lines = open(path).read().splitlines()
        assert len(lines) == 9
        assert lines[0] == "#census gamma s=4 k=4 points=128 chunk=16"
        first = lines[1].split()
        assert first[0] == "0" and first[1] == "16"
        assert all(":" in field for field in first[2:])
        # drop half the lines and resume
        with open(path, "w") as handle:
            handle.write("\n".join(lines[: len(lines) // 2]) + "\n")
        resumed = dict(C.enum_gamma(4, 4, checkpoint=path, chunk_size=16))
        assert resumed == full == F.gamma_table(4, 4)
        # a fully populated checkpoint is a pure read
        before = os.path.getmtime(path)
        again = dict(C.enum_gamma(4, 4, checkpoint=path, chunk_size=16))
        assert again == full
        assert os.path.getmtime(path) == before

    def test_checkpoint_with_tuple_keys(self, tmp_path):
        path = str(tmp_path / "quad.ckpt")
        ref = dict(C.enum_quadruple(1, 3, 3))
        C.enum_quadruple(1, 3, 3, checkpoint=path, chunk_size=8)
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        assert dict(C.enum_quadruple(1, 3, 3, checkpoint=path, chunk_size=8)) == ref

    def test_torn_checkpoint_line_is_rejected(self, tmp_path):
        path = str(tmp_path / "gamma.ckpt")
        C.enum_gamma(4, 4, checkpoint=path, chunk_size=64)
        lines = open(path).read().splitlines()
        assert lines[1].endswith(" 4:32")
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:1] + [lines[1][:-1]] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="counts 35 points, not 64"):
            C.enum_gamma(4, 4, checkpoint=path, chunk_size=64)

    def test_checkpoint_line_with_wrong_weight_is_rejected(self, tmp_path):
        # a stacked line counts (hi - lo) windows times 2^{nk} free-row tuples
        path = str(tmp_path / "stacked.ckpt")
        with open(path, "w") as handle:
            handle.write(checkpoint_header("stacked", (1, 1, 2), 32, 4))
            handle.write("0 4 0:1 1:3\n")
        with pytest.raises(ValueError, match="counts 4 points, not 16"):
            C.enum_stacked_gamma(1, 1, 2, checkpoint=path, chunk_size=4)

    def test_checkpoint_count_below_one_is_rejected(self, tmp_path):
        # each rewritten line keeps its one-point chunk's sum
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(3, 4, checkpoint=str(path))
        header, first, *rest = path.read_text().splitlines()
        assert first == "0 1 0:1"
        for line in ("0 1 0:-1 1:2", "0 1 0:1 1:0"):
            path.write_text("\n".join([header, line] + rest) + "\n")
            with pytest.raises(ValueError, match="below 1"):
                C.enum_gamma(3, 4, checkpoint=str(path))

    @pytest.mark.parametrize("kind,params,line,message", [
        # no 3 x 4 window has rank 7
        ("gamma", (3, 4), "0 1 7:1", "impossible key 7"),
        ("gamma", (3, 4), "0 1 0:1 0:1", "repeated key 0"),
        ("quad", (1, 3, 3), "0 1 0,0,0:1", "impossible key 0,0,0"),
        ("quad", (1, 3, 3), "0 1 0,0,0,4:1", "impossible key 0,0,0,4"),
        ("sigma", (1, 2), "0 1 same,0:1 down,1:3", "impossible key down,1"),
        ("stacked", (1, 1, 2), "0 1 0:1 3:3", "impossible key 3"),
    ])
    def test_checkpoint_key_the_census_cannot_hold_is_rejected(
            self, tmp_path, kind, params, line, message):
        # each rewritten first line keeps its one-index chunk's sum
        path = tmp_path / "census.ckpt"
        run_census(kind, params, checkpoint=str(path))
        header, _, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, line] + rest) + "\n")
        with pytest.raises(ValueError, match=message):
            run_census(kind, params, checkpoint=str(path))

    @pytest.mark.parametrize("line", ["0 1 x:1", "0 1 0:1x", "x 1 0:1", "0 1 :1"])
    def test_checkpoint_line_with_a_malformed_field_is_rejected(self, tmp_path, line):
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(3, 4, checkpoint=str(path))
        header, _, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, line] + rest) + "\n")
        message = "line '%s' has a malformed field; remove %s to start over" % (line, path)
        with pytest.raises(ValueError, match=re.escape(message)):
            C.enum_gamma(3, 4, checkpoint=str(path))

    def test_checkpoint_chunking_mismatch_is_rejected(self, tmp_path):
        path = str(tmp_path / "gamma.ckpt")
        C.enum_gamma(4, 4, checkpoint=path, chunk_size=16)
        with pytest.raises(ValueError):
            C.enum_gamma(4, 4, checkpoint=path, chunk_size=7)

    def test_foreign_checkpoint_is_rejected(self, tmp_path):
        # both domains have 2^6 points and the same default chunking
        path = str(tmp_path / "gamma.ckpt")
        C.enum_gamma(3, 4, checkpoint=path)
        with pytest.raises(ValueError, match="header"):
            C.enum_gamma(2, 5, checkpoint=path)
        assert dict(C.enum_gamma(2, 5)) == {0: 1, 1: 3, 2: 60}

    def test_checkpoint_without_header_is_rejected_untouched(self, tmp_path):
        path = tmp_path / "gamma.ckpt"
        for text in ("0 64 0:1 1:3 2:12 3:48\n", "0 64 0:1 1:3"):
            path.write_text(text)
            with pytest.raises(ValueError, match="header"):
                C.enum_gamma(3, 4, checkpoint=str(path), chunk_size=64)
            assert path.read_text() == text

    def test_torn_last_line_is_recomputed(self, tmp_path):
        path = tmp_path / "gamma.ckpt"
        full = dict(C.enum_gamma(4, 4, checkpoint=str(path), chunk_size=16))
        text = path.read_text()
        for cut in (1, 3, len(text.splitlines()[-1]) + 1):
            path.write_text(text[:-cut])
            assert dict(C.enum_gamma(4, 4, checkpoint=str(path), chunk_size=16)) == full
            assert path.read_text() == text

    def test_torn_header_starts_over(self, tmp_path):
        path = tmp_path / "gamma.ckpt"
        full = dict(C.enum_gamma(3, 3, checkpoint=str(path)))
        text = path.read_text()
        path.write_text(text[:5])
        assert dict(C.enum_gamma(3, 3, checkpoint=str(path))) == full
        assert path.read_text() == text


class TestRouteIndependence:
    def test_enumeration_never_calls_formulas(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the enumeration route called persym.formulas")

        # every binding of a public formulas callable, in any persym module
        closed = {id(getattr(F, name)) for name in F.__all__}
        for module in [m for key, m in sys.modules.items()
                       if key == "persym" or key.startswith("persym.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in closed:
                    monkeypatch.setattr(module, attr, refuse)
        with pytest.raises(AssertionError):
            C.repcount_multi_formula(1, 0, 2, 1)
        assert dict(C.enum_gamma(3, 3)) == {0: 1, 1: 3, 2: 12, 3: 16}
        assert sum(C.enum_quadruple(1, 3, 3).values()) == 1 << 5
        same, up = C.enum_sigma(1, 2)
        assert sum(same.values()) + sum(up.values()) == 1 << 5
        assert sum(C.enum_stacked_gamma(1, 1, 2).values()) == 1 << 5
        assert C.repcount_bruteforce(2, 1, 2, 1) == 148
        assert C.repcount_integral(2, 1, 2, 1) == 148


WALK_WORKER = C._walk_worker


def raising_worker(args):
    """A census worker that fails on the chunk at index 0."""
    if args[4] == 0:
        raise RuntimeError("chunk at 0 failed")
    return WALK_WORKER(args)


class TestPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of the pools the census starts."""
        started = []
        real = concurrent.futures.ProcessPoolExecutor

        def spy(max_workers):
            started.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        return started

    def test_small_domains_run_in_process(self, pools):
        assert dict(C.enum_gamma(3, 4, threads=2)) == F.gamma_table(3, 4)
        assert dict(C.enum_stacked_gamma(2, 1, 3, threads=2, chunk_size=4)) == (
            F.stacked_gamma_table(2, 1, 3))
        assert pools == []

    def test_large_domains_use_the_pool(self, pools):
        assert dict(C.enum_gamma(8, 8, threads=2)) == F.gamma_table(8, 8)
        assert dict(C.enum_stacked_gamma(2, 1, 5, threads=2)) == (
            F.stacked_gamma_table(2, 1, 5))
        assert pools == [2, 2]

    def test_only_pending_points_count(self, tmp_path, pools):
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(8, 8, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-4]))  # 4 chunks of 2^9 windows left
        assert dict(C.enum_gamma(8, 8, threads=2, checkpoint=str(path))) == (
            F.gamma_table(8, 8))
        assert pools == []

    def test_a_failed_chunk_fails_the_census(self, tmp_path, pools, monkeypatch):
        path = tmp_path / "gamma.ckpt"
        monkeypatch.setattr(C, "_walk_worker", raising_worker)
        with pytest.raises(ValueError, match=re.escape(
                "census gamma s=8 k=8 failed in a worker (RuntimeError: chunk at 0 failed);"
                " a rerun resumes from %s" % path)):
            C.enum_gamma(8, 8, threads=2, checkpoint=str(path))
        assert pools == [2]
        monkeypatch.undo()
        assert dict(C.enum_gamma(8, 8, checkpoint=str(path))) == F.gamma_table(8, 8)


class TestIntegrateCoset:
    def test_constant_one_integrates_to_one(self):
        for n in (0, 1, 4):
            assert C.integrate_coset([1] * (1 << n), n) == DyadicRational(1)

    def test_h_grid_integrates_to_count(self):
        values = [h_closed(2, 2, UnitSeries(v, 3)) for v in range(8)]
        assert C.integrate_coset(values, 3) == DyadicRational(7)

    def test_odd_g_powers_integrate_to_zero(self):
        for q in (0, 1):
            values = [
                g_closed(2, 2, UnitSeries(v, 3)) ** (2 * q + 1) for v in range(8)
            ]
            assert C.integrate_coset(values, 3) == DyadicRational(0)

    def test_tally_domain_checked(self):
        assert C.integrate_tally({5: 1, 3: 1}, 1) == DyadicRational(4)
        assert C.integrate_tally({-2: 3, 2: 1}, 2, 3) == DyadicRational(-4)
        with pytest.raises(IncompleteDomain):
            C.integrate_tally({5: 1}, 1)
        with pytest.raises(IncompleteDomain):
            C.integrate_tally({1: 9}, 3)

    def test_g_tallies_match_explicit_lists(self):
        for depth in range(3, 13):
            for s in range(2, depth):
                k = depth + 1 - s
                values = [g_closed(s, k, UnitSeries(v, depth)) for v in range(1 << depth)]
                tally = Counter(values)
                for power in range(1, 7):
                    assert C.integrate_tally(tally, depth, power) == C.integrate_coset(
                        [value**power for value in values], depth), (s, k, power)

    def test_mapping_domain_checked(self):
        assert C.integrate_coset({0: 5, 1: 3}, 1) == DyadicRational(4)
        with pytest.raises(IncompleteDomain):
            C.integrate_coset({0: 5, 2: 3}, 1)
        with pytest.raises(IncompleteDomain):
            C.integrate_coset({0: 5}, 1)
        with pytest.raises(IncompleteDomain):
            C.integrate_coset([1] * 7, 3)


class TestRepcounts:
    def test_formula_known_values(self):
        assert C.repcount_multi_formula(1, 0, 2, 1) == 7
        assert C.repcount_multi_formula(2, 0, 2, 1) == 64
        assert C.repcount_multi_formula(1, 0, 4, 2) == (1 << 4) + (1 << 3) - 1

    def test_formula_accepts_census_table(self):
        for q, s, k in [(1, 2, 2), (2, 2, 3), (3, 3, 3)]:
            census = C.enum_gamma(s, k)
            assert C.repcount_multi_formula(q, 0, k, s - 1, census) == (
                C.repcount_multi_formula(q, 0, k, s - 1))

    def test_inconsistent_table_raises(self):
        with pytest.raises(NonIntegerResult):
            C.repcount_multi_formula(1, 0, 2, 1, {1: 3, 2: 1})

    def test_multi_formula_known_values(self):
        assert C.repcount_multi_formula(3, 5, 4, 2) == 24413824
        assert C.repcount_multi_formula(1, 1, 3, 2) == 23

    def test_displayed_power_identity(self):
        for q in (1, 2, 3, 5):
            bracket = (
                DyadicRational(1, 3 * q)
                + DyadicRational(13, 2 * q)
                + DyadicRational(66, q)
                + DyadicRational(176)
            )
            expected = (DyadicRational(1, 4 * q - 8) * bracket).to_int()
            assert C.repcount_multi_formula(q, 1, 3, 2) == expected

    def test_bruteforce_matches_formula(self):
        for q, s, k in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]:
            m = s - 1
            assert C.repcount_bruteforce(q, 0, k, m) == C.repcount_multi_formula(
                q, 0, k, s - 1)
        assert C.repcount_bruteforce(1, 1, 3, 2) == 23

    def test_integral_matches_formula(self):
        for q, s, k in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]:
            assert C.repcount_integral(q, 0, k, s - 1) == C.repcount_multi_formula(
                q, 0, k, s - 1)
        assert C.repcount_integral(1, 1, 3, 2) == 23
        assert C.repcount_integral(2, 1, 2, 1) == C.repcount_multi_formula(2, 1, 2, 1)

    def test_piecewise_matches_formula(self):
        for q in range(1, 6):
            for k, m in [(2, 1), (3, 1), (3, 2), (4, 0)]:
                assert F.repcount_piecewise(q, k, m) == C.repcount_multi_formula(q, 0, k, m)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_bruteforce_matches_literal_product_count(self, q, n):
        for k in (1, 2, 3):
            for m in (0, 1, 2):
                if q * (k + m + 1 + n) <= 12:
                    assert C.repcount_bruteforce(q, n, k, m) == oracle_repcount(
                        q, n, k, m), (k, m)

    def test_integral_matches_explicit_lists(self):
        """Every integral grid of 2^12 points or fewer, against per-point
        build-and-rank values integrated from an explicit list."""
        for n in (0, 1, 2):
            for k in range(1, 13):
                for m in range(0, 13):
                    bits = k + m + n * k
                    if bits > 12:
                        continue
                    kmask = (1 << k) - 1
                    values = []
                    for point in range(1 << bits):
                        t = UnitSeries(point & ((1 << (k + m)) - 1), k + m)
                        word = point >> (k + m)
                        etas = [UnitSeries((word >> (j * k)) & kmask, k) for j in range(n)]
                        values.append(1 << (k + m + n + 1 - rank(stacked(t, etas, m, k))))
                    q = 1 + bits % 3
                    want = C.integrate_coset([v**q for v in values], bits).to_int()
                    assert C.repcount_integral(q, n, k, m) == want, (q, n, k, m)

    def test_integral_streams(self):
        want = C.repcount_multi_formula(2, 1, 6, 4)
        tracemalloc.start()
        try:
            got = C.repcount_integral(2, 1, 6, 4)  # 2^16 points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20

    def test_bruteforce_budget(self):
        with pytest.raises(BudgetExceeded):
            C.repcount_bruteforce(9, 2, 9, 8, budget_bits=28)


class TestPartitionLemmas:
    """Window-deletion identities tying the quadruple census together."""

    def test_equal_profile_pairs(self):
        for s, k in [(2, 3), (3, 3)]:
            quads = C.enum_quadruple(1, s, k)
            for j in range(s):
                assert quads[(j, j, j, j)] == quads[(j, j, j, j + 1)]

    def test_vanishing_profiles(self):
        for l, s, k in [(1, 2, 3), (1, 3, 3), (1, 3, 4), (2, 3, 3), (3, 3, 3)]:
            quads = C.enum_quadruple(l, s, k)
            for j in range(s - 1):
                assert quads[(j, j + 1, j + 1, j + 1)] == 0
                assert quads[(j, j + 1, j, j + 1)] == 0
                assert quads[(j, j, j + 1, j + 1)] == 0

    def test_vanishing_range_is_tight(self):
        # one index past the range these profiles do occur
        assert C.enum_quadruple(1, 2, 3)[(1, 1, 2, 2)] == 8
        assert C.enum_quadruple(1, 3, 4)[(2, 2, 3, 3)] == 32

    def test_shrink_either_dimension(self):
        for s, k in [(3, 3), (3, 4), (4, 4)]:
            left = C.enum_gamma(s, k - 1)
            right = C.enum_gamma(s - 1, k)
            for i in range(s - 1):
                assert left[i] == right[i]

    def test_deletion_recursion(self):
        for s, k in [(2, 3), (3, 3), (3, 4)]:
            quads = C.enum_quadruple(1, s, k)
            narrow = C.enum_gamma(s, k - 1)
            for i in range(s - 1):
                lhs = 2 * narrow[i]
                rhs = 2 * quads[(i, i, i, i)] + quads[(i - 1, i, i, i + 1)]
                assert lhs == rhs

    def test_even_power_sum_identity(self):
        s, k = 2, 3
        depth = k + s - 1
        quads = C.enum_quadruple(1, s, k)
        for q in (1, 2):
            values = [
                g_closed(s, k, UnitSeries(v, depth)) ** (2 * q)
                for v in range(1 << depth)
            ]
            lhs = C.integrate_coset(values, depth)
            rhs = DyadicRational(0)
            for j in range(s):
                rhs += DyadicRational(quads[(j, j, j, j)], -2 * q * j)
            rhs *= DyadicRational(1, (s + k - 2) * (2 * q - 1))
            assert lhs == rhs
