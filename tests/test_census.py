import concurrent.futures
import functools
import itertools
import os
import re
import sys
import tempfile
import tracemalloc
import types
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from persym import builders, cli, expsum, gf2, lanes, suites
from persym import census as C
from persym import formulas as F
from persym.dyadic import DyadicRational
from persym.exceptions import BudgetExceeded
from persym.expsum import fmulti_closed, g_closed, h_closed
from persym.laurent import UnitSeries

from oracles import (oracle_repcount, oracle_repcount_integral, oracle_window_ranks,
                     oracle_window_tallies)


def merged_tally(tallies):
    out = {}
    for counts in tallies:
        for key, value in counts.items():
            out[key] = out.get(key, 0) + value
    return out


def run_census(kind, params, **opts):
    """Run one census kind, returning its tally as a dict."""
    enum = {"gamma": C.enum_gamma, "quad": C.enum_quadruple, "sigma": C.enum_sigma,
            "stacked": C.enum_stacked_gamma}[kind]
    return dict(enum(*params, **opts))


def split_sigma(tally):
    """The sigma tally as (same, up) Counters keyed by rank."""
    same, up = Counter(), Counter()
    for (label, i), count in tally.items():
        (same if label == "same" else up)[i] = count
    return same, up


def parse_key(text):
    parts = [int(part) if part.isdigit() else part for part in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def checkpoint_chunks(path):
    """{(lo, hi): tally} from a checkpoint file's lines after its header;
    each line's last field is the CRC32 of the header and its other fields."""
    chunks = {}
    header, *lines = Path(path).read_text().splitlines()
    assert header.startswith("#census v2 ")
    for line in lines:
        body, _, crc = line.rpartition(" crc=")
        assert crc == "%08x" % zlib.crc32(("%s\n%s" % (header, body)).encode()), line
        lo, hi, *fields = body.split()
        chunks[(int(lo), int(hi))] = {
            parse_key(field.rpartition(":")[0]): int(field.rpartition(":")[2])
            for field in fields
        }
    return chunks


CENSUS_NAMES = {"gamma": "gamma s=%d k=%d", "quad": "quad l=%d n=%d m=%d",
                "sigma": "sigma m=%d k=%d", "stacked": "stacked n=%d m=%d k=%d"}


def checkpoint_header(kind, params, points, chunk):
    """The documented header line: format, census name, domain points, chunk size."""
    return "#census v2 %s points=%d chunk=%d\n" % (CENSUS_NAMES[kind] % params, points, chunk)


def checkpoint_line(header, lo, hi, counts):
    """One checkpoint line in the documented format: lo hi key:count ... crc=%08x,
    the CRC32 of the header line and the fields before it."""
    def text(key):
        return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)
    fields = ["%s:%d" % (text(key), value) for key, value in sorted(counts.items())]
    body = " ".join(["%d %d" % (lo, hi)] + fields)
    return "%s crc=%08x\n" % (body, zlib.crc32((header + body).encode()))


WALK_GRIDS = [
    ("gamma", (1, 3)), ("gamma", (3, 4)), ("gamma", (4, 3)), ("gamma", (5, 2)),
    ("quad", (1, 1, 3)), ("quad", (1, 3, 1)), ("quad", (1, 3, 3)), ("quad", (2, 2, 3)),
    ("quad", (4, 3, 2)),
    ("sigma", (0, 1)), ("sigma", (0, 2)), ("sigma", (1, 2)), ("sigma", (2, 2)),
    ("sigma", (1, 3)),
    ("stacked", (0, 0, 2)), ("stacked", (0, 2, 2)), ("stacked", (1, 1, 2)),
    ("stacked", (2, 1, 2)), ("stacked", (2, 0, 2)), ("stacked", (1, 2, 2)),
    ("sigma", (2, 4)), ("sigma", (3, 4)), ("stacked", (3, 1, 3)),
]


class TestWalkAgainstNaive:
    """Every census kind, chunk by chunk, against per-point build-and-rank."""

    @pytest.mark.parametrize("kind,params", WALK_GRIDS)
    @pytest.mark.parametrize("chunk_size", ["whole", 1, 3, 7, None])
    def test_each_chunk_matches_naive(self, tmp_path, kind, params, chunk_size):
        windows = oracle_window_tallies(kind, params)
        ranks = oracle_window_ranks(kind, params)
        size = len(windows) if chunk_size == "whole" else chunk_size
        path = str(tmp_path / "walk.ckpt")
        total = run_census(kind, params, checkpoint=path, chunk_size=size)
        assert total == merged_tally(windows)
        chunks = checkpoint_chunks(path)
        # the documented default: total >> 6, but at least one whole 2^16-lane word
        step = size or max(len(windows) >> 6, min(len(windows), 1 << 16))
        assert sorted(chunks) == [
            (lo, min(lo + step, len(windows))) for lo in range(0, len(windows), step)
        ]
        for (lo, hi), counts in chunks.items():
            assert counts == merged_tally(ranks[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("kind,params", WALK_GRIDS)
    def test_two_workers_match_naive(self, tmp_path, kind, params):
        windows = oracle_window_tallies(kind, params)
        ranks = oracle_window_ranks(kind, params)
        path = str(tmp_path / "walk.ckpt")
        total = run_census(kind, params, threads=2, checkpoint=path, chunk_size=3)
        assert total == merged_tally(windows)
        for (lo, hi), counts in checkpoint_chunks(path).items():
            assert counts == merged_tally(ranks[lo:hi]), (lo, hi)

    @pytest.mark.parametrize("kind,params", [
        ("gamma", (3, 4)), ("quad", (1, 3, 3)), ("sigma", (1, 2)), ("stacked", (2, 1, 2)),
    ])
    def test_resume_from_checkpoint_in_line_format(self, tmp_path, kind, params):
        windows = oracle_window_tallies(kind, params)
        ranks = oracle_window_ranks(kind, params)
        path = tmp_path / "walk.ckpt"
        header = checkpoint_header(kind, params, len(ranks), 3)
        with open(path, "w") as handle:
            handle.write(header)
            for lo in range(0, len(ranks), 6):
                hi = min(lo + 3, len(ranks))
                handle.write(checkpoint_line(header, lo, hi, merged_tally(ranks[lo:hi])))
        resumed = run_census(kind, params, checkpoint=str(path), chunk_size=3)
        assert resumed == merged_tally(windows)
        for (lo, hi), counts in checkpoint_chunks(str(path)).items():
            assert counts == merged_tally(ranks[lo:hi]), (lo, hi)

    def test_all_matrices_census_is_a_stacked_census(self):
        for rows in range(1, 5):
            for k in range(1, 5):
                got = dict(C.enum_stacked_gamma(rows - 1, 0, k))
                assert got == F.landsberg_table(rows, k)


# every grid of each kind whose domain (windows times free-row tuples)
# holds at most 2^10 points; quad at l = 1, since l only names where the
# window starts
SMALL_GRIDS = {
    "gamma": [(s, k) for s in range(1, 11) for k in range(1, 12 - s)],
    "quad": [(1, n, m) for n in range(1, 11) for m in range(1, 12 - n)],
    "sigma": [(m, k) for k in range(1, 6) for m in range(11 - 2 * k)],
    "stacked": [(n, m, k) for n in range(10) for k in range(1, 11)
                for m in range(11 - k - n * k)],
}


@functools.cache
def naive_tally(kind, params):
    return merged_tally(oracle_window_tallies(kind, params))


class TestLaneWords:
    """Chunks that cover more than one lane word: over 2^16 windows, or any
    small grid with words of 2 or 4 lanes."""

    @pytest.mark.parametrize("lane_bits", [1, 2])
    @pytest.mark.parametrize("kind", SMALL_GRIDS)
    def test_small_words_match_naive(self, monkeypatch, kind, lane_bits):
        # default chunks are then 2 or 4 windows, up to total >> 6
        monkeypatch.setattr(lanes, "_LANE_BITS", lane_bits)
        for params in SMALL_GRIDS[kind]:
            assert run_census(kind, params) == naive_tally(kind, params), params

    @pytest.mark.parametrize("kind", SMALL_GRIDS)
    def test_resume_at_the_other_lane_width_matches_naive(self, tmp_path, monkeypatch,
                                                          kind):
        for params in SMALL_GRIDS[kind]:
            path = tmp_path / ("%s %s.ckpt" % (kind, params))
            monkeypatch.setattr(lanes, "_LANE_BITS", 1)
            run_census(kind, params, checkpoint=str(path), chunk_size=3)
            header, *lines = path.read_text().splitlines(keepends=True)
            path.write_text(header + "".join(lines[::2]))
            monkeypatch.setattr(lanes, "_LANE_BITS", 2)
            assert run_census(kind, params, checkpoint=str(path), chunk_size=3) \
                == naive_tally(kind, params), params
            ranks = oracle_window_ranks(kind, params)
            chunks = checkpoint_chunks(str(path))
            assert len(chunks) == -(-len(ranks) // 3), params
            for (lo, hi), counts in chunks.items():
                assert counts == merged_tally(ranks[lo:hi]), (params, lo, hi)

    @pytest.mark.parametrize("kind,params", [("gamma", (8, 10)), ("quad", (1, 9, 9))])
    @pytest.mark.parametrize("chunk_size", [40000, 65537])
    def test_chunks_that_straddle_a_word_match_naive(self, tmp_path, kind, params, chunk_size):
        table = F.gamma_table(*params) if kind == "gamma" else F.quad_table(*params[1:])
        path = str(tmp_path / "lanes.ckpt")
        assert run_census(kind, params, checkpoint=path, chunk_size=chunk_size) == table
        chunks = checkpoint_chunks(path)
        word = 1 << 16
        straddling = [rng for rng in chunks if rng[0] // word != (rng[1] - 1) // word]
        assert straddling
        for lo, hi in straddling:
            want = merged_tally(oracle_window_ranks(kind, params, range(lo, hi)))
            assert chunks[(lo, hi)] == want, (lo, hi)

    @pytest.mark.parametrize("b", [0, 1, 2, 5, 10])
    def test_lane_masks_hold_each_lanes_index_bits(self, b):
        masks = lanes._lane_masks(b)
        assert len(masks) == b
        for p, mask in enumerate(masks):
            assert mask < 1 << (1 << b)
            assert all((mask >> x & 1) == (x >> p & 1) for x in range(1 << b)), p


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
        same, up = split_sigma(C.enum_sigma(0, 1))
        assert dict(same) == {0: 1, 1: 2}
        assert dict(up) == {1: 1}

    def test_known_identities(self):
        for m, k in [(0, 2), (1, 2), (1, 3), (4, 8)]:
            same, up = split_sigma(C.enum_sigma(m, k))
            for i, count in same.items():
                assert count == (1 << i) * F.gamma_closed(1 + m, k, i)
            for i, count in up.items():
                assert count == ((1 << k) - (1 << (i - 1))) * F.gamma_closed(
                    1 + m, k, i - 1
                )
            assert dict(same + up) == F.stacked_gamma_table(1, m, k)

    def test_total_covers_grid(self):
        same, up = split_sigma(C.enum_sigma(2, 3))
        assert same.total() + up.total() == 1 << (3 + 2 + 3)

    def test_budget_boundary(self):
        # 2^(k+m) windows are ranked; the free row's k bits are fewer
        same, up = split_sigma(C.enum_sigma(2, 3, budget_bits=5))
        assert same.total() + up.total() == 1 << 8
        with pytest.raises(BudgetExceeded, match=re.escape("census sigma m=2 k=3 needs a 2^5 ")):
            C.enum_sigma(2, 3, budget_bits=4)

    def test_budget_charges_the_windows_ranked(self):
        # 2^21 windows, 2^29 (window, free row) pairs
        same, up = split_sigma(C.enum_sigma(13, 8))
        assert dict(same + up) == F.stacked_gamma_table(1, 13, 8)
        assert sum(C.enum_sigma(13, 8, budget_bits=21).values()) == 1 << 29
        with pytest.raises(BudgetExceeded, match=re.escape("census sigma m=13 k=8 needs a 2^21 ")):
            C.enum_sigma(13, 8, budget_bits=20)


class TestEnumStacked:
    def test_known_tables(self):
        assert dict(C.enum_stacked_gamma(1, 2, 3)) == {0: 1, 1: 13, 2: 66, 3: 176}
        assert dict(C.enum_stacked_gamma(0, 1, 2)) == dict(C.enum_gamma(2, 2))

    def test_engine_matches_naive_build_and_rank(self):
        for n, m, k in [(0, 0, 1), (0, 2, 2), (1, 1, 2), (2, 1, 2), (1, 2, 2),
                        (2, 0, 2), (1, 1, 3), (3, 1, 2), (2, 2, 3),
                        (3, 1, 3), (4, 0, 3), (3, 2, 3), (2, 1, 4), (2, 1, 5)]:
            assert dict(C.enum_stacked_gamma(n, m, k)) == naive_tally("stacked", (n, m, k))

    def test_matches_closed_form(self):
        for n, m, k in [(2, 2, 2), (3, 0, 3), (2, 1, 4), (2, 1, 8)]:
            assert dict(C.enum_stacked_gamma(n, m, k)) == F.stacked_gamma_table(n, m, k)

    def test_budget(self):
        # 2^6 windows, 5 free rows of 4 bits
        assert dict(C.enum_stacked_gamma(5, 2, 4, budget_bits=20)) == (
            F.stacked_gamma_table(5, 2, 4))
        with pytest.raises(BudgetExceeded,
                           match=re.escape("census stacked n=5 m=2 k=4 needs a 2^20 ")):
            C.enum_stacked_gamma(5, 2, 4, budget_bits=19)

    def test_many_free_rows_over_a_small_block(self):
        # 2^33 and 2^32 tuples: only the windows are walked, and each chunk
        # expands its window-rank tally by one step per free row
        assert dict(C.enum_stacked_gamma(7, 1, 4, budget_bits=33)) == (
            F.stacked_gamma_table(7, 1, 4))
        assert dict(C.enum_stacked_gamma(3, 0, 8, budget_bits=32)) == (
            F.landsberg_table(4, 8))


class TestPartitioning:
    def test_chunk_size_does_not_change_results(self):
        base = dict(C.enum_stacked_gamma(2, 1, 3))
        for chunk_size in (1, 3, 7, 16):
            got = dict(C.enum_stacked_gamma(2, 1, 3, chunk_size=chunk_size))
            assert got == base

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_chunk_size_below_one_is_refused_before_the_checkpoint(self, tmp_path, chunk_size):
        path = tmp_path / "gamma.ckpt"
        with pytest.raises(ValueError, match="chunk_size must be at least 1, got %d" % chunk_size):
            C.enum_gamma(3, 3, checkpoint=str(path), chunk_size=chunk_size)
        assert not path.exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_is_refused_before_the_checkpoint(self, tmp_path, threads):
        path = tmp_path / "gamma.ckpt"
        with pytest.raises(ValueError, match="threads must be at least 1, got %d" % threads):
            C.enum_gamma(3, 3, checkpoint=str(path), threads=threads)
        assert not path.exists()

    def test_threads_do_not_change_results(self):
        assert dict(C.enum_gamma(3, 4, threads=3)) == F.gamma_table(3, 4)
        assert dict(C.enum_stacked_gamma(2, 1, 3, threads=2, chunk_size=4)) == dict(
            C.enum_stacked_gamma(2, 1, 3)
        )

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "gamma.ckpt")
        full = dict(C.enum_gamma(4, 4, checkpoint=path, chunk_size=16))
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 9
        assert lines[0] == "#census v2 gamma s=4 k=4 points=128 chunk=16"
        first = lines[1].split()
        assert first[0] == "0" and first[1] == "16"
        assert all(":" in field for field in first[2:-1])
        assert re.fullmatch("crc=[0-9a-f]{8}", first[-1])
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
        lines = Path(path).read_text().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:2]) + "\n")
        assert dict(C.enum_quadruple(1, 3, 3, checkpoint=path, chunk_size=8)) == ref

    def test_torn_checkpoint_line_is_rejected(self, tmp_path):
        path = str(tmp_path / "gamma.ckpt")
        C.enum_gamma(4, 4, checkpoint=path, chunk_size=64)
        lines = Path(path).read_text().splitlines()
        body = lines[1].rpartition(" crc=")[0]
        assert body.endswith(" 4:32")
        with open(path, "w") as handle:
            handle.write("\n".join(lines[:1] + [body[:-1]] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="counts 35 points, not 64"):
            C.enum_gamma(4, 4, checkpoint=path, chunk_size=64)

    def test_checkpoint_line_with_wrong_weight_is_rejected(self, tmp_path):
        # a stacked line counts its hi - lo windows, not the 2^{nk} free-row
        # tuples over each that a line in the older expanded form counted
        path = str(tmp_path / "stacked.ckpt")
        with open(path, "w") as handle:
            handle.write(checkpoint_header("stacked", (1, 1, 2), 8, 4))
            handle.write("0 4 0:1 1:5 2:10\n")
        with pytest.raises(ValueError, match="counts 16 points, not 4"):
            C.enum_stacked_gamma(1, 1, 2, checkpoint=path, chunk_size=4)

    def test_checkpoint_count_below_one_is_rejected(self, tmp_path):
        # each rewritten line keeps its one-point chunk's sum
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(3, 4, checkpoint=str(path), chunk_size=1)
        header, first, *rest = path.read_text().splitlines()
        assert first.rpartition(" crc=")[0] == "0 1 0:1"
        for line in ("0 1 0:-1 1:2", "0 1 0:1 1:0"):
            path.write_text("\n".join([header, line] + rest) + "\n")
            with pytest.raises(ValueError, match="below 1"):
                C.enum_gamma(3, 4, checkpoint=str(path), chunk_size=1)

    @pytest.mark.parametrize("kind,params,line,message", [
        # no 3 x 4 window has rank 7
        ("gamma", (3, 4), "0 1 7:1", "impossible key 7"),
        ("gamma", (3, 4), "0 1 0:1 0:1", "repeated key 0"),
        # a key of two ranks where gamma keys hold one, after a line that holds key 0
        ("gamma", (3, 4), "0 1 0:1 0,1:1", "impossible key 0,1"),
        ("quad", (1, 3, 3), "0 1 0,0,0:1", "impossible key 0,0,0"),
        ("quad", (1, 3, 3), "0 1 0,0,0,4:1", "impossible key 0,0,0,4"),
        ("sigma", (1, 2), "0 1 3:1", "impossible key 3"),
        ("stacked", (1, 1, 2), "0 1 0:1 3:3", "impossible key 3"),
    ])
    def test_checkpoint_key_the_census_cannot_hold_is_rejected(
            self, tmp_path, kind, params, line, message):
        # each rewritten first line keeps its one-index chunk's sum
        path = tmp_path / "census.ckpt"
        run_census(kind, params, checkpoint=str(path), chunk_size=1)
        header, _, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, line] + rest) + "\n")
        with pytest.raises(ValueError, match=message):
            run_census(kind, params, checkpoint=str(path), chunk_size=1)

    @pytest.mark.parametrize("line", [
        "0 1 x:1", "0 1 0:1x", "x 1 0:1", "0 1 :1", "0 1 same,0:1",
        # int() reads each of these, but %d never writes them
        "0 1 0:+1", "0 1 0:01", "0 1 0:1_0", "0 1 +0:1", "0 1 00:1", "0 1 -0:1",
        "+0 1 0:1", "0 01 0:1", "0 0_1 0:1", "-0 1 0:1"])
    def test_checkpoint_line_with_a_malformed_field_is_rejected(self, tmp_path, line):
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(3, 4, checkpoint=str(path), chunk_size=1)
        header, _, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, line] + rest) + "\n")
        message = "line '%s' has a malformed field; remove %s to start over" % (line, path)
        with pytest.raises(ValueError, match=re.escape(message)):
            C.enum_gamma(3, 4, checkpoint=str(path), chunk_size=1)

    @pytest.mark.parametrize("line", [
        # the reader once accepted each of these, but the writer never writes them
        "0 4 1:3 0:1", "0 4 0:1  1:3", "0 4 0:1 1:3 ", "0 4\t0:1 1:3", "0 4 0:1 1:3\r",
        pytest.param("", id="empty"), pytest.param("   ", id="spaces")])
    def test_checkpoint_line_the_writer_never_writes_is_rejected(self, tmp_path, line):
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(1, 3, checkpoint=str(path), chunk_size=4)
        header, first, *rest = path.read_text().split("\n")
        assert first.rpartition(" crc=")[0] == "0 4 0:1 1:3"
        path.write_text("\n".join([header, line] + rest))
        message = "line %r has a malformed field; remove %s to start over" % (line, path)
        with pytest.raises(ValueError, match=re.escape(message)):
            C.enum_gamma(1, 3, checkpoint=str(path), chunk_size=4)

    def test_checkpoint_line_with_a_non_ascii_byte_is_rejected(self, tmp_path):
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(3, 4, checkpoint=str(path), chunk_size=1)
        header, _, *rest = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([header, "0 1 0:1é".encode()] + rest))
        message = "line 2 has a non-ASCII byte; remove %s to start over" % path
        with pytest.raises(ValueError, match=re.escape(message)):
            C.enum_gamma(3, 4, checkpoint=str(path), chunk_size=1)

    def test_repeated_checkpoint_range_is_rejected(self, tmp_path):
        # the repeated one-index chunk keeps its sum but not its counts
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(3, 3, checkpoint=str(path), chunk_size=1)
        with open(path, "a") as handle:
            handle.write("0 1 3:1\n")
        message = "range (0, 1) appears twice; remove %s to start over" % path
        with pytest.raises(ValueError, match=re.escape(message)):
            C.enum_gamma(3, 3, checkpoint=str(path), chunk_size=1)

    @pytest.mark.parametrize("s,k,chunk", [
        (2, 2, 8), (8, 9, 1 << 16), (10, 11, 1 << 16), (11, 12, 1 << 16), (12, 12, 1 << 17),
    ])
    def test_default_chunks_are_whole_lane_words(self, tmp_path, monkeypatch, s, k, chunk):
        # at least one 2^16-lane word; total >> 6 from the 2^22-window pool
        # cutoff up, so the headers of pooled runs keep their chunk size
        monkeypatch.setattr(C, "_walk_worker", lambda job: Counter({0: job[3] - job[2]}))
        path = tmp_path / "gamma.ckpt"
        total = 1 << (s + k - 1)
        assert C.enum_gamma(s, k, checkpoint=str(path)) == {0: total}
        header, *lines = path.read_text().splitlines()
        assert header == "#census v2 gamma s=%d k=%d points=%d chunk=%d" % (s, k, total, chunk)
        assert len(lines) == total // chunk

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


# the checkpoint of one tiny census per kind at chunk_size=4: every line
# holds the window tally of its chunk, before any free row is expanded, and
# ends with the CRC32 of the header and its fields
CHECKPOINT_BYTES = {
    ("gamma", (2, 3)): b"#census v2 gamma s=2 k=3 points=16 chunk=4\n"
                       b"0 4 0:1 1:1 2:2 crc=22b9c8fb\n4 8 2:4 crc=242e89f7\n"
                       b"8 12 1:1 2:3 crc=9303b754\n12 16 1:1 2:3 crc=9df4a4e2\n",
    ("quad", (1, 2, 3)): b"#census v2 quad l=1 n=2 m=3 points=16 chunk=4\n"
                         b"0 4 0,0,0,0:1 1,1,1,1:1 1,1,2,2:2 crc=7f98626f\n"
                         b"4 8 0,1,1,2:1 1,1,1,2:1 1,1,2,2:2 crc=73a9f007\n"
                         b"8 12 0,0,0,1:1 1,1,1,2:1 1,1,2,2:2 crc=4a8ffc0b\n"
                         b"12 16 0,1,1,2:1 1,1,1,1:1 1,1,2,2:2 crc=f6ea755d\n",
    ("sigma", (1, 2)): b"#census v2 sigma m=1 k=2 points=8 chunk=4\n"
                       b"0 4 0:1 1:1 2:2 crc=3199bd38\n4 8 1:2 2:2 crc=5ec119d4\n",
    ("stacked", (1, 1, 2)): b"#census v2 stacked n=1 m=1 k=2 points=8 chunk=4\n"
                            b"0 4 0:1 1:1 2:2 crc=e41012b2\n4 8 1:2 2:2 crc=48bca729\n",
}

# the same censuses as a file written before v2: the same lines with no CRC
WINDOW_V1_CHECKPOINT_BYTES = {
    ("gamma", (2, 3)): b"#census gamma s=2 k=3 points=16 chunk=4\n"
                       b"0 4 0:1 1:1 2:2\n4 8 2:4\n8 12 1:1 2:3\n12 16 1:1 2:3\n",
    ("quad", (1, 2, 3)): b"#census quad l=1 n=2 m=3 points=16 chunk=4\n"
                         b"0 4 0,0,0,0:1 1,1,1,1:1 1,1,2,2:2\n"
                         b"4 8 0,1,1,2:1 1,1,1,2:1 1,1,2,2:2\n"
                         b"8 12 0,0,0,1:1 1,1,1,2:1 1,1,2,2:2\n"
                         b"12 16 0,1,1,2:1 1,1,1,1:1 1,1,2,2:2\n",
    ("sigma", (1, 2)): b"#census sigma m=1 k=2 points=8 chunk=4\n"
                       b"0 4 0:1 1:1 2:2\n4 8 1:2 2:2\n",
    ("stacked", (1, 1, 2)): b"#census stacked n=1 m=1 k=2 points=8 chunk=4\n"
                            b"0 4 0:1 1:1 2:2\n4 8 1:2 2:2\n",
}

# the same censuses in the older form, whose lines held the tally after the
# free-row expansion: gamma and quad are unchanged, sigma and stacked differ
OLDER_CHECKPOINT_BYTES = {
    ("sigma", (1, 2)): b"#census sigma m=1 k=2 points=32 chunk=4\n"
                       b"0 4 same,0:1 same,1:2 same,2:8 up,1:3 up,2:2\n"
                       b"4 8 same,1:4 same,2:8 up,2:4\n",
    ("stacked", (1, 1, 2)): b"#census stacked n=1 m=1 k=2 points=32 chunk=4\n"
                            b"0 4 0:1 1:5 2:10\n4 8 1:4 2:12\n",
}


class TestCheckpointFormat:
    """The bytes a checkpoint holds; no file written before v2 resumes."""

    @pytest.mark.parametrize("kind,params", list(CHECKPOINT_BYTES))
    @pytest.mark.parametrize("threads", [1, 2])
    def test_checkpoint_bytes_after_a_run_and_a_resume(self, tmp_path, kind, params, threads):
        path = tmp_path / "census.ckpt"
        data = CHECKPOINT_BYTES[kind, params]
        opts = {"threads": threads, "checkpoint": str(path), "chunk_size": 4}
        full = run_census(kind, params, **opts)
        assert path.read_bytes() == data
        path.write_bytes(b"".join(data.splitlines(keepends=True)[:2]))
        assert run_census(kind, params, **opts) == full
        assert path.read_bytes() == data

    @pytest.mark.parametrize("kind,params", [
        ("gamma", (3, 4)), ("quad", (1, 3, 3)), ("sigma", (1, 2)), ("stacked", (2, 1, 2)),
    ])
    @pytest.mark.parametrize("chunk_size", [1, 3, None])
    def test_every_written_line_reads_back_as_its_chunk(self, tmp_path, kind, params,
                                                        chunk_size):
        ranks = oracle_window_ranks(kind, params)
        path = tmp_path / "census.ckpt"
        run_census(kind, params, checkpoint=str(path), chunk_size=chunk_size)
        header = path.read_text().split("\n", 1)[0]
        chunks = checkpoint_chunks(str(path))
        # one rank per block, at most min(rows, k)
        blocks, bound = {"gamma": (1, 3), "quad": (4, 3), "sigma": (1, 2), "stacked": (1, 2)}[kind]
        done = C._read_checkpoint(str(path), header, chunks, blocks, bound)
        assert sorted(done) == sorted(chunks)
        for (lo, hi), counts in done.items():
            assert counts == merged_tally(ranks[lo:hi]), (lo, hi)

    # a census keys its file by int ranks (one block) or by 4-tuples (quad), never both
    @given(st.one_of(
        st.tuples(st.just(1), st.just(40), st.lists(st.dictionaries(
            st.integers(0, 40), st.integers(1, 1 << 70), min_size=1), min_size=1, max_size=4)),
        st.tuples(st.just(4), st.just(12), st.lists(st.dictionaries(
            st.tuples(*[st.integers(0, 12)] * 4), st.integers(1, 1 << 70), min_size=1),
            min_size=1, max_size=4))))
    def test_random_tallies_read_back_as_written(self, file):
        blocks, bound, tallies = file
        ranges, lo = [], 0
        for tally in tallies:
            ranges.append((lo, lo + sum(tally.values())))
            lo = ranges[-1][1]
        header = "#census v2 gamma s=1 k=1 points=%d chunk=1" % lo
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "census.ckpt")
            with open(path, "w") as handle:
                handle.write(header + "\n")
                for rng, tally in zip(ranges, tallies):
                    handle.write(C._checkpoint_line(header, rng, Counter(tally)))
            done = C._read_checkpoint(path, header, ranges, blocks, bound)
        assert done == dict(zip(ranges, tallies))

    @pytest.mark.parametrize("kind,params", list(OLDER_CHECKPOINT_BYTES))
    def test_older_expanded_checkpoint_is_refused_untouched(self, tmp_path, kind, params):
        path = tmp_path / "census.ckpt"
        data = OLDER_CHECKPOINT_BYTES[kind, params]
        path.write_bytes(data)
        with pytest.raises(ValueError, match="header"):
            run_census(kind, params, checkpoint=str(path), chunk_size=4)
        assert path.read_bytes() == data

    @pytest.mark.parametrize("kind,params", list(WINDOW_V1_CHECKPOINT_BYTES))
    def test_older_window_checkpoint_is_refused_untouched(self, tmp_path, kind, params):
        # its lines carry no CRC, so its header is the one before v2
        path = tmp_path / "census.ckpt"
        data = WINDOW_V1_CHECKPOINT_BYTES[kind, params]
        path.write_bytes(data)
        with pytest.raises(ValueError, match="header"):
            run_census(kind, params, checkpoint=str(path), chunk_size=4)
        assert path.read_bytes() == data


    @pytest.mark.parametrize("kind,params", [
        ("gamma", (3, 4)), ("quad", (1, 3, 4)), ("sigma", (2, 2)), ("stacked", (2, 1, 3)),
    ])
    def test_moving_a_count_between_keys_is_refused(self, tmp_path, kind, params):
        # each edit keeps the keys possible and the sum, so only the CRC tells
        path = tmp_path / "census.ckpt"
        full = run_census(kind, params, checkpoint=str(path))
        header, line = path.read_text().splitlines()
        lo, hi, *fields, crc = line.split(" ")
        keys = [field.rpartition(":")[0] for field in fields]
        counts = [int(field.rpartition(":")[2]) for field in fields]
        moves = [(i, j) for i, j in itertools.permutations(range(len(fields)), 2)
                 if counts[j] > 1]
        assert {i for i, _ in moves} == set(range(len(fields)))
        for i, j in moves:
            moved = counts[:]
            moved[i], moved[j] = moved[i] + 1, moved[j] - 1
            edited = " ".join([lo, hi] + ["%s:%d" % kc for kc in zip(keys, moved)] + [crc])
            path.write_text("%s\n%s\n" % (header, edited))
            message = "line %r fails its CRC32 check; remove %s to start over" % (edited, path)
            with pytest.raises(ValueError, match=re.escape(message)):
                run_census(kind, params, checkpoint=str(path))
        path.write_text("%s\n%s\n" % (header, line))
        assert run_census(kind, params, checkpoint=str(path)) == full

    def test_line_without_its_crc_is_refused(self, tmp_path):
        path = tmp_path / "census.ckpt"
        C.enum_gamma(3, 4, checkpoint=str(path))
        header, line = path.read_text().splitlines()
        body = line.rpartition(" crc=")[0]
        path.write_text("%s\n%s\n" % (header, body))
        message = "line %r fails its CRC32 check; remove %s to start over" % (body, path)
        with pytest.raises(ValueError, match=re.escape(message)):
            C.enum_gamma(3, 4, checkpoint=str(path))

    def test_line_sealed_under_another_header_is_refused(self, tmp_path):
        # the sigma and stacked files share their ranges and chunk tallies
        sigma, stacked = CHECKPOINT_BYTES["sigma", (1, 2)], CHECKPOINT_BYTES["stacked", (1, 1, 2)]
        path = tmp_path / "census.ckpt"
        header, first, second, _ = sigma.split(b"\n")
        path.write_bytes(b"\n".join([stacked.split(b"\n")[0], first, second, b""]))
        message = "line %r fails its CRC32 check; remove %s to start over" % (
            first.decode(), path)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_census("stacked", (1, 1, 2), checkpoint=str(path), chunk_size=4)

    def test_checkpointed_censuses_list_no_keys(self, tmp_path, monkeypatch):
        # the reader checks each key against the rank bound, so no run lists
        # the (min(rows, k) + 1)^blocks keys a census could hold
        grids = [("gamma", (3, 4)), ("quad", (1, 3, 3)), ("sigma", (1, 2)),
                 ("stacked", (2, 1, 2))]
        want = {kind: run_census(kind, params) for kind, params in grids}

        def refuse(*args, **kwargs):
            raise AssertionError("a census listed its keys")

        monkeypatch.setattr(C, "itertools", types.SimpleNamespace(
            **{**vars(itertools), "product": refuse}))
        for kind, params in grids:
            path = tmp_path / kind
            assert run_census(kind, params, checkpoint=str(path), chunk_size=3) == want[kind]
            header, *lines = path.read_text().splitlines(keepends=True)
            path.write_text(header + "".join(lines[: len(lines) // 2]))
            assert run_census(kind, params, checkpoint=str(path), chunk_size=3) == want[kind]
            assert run_census(kind, params, checkpoint=str(path), chunk_size=3) == want[kind]


# a tiny grid for each enumeration, 2^4 or 2^5 points
TINY = {"enum_gamma": (2, 3), "enum_quadruple": (1, 2, 3), "enum_sigma": (1, 2),
        "enum_stacked_gamma": (1, 1, 2)}
ENUMS = [name for name in C.__all__ if name.startswith("enum_")]


class TestOptionForwarding:
    """Every enum_* forwards the driver's keyword options and nothing else."""

    @pytest.mark.parametrize("name", ENUMS)
    @pytest.mark.parametrize("option", ["threads", "checkpoint", "chunk_size"])
    def test_each_option_gives_the_default_tally(self, tmp_path, name, option):
        enum, params = getattr(C, name), TINY[name]
        value = {"threads": 2, "checkpoint": str(tmp_path / "ckpt"), "chunk_size": 3}[option]
        assert enum(*params, **{option: value}) == enum(*params)
        if option == "checkpoint":
            assert (tmp_path / "ckpt").read_text().startswith("#census ")

    @pytest.mark.parametrize("name", ENUMS)
    def test_budget_below_the_domain_is_refused(self, name):
        with pytest.raises(BudgetExceeded):
            getattr(C, name)(*TINY[name], budget_bits=2)

    @pytest.mark.parametrize("name", ENUMS)
    @pytest.mark.parametrize("keyword", [
        {"thread": 2}, {"name": "gamma s=1 k=1"}, {"blocks": ((1, True),)}, {"rows": 1},
        {"free": 1}, {"split": True},
    ], ids=["thread", "name", "blocks", "rows", "free", "split"])
    def test_unknown_or_kernel_keyword_is_refused(self, name, keyword):
        with pytest.raises(TypeError):
            getattr(C, name)(*TINY[name], **keyword)

    @pytest.mark.parametrize("name", ENUMS)
    def test_positional_option_is_refused(self, name):
        with pytest.raises(TypeError):
            getattr(C, name)(*TINY[name], 1)


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
        same, up = split_sigma(C.enum_sigma(1, 2))
        assert sum(same.values()) + sum(up.values()) == 1 << 5
        assert sum(C.enum_stacked_gamma(1, 1, 2).values()) == 1 << 5
        assert sum(C.enum_stacked_gamma(3, 0, 2).values()) == 1 << 8
        assert C.repcount_bruteforce(2, 1, 2, 1) == 148
        assert C.repcount_integral(2, 1, 2, 1) == 148

    def test_rank_censuses_never_call_gf2_or_builders(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a rank census called persym.gf2 or persym.builders")

        want = [F.gamma_table(3, 4), F.quad_table(3, 3),
                F.stacked_gamma_table(1, 1, 3), F.stacked_gamma_table(2, 1, 2)]
        # every binding of a public gf2 or builders callable, in any persym module
        oracles = {id(getattr(module, name))
                   for module in (gf2, builders) for name in module.__all__}
        for module in [m for key, m in sys.modules.items()
                       if key == "persym" or key.startswith("persym.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in oracles:
                    monkeypatch.setattr(module, attr, refuse)
        with pytest.raises(AssertionError):  # the patch reaches a gf2 caller
            fmulti_closed(0, 1, UnitSeries(0, 1), [UnitSeries(0, 1)])
        same, up = split_sigma(C.enum_sigma(1, 3))
        assert [dict(C.enum_gamma(3, 4)), dict(C.enum_quadruple(1, 3, 3)), dict(same + up),
                dict(C.enum_stacked_gamma(2, 1, 2))] == want
        assert C.repcount_integral(2, 1, 2, 1) == 148


WALK_WORKER = C._walk_worker


def raising_worker(args):
    """A census worker that fails on the chunk at index 0."""
    if args[-2] == 0:
        raise RuntimeError("chunk at 0 failed")
    return WALK_WORKER(args)


class TestPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of the pools the census starts."""
        started = []
        real = concurrent.futures.ProcessPoolExecutor

        def spy(max_workers, **options):
            started.append(max_workers)
            return real(max_workers=max_workers, **options)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        return started

    def test_small_domains_run_in_process(self, pools):
        assert dict(C.enum_gamma(3, 4, threads=2)) == F.gamma_table(3, 4)
        assert dict(C.enum_stacked_gamma(2, 1, 3, threads=2, chunk_size=4)) == (
            F.stacked_gamma_table(2, 1, 3))
        # 2^{16} free-row tuples over only 2^6 windows: the cutoff counts windows
        assert dict(C.enum_stacked_gamma(2, 1, 5, threads=2)) == (
            F.stacked_gamma_table(2, 1, 5))
        assert pools == []

    def test_large_domains_use_the_pool(self, pools):
        assert dict(C.enum_gamma(11, 12, threads=2)) == F.gamma_table(11, 12)
        same, up = split_sigma(C.enum_sigma(16, 6, threads=2))  # 2^{22} windows
        assert dict(same + up) == F.stacked_gamma_table(1, 16, 6)
        assert pools == [2, 2]

    def test_only_pending_points_count(self, tmp_path, pools):
        path = tmp_path / "gamma.ckpt"
        C.enum_gamma(11, 12, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-4]))  # 4 chunks of 2^16 windows left
        assert dict(C.enum_gamma(11, 12, threads=2, checkpoint=str(path))) == (
            F.gamma_table(11, 12))
        assert pools == []

    def test_a_failed_chunk_fails_the_census(self, tmp_path, pools, monkeypatch):
        path = tmp_path / "gamma.ckpt"
        monkeypatch.setattr(C, "_walk_worker", raising_worker)
        with pytest.raises(ValueError, match=re.escape(
                "census gamma s=11 k=12 failed in a worker (RuntimeError: chunk at 0 failed);"
                " a rerun resumes from %s" % path)):
            C.enum_gamma(11, 12, threads=2, checkpoint=str(path))
        assert pools == [2]
        monkeypatch.undo()
        assert dict(C.enum_gamma(11, 12, checkpoint=str(path))) == F.gamma_table(11, 12)


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

    def test_integer_moments_print_as_the_coset_integral(self):
        # the even-moment suites print n / 2^e from plain ints
        def printed(value):
            if value.denominator == 1:
                return value.numerator
            return "%d/2^%d" % (value.numerator, value.denominator.bit_length() - 1)

        for depth in range(3, 13):
            for s in range(2, depth):
                k = depth + 1 - s
                values = [g_closed(s, k, UnitSeries(v, depth)) for v in range(1 << depth)]
                tally = Counter(values)
                for power in range(1, 7):
                    total = sum(count * value**power for value, count in tally.items())
                    assert suites._over_power_of_two(total, depth) == printed(
                        Fraction(sum(value**power for value in values), 1 << depth)
                    ), (s, k, power)
        for n, e in [(0, 0), (0, 5), (7, 0), (40, 3), (-40, 3), (12, 4), (-6, 3), (5, 9)]:
            assert suites._over_power_of_two(n, e) == printed(Fraction(n, 1 << e)), (n, e)
        assert suites._over_power_of_two(0, 5) == 0
        assert suites._over_power_of_two(12, 4) == "3/2^2"
        assert suites._over_power_of_two(-6, 3) == "-3/2^2"

    def test_a_list_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="^expected 8 representatives, got 7$"):
            C.integrate_coset([1] * 7, 3)


class TestRepcounts:
    def test_formula_known_values(self):
        assert C.repcount_multi_formula(1, 0, 2, 1) == 7
        assert C.repcount_multi_formula(2, 0, 2, 1) == 64
        assert C.repcount_multi_formula(1, 0, 4, 2) == (1 << 4) + (1 << 3) - 1

    def test_multi_formula_known_values(self):
        assert C.repcount_multi_formula(3, 5, 4, 2) == 24413824
        assert C.repcount_multi_formula(1, 1, 3, 2) == 23
        assert C.repcount_multi_formula(1, 8, 8, 0, budget_bits=9) == 767

    def test_displayed_power_identity(self):
        for q in (1, 2, 3, 5):
            bracket = (1 << 3 * q) + (13 << 2 * q) + (66 << q) + 176
            expected = Fraction(bracket) * Fraction(2) ** (4 * q - 8)
            assert expected.denominator == 1
            assert C.repcount_multi_formula(q, 1, 3, 2) == expected

    def test_bruteforce_matches_formula(self):
        for q, s, k in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]:
            m = s - 1
            assert C.repcount_bruteforce(q, 0, k, m) == C.repcount_multi_formula(
                q, 0, k, s - 1)
        assert C.repcount_bruteforce(1, 1, 3, 2) == 23

    @pytest.mark.parametrize("q,n,k,m", [(2, 1, 4, 3), (2, 1, 4, 5)])
    def test_bruteforce_at_the_benchmark_shapes(self, q, n, k, m):
        assert C.repcount_bruteforce(q, n, k, m) == C.repcount_multi_formula(q, n, k, m)

    def test_integral_matches_formula(self):
        for q, s, k in [(1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)]:
            assert C.repcount_integral(q, 0, k, s - 1) == C.repcount_multi_formula(
                q, 0, k, s - 1)
        assert C.repcount_integral(1, 1, 3, 2) == 23
        assert C.repcount_integral(2, 1, 2, 1) == C.repcount_multi_formula(2, 1, 2, 1)

    def test_integral_at_the_benchmark_shape(self):
        assert C.repcount_integral(2, 1, 6, 6) == C.repcount_multi_formula(2, 1, 6, 6) == 163456

    @pytest.mark.parametrize("q, n, k, m, budget_bits", [
        (2, 2, 8, 4, 28), (2, 1, 12, 4, 28), (2, 3, 6, 4, 28), (2, 4, 5, 3, 28),
        (2, 3, 8, 4, 36),  # 2^36 points, over the default budget
    ])
    def test_integral_at_the_roadmap_shapes(self, q, n, k, m, budget_bits):
        assert C.repcount_integral(q, n, k, m, budget_bits=budget_bits) == \
            C.repcount_multi_formula(q, n, k, m)

    def test_piecewise_matches_formula(self):
        for q in range(1, 6):
            for k, m in [(2, 1), (3, 1), (3, 2), (4, 0)]:
                assert F.repcount_piecewise(q, k, m) == C.repcount_multi_formula(q, 0, k, m)

    # every shape with q(k+m+1+n) <= 12 and q <= 6: both Parseval reads and the transform
    @pytest.mark.parametrize("n,q", [(n, q) for n in range(11) for q in range(1, 7)
                                     if q * (n + 2) <= 12])
    def test_bruteforce_matches_literal_product_count(self, q, n):
        for k in range(1, 12):
            for m in range(11):
                if q * (k + m + 1 + n) <= 12:
                    assert C.repcount_bruteforce(q, n, k, m) == oracle_repcount(
                        q, n, k, m), (k, m)

    # K = 18 and 16: a q-fold product of 2^14 and 2^12 contributions, each under 1 s
    @pytest.mark.parametrize("q,n,k,m", [(3, 1, 6, 6), (6, 1, 6, 4)])
    def test_bruteforce_at_the_transform_shapes(self, q, n, k, m):
        assert C.repcount_bruteforce(q, n, k, m) == C.repcount_multi_formula(q, n, k, m)

    @pytest.mark.parametrize("q,n,k,m", [(1, 1, 3, 2), (2, 2, 2, 1), (3, 1, 3, 2),
                                         (4, 0, 3, 3), (5, 2, 2, 0)])
    def test_bruteforce_transforms_once_at_q_three_and_up(self, monkeypatch, q, n, k, m):
        lengths = []
        wht = lanes._wht

        def counting(v):
            lengths.append(len(v))
            wht(v)

        monkeypatch.setattr(lanes, "_wht", counting)
        assert C.repcount_bruteforce(q, n, k, m) == C.repcount_multi_formula(q, n, k, m)
        assert lengths == ([1 << (k + m + n * k)] if q >= 3 else [])

    def test_integral_matches_explicit_lists(self):
        """Every integral grid of 2^12 points or fewer, against per-point
        build-and-rank values integrated from an explicit list."""
        for n in (0, 1, 2):
            for k in range(1, 13):
                for m in range(0, 13):
                    bits = k + m + n * k
                    if bits > 12:
                        continue
                    values = [1 << (k + m + n + 1 - r)
                              for counts in oracle_window_tallies("stacked", (n, m, k))
                              for r, count in counts.items() for _ in range(count)]
                    q = 1 + bits % 3
                    want = Fraction(sum(v**q for v in values), 1 << bits)
                    assert want.denominator == 1
                    assert C.repcount_integral(q, n, k, m) == want, (q, n, k, m)

    @pytest.mark.parametrize("n,k,m", [(n, k, m) for n in range(4) for k in range(1, 13)
                                       for m in range(12) if k + m + n * k <= 12])
    def test_integral_matches_the_per_point_loop(self, n, k, m):
        for q in (1, 2, 3):
            assert C.repcount_integral(q, n, k, m) == oracle_repcount_integral(q, n, k, m)

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

    # Each shape's least admitted budget is bit_length(P W V), with
    # P = n^2 + (k+1)(min(n, k, m+1)+1)(min(n, k)+2), W = max(n^2//4, k+m+nk)//64 + 1
    # and V = k//64 + 1. At each shape the named term decides the bit length, so
    # moving any constant or sign in that term moves the least admitted budget.
    @pytest.mark.parametrize("n,k,m,bits", [
        # n^2: P = 4 + 2*2*3 = 16, W = V = 1
        (2, 1, 0, 5),
        # k+1: P = 0 + 3*1*2 = 6, W = V = 1
        (0, 2, 0, 3),
        # min(n, k, m+1)+1: P = 64 + 9*2*10 = 244, W = 72//64 + 1 = 2, V = 1: 488
        (8, 8, 0, 9),
        # min(n, k)+2: P = 1 + 2*2*3 = 13, W = V = 1
        (1, 1, 0, 4),
        # n^2//4: P = 256 + 2*2*3 = 268, W = 64//64 + 1 = 2, V = 1: 536
        (16, 1, 0, 10),
        # k+m+nk: P = 1 + 28*2*3 = 169, W = 64//64 + 1 = 2, V = 1: 338
        (1, 27, 10, 9),
        # W's //64 + 1: P = 0 + 54*1*2 = 108, W = 64//64 + 1 = 2, V = 1: 216
        (0, 53, 11, 8),
        # V: P = 4 + 65*3*4 = 784, W = 193//64 + 1 = 4, V = 64//64 + 1 = 2: 6272
        (2, 64, 1, 13),
    ])
    def test_formula_charge_is_pinned_term_by_term(self, n, k, m, bits):
        C.repcount_multi_formula(1, n, k, m, budget_bits=bits)
        with pytest.raises(BudgetExceeded, match=re.escape(
                "formula table n=%d k=%d m=%d needs a 2^%d point domain, over the 2^%d"
                " budget" % (n, k, m, bits, bits - 1))):
            C.repcount_multi_formula(1, n, k, m, budget_bits=bits - 1)

    @pytest.mark.parametrize("q", [3, 4])
    def test_bruteforce_charges_its_transform(self, q):
        # 2^5 contributions listed, then K 2^K steps at K = k+m+nk = 5: 5 + 3 bits
        assert C.repcount_bruteforce(q, 1, 2, 1, budget_bits=8) == \
            C.repcount_multi_formula(q, 1, 2, 1)
        with pytest.raises(BudgetExceeded, match=re.escape(
                "brute count q=%d n=1 k=2 m=1 needs a 2^8 point domain, over the 2^7"
                " budget" % q)):
            C.repcount_bruteforce(q, 1, 2, 1, budget_bits=7)

    def test_bruteforce_at_q_three_is_charged_the_transform_alone(self):
        # the 2^5 listed contributions are over a 2^4 budget too, but only q <= 2
        # is charged for them: the refusal names the transform's 5 + 3 bits
        with pytest.raises(BudgetExceeded, match=re.escape(
                "brute count q=3 n=1 k=2 m=1 needs a 2^8 point domain, over the 2^4"
                " budget")):
            C.repcount_bruteforce(3, 1, 2, 1, budget_bits=4)

    def test_bruteforce_charges_the_powers_of_a_large_q(self):
        # each F(x)^200 has up to 200*5 bits, W = 16 words: 5 + bit_length(5*16^2) bits
        assert C.repcount_bruteforce(200, 1, 2, 1, budget_bits=16) == \
            C.repcount_multi_formula(200, 1, 2, 1)
        with pytest.raises(BudgetExceeded, match=re.escape(
                "brute count q=200 n=1 k=2 m=1 needs a 2^16 point domain, over the 2^15"
                " budget")):
            C.repcount_bruteforce(200, 1, 2, 1, budget_bits=15)
        # 2^20 values of up to 840,000 bits: refused before any is listed
        with pytest.raises(BudgetExceeded, match="needs a 2\\^52 point domain"):
            C.repcount_bruteforce(40000, 0, 10, 10)

    def test_bruteforce_refuses_a_transform_over_the_key_ceiling_before_the_budget(self):
        # K = k+m+nk = 24: no budget admits the 2^24 entries, so the ceiling is named
        with pytest.raises(BudgetExceeded, match=re.escape(
                "brute count q=3 n=3 k=6 m=0 holds a tally of up to 2^24 keys, over"
                " the fixed 2^20 key ceiling of a brute count")):
            C.repcount_bruteforce(3, 3, 6, 0, budget_bits=10)

    def test_bruteforce_refuses_a_tally_over_the_key_ceiling(self):
        # a factor's 22 bits are within the budget, its k+m = 21 product bits are not
        with pytest.raises(BudgetExceeded, match=re.escape(
                "brute count q=2 n=0 k=10 m=11 holds a tally of up to 2^21 keys, over"
                " the fixed 2^20 key ceiling of a brute count")):
            C.repcount_bruteforce(2, 0, 10, 11)

    # at a ceiling of 2^6 keys: min(k+m+nk, k+m+1+n) is 6, then 7
    @pytest.mark.parametrize("under,over", [
        ((2, 0, 3, 3), (2, 0, 3, 4)),  # the k+m+nk product and U bits
        ((2, 2, 3, 0), (2, 2, 3, 1)),  # the bits of one factor
    ])
    def test_bruteforce_key_ceiling_one_bit_under_and_over(self, monkeypatch, under, over):
        monkeypatch.setattr(C, "GRID_MAX_BITS", 6)
        assert C.repcount_bruteforce(*under) == C.repcount_multi_formula(*under)
        with pytest.raises(BudgetExceeded, match="up to 2\\^7 keys, over the fixed 2\\^6"):
            C.repcount_bruteforce(*over)

    # q = 1 holds one Y's span of 2^(m+1+n) contributions: 6 bits, then 7, at a
    # ceiling of 2^6, although K = k+m+nk is 18 and 19
    def test_bruteforce_q1_span_ceiling_one_bit_under_and_over(self, monkeypatch):
        monkeypatch.setattr(C, "GRID_MAX_BITS", 6)
        assert C.repcount_bruteforce(1, 2, 5, 3) == C.repcount_multi_formula(1, 2, 5, 3)
        with pytest.raises(BudgetExceeded, match=re.escape(
                "brute count q=1 n=2 k=5 m=4 holds a span of 2^7 contributions, over the"
                " fixed 2^6 key ceiling of a brute count")):
            C.repcount_bruteforce(1, 2, 5, 4)


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
            lhs = Fraction(sum(values), 1 << depth)
            rhs = sum(Fraction(quads[(j, j, j, j)], 1 << 2 * q * j) for j in range(s))
            rhs *= 1 << (s + k - 2) * (2 * q - 1)
            assert lhs == rhs


def _series(bits):
    """A fixed series known through T^-bits, with both zero and one coefficients."""
    return UnitSeries(0b101101 & ((1 << bits) - 1), bits)


def _verify(suite, *flags):
    """verify SUITE at --budget-bits b through cli.main; an exit of 2 is a refusal."""
    def run(*shape):
        *values, b = shape
        argv = ["verify", suite, "--threads", "1", "--budget-bits", str(b)]
        for flag, value in zip(flags, values):
            argv += [flag, str(value)]
        code = cli.main(argv)
        if code == 2:
            raise BudgetExceeded("verify %s %s refused" % (suite, values))
        assert code == 0, (suite, values, code)
    return run


# a small grid of shapes per path that enumerates, each run as call(*shape, budget_bits)
CHARGED_PATHS = {
    "census gamma": (lambda s, k, b: C.enum_gamma(s, k, budget_bits=b),
                     [(1, 1), (2, 3), (3, 4), (5, 2)]),
    "census quad": (lambda n, m, b: C.enum_quadruple(1, n, m, budget_bits=b),
                    [(1, 1), (2, 3), (3, 4), (4, 2)]),
    "census sigma": (lambda m, k, b: C.enum_sigma(m, k, budget_bits=b),
                     [(0, 1), (1, 2), (2, 3), (0, 5)]),
    "census stacked": (lambda n, m, k, b: C.enum_stacked_gamma(n, m, k, budget_bits=b),
                       [(0, 0, 1), (1, 1, 2), (2, 1, 3), (3, 0, 2)]),
    "h_direct": (lambda s, k, b: expsum.h_direct(s, k, _series(s + k - 1), budget_bits=b),
                 [(1, 1), (3, 4), (4, 2)]),
    "g_direct": (lambda s, k, b: expsum.g_direct(s, k, _series(s + k - 1), budget_bits=b),
                 [(2, 2), (3, 4), (4, 3)]),
    "g2var_direct": (lambda m, k, b: expsum.g2var_direct(m, k, _series(k + m), _series(k),
                                                         budget_bits=b),
                     [(0, 1), (2, 3), (1, 4)]),
    "fmulti_direct": (lambda n, m, k, b: expsum.fmulti_direct(
                          m, k, _series(k + m), [_series(k)] * n, budget_bits=b),
                      [(0, 0, 1), (2, 1, 3), (1, 2, 2)]),
    "brute q=1": (lambda n, k, m, b: C.repcount_bruteforce(1, n, k, m, budget_bits=b),
                  [(0, 1, 0), (1, 3, 2), (2, 2, 1)]),
    "brute q=2": (lambda n, k, m, b: C.repcount_bruteforce(2, n, k, m, budget_bits=b),
                  [(0, 1, 0), (1, 3, 2), (2, 2, 1)]),
    "brute q=3": (lambda n, k, m, b: C.repcount_bruteforce(3, n, k, m, budget_bits=b),
                  [(0, 1, 0), (1, 3, 2), (2, 2, 1)]),
    "integral": (lambda n, k, m, b: C.repcount_integral(1, n, k, m, budget_bits=b),
                 [(0, 1, 0), (1, 3, 2), (2, 2, 1)]),
    "verify thm3.5": (_verify("thm3.5", "--s", "--k", "--q"),
                      [(2, 2, 1), (2, 3, 2), (3, 4, 1), (4, 4, 1)]),
    "verify lemmas5.x": (_verify("lemmas5.x", "--s", "--k"), [(2, 2), (2, 3), (3, 4), (4, 5)]),
    "verify cor3.10": (_verify("cor3.10", "--n"), [(2,), (5,), (20,)]),
}

# Each count is at most 2^c, but the whole-grid suites do a stated multiple of
# it: thm3.5 transforms three 2^c-point grids (g, g1, g2), and lemmas5.x ranks
# a quad census of 2^c windows and two gamma censuses of half that.
WORK_MULTIPLE = {"verify thm3.5": 3, "verify lemmas5.x": 2}


@pytest.mark.parametrize("path", CHARGED_PATHS)
def test_counted_work_stays_within_the_charge(monkeypatch, path):
    """Each loop primitive counts its work: the lanes of each lane word, the
    entries of each span, the length of each transform, and the Gaussian
    binomials that formulas.a_coeff_closed reads. At each shape of its grid, a
    path's charge c is the least budget_bits it runs at; below it nothing is
    counted, and at it each total count is at most WORK_MULTIPLE (1 unless
    stated) times 2^c."""
    counts = Counter()
    lane_words, span, wht = lanes._lane_words, lanes._span, lanes._wht
    gaussian_row = F._gaussian_row

    def counting_lane_words(depth, lo, hi):
        for word in lane_words(depth, lo, hi):
            counts["lanes"] += word[2].bit_length()  # full: one bit per lane
            yield word

    def counting_span(base, vectors):
        out = span(base, vectors)
        counts["span"] += len(out)
        return out

    def counting_wht(v):
        counts["wht"] += len(v)
        wht(v)

    def counting_gaussian_row(n, top):
        out = gaussian_row(n, top)
        counts["terms"] += len(out)  # one per Gaussian binomial a_coeff_closed reads
        return out

    for owner in (lanes, expsum):
        monkeypatch.setattr(owner, "_lane_words", counting_lane_words)
    monkeypatch.setattr(lanes, "_span", counting_span)
    monkeypatch.setattr(lanes, "_wht", counting_wht)
    monkeypatch.setattr(F, "_gaussian_row", counting_gaussian_row)
    run, shapes = CHARGED_PATHS[path]
    for shape in shapes:
        counts.clear()
        for charge in range(64):
            try:
                run(*shape, charge)
                break
            except BudgetExceeded:
                assert not counts, (path, shape, charge, counts)
        bound = WORK_MULTIPLE.get(path, 1) << charge
        assert counts and max(counts.values()) <= bound, (path, shape, charge, counts)
