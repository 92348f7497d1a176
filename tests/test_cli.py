import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetcodes import LengthMismatch, cli, load_code, load_poset, verify
from posetcodes.cli import main
from posetcodes.linalg import DEFAULT_BUDGET, gaussian_row
from conftest import DEMO, REPO_ROOT


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


WEAK = DEMO / "weak_order_9x3.json"
HAMMING = DEMO / "antichain_27.json"
CODE27 = DEMO / "code_27_3.txt"
CHAIN3 = DEMO / "chain_3.json"
RT_POSET = DEMO / "disjoint_chains_3x2.json"
RT_CODE = DEMO / "rt_code_3x2.txt"
EXPECT_OK = DEMO / "expected_weak_order.json"
# CPython's int->str digit limit; 0 where there is none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no int->str digit limit")
# the reports of the zero code (k = 0) under the weak order
ZERO_CODE_REPORTS = {
    "hierarchy": {
        "q": 2,
        "n": 27,
        "k": 0,
        "hierarchy": [],
        "support": [],
        "support_totally_ordered": True,
    },
    "chain": {"hierarchy": [], "chain_condition": True, "flag": [], "unique": True},
    "flag": {"flag": [], "weights": [], "flag_count": 1},
}


class TestHierarchy:
    def test_weak_order(self, capsys):
        code, report = run_cli(capsys, "hierarchy", "--poset", WEAK, "--code", CODE27)
        assert code == 0
        assert report["hierarchy"] == [7, 19, 25]
        assert report["support"] == [1, 4, 7, 11, 14, 17, 21, 24, 27]
        assert report["support_totally_ordered"] is True

    def test_antichain(self, capsys):
        code, report = run_cli(capsys, "hierarchy", "--poset", HAMMING, "--code", CODE27)
        assert code == 0
        assert report["hierarchy"] == [3, 6, 9]
        assert report["support_totally_ordered"] is False

    @pytest.mark.parametrize("budget", ((), ("--budget", "0")), ids=("default", "budget0"))
    @pytest.mark.parametrize("command", ZERO_CODE_REPORTS)
    def test_zero_code(self, capsys, tmp_path, command, budget):
        # k = 0 has no nonzero subcode to enumerate, so even --budget 0 holds
        empty = tmp_path / "zero.txt"
        empty.write_text("2 27 0\n")
        code, report = run_cli(capsys, command, "--poset", WEAK, "--code", empty, *budget)
        assert code == 0
        assert report == ZERO_CODE_REPORTS[command]

    def test_byte_stable_output(self, capsys):
        main(["hierarchy", "--poset", str(WEAK), "--code", str(CODE27)])
        first = capsys.readouterr().out
        main(["hierarchy", "--poset", str(WEAK), "--code", str(CODE27)])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            ["hierarchy", "--poset", str(WEAK), "--code", str(CODE27), "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["hierarchy"] == [7, 19, 25]

    def test_rt_auto_flatten_is_column_major(self, capsys):
        code, report = run_cli(capsys, "hierarchy", "--poset", RT_POSET, "--code", RT_CODE)
        assert code == 0
        assert report["hierarchy"] == [5]

    def test_public_loaders_build_the_cli_code(self):
        def cli_code(poset, code):
            return cli._load_instance(SimpleNamespace(poset=poset, code=code, flatten="auto"))

        assert load_code(CODE27, load_poset(WEAK)) == cli_code(WEAK, CODE27)
        rt = load_code(RT_CODE, load_poset(RT_POSET), "col", (3, 2))
        assert rt == cli_code(RT_POSET, RT_CODE)
        # read column-major, the 3x2 block lands one column per chain
        assert rt.subspace.basis == ((0, 1, 0, 0, 0, 1),)
        assert load_code(RT_CODE, load_poset(RT_POSET)).subspace.basis == ((0, 0, 1, 0, 0, 1),)
        with pytest.raises(LengthMismatch, match="code length 27 does not match poset size 3"):
            load_code(CODE27, load_poset(CHAIN3))


class TestChainAndFlag:
    def test_chain_satisfied_with_unique_flag(self, capsys):
        code, report = run_cli(capsys, "chain", "--poset", WEAK, "--code", CODE27)
        assert code == 0
        assert report["chain_condition"] is True
        assert report["unique"] is True
        assert report["hierarchy"] == [7, 19, 25]
        assert len(report["flag"]) == 3
        assert [len(d) for d in report["flag"]] == [1, 2, 3]

    def test_chain_fails_under_hamming(self, capsys):
        code, report = run_cli(capsys, "chain", "--poset", HAMMING, "--code", CODE27)
        assert code == 1
        assert report["chain_condition"] is False
        assert report["flag"] is None

    def test_k1_code(self, capsys, tmp_path):
        one = tmp_path / "one.txt"
        one.write_text("2 3 1\n1 1 0\n")
        poset = tmp_path / "p.json"
        poset.write_text('{"antichain": 3}')
        code, report = run_cli(capsys, "chain", "--poset", poset, "--code", one)
        assert code == 0
        assert report["unique"] is True

    def test_flag_command(self, capsys):
        code, report = run_cli(capsys, "flag", "--poset", WEAK, "--code", CODE27)
        assert code == 0
        assert report["weights"] == [7, 19, 25]
        assert report["flag_count"] == 1

    def test_flag_command_without_flag(self, capsys):
        code, report = run_cli(capsys, "flag", "--poset", HAMMING, "--code", CODE27)
        assert code == 1
        assert report["flag"] is None
        assert report["flag_count"] == 0


class TestBoundAndCensus:
    def test_bound_chain3(self, capsys):
        code, report = run_cli(capsys, "bound", "--poset", CHAIN3, "--q", "2")
        assert code == 0
        assert report["bound"] == "15"
        assert report["addends"] == [["7", "7", "1"]]

    def test_bound_weak_order_3_3(self, capsys, tmp_path):
        poset = tmp_path / "w33.json"
        poset.write_text('{"weak_order": [3, 3]}')
        code, report = run_cli(capsys, "bound", "--poset", poset, "--q", "2")
        assert code == 0
        assert report["bound"] == "12"

    def test_bound_with_partition_file(self, capsys, tmp_path):
        part = tmp_path / "part.json"
        part.write_text('{"chains": [[1, 2, 3]]}')
        code, report = run_cli(
            capsys, "bound", "--poset", CHAIN3, "--q", "2", "--partition", part
        )
        assert code == 0
        assert report["bound"] == "15"

    def test_bound_renders_every_addend(self, capsys, tmp_path):
        # chains of sizes 5, 2, 5 and 1 share rows and repeat values
        covers = [[1, 2], [2, 3], [3, 4], [4, 5], [6, 7]]
        covers += [[8, 9], [9, 10], [10, 11], [11, 12]]
        poset = tmp_path / "mixed.json"
        poset.write_text(json.dumps({"n": 13, "covers": covers}))
        code, report = run_cli(capsys, "bound", "--poset", poset, "--q", "9")
        assert code == 0
        assert report["nu"] == [5, 2, 5, 1]
        rows = [gaussian_row(s, 9)[1:] for s in report["nu"]]
        assert report["addends"] == [[str(x) for x in row] for row in rows]
        assert report["bound"] == str(sum(map(sum, rows)))

    def test_census_chain3_tight(self, capsys):
        code, report = run_cli(capsys, "census", "--poset", CHAIN3, "--q", "2")
        assert code == 0
        assert report["chain_condition_total"] == "15"
        assert report["bound"] == "15"
        assert report["tight"] is True
        assert report["census_ge_bound"] is True

    def test_census_respects_max_dim(self, capsys):
        code, report = run_cli(
            capsys, "census", "--poset", CHAIN3, "--q", "2", "--max-dim", "1"
        )
        assert code == 0
        assert report["chain_condition_total"] == "7"
        assert "bound" not in report

    def test_bound_rejects_a_non_prime_power_like_census(self, capsys):
        assert main(["census", "--poset", str(CHAIN3), "--q", "6"]) == 2
        census_err = capsys.readouterr().err
        assert main(["bound", "--poset", str(CHAIN3), "--q", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == census_err == "error: 6 is not a prime power\n"

    def test_bound_on_a_zigzag_past_the_recursion_limit(self, capsys, tmp_path):
        # a_i < b_i and a_i < b_(i-1): the matcher's augmenting paths grow to
        # length m, beyond the default recursion limit of 1000
        m = 1100
        covers = [[i, m + i] for i in range(1, m + 1)] + [[i, m + i - 1] for i in range(2, m + 1)]
        poset = tmp_path / "zigzag.json"
        poset.write_text(json.dumps({"n": 2 * m, "covers": covers}))
        code, report = run_cli(capsys, "bound", "--poset", poset, "--q", "3")
        assert code == 0
        assert len(report["chains"]) == m
        assert report["nu"] == [2] * m
        assert report["bound"] == str(m * (4 + 1))

    @pytest.mark.parametrize(
        "text, message",
        (
            ('{"chains": [[1, 2], [2, 3]]}', "partition element 2 repeated"),
            ('{"chains": [1, 2]}', '"chains" must be a list of element lists'),
        ),
    )
    def test_invalid_partition_exits_2(self, capsys, tmp_path, text, message):
        part = tmp_path / "bad.json"
        part.write_text(text)
        code = main(
            ["bound", "--poset", str(CHAIN3), "--q", "2", "--partition", str(part)]
        )
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestVerify:
    def test_batch_passes(self, capsys):
        code, report = run_cli(
            capsys, "verify", "--seed", "7", "--batch", "200", "--q", "2", "--max-n", "8"
        )
        assert code == 0
        assert report["ok"] is True

    def test_instance_mode(self, capsys):
        code, report = run_cli(
            capsys, "verify", "--poset", WEAK, "--code", CODE27, "--expect", EXPECT_OK
        )
        assert code == 0
        assert report["ok"] is True

    def test_corrupted_expectation_exits_4(self, capsys, tmp_path):
        bad = tmp_path / "expect.json"
        bad.write_text('{"hierarchy": [7, 19, 26]}')
        code, report = run_cli(
            capsys, "verify", "--poset", WEAK, "--code", CODE27, "--expect", bad
        )
        assert code == 4
        assert report["ok"] is False
        failed = [c for c in report["checks"] if not c["ok"]]
        assert failed and failed[0]["name"] == "expected_hierarchy"

    @pytest.mark.parametrize(
        "argv, message",
        (
            ([], "either --code (instance mode) or --batch (batch mode) is required"),
            (["--expect", EXPECT_OK], "--expect requires --code"),
            (["--code", CODE27], "instance mode requires both --poset and --code"),
        ),
        ids=("neither", "expect-alone", "code-alone"),
    )
    def test_requires_code_or_batch(self, capsys, argv, message):
        assert main(["verify", *map(str, argv)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        (
            ["verify", "--batch", "-2"],
            ["verify", "--batch", "3", "--max-n", "0"],
            ["verify", "--batch", "3", "--budget", "-1"],
            ["hierarchy", "--poset", WEAK, "--code", CODE27, "--budget", "-1"],
        ),
        ids=("batch", "max-n", "budget", "budget-hierarchy"),
    )
    def test_out_of_range_count_exits_2(self, capsys, argv):
        assert main([str(a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --") and err.count("\n") == 1

    @pytest.mark.parametrize("q", (0, 1))
    def test_batch_field_order_below_2_exits_2(self, capsys, q):
        # 0 is an order like any other, not a request for the default orders
        assert main(["verify", "--batch", "1", "--q", str(q)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: field order must be at least 2, got {q}\n"

    @pytest.mark.parametrize(
        "max_n, budget, refused",
        (
            (100000, DEFAULT_BUDGET, True),
            (5794, DEFAULT_BUDGET, True),
            (5793, DEFAULT_BUDGET, False),
            (8, 27, True),
            (8, 28, False),
        ),
    )
    def test_batch_max_n_past_the_budget_exits_3_before_drawing(
        self, capsys, monkeypatch, max_n, budget, refused
    ):
        # max_n (max_n - 1) / 2 cover draws against the budget; a rejected
        # run never reaches the first draw
        drawn = []

        def first_draw(*args):
            drawn.append(args)
            raise ZeroDivisionError

        monkeypatch.setattr(verify, "random_poset", first_draw)
        argv = ["verify", "--batch", "1", "--max-n", str(max_n), "--budget", str(budget)]
        start = time.perf_counter()
        if refused:
            assert main(argv) == 3
            assert time.perf_counter() - start < 1
            out, err = capsys.readouterr()
            pairs = max_n * (max_n - 1) // 2
            assert out == "" and drawn == []
            assert err == (
                f"error: {pairs} cover draws of a random poset on {max_n} elements"
                f" exceed the budget {budget}\n"
            )
        else:
            with pytest.raises(ZeroDivisionError):
                main(argv)
            assert len(drawn) == 1

    @pytest.mark.parametrize(
        "text",
        (
            '{"hierarchy": 5}',
            '{"support": 3}',
            '{"hierarchy": [7, true, 25]}',
            '{"support": [1.5]}',
            '{"chain_condition": 1}',
            '{"unique": "yes"}',
            '{"colour": 1}',
            "[1, 2]",
            '"x"',
        ),
    )
    def test_malformed_expectation_exits_2(self, capsys, tmp_path, text):
        bad = tmp_path / "expect.json"
        bad.write_text(text)
        argv = ["verify", "--poset", WEAK, "--code", CODE27, "--expect", bad]
        assert main([str(a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


class TestErrorPaths:
    def test_missing_file_exits_2(self):
        assert main(["hierarchy", "--poset", "/nonexistent.json", "--code", str(CODE27)]) == 2

    def test_malformed_poset_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"chain": 3, "antichain": 3}')
        assert main(["hierarchy", "--poset", str(bad), "--code", str(CODE27)]) == 2

    def test_column_major_reading_needs_disjoint_chains(self, capsys):
        argv = ["hierarchy", "--poset", WEAK, "--code", CODE27, "--flatten", "col"]
        assert main(list(map(str, argv))) == 2
        message = "column-major flattening requires the chain shape (length, count)"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_short_generator_line_exits_2(self, capsys, tmp_path):
        poset, code = tmp_path / "p.json", tmp_path / "c.txt"
        poset.write_text('{"disjoint_chains": {"length": 2, "count": 2}}')
        code.write_text("2 4 1\n1 0\n1\n")
        assert main(["hierarchy", "--poset", str(poset), "--code", str(code)]) == 2
        message = "generator 1: every line must have 2 entries"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_length_mismatch_exits_2(self, tmp_path):
        poset = tmp_path / "p.json"
        poset.write_text('{"chain": 5}')
        assert main(["hierarchy", "--poset", str(poset), "--code", str(CODE27)]) == 2

    @pytest.mark.parametrize("kind", ("poset", "code", "partition", "expect"))
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(b'{"chain": 3}\xff\n')
        argv = {
            "poset": ["hierarchy", "--poset", bad, "--code", CODE27],
            "code": ["hierarchy", "--poset", WEAK, "--code", bad],
            "partition": ["bound", "--poset", CHAIN3, "--partition", bad],
            "expect": ["verify", "--poset", WEAK, "--code", CODE27, "--expect", bad],
        }[kind]
        assert main([str(a) for a in argv]) == 2
        # one message, whichever reader met the file
        expected = f"error: {bad}: not UTF-8 text: invalid start byte at byte 12\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("kind", ("poset", "partition", "expect"))
    @pytest.mark.parametrize(
        "text, reason",
        [
            pytest.param(
                '{"chain": ' + "9" * (DIGIT_LIMIT + 1) + "}",
                "an integer literal has too many digits to read",
                marks=needs_digit_limit,
            ),
            ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply to read"),
        ],
        ids=["huge-integer", "deep-nesting"],
    )
    def test_unreadable_json_exits_2(self, capsys, tmp_path, kind, text, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = {
            "poset": ["bound", "--poset", bad],
            "partition": ["bound", "--poset", CHAIN3, "--partition", bad],
            "expect": ["verify", "--poset", WEAK, "--code", CODE27, "--expect", bad],
        }[kind]
        assert main([str(a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {bad}: {reason}\n"

    @pytest.mark.parametrize(
        "text, reason",
        [
            pytest.param(
                "2 3 1\n1 0 " + "1" * (DIGIT_LIMIT + 1),
                ":2: entry too long to be a canonical GF(2) representative",
                marks=needs_digit_limit,
            ),
            pytest.param(
                "2 3 " + "1" * (DIGIT_LIMIT + 1) + "\n1 0 1",
                ": header 'q n k' holds an over-long integer",
                marks=needs_digit_limit,
            ),
            ("2 3 1\n1 0 x", ":2: non-integer token"),
            ("2 3 1\n1 0 +-1", ":2: non-integer token"),
        ],
        ids=["long-entry", "long-header", "word", "two-signs"],
    )
    def test_unreadable_generator_token_exits_2(self, capsys, tmp_path, text, reason):
        code = tmp_path / "code.txt"
        code.write_text(text + "\n")
        assert main(["hierarchy", "--poset", str(CHAIN3), "--code", str(code)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {code}{reason}\n"

    def test_boolean_block_size_exits_2(self, tmp_path):
        poset = tmp_path / "p.json"
        poset.write_text('{"weak_order": [true, 2]}')
        assert main(["bound", "--poset", str(poset)]) == 2

    def test_budget_exits_3(self):
        assert (
            main(
                [
                    "hierarchy",
                    "--poset",
                    str(WEAK),
                    "--code",
                    str(CODE27),
                    "--budget",
                    "2",
                ]
            )
            == 3
        )


@pytest.mark.parametrize("command", ("census", "hierarchy"))
def test_budget_errors_name_counts_past_the_digit_limit(capsys, tmp_path, command):
    # 250 points give more than 2^(125^2) subspaces: over 4,700 digits
    n = 250
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"antichain": n}))
    code = tmp_path / "code.txt"
    rows = [" ".join("1" if j == i else "0" for j in range(n)) for i in range(n)]
    code.write_text("\n".join([f"2 {n} {n}", *rows]) + "\n")
    # census stops at the first partial count past the budget and names the
    # budget alone: [1500 1]_2 has 452 digits, the full count over 169,000
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"antichain": 1500}))
    argv = {
        "census": ["census", "--poset", wide, "--q", "2", "--budget", "2000"],
        "hierarchy": ["hierarchy", "--poset", poset, "--code", code],
    }[command]
    start = time.perf_counter()
    assert main([str(a) for a in argv]) == 3
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if command == "census":
        assert err == "error: census over more than 2000 subspaces exceeds the budget 2000\n"
        assert elapsed < 1.0
    else:
        assert max(map(len, err.split())) > 4300


@pytest.mark.parametrize("poset", ('{"chain": 20000}', '{"antichain": 20000}'))
@pytest.mark.parametrize("command", ("hierarchy", "chain", "flag", "verify"))
def test_size_mismatch_is_found_before_the_order_masks(capsys, tmp_path, poset, command):
    # 20,000 elements would take about 2 * 20000^2 bits of masks
    path = tmp_path / "poset.json"
    path.write_text(poset)
    tracemalloc.start()
    try:
        status = main([command, "--poset", str(path), "--code", str(CODE27)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert status == 2
    assert err.count("\n") == 1
    assert err.endswith("code length 27 does not match poset size 20000\n")
    assert peak < 5_000_000


@pytest.mark.parametrize("poset", ('{"chain": 20000}', '{"antichain": 20000}'))
def test_census_budget_is_checked_before_the_order_masks(capsys, tmp_path, poset):
    # [20000 1]_2 alone is past the default budget
    path = tmp_path / "poset.json"
    path.write_text(poset)
    tracemalloc.start()
    try:
        status = main(["census", "--poset", str(path), "--q", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert status == 3
    assert err == f"error: census over more than {2**24} subspaces exceeds the budget {2**24}\n"
    assert peak < 5_000_000


def test_census_budget_needs_no_first_subspace_count(capsys, tmp_path):
    # [n 1]_q >= 2^(n-1) is past the budget, so q^n, with n bits or more,
    # is never computed; [n 1]_2 alone takes seconds to compute at this size
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"chain": 10**9}))
    start = time.perf_counter()
    assert main(["census", "--poset", str(path), "--q", "2"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: census over more than {2**24} subspaces exceeds the budget {2**24}\n"
    # the field is still checked first
    assert main(["census", "--poset", str(path), "--q", "6"]) == 2
    assert capsys.readouterr().err == "error: 6 is not a prime power\n"


def test_census_reports_the_budget_before_a_cover_error(capsys, tmp_path):
    path = tmp_path / "poset.json"
    path.write_text('{"n": 2000, "covers": [[1, 2], [2, 1]]}')
    assert main(["census", "--poset", str(path), "--q", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: census over more than")
    # within the budget, the cycle is named as before
    assert main(["census", "--poset", str(path), "--q", "2", "--max-dim", "0"]) == 2
    assert "cycle" in capsys.readouterr().err


def test_census_max_dim_0_refuses_a_size_past_the_budget_before_the_order_masks(
    capsys, tmp_path
):
    # --max-dim 0 passes the subspace counts at any size; 20,000 elements
    # have 199,990,000 pairs, and their order masks would take about 100 MB
    path = tmp_path / "poset.json"
    path.write_text('{"chain": 20000}')
    tracemalloc.start()
    try:
        start = time.perf_counter()
        status = main(["census", "--poset", str(path), "--q", "2", "--max-dim", "0"])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 3
    err = capsys.readouterr().err
    assert err == f"error: 199990000 pairs of a poset on 20000 elements exceed the budget {2**24}\n"
    assert elapsed < 1
    assert peak < 5_000_000
    # the same n (n - 1) / 2 rule as bound: 15 pairs for six elements
    argv = ["census", "--poset", str(RT_POSET), "--q", "4", "--max-dim", "0"]
    assert main([*argv, "--budget", "15"]) == 0
    capsys.readouterr()
    assert main([*argv, "--budget", "14"]) == 3
    assert capsys.readouterr().err == "error: 15 pairs of a poset on 6 elements exceed the budget 14\n"


# declared sizes past CPython's int->str digit limit: 3,000 nines times
# 3,000 nines, and two blocks of 4,300 nines, whose sum has 4,301 digits
HUGE_POSETS = {
    "product": '{"disjoint_chains": {"length": %s, "count": %s}}' % ("9" * 3000, "9" * 3000),
    "sum": '{"weak_order": [%s, %s]}' % ("9" * 4300, "9" * 4300),
}


@needs_digit_limit
@pytest.mark.parametrize("poset", sorted(HUGE_POSETS))
@pytest.mark.parametrize(
    "command, status",
    (
        ("bound", 3),
        ("census --max-dim 0", 3),
        ("census --max-dim -1", 2),
        ("census", 3),
        ("hierarchy", 2),
        ("chain", 2),
        ("flag", 2),
        ("verify", 2),
    ),
)
def test_sizes_past_the_digit_limit_end_in_one_line(capsys, tmp_path, poset, command, status):
    path = tmp_path / "poset.json"
    path.write_text(HUGE_POSETS[poset])
    argv = [*command.split(), "--poset", str(path)]
    if argv[0] not in ("bound", "census"):
        argv += ["--code", str(CODE27)]
    assert main(argv) == status
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert max(map(len, err.split())) > 4300 or "census over more than" in err


# descriptions that declare a size but cannot be built, each with its message
INVALID_POSETS = {
    '{"weak_order": [-2, 8]}': "block sizes must be positive, got (-2, 8)",
    '{"disjoint_chains": {"length": -3, "count": -2}}': (
        "chain length and count must be positive, got (-3, -2)"
    ),
    '{"chain": -4}': "chain length and count must be positive, got (-4, 1)",
    '{"antichain": -4}': "ground set size must be positive, got -4",
    '{"n": 3, "covers": [[1, 2], [1, 5]]}': "cover pair (1, 5) outside 1..3",
    '{"n": 2, "covers": [[1]]}': '"covers" must be a list of [a, b] pairs',
}


@pytest.mark.parametrize("budget", ([], ["--budget", "14"]))
@pytest.mark.parametrize("command", ("bound", "census", "census --max-dim 0", "hierarchy"))
@pytest.mark.parametrize("poset", INVALID_POSETS)
def test_invalid_descriptions_exit_2_under_any_budget(capsys, tmp_path, poset, command, budget):
    # the size such a description declares is never checked against the
    # budget or the code length: the description is refused first
    path = tmp_path / "poset.json"
    path.write_text(poset)
    argv = [*command.split(), "--poset", str(path), *budget]
    if argv[0] == "hierarchy":
        argv += ["--code", str(CODE27)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {INVALID_POSETS[poset]}\n"


def test_bound_refuses_a_size_past_the_budget_before_the_order_masks(capsys, tmp_path):
    # 8,000 elements have 31,996,000 pairs, past the default budget; their
    # order masks alone would take about 16 MB
    path = tmp_path / "poset.json"
    path.write_text('{"weak_order": [4000, 4000]}')
    tracemalloc.start()
    try:
        status = main(["bound", "--poset", str(path), "--q", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 3
    err = capsys.readouterr().err
    assert err == f"error: 31996000 pairs of a poset on 8000 elements exceed the budget {2**24}\n"
    assert peak < 5_000_000
    # the budget counts the n (n - 1) / 2 pairs: 15 for six elements
    assert main(["bound", "--poset", str(RT_POSET), "--q", "4", "--budget", "15"]) == 0
    assert main(["bound", "--poset", str(RT_POSET), "--q", "4", "--budget", "14"]) == 3
    assert capsys.readouterr().err == "error: 15 pairs of a poset on 6 elements exceed the budget 14\n"


def test_console_entry_point_via_module():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "posetcodes",
            "hierarchy",
            "--poset",
            str(WEAK),
            "--code",
            str(CODE27),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hierarchy"] == [7, 19, 25]


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["chain", "--poset", HAMMING, "--code", CODE27], 1),
        (["verify", "--seed", "7", "--batch", "200", "--q", "2", "--max-n", "8"], 0),
    ],
    ids=["chain", "verify-batch"],
)
def test_closed_stdout_keeps_the_exit_code(argv, exit_code):
    # As in `... | head -1` when head has already exited: every write to
    # stdout fails with EPIPE.  The result stands, so the exit code is the
    # command's own, and nothing is reported on stderr.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "posetcodes", *map(str, argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == exit_code
    assert proc.stderr == ""


class TestRepeatedCalls:
    """One parser serves every ``main`` call of a process; no call may see
    the options of an earlier one."""

    ARGV = ["hierarchy", "--poset", str(WEAK), "--code", str(CODE27)]

    def test_out_file_then_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        assert main(self.ARGV + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == target.read_text()

    def test_budget_returns_to_its_default(self, capsys):
        assert main(self.ARGV + ["--budget", "1"]) == 3
        capsys.readouterr()
        assert main(self.ARGV) == 0
        assert cli._parser().parse_args(self.ARGV).budget == DEFAULT_BUDGET

    def test_parse_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hierarchy", "--poset", str(WEAK)])
        assert exc.value.code == 2
        capsys.readouterr()
        code, report = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert report["hierarchy"] == [7, 19, 25]

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        for argv in (self.ARGV, ["bound", "--poset", str(CHAIN3)], self.ARGV):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_parser_not_built_at_import(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import posetcodes.cli as cli; print(cli._parser.cache_info().currsize)",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # the value records are named tuples: start-up loads neither module, nor
    # the ast, dis and tokenize modules that inspect pulls in; decimal is
    # loaded only to render the numbers of an error
    probe = (
        "import sys, posetcodes.cli; "
        "print(sorted({'dataclasses', 'inspect', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- seeded fuzzing of the input files ------------------------------------------------
#
# Each case mutates one demo file: its bytes, a JSON value or key, the code's
# header line, or its size (lines dropped or repeated).  Every command must
# end in a documented exit code with a one-line error, never a traceback.
# Sizes stay below a few hundred elements, and every command runs under a
# small budget, so the cases stay fast.

FUZZ_VALUES = (
    0, -1, 1, 2, 3, 4, 26, 27, 28, 300, 2.5, "3", "", None, True, False,
    [], {}, [1, 2], [[1, 2]], [[2, 1]], [3, 3, 3], {"length": 3, "count": 2},
)
FUZZ_BYTES = (b"-", b"0", b"9", b"1", b" ", b"\n", b"\xff", b"[", b"]", b"{", b"}", b",", b'"', b"e")
FUZZ_FIELDS = ("0", "1", "2", "3", "4", "6", "9", "16", "-2", "x", "2.0", "27", "28", "300")
FUZZ_POSETS = ("weak_order_9x3.json", "antichain_27.json", "chain_3.json", "disjoint_chains_3x2.json")
FUZZ_CODES = ("code_27_3.txt", "rt_code_3x2.txt")


def _mutate_bytes(rng, data):
    data = bytearray(data)
    i = rng.randrange(len(data) + 1)
    kind = rng.randrange(4)
    if kind == 0 and i < len(data):
        data[i] = rng.randrange(256)
    elif kind == 1:
        del data[i : i + rng.randint(1, 6)]
    elif kind == 2:
        data[i:i] = rng.choice(FUZZ_BYTES)
    else:
        del data[i:]
    return bytes(data)


def _mutate_json(rng, value):
    """Replace one value or key somewhere inside a parsed JSON document."""
    if isinstance(value, list) and value and rng.random() < 0.8:
        value = list(value)
        i = rng.randrange(len(value))
        value[i] = _mutate_json(rng, value[i])
        return value
    if isinstance(value, dict) and value and rng.random() < 0.8:
        value = dict(value)
        key = rng.choice(sorted(value))
        if rng.random() < 0.2:
            value[rng.choice(("n", "chain", "covers", "hierarchy", "extra"))] = value.pop(key)
        else:
            value[key] = _mutate_json(rng, value[key])
        return value
    return rng.choice(FUZZ_VALUES)


def _mutate_code(rng, text):
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    kind = rng.randrange(3)
    if kind == 0:  # header: q, n or k
        fields = lines[header].split()
        fields[rng.randrange(len(fields))] = rng.choice(FUZZ_FIELDS)
        lines[header] = " ".join(fields) + "\n"
    elif kind == 1:  # size: drop or repeat body lines
        i = rng.randrange(header + 1, len(lines))
        if rng.random() < 0.5:
            del lines[i : i + rng.randint(1, 3)]
        else:
            lines[i:i] = lines[i : i + rng.randint(1, 3)]
    else:
        return _mutate_bytes(rng, text.encode())
    return "".join(lines).encode()


def _fuzz_case(rng, tmp_path):
    """Write a mutated poset, code and expect file; return their paths."""
    poset = json.loads((DEMO / rng.choice(FUZZ_POSETS)).read_text())
    code = (DEMO / rng.choice(FUZZ_CODES)).read_text()
    expect = json.loads(EXPECT_OK.read_text())
    files = {
        "poset": json.dumps(poset).encode(),
        "code": code.encode(),
        "expect": json.dumps(expect).encode(),
    }
    target = rng.choice(sorted(files))
    if target == "code":
        files["code"] = _mutate_code(rng, code)
    elif rng.random() < 0.3:
        files[target] = _mutate_bytes(rng, files[target])
    else:
        document = poset if target == "poset" else expect
        files[target] = json.dumps(_mutate_json(rng, document)).encode()
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.fuzz"
        paths[name].write_bytes(data)
    return paths


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_inputs_end_in_a_documented_exit_code(capsys, tmp_path, seed):
    rng = random.Random(f"fuzz:{seed}")
    budget = ["--budget", "2000"]
    for case in range(25):
        paths = _fuzz_case(rng, tmp_path)
        instance = ["--poset", paths["poset"], "--code", paths["code"], *budget]
        commands = (
            ["hierarchy", *instance],
            ["chain", *instance],
            ["flag", *instance],
            ["census", "--poset", paths["poset"], "--q", rng.choice("234"), *budget],
            ["bound", "--poset", paths["poset"], "--q", "2", *budget],
            ["verify", *instance, "--expect", paths["expect"]],
        )
        for argv in commands:
            where = f"seed {seed} case {case}: {' '.join(map(str, argv))}"
            status = main([str(a) for a in argv])
            err = capsys.readouterr().err
            assert "Traceback" not in err, where
            if status == 4:
                # a wrong expectation fails its checks, one report per check
                assert argv[0] == "verify" and err.startswith("FAILED "), where
                continue
            assert status in (0, 1, 2, 3), where
            assert err.count("\n") == (status in (2, 3)), where
            assert not err or err.startswith("error: "), where


@pytest.mark.xfail(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0,
    reason="ROADMAP item 3: bound dies on CPython's int->str digit limit",
    raises=ValueError,
    strict=True,
)
def test_bound_on_a_long_chain_renders_every_digit(capsys, tmp_path):
    poset = tmp_path / "chain.json"
    poset.write_text('{"chain": 240}')
    assert main(["bound", "--poset", str(poset), "--q", "2"]) == 0
    assert capsys.readouterr().err == ""


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def test_a_terminal_stderr_gets_the_summary(capsys, monkeypatch):
    argv = {
        "hierarchy": ["hierarchy", "--poset", str(WEAK), "--code", str(CODE27)],
        "census": ["census", "--poset", str(CHAIN3), "--q", "2"],
    }
    plain = {}
    for name, args in argv.items():
        assert main(args) == 0
        plain[name] = capsys.readouterr()
        assert plain[name].err == ""
    terminal = _Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    for name, args in argv.items():
        assert main(args) == 0
        # the JSON on stdout does not change
        assert capsys.readouterr().out == plain[name].out
    lines = terminal.getvalue().splitlines()
    assert "hierarchy: [7, 19, 25]" in lines
    assert "per_dim: [3 entries]" in lines
    assert "census_ge_bound: True" in lines
    # nested objects are flattened into dotted keys
    terminal = _Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    report = {"top": {"inner": {"leaf": 1}}, "rows": []}
    cli._emit(report, SimpleNamespace(out=None))
    assert json.loads(capsys.readouterr().out) == report
    assert terminal.getvalue().splitlines() == ["top.inner.leaf: 1", "rows: []"]


# -- the report writer ---------------------------------------------------------------

_STRINGS = st.text(max_size=6) | st.sampled_from(
    ('"', "\\", "\n", "\t", "\x00\x1f\x7f", "é", "\u2028", "\U0001f600", "")
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(0, 4000).flatmap(lambda d: st.integers(-(10**d), 10**d))
    | _STRINGS
)
_NESTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_NESTS)
def test_render_is_json_dumps_with_indent_2(value):
    assert cli._render(value) == json.dumps(value, indent=2)


def test_every_report_shape_is_json_dumps_with_indent_2(capsys, monkeypatch, tmp_path):
    reports = []
    emit = cli._emit

    def recorded(report, args):
        reports.append(report)
        emit(report, args)

    monkeypatch.setattr(cli, "_emit", recorded)
    zero = tmp_path / "zero.txt"
    zero.write_text("2 27 0\n")
    runs = (
        ["hierarchy", "--poset", WEAK, "--code", CODE27],
        ["hierarchy", "--poset", WEAK, "--code", zero],
        ["chain", "--poset", WEAK, "--code", CODE27],
        ["chain", "--poset", HAMMING, "--code", CODE27],
        ["flag", "--poset", WEAK, "--code", CODE27],
        ["flag", "--poset", HAMMING, "--code", CODE27],
        ["bound", "--poset", RT_POSET, "--q", "4"],
        ["census", "--poset", CHAIN3, "--q", "2"],
        ["census", "--poset", CHAIN3, "--q", "2", "--max-dim", "1"],
        ["verify", "--poset", WEAK, "--code", CODE27, "--expect", EXPECT_OK],
        ["verify", "--seed", "7", "--batch", "20", "--q", "2", "--max-n", "5"],
    )
    for argv in runs:
        assert main([str(a) for a in argv]) in (0, 1)
        out = capsys.readouterr().out
        report = reports[-1]
        assert out == cli._render(report) + "\n" == json.dumps(report, indent=2) + "\n", argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
    assert len(reports) == len(runs)
    assert [r["flag"] for r in reports if "weights" in r][1] is None
