import json
import os
import subprocess
import sys

import pytest

from posetcodes import cli
from posetcodes.cli import main
from posetcodes.linalg import DEFAULT_BUDGET
from conftest import DEMO


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

    def test_zero_code(self, capsys, tmp_path):
        empty = tmp_path / "zero.txt"
        empty.write_text("2 27 0\n")
        code, report = run_cli(capsys, "hierarchy", "--poset", WEAK, "--code", empty)
        assert code == 0
        assert report["hierarchy"] == []

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

    def test_invalid_partition_exits_2(self, capsys, tmp_path):
        part = tmp_path / "bad.json"
        part.write_text('{"chains": [[1, 2], [2, 3]]}')
        code = main(
            ["bound", "--poset", str(CHAIN3), "--q", "2", "--partition", str(part)]
        )
        assert code == 2


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

    def test_requires_code_or_batch(self, capsys):
        assert main(["verify"]) == 2

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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert err.count("\n") == 1

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
