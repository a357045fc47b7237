"""Command-line behavior: outputs, formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orbichrom import cli
from orbichrom.chroma import chromatic_polynomial, orbital_full_closed, orbital_rotation_closed
from orbichrom.cli import EXIT_BROKEN_PIPE, format_poly, main
from orbichrom.multigraph import cycle_graph, graph_to_text
from orbichrom.rationalpoly import ZERO, RationalPoly, poly_from_json_dict


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(graph_to_text(cycle_graph(4)), encoding="utf-8")
    return str(path)


class TestFormatPoly:
    def test_descending_powers_with_unicode_variable(self):
        p = RationalPoly([0, -3, 6, -4, 1])
        assert format_poly(p) == "λ^4 - 4λ^3 + 6λ^2 - 3λ"

    def test_ascii_fallback(self):
        p = RationalPoly([2, -1, 1])
        assert format_poly(p, ascii_only=True) == "x^2 - x + 2"

    def test_common_denominator_prefix(self):
        p = orbital_rotation_closed(3)
        assert format_poly(p, ascii_only=True) == "(1/3)(x^3 - 3x^2 + 2x)"

    def test_zero(self):
        assert format_poly(ZERO) == "0"

    def test_negative_leading_term(self):
        assert format_poly(RationalPoly([1, -1]), ascii_only=True) == "-x + 1"


class TestChromaticCommand:
    def test_text_output(self, square_file, capsys):
        code, out, _ = run(["chromatic", square_file, "--ascii"], capsys)
        assert code == 0
        assert out.strip() == "x^4 - 4x^3 + 6x^2 - 3x"

    def test_json_output_round_trips(self, square_file, capsys):
        code, out, _ = run(["chromatic", square_file, "--format", "json"], capsys)
        assert code == 0
        assert poly_from_json_dict(json.loads(out)) == chromatic_polynomial(cycle_graph(4))

    def test_loop_graph_prints_zero(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text('{"vertices": 1, "edges": [[0, 0]]}', encoding="utf-8")
        code, out, _ = run(["chromatic", str(path)], capsys)
        assert code == 0
        assert out.strip() == "0"

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("definitely not a graph", encoding="utf-8")
        code, _, err = run(["chromatic", str(path)], capsys)
        assert code == 3
        assert "error" in err

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run(["chromatic", "/nonexistent/graph.json"], capsys)
        assert code == 3
        assert err


class TestOrbitalCommand:
    def test_closed_text(self, capsys):
        code, out, _ = run(["orbital", "3", "--group", "rotation", "--ascii"], capsys)
        assert code == 0
        assert out.strip() == "(1/3)(x^3 - 3x^2 + 2x)"

    def test_definition_equals_closed(self, capsys):
        _, closed_out, _ = run(["orbital", "7", "--group", "full", "--format", "json"], capsys)
        _, defn_out, _ = run(
            ["orbital", "7", "--group", "full", "--method", "definition", "--format", "json"],
            capsys,
        )
        assert json.loads(closed_out) == json.loads(defn_out)

    def test_oracle_count(self, capsys):
        code, out, _ = run(["orbital", "3", "--method", "oracle", "--lam", "3"], capsys)
        assert code == 0
        assert out.strip() == "2"

    def test_oracle_enumerates_only_proper_colorings(self, capsys):
        # 3^16 = 43 million maps, but only 65,538 proper colorings of C_16
        start = time.perf_counter()
        code, out, _ = run(
            ["orbital", "16", "--method", "oracle", "--group", "rotation", "--lam", "3"], capsys
        )
        assert code == 0
        assert out.strip() == "4116"
        assert time.perf_counter() - start < 5.0

    def test_oracle_requires_lambda(self, capsys):
        code, _, err = run(["orbital", "3", "--method", "oracle"], capsys)
        assert code == 2
        assert "--lam" in err

    def test_polynomial_with_lambda_also_evaluates(self, capsys):
        code, out, _ = run(["orbital", "4", "--group", "full", "--lam", "3", "--ascii"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "(1/8)(x^4 - 2x^3 + 3x^2 - 2x)"
        assert lines[1] == "value at 3: 6"

    def test_json_carries_exact_value(self, capsys):
        code, out, _ = run(
            ["orbital", "5", "--group", "rotation", "--lam", "3", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == {"num": 6, "den": 1}
        assert poly_from_json_dict(data) == orbital_rotation_closed(5)

    def test_nonpositive_n_exits_2(self, capsys):
        code, _, err = run(["orbital", "0"], capsys)
        assert code == 2
        assert err

    def test_capacity_exit_4(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBICHROM_MAX_ORACLE_VERTICES", "4")
        code, _, err = run(["orbital", "5", "--method", "oracle", "--lam", "2"], capsys)
        assert code == 4
        assert "capped" in err

    @pytest.mark.parametrize("raw", ["0", "-1", "plenty"])
    def test_bad_oracle_cap_exits_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("ORBICHROM_MAX_ORACLE_VERTICES", raw)
        code, out, err = run(["orbital", "3", "--method", "oracle", "--lam", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "ORBICHROM_MAX_ORACLE_VERTICES" in err


class TestTableCommand:
    def test_text_rows(self, capsys):
        code, out, _ = run(["table", "2", "--max-n", "2", "--ascii"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(maxsplit=1) == ["1", "0"]
        assert lines[1].split(maxsplit=1) == ["2", "(1/2)(x^2 - x)"]

    def test_json_matches_closed_forms(self, capsys):
        code, out, _ = run(["table", "1", "--max-n", "10", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["table"] == 1
        assert len(data["rows"]) == 10
        for row in data["rows"]:
            assert poly_from_json_dict(row) == orbital_rotation_closed(row["n"])

    def test_csv_layout_and_padding(self, capsys):
        code, out, _ = run(["table", "2", "--max-n", "4", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "den"] + [f"c{i}" for i in range(5)]
        assert all(len(r) == 7 for r in rows)
        assert rows[1] == ["1", "1", "0", "0", "0", "0", "0"]
        assert rows[4] == ["4", "8", "0", "-2", "3", "-2", "1"]
        for r in rows[1:]:
            n, den, coeffs = int(r[0]), int(r[1]), [int(c) for c in r[2:]]
            expected_den, expected_coeffs = orbital_full_closed(n).to_den_coeffs()
            assert den == expected_den
            assert coeffs[: len(expected_coeffs)] == expected_coeffs
            assert all(c == 0 for c in coeffs[len(expected_coeffs):])

    def test_bad_max_n_exits_2(self, capsys):
        code, _, _ = run(["table", "1", "--max-n", "0"], capsys)
        assert code == 2


class TestVerifyCommand:
    def test_default_bounds_pass(self, capsys):
        code, out, _ = run(["verify", "--max-n", "6", "--max-lambda", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        names = [line.split(":")[0] for line in lines]
        assert names == sorted(names)
        assert len(lines) == 5
        assert all(": PASS" in line for line in lines)

    def test_zero_lambda_reports_vacuous_oracle_pass(self, capsys):
        code, out, _ = run(["verify", "--max-n", "4", "--max-lambda", "0"], capsys)
        assert code == 0
        oracle_line = [l for l in out.splitlines() if l.startswith("oracle-agreement")][0]
        assert "vacuous" in oracle_line

    def test_bad_bounds_exit_2(self, capsys):
        assert run(["verify", "--max-n", "0"], capsys)[0] == 2
        assert run(["verify", "--max-lambda", "-1"], capsys)[0] == 2


class TestFermatCommand:
    def test_prime_passes(self, capsys):
        code, out, _ = run(["fermat", "5", "--max-lambda", "10"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_verbose_prints_residues(self, capsys):
        code, out, _ = run(["fermat", "3", "--max-lambda", "2", "--verbose"], capsys)
        assert code == 0
        assert out.count("residue 0") == 3

    def test_composite_rejected_with_witness(self, capsys):
        code, _, err = run(["fermat", "9"], capsys)
        assert code == 2
        assert "9 = 3 * 3" in err

    def test_one_rejected(self, capsys):
        code, _, err = run(["fermat", "1"], capsys)
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["orbital", "8", "--group", "full"],
            ["table", "1", "--max-n", "8", "--format", "csv"],
            ["table", "2", "--max-n", "6", "--format", "json"],
            ["verify", "--max-n", "5", "--max-lambda", "2"],
        ],
    )
    def test_repeat_runs_are_byte_identical(self, argv, capsys):
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestOutputEdges:
    def test_reader_closing_early_is_a_quiet_exit(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "orbichrom.cli", "table", "1", "--max-n", "300"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        # The table is megabytes long, far more than a pipe buffers.
        assert proc.stdout.readline().split() == [b"1", b"0"]
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert code == EXIT_BROKEN_PIPE == 141
        assert err == b""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_integers_past_the_digit_limit_print_exactly(self, fmt, square_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "chromatic_polynomial", lambda g: RationalPoly([10**5000, 1]))
        limit = sys.get_int_max_str_digits()
        assert 0 < limit < 5000
        code, out, err = run(["chromatic", square_file, "--format", fmt, "--ascii"], capsys)
        big = "1" + "0" * 5000
        assert code == 0 and err == ""
        if fmt == "json":
            assert out == '{"den": 1, "coeffs": [' + big + ", 1]}\n"
        else:
            assert out == "x + " + big + "\n"
        assert sys.get_int_max_str_digits() == limit
