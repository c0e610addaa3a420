import hashlib
import json
import math
import time
import warnings

import pytest

from quasispec.cli import main, parse_config

# A primitive rule whose fixed point never grows.
ONE_LETTER_RULE = '{"alphabet": ["a"], "images": {"a": "a"}, "letter_values": {"a": 1}}'
# No image starts with its letter: the fixed point needs the square of the rule.
BA_AB_RULE = ('{"alphabet": ["a", "b"], "images": {"a": "ba", "b": "ab"}, '
              '"letter_values": {"a": 1, "b": -1}}')
# Not primitive: b never produces a.
NON_PRIMITIVE_RULE = ('{"alphabet": ["a", "b"], "images": {"a": "ab", "b": "b"}, '
                      '"letter_values": {"a": 1, "b": 0}}')
# An alphabet entry of two characters, which no image can contain.
TWO_CHARACTER_LETTER_RULE = ('{"alphabet": ["a", "bb"], "images": {"a": "a", "bb": "a"}, '
                             '"letter_values": {"a": 1, "bb": 0}}')

# Six letters with 40-letter images that start with their letter and end in
# a 6-cycle, so the fixed point's left seed needs the 6th power of the rule,
# whose images have 40^6 letters.
WIDE_IMAGE_RULE = json.dumps({
    "alphabet": list("abcdef"),
    "images": {x: x + ("abcdef" * 7)[i:i + 38] + "bcdefa"[i] for i, x in enumerate("abcdef")},
    "letter_values": {x: float(i) for i, x in enumerate("abcdef")}})
# 150 letters, each mapped to itself twice: not primitive.
DOUBLING_RULE = json.dumps({
    "alphabet": [chr(0x100 + i) for i in range(150)],
    "images": {chr(0x100 + i): 2 * chr(0x100 + i) for i in range(150)},
    "letter_values": {chr(0x100 + i): 1.0 for i in range(150)}})


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSchemas:
    def test_ids_csv(self, capsys):
        code, out, _ = run_cli(["ids", "--model", "free", "--size", "2000",
                                "--emin", "-3", "--emax", "3", "--grid", "601"],
                               capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,N"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 601
        mid = min(rows, key=lambda r: abs(float(r[0])))
        assert abs(float(mid[1]) - 0.5) <= 2e-3

    def test_spectrum_json(self, tmp_path, capsys):
        out_file = tmp_path / "s.json"
        code, _, _ = run_cli(["spectrum", "--model", "fibonacci", "--lambda", "2",
                              "--approx-q", "13", "--format", "json",
                              "--out", str(out_file)], capsys)
        assert code == 0
        data = json.loads(out_file.read_text())
        assert set(data) == {"period", "bands", "gap_labels"}
        assert data["period"] == 13
        assert len(data["bands"]) == 13
        assert len(data["gap_labels"]) == 12
        assert all(lo < hi for lo, hi in data["bands"])

    def test_butterfly_ordering(self, capsys):
        code, out, _ = run_cli(["butterfly", "--lambda", "2", "--qmax", "4",
                                "--omega", "0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,band_lo,band_hi"
        keys = []
        for line in lines[1:]:
            p, q, lo, hi = line.split(",")
            keys.append((int(q), int(p), float(lo)))
        assert keys == sorted(keys)

    def test_tracemap_invariant_column(self, capsys):
        code, out, _ = run_cli(["tracemap", "--model", "fibonacci", "--lambda",
                                "2", "--energy", "0", "--steps", "10"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,tau,invariant"
        for line in lines[1:]:
            _, _, inv = line.split(",")
            assert abs(float(inv) - 4.0) <= 1e-9

    def test_resistance_csv(self, capsys):
        code, out, _ = run_cli(["resistance", "--model", "fibonacci", "--lambda",
                                "1", "--energy", "0", "--lengths", "1:50",
                                "--leads", "pi-half"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L,log10R"
        assert len(lines) == 51

    def test_lyapunov_csv(self, capsys):
        code, out, _ = run_cli(["lyapunov", "--model", "almost-mathieu",
                                "--alpha", "0.6180339887", "--lambda", "3",
                                "--omega", "0", "--n", "2000", "--emin", "-5",
                                "--emax", "5", "--grid", "40"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,gamma"
        gammas = [float(line.split(",")[1]) for line in lines[1:]]
        # Strong coupling keeps the exponent at least ln(lambda/2) everywhere.
        assert min(gammas) >= math.log(1.5) - 0.05

    def test_lyapunov_fixed_point_beyond_a_million_sites(self, capsys):
        # F_31 = 2,178,309 sites of the Fibonacci chain, from O(log n) level
        # products rather than one product per site.
        start = time.perf_counter()
        code, out, _ = run_cli(["lyapunov", "--model", "fibonacci", "--lambda", "2",
                                "--n", "2178309", "--emin", "-3", "--emax", "4",
                                "--grid", "400"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,gamma"
        assert len(lines) == 401

    def test_lyapunov_shifted_beyond_a_million_sites(self, capsys):
        # The golden-mean Sturmian at omega 0.3 is a shifted factor window of
        # the Fibonacci fixed point: sampled and checked once, then O(log n)
        # level products per energy.
        start = time.perf_counter()
        code, out, _ = run_cli(["lyapunov", "--model", "fibonacci", "--lambda", "2",
                                "--omega", "0.3", "--n", "2178309", "--emin", "-3",
                                "--emax", "4", "--grid", "400"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,gamma"
        assert len(lines) == 401

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    def test_ids_fixed_point_beyond_a_million_sites(self, capsys, rounding):
        # 2,000,001 sites of the golden-mean Sturmian at omega 0, counted from
        # the lifted level products of its two-sided Fibonacci word.
        start = time.perf_counter()
        code, out, _ = run_cli(["ids", "--model", "fibonacci", "--lambda", "2", "--size",
                                "1000000", "--grid", "200", "--rounding", rounding], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "145516db4a912d6ffe126cd89f7cde8c6463105cf75d802ab158ebc2e222b1fd"

    def test_gaps_report(self, capsys):
        code, out, _ = run_cli(["gaps", "--model", "fibonacci", "--lambda", "4",
                                "--approx-q", "13", "--size", "1500",
                                "--labels", "k-over-q", "--tol", "0.002"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gap_index,energy,ids_value,label,deviation,within_tol"
        assert len(lines) == 13
        assert all(line.endswith(",1") for line in lines[1:])

    def test_cantor_labels(self, capsys):
        code, out, _ = run_cli(["cantor", "--what", "hierarchical", "--kmax", "2"],
                               capsys)
        assert code == 0
        assert out.strip().splitlines() == ["label", "0.125", "0.25", "0.375",
                                            "0.5", "0.625", "0.75", "0.875"]


# One small run per subcommand, and the JSON object laid out as the CSV rows
# (given the CSV column names).
AGREEMENT = {
    "spectrum": (["spectrum", "--model", "fibonacci", "--lambda", "2", "--approx-q", "13"],
                 lambda d, names: d["bands"]),
    "butterfly": (["butterfly", "--lambda", "2", "--qmax", "4", "--omega", "0.1"],
                  lambda d, names: [[r["p"], r["q"], *band] for r in d["rows"]
                                    for band in r["bands"]]),
    "ids": (["ids", "--model", "fibonacci", "--size", "60", "--grid", "11"],
            lambda d, names: list(zip(d["energies"], d["values"]))),
    "lyapunov": (["lyapunov", "--model", "almost-mathieu", "--lambda", "3", "--n", "300",
                  "--grid", "11"],
                 lambda d, names: list(zip(d["energies"], d["gamma"]))),
    "resistance": (["resistance", "--model", "fibonacci", "--lengths", "1:20"],
                   lambda d, names: d["profile"]),
    "tracemap": (["tracemap", "--model", "fibonacci", "--lambda", "2", "--energy", "0.3",
                  "--steps", "8"],
                 lambda d, names: [[r[k] for k in names] for r in d["rows"]
                                   if list(r) == names]),
    "gaps": (["gaps", "--model", "fibonacci", "--lambda", "4", "--approx-q", "13",
              "--size", "200", "--tol", "0.005"],
             lambda d, names: [[r[k] for k in names] for r in d["gaps"] if list(r) == names]),
    "cantor": (["cantor", "--what", "function", "--grid", "11"],
               lambda d, names: list(zip(d["x"], d["alpha"]))),
}
INT_COLUMNS = {"p", "q", "L", "n", "gap_index"}


@pytest.mark.parametrize("command", list(AGREEMENT))
def test_json_numbers_are_the_csv_cells(command, capsys):
    argv, as_rows = AGREEMENT[command]
    code, csv_out, _ = run_cli(argv, capsys)
    assert code == 0
    code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    header, *lines = csv_out.splitlines()
    names = header.split(",")
    csv_rows = [line.split(",") for line in lines]
    json_rows = as_rows(json.loads(json_out), names)
    assert len(json_rows) == len(csv_rows) > 0
    for j_row, c_row in zip(json_rows, csv_rows):
        assert len(j_row) == len(c_row) == len(names)
        for name, j, c in zip(names, j_row, c_row):
            if name == "within_tol":
                assert c in ("0", "1") and j is (c == "1")
            elif name in INT_COLUMNS:
                assert type(j) is int and str(j) == c
            else:
                assert type(j) is float and j == float(c)


class TestModelPlumbing:
    def test_substitution_spectrum_with_order(self, capsys):
        code, out, _ = run_cli(["spectrum", "--model", "period-doubling",
                                "--lambda", "1.5", "--order", "4",
                                "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["period"] == 16
        assert 1 <= len(data["bands"]) <= 16

    def test_letter_values_flag(self, capsys):
        code, out, _ = run_cli(["spectrum", "--model", "thue-morse",
                                "--letter-values", "a=1,b=-1", "--order", "3",
                                "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["period"] == 8
        # The two-valued +-1 chain is symmetric around zero energy.
        flat = [x for band in data["bands"] for x in band]
        assert max(flat) == pytest.approx(-min(flat), abs=1e-9)

    def test_custom_rule_file(self, tmp_path, capsys):
        rule = {"alphabet": ["a", "b"],
                "images": {"a": "ab", "b": "a"},
                "letter_values": {"a": 1.0, "b": 0.0}}
        rule_file = tmp_path / "rule.json"
        rule_file.write_text(json.dumps(rule))
        code, out, _ = run_cli(["spectrum", "--model", "substitution",
                                "--rule-file", str(rule_file), "--order", "3",
                                "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["period"] == 5

    def test_explicit_values_model(self, capsys):
        code, out, _ = run_cli(["spectrum", "--model", "explicit",
                                "--values", "0,2", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        sq5 = math.sqrt(5.0)
        assert data["bands"][0][0] == pytest.approx(1 - sq5, abs=1e-9)
        assert data["bands"][1][1] == pytest.approx(1 + sq5, abs=1e-9)
        assert data["gap_labels"] == [0.5]

    def test_bounded_spectrum_method(self, capsys):
        code, out, _ = run_cli(["spectrum", "--model", "fibonacci", "--lambda",
                                "2", "--method", "bounded", "--emin", "-3",
                                "--emax", "5", "--depth", "10", "--nmax", "25",
                                "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["gap_labels"] == []
        assert all(lo < hi for lo, hi in data["bands"])
        code, _, _ = run_cli(["spectrum", "--model", "free", "--method",
                              "bounded"], capsys)
        assert code == 2

    def test_rule_without_prolongable_letter(self, tmp_path, capsys):
        rule_file = tmp_path / "rule.json"
        rule_file.write_text(BA_AB_RULE)
        code, out, _ = run_cli(["spectrum", "--model", "substitution", "--rule-file",
                                str(rule_file), "--order", "4", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["period"] == 16

    def test_fibonacci_rule_file_runs_the_trace_map(self, tmp_path, capsys):
        rule = tmp_path / "fibonacci.json"
        rule.write_text('{"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}, '
                        '"letter_values": {"a": 2, "b": 0}}')
        argv = ["tracemap", "--energy", "0.3", "--steps", "12"]
        code, want, _ = run_cli(argv + ["--model", "fibonacci", "--lambda", "2"], capsys)
        assert code == 0
        code, got, _ = run_cli(argv + ["--model", "substitution", "--rule-file", str(rule)],
                               capsys)
        assert code == 0 and got == want

    @pytest.mark.parametrize("argv", [
        ["tracemap", "--model", "fibonacci", "--lambda", "2", "--energy", "0.3",
         "--steps", "3"],
        ["spectrum", "--model", "fibonacci", "--lambda", "2", "--method", "bounded",
         "--emin", "-3", "--emax", "5", "--depth", "6", "--nmax", "25"],
    ], ids=["tracemap", "bounded"])
    def test_the_trace_map_reads_the_phase_mod_1(self, argv, capsys):
        # The samplers reduce omega exactly with fmod, so 1 and -2 are phase 0.
        code, want, _ = run_cli(argv + ["--omega", "0"], capsys)
        assert code == 0 and want
        for omega in ("1", "-2"):
            assert run_cli(argv + ["--omega", omega], capsys)[:2] == (0, want)
        code, out, err = run_cli(argv + ["--omega", "0.5"], capsys)
        assert code == 2 and out == "" and "--omega 0" in err

    def test_json_outputs_parse(self, capsys):
        for argv in (["butterfly", "--lambda", "2", "--qmax", "3"],
                     ["ids", "--model", "free", "--size", "60", "--grid", "11"],
                     ["tracemap", "--model", "fibonacci", "--lambda", "1",
                      "--steps", "5"],
                     ["resistance", "--model", "free", "--lengths", "1,2,4"]):
            code, out, _ = run_cli(argv + ["--format", "json"], capsys)
            assert code == 0
            json.loads(out)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        argv = ["butterfly", "--lambda", "1.7", "--qmax", "5", "--omega", "0.1"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_thread_count_does_not_change_output(self, capsys):
        base = ["butterfly", "--lambda", "2", "--qmax", "6"]
        _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
        _, out4, _ = run_cli(base + ["--threads", "4"], capsys)
        assert out1 == out4

    def test_lyapunov_chunked_identical(self, capsys):
        base = ["lyapunov", "--model", "free", "--n", "500", "--grid", "64"]
        _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
        _, out2, _ = run_cli(base + ["--threads", "3"], capsys)
        assert out1 == out2


class TestConfigHandling:
    def test_dump_config_roundtrip(self, tmp_path, capsys):
        argv = ["ids", "--model", "free", "--size", "123", "--grid", "17",
                "--emin", "-2.5", "--emax", "2.5"]
        code, dump1, _ = run_cli(argv + ["--dump-config"], capsys)
        assert code == 0
        assert "threads = 1" in dump1.splitlines()
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(dump1)
        code, dump2, _ = run_cli(["ids", "--config", str(cfg_file),
                                  "--dump-config"], capsys)
        assert code == 0
        assert dump1 == dump2

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("size = 50\ngrid = 10\n")
        cfg = parse_config(["ids", "--config", str(cfg_file), "--size", "99"])
        assert cfg.size == 99
        assert cfg.grid == 10

    def test_config_equivalent_to_flags(self, capsys, tmp_path):
        argv = ["ids", "--model", "free", "--size", "80", "--grid", "21"]
        _, out_flags, _ = run_cli(argv, capsys)
        cfg_file = tmp_path / "run.cfg"
        code, dump, _ = run_cli(argv + ["--dump-config"], capsys)
        cfg_file.write_text(dump)
        _, out_cfg, _ = run_cli(["ids", "--config", str(cfg_file)], capsys)
        assert out_flags == out_cfg


class TestErrors:
    def test_unknown_flag_exits_2(self, capsys):
        code, out, err = run_cli(["ids", "--bogus", "1"], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["ids", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage:" in capsys.readouterr().out

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(["spectrum", "--model", "fibonacci",
                                "--lambda", "2"], capsys)
        assert code == 2
        assert "error" in err

    def test_io_error_exits_3(self, capsys):
        code, _, err = run_cli(["cantor", "--what", "hierarchical", "--kmax", "1",
                                "--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 3
        assert "i/o" in err

    @pytest.mark.parametrize("argv", [
        ["resistance", "--model", "fibonacci", "--lengths", "10:1"],
        ["spectrum", "--model", "explicit", "--values", "1,nan", "--format", "json"],
        ["cantor", "--what", "function", "--grid", "-5"],
        ["spectrum", "--model", "fibonacci", "--lambda", "nan", "--approx-q", "13",
         "--format", "json"],
        ["lyapunov", "--model", "free", "--emin", "nan", "--grid", "3", "--format", "json"],
        ["butterfly", "--omega", "abc"],
        ["butterfly", "--format", "xml"],
        ["spectrum", "--config", "omega = abc\n"],
        ["spectrum", "--config", "method = nonsense\n"],
        ["spectrum", "--config", "format = xml\n"],
        ["resistance", "--lengths", "foo"],
        ["resistance", "--lengths", "1:10:0"],
        ["resistance", "--lengths", "1:2:3:4"],
        ["spectrum", "--model", "explicit", "--values", "1,abc"],
        ["lyapunov", "--model", "sturmian", "--alpha", "foo"],
        ["spectrum", "--model", "thue-morse", "--letter-values", "a", "--order", "3"],
        ["spectrum", "--model", "thue-morse", "--order", "40"],
        ["spectrum", "--model", "substitution", "--rule-file", "{not json", "--order", "3"],
        ["spectrum", "--model", "substitution", "--rule-file", '{"alphabet": ["a"]}',
         "--order", "3"],
        ["spectrum", "--model", "fibonacci", "--approx-q", "1000000000"],
        ["lyapunov", "--n", "10000000000"],
        ["resistance", "--lengths", "1:10000000000"],
        ["ids", "--size"],
        [],
        ["lyapunov", "--model", "fibonacci", "--n", "10000000000"],
        ["ids", "--model", "substitution", "--rule-file", ONE_LETTER_RULE],
        ["resistance", "--model", "substitution", "--rule-file", ONE_LETTER_RULE],
        ["spectrum", "--model", "fibonacci", "--lambda", "2", "--method", "bounded",
         "--depth", "2000"],
        ["spectrum", "--model", "bogus", "--approx-q", "13"],
        ["resistance", "--leads", "bogus"],
        ["gaps", "--model", "fibonacci", "--approx-q", "13", "--labels", "bogus"],
        ["cantor", "--what", "bogus"],
        ["ids", "--config", "leads = bogus\n"],
        ["spectrum", "--model", "substitution", "--rule-file", TWO_CHARACTER_LETTER_RULE,
         "--order", "3"],
        ["tracemap", "--model", "sturmian", "--alpha", "0.3", "--lambda", "2", "--energy",
         "0.5", "--steps", "4"],
        ["spectrum", "--model", "fibonacci", "--omega", "0.4", "--method", "bounded"],
        ["tracemap", "--model", "fibonacci", "--omega", "0.4"],
        ["tracemap", "--model", "sturmian", "--omega", "1.5", "--rounding", "ceil"],
        ["tracemap", "--model", "fibonacci", "--steps", "100000"],
        ["ids", "--model", "free", "--alpha", "foo", "--grid", "3", "--size", "5"],
        ["ids", "--model", "free", "--values", "abc", "--letter-values", "zzz"],
        ["ids", "--model", "free", "--letter-values", "zzz"],
        ["ids", "--model", "free", "--lengths", "10:1"],
        ["ids", "--config", "alpha = foo\n"],
        ["spectrum", "--model", "substitution", "--rule-file", NON_PRIMITIVE_RULE,
         "--order", "3"],
        ["spectrum", "--model", "fibonacci", "--lambda", "2", "--approx-q", "100000"],
        ["spectrum", "--model", "thue-morse", "--order", "19"],
        ["butterfly", "--lambda", "2", "--qmax", "1000"],
        ["cantor", "--what", "hierarchical", "--kmax", "40"],
        ["gaps", "--model", "fibonacci", "--approx-q", "13", "--labels", "sturmian",
         "--kmax", "1000000000"],
        ["ids", "--grid", "1000000000"],
        ["lyapunov", "--grid", "1000000000"],
        ["cantor", "--what", "fourier", "--grid", "1000000000"],
        ["lyapunov", "--model", "free", "--n", "10", "--grid", "5", "--emin", "-1e308",
         "--emax", "1e308"],
        ["ids", "--model", "free", "--n", "10", "--grid", "5", "--emin", "-1e308",
         "--emax", "1e308"],
        ["cantor", "--what", "function", "--grid", "5", "--xmin", "-1e308", "--xmax", "1e308"],
        ["spectrum", "--model", "fibonacci", "--method", "bounded", "--emin", "-1e308",
         "--emax", "1e308", "--depth", "3"],
        ["resistance", "--model", "constant", "--value", "1e308", "--energy", "-1e308",
         "--lengths", "1:3", "--format", "json"],
        ["lyapunov", "--model", "constant", "--value", "1e308", "--emin", "-1e308",
         "--emax", "-1e307", "--grid", "2", "--n", "3"],
        ["spectrum", "--model", "explicit", "--values", "-1e308,-9e307,1e308"],
        ["resistance", "--model", "fibonacci", "--lengths", "3:1:-1"],
        ["resistance", "--model", "fibonacci", "--lengths", "5:3:-1"],
        ["resistance", "--model", "fibonacci", "--lengths", "3:1:-2"],
        ["resistance", "--model", "fibonacci", "--lengths", "1:5:-1"],
    ])
    def test_bad_input_exits_2_with_one_error_line(self, argv, tmp_path, capsys):
        for flag in ("--config", "--rule-file"):
            if flag in argv:  # the argument after the flag is the file's text
                i = argv.index(flag) + 1
                path = tmp_path / flag.lstrip("-")
                path.write_text(argv[i])
                argv = argv[:i] + [str(path)] + argv[i + 1:]
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("token", ["-1", "-1e3", "-.5"])
    def test_negative_first_token_is_an_invalid_command(self, token, capsys):
        code, out, err = run_cli([token], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: argument command: invalid choice: '{token}' (choose from "
            "'spectrum', 'butterfly', 'ids', 'lyapunov', 'resistance', 'tracemap', 'gaps', "
            "'cantor')"]

    def test_unreadable_input_exits_3_with_one_line(self, tmp_path, capsys):
        for argv in (["ids", "--config", str(tmp_path / "missing.cfg")],
                     ["spectrum", "--model", "substitution", "--rule-file",
                      str(tmp_path / "missing.json"), "--order", "3"]):
            code, out, err = run_cli(argv, capsys)
            assert code == 3
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("i/o error:")

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nonsense = 3\n")
        code, _, err = run_cli(["ids", "--config", str(cfg_file)], capsys)
        assert code == 2


@pytest.mark.parametrize("rule, want", [(WIDE_IMAGE_RULE, 0), (DOUBLING_RULE, 2)],
                         ids=["wide-images", "150-letters"])
@pytest.mark.parametrize("argv", [["lyapunov", "--n", "100"], ["ids", "--size", "100"],
                                  ["resistance", "--lengths", "1:100"],
                                  ["spectrum", "--order", "1"]])
def test_rule_files_end_within_the_budget(rule, want, argv, tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(rule)
    start = time.perf_counter()
    code, _, err = run_cli(argv + ["--model", "substitution", "--rule-file", str(path)],
                           capsys)
    assert time.perf_counter() - start < 2.0
    assert code == want and len(err.splitlines()) == (1 if want else 0)


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--emin", "-1e-3"],
    ["spectrum", "--model", "explicit", "--values", "-2.5,0.5"],
    ["spectrum", "--model", "constant", "--value", "-1e308"],
    ["cantor", "--xmin", "-.5"],
])
def test_negative_values_parse_like_the_equals_spelling(argv):
    *head, flag, value = argv
    assert parse_config(argv) == parse_config([*head, f"{flag}={value}"])


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "constant", "--value", "1e308"],
    ["spectrum", "--model", "explicit", "--values", "1e308,-1e308"],
    ["butterfly", "--lambda", "1e308", "--qmax", "2"],
    ["spectrum", "--model", "almost-mathieu", "--lambda", "1e308", "--approx-q", "5"],
])
def test_band_edges_near_the_float_limit_stay_finite(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err == "" and not caught, [str(w.message) for w in caught]
    cells = [x for line in out.splitlines()[1:] for x in line.split(",")]
    assert cells and all(math.isfinite(float(x)) for x in cells)
