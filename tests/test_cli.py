"""CLI behavior: parsing, exit codes, file formats, config merging."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

import kawasaki_dpp.cli as cli
from kawasaki_dpp import dynamics
from kawasaki_dpp.cli import main
from kawasaki_dpp.dpp import sample
from kawasaki_dpp.kernel import AdmissiblePair, kernel_matrix
from kawasaki_dpp.rng import SeededRng
from kawasaki_dpp.util import format_complex, parse_complex, parse_window_spec
from kawasaki_dpp.verification import Check, Report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("1.5") == 1.5 + 0j
        assert parse_complex("0.3+0.4i") == 0.3 + 0.4j
        assert parse_complex("0.3-0.4i") == 0.3 - 0.4j
        assert parse_complex("-1.25-2i") == -1.25 - 2j
        with pytest.raises(ValueError):
            parse_complex("nonsense")
        for text in ("nan", "1e400", "-1e400", "1.5+nani", "0.3-1e400i", "inf", "-inf", "+inf",
                     "1+infi", "-infi", "infi", "inf+1i", "nan-infi"):
            with pytest.raises(ValueError, match="is not finite$"):
                parse_complex(text)

    def test_format_complex_roundtrip(self):
        for value in (1.5 + 0j, 0.3 + 0.4j, -2.0 - 0.125j):
            assert parse_complex(format_complex(value)) == value

    def test_parse_window(self):
        w = parse_window_spec("-4..4")
        assert (w.lo.index, w.hi.index) == (-4, 4)
        assert w.size == 9
        assert w.lo.value == -3.5 and w.hi.value == 4.5
        with pytest.raises(ValueError):
            parse_window_spec("4..-4")
        with pytest.raises(ValueError):
            parse_window_spec("1-3")


class TestAdmissibleCommand:
    def test_true(self, capsys):
        code, out, _ = run(capsys, "admissible", "--z", "1.5", "--zp", "1.7")
        assert code == 0
        assert out.strip() == "true"

    def test_false(self, capsys):
        code, out, _ = run(capsys, "admissible", "--z", "0.5", "--zp", "1.5")
        assert code == 0
        assert out.strip() == "false"

    def test_conjugate(self, capsys):
        code, out, _ = run(capsys, "admissible", "--z", "0.3+0.4i", "--zp", "0.3-0.4i")
        assert code == 0
        assert out.strip() == "true"

    def test_equal_parameters_hint(self, capsys):
        code, out, err = run(capsys, "admissible", "--z", "1.5", "--zp", "1.5")
        assert code == 0
        assert out.strip() == "false"
        assert "1e-6" in err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "admissible", "--bogus", "1")
        assert code == 1
        assert "usage error" in err

    def test_bad_window_value(self, capsys):
        code, _, err = run(capsys, "kernel", "--z", "1.5", "--zp", "1.7",
                           "--window", "oops")
        assert code == 1
        assert "--window" in err

    def test_inadmissible_pair_is_usage_error(self, capsys):
        code, _, err = run(capsys, "kernel", "--z", "0.5", "--zp", "1.5")
        assert code == 1
        assert "--z" in err

    @pytest.mark.parametrize("argv,flag", [
        (("admissible", "--z", "nan", "--zp", "1.7"), "--z"),
        (("admissible", "--z", "1.5", "--zp=-1e400"), "--zp"),
        (("kernel", "--z", "1e400", "--zp", "1.7", "--window", "0..3"), "--z"),
        (("kernel", "--z", "nan", "--window", "0..3"), "--z"),
        (("kernel", "--z", "0.3+0.4i", "--zp", "0.3-1e400i", "--window", "0..3"), "--zp"),
        (("admissible", "--z", "inf", "--zp", "1.7"), "--z"),
        (("admissible", "--z", "1.5", "--zp=-inf"), "--zp"),
        (("admissible", "--z", "1+infi", "--zp", "1-infi"), "--z"),
        (("kernel", "--z", "0.3+0.4i", "--zp", "0.3-infi", "--window", "0..3"), "--zp"),
    ])
    def test_non_finite_parameter_is_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {flag}: complex literal ")
        assert err.endswith(" is not finite\n") and err.count("\n") == 1

    def test_numeric_failure_is_exit_2(self, capsys):
        # enumeration cap exceeded inside the library layer
        code, _, err = run(capsys, "exact-probs", "--z", "1.5", "--zp", "1.7",
                           "--window", "0..24")
        assert code == 2
        assert "error" in err

    def test_generator_past_its_state_cap_is_exit_2(self, capsys, tmp_path):
        # 18 sites, sector 9: 48 620 states, refused before any is listed
        code, out, err = run(capsys, "spectrum", "--window", "-9..8", "--sector", "9",
                             "--output-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: generator capped at 4096 states, got 48620\n"

    def test_non_finite_generator_rate_is_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "spectrum", "--model", "glauber-like", "--weight", "1e308",
                             "--window", "-3..2", "--sector", "3", "--output-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: configuration 111000 has total jump rate inf\n"

    def test_ill_conditioned_start_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--window", "-14..13",
                           "--output-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: configuration 0101") and " is ill-conditioned: " in err

    def test_verify_all_reports_a_suite_that_raises(self, capsys):
        # The dynamics and exact suites raise on -40..-20; under all each is one failed check.
        code, out, _ = run(capsys, "verify", "--suite", "all", "--window", "-40..-20")
        report = json.loads(out)
        assert (code, report["suite"], report["failures"]) == (2, "all", 2)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["dynamics_error", "exact_error"]
        code, out, err = run(capsys, "verify", "--suite", "dynamics", "--window", "-40..-20")
        assert (code, out) == (2, "")
        assert err.startswith("error: configuration 1111100000 is ill-conditioned: ")
        # the all report carries the text the suite alone prints
        assert f"error: {failed[0]['message']}\n" == err
        assert all("message" not in c for c in report["checks"] if c["passed"])

    @pytest.mark.parametrize("window", ["-7..6", "-10..9"])
    def test_alternating_start_passes_the_condition_guard(self, capsys, tmp_path, window):
        code, _, err = run(capsys, "simulate", "--window", window, "--output-dir", str(tmp_path))
        assert code == 0
        worst = json.loads(err.splitlines()[-1])["worst_condition"]
        assert 0.0 < worst * 1.5e-14 <= 1e-2

    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    @pytest.mark.parametrize("argv, option", [
        (["sample", "--seed", "-1"], "--seed"),
        (["rn", "--pattern", "10", "--pattern-window", "-1..0", "--swap", "-1,0",
          "--sizes", "8,x"], "--sizes"),
        (["spectrum", "--sector", "x"], "--sector"),
        (["spectrum", "--window", "-4..3", "--sector", "99"], "--sector"),
        (["simulate", "--proximity", "exp:abc"], "--proximity"),
        (["simulate", "--proximity", "exp:-1"], "--proximity"),
        (["simulate", "--proximity", "range:0"], "--proximity"),
        (["simulate", "--weight", "-1"], "--weight"),
        (["simulate", "--window", "-2..1", "--initial", "0120"], "--initial"),
        (["simulate", "--weight", "inf"], "--weight"),
        (["simulate", "--t-max", "inf"], "--t-max"),
        (["simulate", "--proximity", "exp:nan"], "--proximity"),
        (["rn", "--pattern", "10", "--pattern-window", "-1..0", "--swap", "-1,0",
          "--sizes", ""], "--sizes"),
        (["rn", "--pattern", "10", "--pattern-window", "-1..0", "--swap", "-1,0",
          "--sizes", "8,0"], "--sizes"),
        (["verify", "--suite", "bogus"], "--suite"),
    ])
    def test_malformed_value_is_usage_error(self, capsys, tmp_path, argv, option):
        code, out, err = run(capsys, *argv, "--output-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"usage error: {option}: ")

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--proximity", "bogus"],
         "--proximity: expected 'nn', 'exp:ALPHA' or 'range:R', got 'bogus'"),
        (["rn", "--pattern", "10", "--pattern-window", "-1..0", "--swap", "1"],
         "--swap: expected 'i,j' site indices (e.g. -1,0), got '1'"),
        (["rn", "--pattern", "101", "--pattern-window", "-1..0", "--swap", "-1,0"],
         "--pattern: must be 2 characters of 0/1 for window [-0.5..0.5], got '101'"),
        (["sample", "--seed", "18446744073709551616"],
         "--seed: must be in [0, 2**64), got '18446744073709551616'"),
    ])
    def test_usage_error_message(self, capsys, tmp_path, argv, message):
        code, out, err = run(capsys, *argv, "--output-dir", str(tmp_path))
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv, expected", [
        (["kernel", "--z", "1.5+120i", "--zp", "1.5-120i"], 0),
        (["kernel", "--z", "0.5+1e300i", "--zp", "0.5-1e300i"], 0),
        (["kernel", "--z", "0.3+1e-310i", "--zp", "0.3-1e-310i", "--window", "-3..3"], 2),
        (["verify", "--suite", "kernel", "--z", "0.5+2000i", "--zp", "0.5-2000i"], 2),
        (["verify", "--suite", "kernel", "--z", "0.3+10i", "--zp", "0.3-10i", "--window", "-4..4"],
         0),
        (["verify", "--suite", "dpp", "--z", "0.3+10i", "--zp", "0.3-10i", "--window", "-4..4",
          "--seed", "7"], 0),
        (["kernel", "--z", "0.5", "--zp", "0.5"], 1),
        (["sample", "--seed", "18446744073709551616"], 1),
        (["sample", "--window", "-5000..5000"], 2),
        (["simulate", "--proximity", "range:1.5"], 1),
        (["rn", "--pattern", "10", "--pattern-window", "-1..0", "--swap", "-1,-1"], 1),
        (["rn", "--pattern", "10", "--pattern-window", "-1..0", "--swap", "5,6",
          "--sizes", "4"], 2),
        (["exact-probs", "--window", "-10..10"], 2),
        (["admissible", "--z", "1e400"], 1),
        (["kernel", "--window", "4503599627370496..4503599627370499"], 2),
        (["kernel", "--z", "5e-324", "--zp", "0.38", "--window", "-1..3"], 2),
        (["kernel", "--z", "1+1e-200i", "--zp", "1-1e-200i", "--window", "-3..3"], 2),
        (["sample", "--window", "-2..1", "--n-samples", "1000000000"], 2),
        (["sample", "--window", "-1024..1023", "--n-samples", "32768"], 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_edge_argv_keeps_the_exit_contract(self, capsys, tmp_path, monkeypatch,
                                               argv, expected):
        # 0 with the echo as the last stderr line, or one line: 'usage error:' (1), 'error:' (2)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        lines = err.splitlines()
        assert code == expected
        if code == 0:
            assert json.loads(lines[-1])["command"] == argv[0]
        else:
            assert len(lines) == 1
            assert lines[0].startswith("usage error: " if code == 1 else "error: ")

    def test_ab_values_cap_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "verify", "--suite", "kernel", "--z", "0.5+2000i",
                             "--zp", "0.5-2000i")
        assert (code, out) == (2, "")
        assert err == ("error: |Im z| = 2000 exceeds 1000: the phases of Gamma(z + x + 1/2) "
                       "have lost their digits\n")

    def test_simulate_event_cap_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        # Without a cap this run's event lists grow until memory runs out.
        monkeypatch.setattr(dynamics, "_MAX_EVENTS", 1024)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "simulate", "--window", "-2..1", "--t-max", "1e308")
        assert (code, out) == (2, "")
        assert err == "error: simulate reached its cap of 1024 events before t_max = 1e+308\n"
        assert not list(tmp_path.rglob("*.csv"))


class TestParserBuiltOnce:
    def test_usage_error_then_valid_command_as_in_fresh_processes(self, capsys, tmp_path,
                                                                  run_python):
        # One parser serves every main call of a process; an error leaves it unchanged.
        assert cli._build_parser() is cli._build_parser()
        argvs = [["verify", "--suite", "bogus"],
                 ["admissible", "--z", "0.3+0.4i", "--zp", "0.3-0.4i"],
                 ["simulate", "--window", "-2..1", "--weight", "0"]]

        def without_timestamp(stderr: str) -> list:
            return [{**json.loads(line), "timestamp": None} if line.startswith("{") else line
                    for line in stderr.splitlines()]

        for argv in argvs:
            code, out, err = run(capsys, *argv)
            fresh = run_python(["-m", "kawasaki_dpp", *argv], tmp_path)
            assert (code, out) == (fresh.returncode, fresh.stdout)
            assert without_timestamp(err) == without_timestamp(fresh.stderr)


def test_sample_bytes_do_not_depend_on_blas_threads(tmp_path, run_python):
    # 200 sites: each draw's pass updates its trailing blocks by BLAS products
    samples = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads_{threads}"
        run_dir.mkdir()
        proc = run_python(["-m", "kawasaki_dpp", "sample", "--window", "-100..99",
                           "--n-samples", "3", "--out", "samples.csv"], run_dir,
                          OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        samples.append((run_dir / "samples.csv").read_bytes())
    assert samples[0] == samples[1]
    assert len(samples[0].splitlines()) == 4


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path, run_python):
    # 40 sites: every rate table the two replicas build is a 40-by-40 LAPACK inverse
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads_{threads}"
        proc = run_python(["-m", "kawasaki_dpp", "simulate", "--window", "-20..19",
                           "--initial", "dpp", "--t-max", "60", "--seed", "3",
                           "--proximity", "range:4", "--model", "sqrt-ratio", "--replicas", "2",
                           "--output-dir", str(run_dir)], tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append({path.name: path.read_bytes() for path in run_dir.iterdir()})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["trajectory_000.csv", "trajectory_000.json",
                                  "trajectory_001.csv", "trajectory_001.json"]
    assert [len(outputs[0][f"trajectory_00{i}.csv"].splitlines()) for i in (0, 1)] == [896, 878]


class TestOneSiteVerify:
    # One site holds every check but the rn suite's, which swaps two sites.
    @pytest.mark.parametrize("suite", ["kernel", "dpp", "dynamics", "exact"])
    def test_suite_runs(self, capsys, tmp_path, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--window", "0..0", "--seed", "1",
                           "--output-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["failures"] == 0

    @pytest.mark.parametrize("suite", ["rn", "all"])
    def test_rn_needs_two_sites(self, capsys, tmp_path, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--window", "0..0", "--seed", "1",
                             "--output-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == "usage error: --window: the rn suite needs at least 2 sites, got 1\n"


class TestArtifacts:
    def test_kernel_csv(self, capsys, tmp_path):
        out = tmp_path / "k.csv"
        code, stdout, stderr = run(capsys, "kernel", "--z", "1.5", "--zp", "1.7",
                                   "--window", "-2..1", "--out", str(out))
        assert code == 0
        assert stdout.strip() == str(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x\\y,-1.5,-0.5,0.5,1.5"
        assert len(lines) == 5
        echo = json.loads(stderr.splitlines()[-1])
        assert echo["command"] == "kernel"
        assert echo["z"] == "1.5"
        assert "timestamp" in echo

    def test_out_creates_its_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["kernel", "--window", "-2..1", "--out"]
        assert run(capsys, *argv, "a/b/k.csv")[0] == 0
        assert run(capsys, *argv, "k.csv")[0] == 0
        assert Path("a/b/k.csv").read_bytes() == Path("k.csv").read_bytes()
        assert run(capsys, "verify", "--suite", "kernel", "--out", "a/r.json")[0] == 0
        assert json.loads(Path("a/r.json").read_text())["suite"] == "kernel"

    def test_sample_reproducible_bytes(self, capsys, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run(capsys, "sample", "--z", "1.5", "--zp", "1.7",
                             "--window", "-3..2", "--seed", "11",
                             "--n-samples", "200", "--out", str(out))
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_exact_probs_csv(self, capsys, tmp_path):
        out = tmp_path / "pmf.csv"
        code, _, _ = run(capsys, "exact-probs", "--z", "0.3+0.4i", "--zp", "0.3-0.4i",
                         "--window", "-2..1", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bitmask,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_simulate_replicas(self, capsys, tmp_path):
        code, stdout, stderr = run(
            capsys, "simulate", "--z", "1.5", "--zp", "1.7", "--window", "-3..2",
            "--t-max", "5", "--seed", "4", "--replicas", "2",
            "--output-dir", str(tmp_path))
        assert code == 0
        echo = json.loads(stderr.splitlines()[-1])
        assert echo["workers"] == 1
        for stream in (0, 1):
            csv_path = tmp_path / f"trajectory_{stream:03d}.csv"
            sidecar = json.loads((tmp_path / f"trajectory_{stream:03d}.json").read_text())
            assert csv_path.read_text().startswith("time,x,y")
            assert sidecar["stream"] == stream
            assert sidecar["seed"] == 4
        a = (tmp_path / "trajectory_000.csv").read_text()
        b = (tmp_path / "trajectory_001.csv").read_text()
        assert a != b  # distinct streams

    # 10 sites draw from the kernel's law table, 14 sites by the Schur pass
    @pytest.mark.parametrize("span", ["-5..4", "-7..6"])
    def test_simulate_dpp_start_takes_the_stream_after_the_replicas(self, capsys, tmp_path, span):
        code, _, _ = run(capsys, "simulate", "--window", span, "--initial", "dpp",
                         "--replicas", "2", "--t-max", "1", "--seed", "9",
                         "--output-dir", str(tmp_path))
        assert code == 0
        k = kernel_matrix(AdmissiblePair(1.5, 1.7), parse_window_spec(span))
        want = sample(k, SeededRng(9, 2)).bitmask
        for stream in (0, 1):
            sidecar = json.loads((tmp_path / f"trajectory_{stream:03d}.json").read_text())
            assert sidecar["initial_bitmask"] == want

    def test_simulate_starts_from_a_bit_string(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--window", "-2..1", "--initial", "0110",
                         "--t-max", "1", "--output-dir", str(tmp_path))
        assert code == 0
        assert json.loads((tmp_path / "trajectory_000.json").read_text())["initial_bitmask"] == 0b0110

    @pytest.mark.parametrize("spec, label", [("exp:0.5", "exp(alpha=0.5, weight=1)"),
                                             ("range:3", "range(reach=3, weight=1)")])
    def test_echo_labels_the_proximity(self, capsys, tmp_path, spec, label):
        code, _, stderr = run(capsys, "simulate", "--window", "-2..1", "--proximity", spec,
                              "--t-max", "1", "--output-dir", str(tmp_path))
        assert code == 0
        assert json.loads(stderr.splitlines()[-1])["proximity"] == label

    def test_spectrum_json(self, capsys, tmp_path):
        out = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "--z", "1.5", "--zp", "1.7",
                         "--window", "-3..2", "--sector", "3", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["window"] == "-3..2"
        assert payload["sector"] == 3
        assert payload["model"] == "metropolis"
        assert payload["spectral_gap"] == pytest.approx(1.0763065511689107, rel=1e-9)
        assert abs(payload["eigenvalues"][0]) < 1e-10

    def test_rn_stabilization(self, capsys, tmp_path):
        out = tmp_path / "stab.csv"
        code, _, stderr = run(capsys, "rn", "--z", "1.5", "--zp", "1.7",
                              "--pattern", "00", "--pattern-window", "3..4",
                              "--swap", "3,4", "--sizes", "8,10", "--seed", "2",
                              "--n-samples", "10", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "window_size,phi_mean,phi_std,n_samples"
        assert len(lines) == 3
        echo = json.loads(stderr.splitlines()[-1])
        assert "deltas" in echo

    @pytest.mark.parametrize("extra, used", [([], 100), (["--n-samples", "30"], 30)])
    def test_rn_echo_reports_samples_used(self, capsys, tmp_path, extra, used):
        out = tmp_path / "stab.csv"
        code, _, stderr = run(capsys, "rn", "--pattern", "00", "--pattern-window", "3..4",
                              "--swap", "3,4", "--sizes", "8,10", *extra, "--out", str(out))
        assert code == 0
        echo = json.loads(stderr.splitlines()[-1])
        column = {int(line.split(",")[3]) for line in out.read_text().splitlines()[1:]}
        assert column == {echo["n_samples"]} == {used}

    def test_rn_requires_pattern_window(self, capsys):
        code, _, err = run(capsys, "rn", "--z", "1.5", "--zp", "1.7", "--swap", "0,1")
        assert code == 1
        assert "--pattern-window" in err


class TestConfigFile:
    def test_flags_win_over_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("z = 1.5\nzp = 1.7\nwindow = -2..1\nseed = 5\n# comment\n")
        out = tmp_path / "k.csv"
        code, _, stderr = run(capsys, "kernel", "--config", str(config),
                              "--window", "-1..1", "--out", str(out))
        assert code == 0
        echo = json.loads(stderr.splitlines()[-1])
        assert echo["window"] == "-1..1"   # flag beat the file
        assert echo["seed"] == 5           # file beat the default

    def test_config_before_the_subcommand(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("window = -1..1\nseed = 5\n")
        code, _, stderr = run(capsys, "--config", str(config), "kernel",
                              "--out", str(tmp_path / "k.csv"))
        assert code == 0
        echo = json.loads(stderr.splitlines()[-1])
        assert (echo["window"], echo["seed"]) == ("-1..1", 5)

    def test_subcommand_config_wins_over_the_one_before_it(self, capsys, tmp_path):
        before, after = tmp_path / "before.cfg", tmp_path / "after.cfg"
        before.write_text("window = -2..1\n")
        after.write_text("window = -1..1\n")
        code, _, stderr = run(capsys, "--config", str(before), "kernel", "--config", str(after),
                              "--out", str(tmp_path / "k.csv"))
        assert code == 0
        assert json.loads(stderr.splitlines()[-1])["window"] == "-1..1"

    def test_unknown_model_in_config_is_usage_error_for_every_command(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("model = nonsense\n")
        code, out, err = run(capsys, "kernel", "--config", str(config),
                             "--out", str(tmp_path / "k.csv"))
        assert (code, out) == (1, "")
        assert err.startswith("usage error: --model: ")
        assert len(err.splitlines()) == 1
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text, used", [("", 100), ("n_samples = 7\n", 7)],
                             ids=["default", "file"])
    def test_rn_n_samples_from_its_default_or_the_file(self, capsys, tmp_path, text, used):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        code, _, stderr = run(capsys, "rn", "--config", str(config), "--pattern", "00",
                              "--pattern-window", "3..4", "--swap", "3,4", "--sizes", "8",
                              "--out", str(tmp_path / "stab.csv"))
        assert code == 0
        assert json.loads(stderr.splitlines()[-1])["n_samples"] == used

    @pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_is_usage_error(self, capsys, tmp_path, name):
        code, out, err = run(capsys, "kernel", "--config", str(tmp_path / name))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: --config: ")
        assert len(err.splitlines()) == 1

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("zoom = 4\n")
        code, _, err = run(capsys, "kernel", "--config", str(config))
        assert code == 1
        assert "zoom" in err

    def test_config_line_without_equals_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("z = 1.5\nwindow -2..1\n")
        code, out, err = run(capsys, "kernel", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == f"usage error: {config}:2: expected 'key = value', got 'window -2..1'\n"

    def test_unknown_suite_in_config_is_usage_error(self, capsys, tmp_path):
        # the flag's check holds for a value from the file too
        config = tmp_path / "run.cfg"
        config.write_text("suite = bogus\n")
        code, out, err = run(capsys, "verify", "--config", str(config), "--window", "-2..2")
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: --suite: ")
        assert "bogus" in err and len(err.splitlines()) == 1


class TestVerifyCommand:
    def test_kernel_suite_passes(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "verify", "--suite", "kernel", "--z", "1.5",
                              "--zp", "1.7", "--window", "-4..4", "--seed", "7",
                              "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "kernel"
        assert report["failures"] == 0
        assert all(set(c) == {"name", "passed", "value", "tolerance"}
                   for c in report["checks"])
        assert json.loads(stdout)["failures"] == 0

    def test_failures_exit_2(self, capsys, monkeypatch):
        failing = Report("kernel", (Check("synthetic", False, 1.0, 0.5),))
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: failing)
        code, stdout, _ = run(capsys, "verify", "--suite", "kernel",
                              "--z", "1.5", "--zp", "1.7")
        assert code == 2
        assert json.loads(stdout)["failures"] == 1


_RUN_KEYS = ["command", "z", "z_prime", "window", "rate_model", "proximity", "t_max", "seed",
             "n_samples", "output_dir"]

_ECHO_CASES = [
    (["admissible"], ["command", "z", "z_prime", "admissible"]),
    (["kernel", "--window", "-2..1"], _RUN_KEYS + ["out"]),
    (["sample", "--window", "-2..1", "--n-samples", "5"], _RUN_KEYS + ["out"]),
    (["exact-probs", "--window", "-2..1"], _RUN_KEYS + ["out"]),
    (["rn", "--pattern", "00", "--pattern-window", "3..4", "--swap", "3,4", "--sizes", "8,10",
      "--n-samples", "5"], _RUN_KEYS + ["out", "deltas"]),
    (["simulate", "--window", "-2..1", "--t-max", "1"],
     _RUN_KEYS + ["replicas", "workers", "n_events", "rate_table_misses", "worst_condition"]),
    (["spectrum", "--window", "-2..1"], _RUN_KEYS + ["out", "spectral_gap"]),
    (["verify", "--suite", "kernel"], _RUN_KEYS + ["suite", "failures"]),
]


@pytest.mark.parametrize("argv, keys", _ECHO_CASES, ids=[argv[0] for argv, _ in _ECHO_CASES])
def test_echo_keys_are_frozen(capsys, tmp_path, monkeypatch, argv, keys):
    """Each subcommand's echo keys, in order; new keys may be added, none renamed."""
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run(capsys, *argv)
    assert code == 0
    assert list(json.loads(stderr.splitlines()[-1])) == keys + ["timestamp"]


def _readme_commands() -> list[tuple[list[str], str]]:
    """Each command of README's "Command line" block, with its ``# -> output`` if any."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "kawasaki-dpp"
        commands.append((argv[1:], comment.replace("->", "").strip()))
    return commands


_README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv, expected", _README_COMMANDS,
                         ids=[argv[0] for argv, _ in _README_COMMANDS])
def test_readme_command(capsys, tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if expected:
        assert out.strip() == expected
    elif argv[0] == "verify":
        assert json.loads(out)["failures"] == 0
    else:
        assert out.split() and all(Path(path).exists() for path in out.split())
